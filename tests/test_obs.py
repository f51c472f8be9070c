"""Tests for the observability layer: registry semantics, span
nesting and exception safety, Chrome trace round-trips, and the
query-path instrumentation contract (QueryTiming derived from spans,
cache and batch accounting flowing into the registry)."""

import gc
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core import CachedIndex
from repro.obs import tracing
from repro.obs.context import RequestContext, bind
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Tracer, span_payload

#: The exports of :func:`_record_fixed_sequence`, as the span ring's
#: object-per-span predecessor wrote them.
EXPECTED_EXPORTS = (
    Path(__file__).resolve().parent / "data" / "span_ring_exports.json"
)


@pytest.fixture
def registry() -> MetricsRegistry:
    """A fresh private registry (global state untouched)."""
    return MetricsRegistry()


@pytest.fixture
def observability():
    """Enable the global switch with clean registry/tracer; restore
    the disabled default afterwards."""
    obs.enable()
    obs.get_registry().reset()
    obs.get_tracer().clear()
    yield obs.get_registry(), obs.get_tracer()
    obs.disable()
    obs.get_registry().reset()
    obs.get_tracer().clear()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestCounter:
    def test_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_monotonic(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0


class TestHistogram:
    def test_quantiles_within_bucket_resolution(self):
        hist = Histogram()
        for value in range(1, 1001):
            hist.observe(float(value))
        assert hist.count == 1000
        assert hist.sum == pytest.approx(500500.0)
        assert hist.min == 1.0 and hist.max == 1000.0
        # Geometric buckets bound the relative error; 25% is generous.
        assert hist.quantile(0.5) == pytest.approx(500, rel=0.25)
        assert hist.quantile(0.9) == pytest.approx(900, rel=0.25)
        assert hist.quantile(0.99) == pytest.approx(990, rel=0.25)

    def test_empty_quantile_is_nan(self):
        assert math.isnan(Histogram().quantile(0.5))

    def test_underflow_and_overflow_observations_kept(self):
        hist = Histogram(lowest=1.0, highest=10.0, growth=2.0)
        hist.observe(0.0)
        hist.observe(1e9)
        assert hist.count == 2
        assert hist.min == 0.0 and hist.max == 1e9

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Histogram().observe(float("nan"))

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


class TestRegistry:
    def test_label_isolation(self, registry):
        family = registry.counter("c_total", labels=("kind",))
        family.labels(kind="a").inc(2)
        family.labels(kind="b").inc(5)
        assert family.labels(kind="a").value == 2.0
        assert family.labels(kind="b").value == 5.0
        # Same labels -> the same child object.
        assert family.labels(kind="a") is family.labels(kind="a")

    def test_wrong_label_names_raise(self, registry):
        family = registry.counter("c_total", labels=("kind",))
        with pytest.raises(ValueError):
            family.labels(flavor="a")

    def test_registration_idempotent(self, registry):
        first = registry.counter("c_total", labels=("kind",))
        again = registry.counter("c_total", labels=("kind",))
        assert first is again

    def test_conflicting_registration_raises(self, registry):
        registry.counter("c_total")
        with pytest.raises(ValueError):
            registry.gauge("c_total")
        with pytest.raises(ValueError):
            registry.counter("c_total", labels=("kind",))

    def test_reset_zeroes_but_keeps_series(self, registry):
        counter = registry.counter("c_total")
        hist = registry.histogram("h_seconds")
        counter.inc(7)
        hist.observe(1.0)
        registry.reset()
        assert counter.value == 0.0
        assert hist.count == 0
        # The registered objects stay live after reset.
        assert registry.get("c_total") is counter
        counter.inc()
        assert counter.value == 1.0

    def test_snapshot_structure(self, registry):
        registry.counter("c_total", "help text", labels=("kind",)).labels(
            kind="x"
        ).inc(3)
        registry.histogram("h_seconds").observe(0.5)
        snap = registry.snapshot()
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["help"] == "help text"
        assert snap["c_total"]["series"] == [
            {"labels": {"kind": "x"}, "value": 3.0}
        ]
        hist_value = snap["h_seconds"]["series"][0]["value"]
        assert hist_value["count"] == 1
        assert hist_value["p50"] == pytest.approx(0.5, rel=0.25)

    def test_to_json_parses(self, registry):
        registry.counter("c_total").inc()
        parsed = json.loads(registry.to_json())
        assert parsed["c_total"]["series"][0]["value"] == 1.0

    def test_prometheus_exposition(self, registry):
        registry.counter("c_total", "a counter", labels=("kind",)).labels(
            kind="x"
        ).inc(3)
        registry.gauge("g_now").set(2)
        registry.histogram("h_seconds").observe(1.0)
        text = registry.to_prometheus()
        assert "# TYPE c_total counter" in text
        assert 'c_total{kind="x"} 3' in text
        assert "# TYPE g_now gauge" in text
        assert "g_now 2" in text
        assert "# TYPE h_seconds histogram" in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text
        assert "h_seconds_sum 1" in text

    def test_prometheus_histogram_buckets_cumulative(self, registry):
        hist = registry.histogram("lat_seconds")
        for value in (0.001, 0.001, 0.5, 2.0):
            hist.observe(value)
        pairs = hist.cumulative_buckets()
        # Monotone non-decreasing cumulative counts, +Inf last with the
        # grand total.
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)
        assert pairs[-1][0] == float("inf")
        assert pairs[-1][1] == 4
        text = registry.to_prometheus()
        assert 'lat_seconds_bucket{le="+Inf"} 4' in text
        assert "lat_seconds_count 4" in text


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_links_parents(self, observability):
        _, tracer = observability
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        records = {record.name: record for record in tracer.spans()}
        assert records["inner"].parent_id == records["outer"].span_id
        assert records["sibling"].parent_id == records["outer"].span_id
        assert records["outer"].parent_id is None

    def test_durations_measured_even_when_disabled(self):
        assert not obs.enabled()
        tracer = obs.get_tracer()
        before = len(tracer.spans())
        with tracer.span("unrecorded") as span:
            pass
        assert span.duration is not None and span.duration >= 0.0
        # Nothing was buffered while disabled.
        assert len(tracer.spans()) == before

    def test_exception_safety(self, observability):
        _, tracer = observability
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("failing") as span:
                    raise RuntimeError("boom")
        assert span.duration is not None
        names = [record.name for record in tracer.spans()]
        assert names == ["failing", "outer"]
        # The stack unwound: a new span is a root again.
        with tracer.span("after"):
            pass
        assert tracer.find("after")[0].parent_id is None

    def test_buffer_bound_counts_drops(self, observability):
        tracer = Tracer(max_spans=2)
        for _ in range(4):
            with tracer.span("s"):
                pass
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 2

    def test_full_buffer_keeps_the_newest_trace(self, observability):
        tracer = Tracer(max_spans=8)
        for _ in range(8):
            with tracer.span("old"):
                pass
        manual = tracer.open_span("manual", trace_id="fresh")
        tracer.close_span(manual)
        tracer.adopt(
            [{"name": "remote", "wall_start": 0.0, "duration": 0.1}],
            trace_id="fresh",
        )
        names = [record.name for record in tracer.find_trace("fresh")]
        assert names == ["manual", "remote"]
        assert len(tracer.spans()) == 8
        assert tracer.dropped == 2
        assert [record.name for record in tracer.spans()][:6] == ["old"] * 6

    def test_lookups_match_a_filtered_export(self, observability):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        tracer.close_span(tracer.open_span("other", trace_id="t"))
        everything = tracer.spans()
        assert tracer.find("inner") == [
            r for r in everything if r.name == "inner"
        ]
        assert tracer.find_trace("t") == [
            r for r in everything if r.trace_id == "t"
        ]
        assert tracer.children_of(outer.span_id) == [
            r for r in everything if r.parent_id == outer.span_id
        ]
        assert len(tracer.find("inner")) == 2

    def test_chrome_trace_round_trip(self, observability):
        _, tracer = observability
        with tracer.span("query", strategy="inflex", k=5):
            with tracer.span("query.search", category="phase"):
                pass
        # Serialize through real JSON to prove the document is valid.
        document = json.loads(json.dumps(tracer.to_chrome_trace()))
        assert document["traceEvents"]
        restored = Tracer.from_chrome_trace(document)
        originals = {record.span_id: record for record in tracer.spans()}
        assert len(restored) == len(originals)
        for record in restored:
            original = originals[record.span_id]
            assert record.name == original.name
            assert record.category == original.category
            assert record.parent_id == original.parent_id
            assert record.duration == pytest.approx(
                original.duration, abs=1e-9
            )
            assert record.start == pytest.approx(original.start, abs=1e-9)
        assert any(
            record.args.get("strategy") == "inflex" for record in restored
        )

    def test_to_json_export(self, observability):
        _, tracer = observability
        with tracer.span("alpha"):
            pass
        payload = json.loads(tracer.to_json())
        assert payload[0]["name"] == "alpha"
        assert payload[0]["duration"] >= 0.0


class _FakeClock:
    """``perf_counter`` steps a quarter second per call (exact in
    binary), ``time`` stands still: exports become reproducible."""

    def __init__(self) -> None:
        self.now = 100.0

    def perf_counter(self) -> float:
        self.now += 0.25
        return self.now

    def time(self) -> float:
        return 5000.0


def _record_fixed_sequence(tracer) -> None:
    """Nested spans, a manual span, adopted worker spans and plain,
    bool, float and unhashable args; more spans than a 6-row ring."""
    context = RequestContext("feedc0de", "req-1")
    with bind(context):
        request = tracer.open_span(
            "serving.request",
            category="serving",
            trace_id=context.trace_id,
            route="/query",
        )
        with bind(context.child_of(request)):
            with tracer.span("query", strategy="inflex", k=5):
                with tracer.span("query.search"):
                    pass
                with tracer.span("query.selection", inline=True, weight=0.5):
                    pass
            tracer.adopt(
                [
                    dict(
                        span_payload("rr.chunk", 4000.0, 0.5, call=0, chunk=1),
                        local_id=1,
                    ),
                    dict(
                        span_payload("rr.walk", 4000.25, 0.125, blocks=[1, 2]),
                        local_id=2,
                        local_parent=1,
                    ),
                ],
                trace_id=context.trace_id,
                parent_id=request.span_id,
            )
        tracer.close_span(request)
    for k in (1, True, 1.0):
        with tracer.span("query", strategy="inflex", k=k):
            pass


def _normalized_exports(tracer) -> dict:
    """Both exports with process and thread ids replaced by their order
    of first appearance."""
    threads: dict = {}
    records = json.loads(tracer.to_json())
    for record in records:
        record["thread_id"] = threads.setdefault(
            record["thread_id"], len(threads)
        )
    chrome = tracer.to_chrome_trace()
    for event in chrome["traceEvents"]:
        event["pid"] = 0
        event["tid"] = threads.setdefault(event["tid"], len(threads))
    return {"json": records, "chrome": chrome, "dropped": tracer.dropped}


class TestSpanRing:
    """The tracer keeps finished spans as rows of a bounded ring."""

    def test_wrap_around_keeps_the_newest_in_order(self, observability):
        tracer = Tracer(max_spans=5)
        for i in range(13):
            if i % 2:
                tracer.close_span(tracer.open_span(f"s{i}"))
            else:
                with tracer.span(f"s{i}"):
                    pass
        assert [r.name for r in tracer.spans()] == [
            f"s{i}" for i in range(8, 13)
        ]
        assert tracer.dropped == 8

    def test_wrap_around_across_many_flushes(self, observability):
        tracer = Tracer(max_spans=300)
        for i in range(1000):
            with tracer.span("s", i=i):
                pass
            if i == 400:
                # A read mid-way flushes a partial batch.
                assert tracer.dropped == 101
        assert [r.args["i"] for r in tracer.spans()] == list(range(700, 1000))
        assert tracer.dropped == 700

    def test_lookups_across_the_wrap(self, observability):
        tracer = Tracer(max_spans=10)
        parent = tracer.open_span("parent", trace_id="t")
        for i in range(14):
            child = tracer.open_span(
                f"c{i}",
                trace_id="t" if i % 2 else "u",
                parent_id=parent.span_id,
            )
            tracer.close_span(child)
            with tracer.span("noise"):
                pass
        tracer.close_span(parent)
        everything = tracer.spans()
        assert len(everything) == 10 and tracer.dropped == 19
        in_trace = tracer.find_trace("t")
        assert in_trace == [r for r in everything if r.trace_id == "t"]
        assert [r.name for r in in_trace] == ["c11", "c13", "parent"]
        children = tracer.children_of(parent.span_id)
        assert children == [
            r for r in everything if r.parent_id == parent.span_id
        ]
        assert [r.name for r in children] == ["c10", "c11", "c12", "c13"]

    def test_adopt_nests_payload_spans(self, observability):
        tracer = Tracer()
        with tracer.span("dispatch") as dispatch:
            pass
        payload = [
            dict(span_payload("a", 10.0, 0.5, trace_id="w"), local_id=7),
            dict(span_payload("b", 10.1, 0.2), local_id=8, local_parent=7),
            dict(span_payload("c", 10.2, 0.1, n=3), local_parent=8),
            span_payload("d", 10.3, 0.1),
        ]
        adopted = tracer.adopt(
            payload, trace_id="t", parent_id=dispatch.span_id
        )
        assert adopted == 4
        records = {r.name: r for r in tracer.spans()}
        assert records["a"].parent_id == dispatch.span_id
        assert records["b"].parent_id == records["a"].span_id
        assert records["c"].parent_id == records["b"].span_id
        assert records["d"].parent_id == dispatch.span_id
        assert records["a"].trace_id == "w"
        assert {records[n].trace_id for n in "bcd"} == {"t"}
        assert records["c"].args == {"n": 3}
        assert len({r.span_id for r in records.values()}) == 5

    def test_clear_while_a_span_is_open(self, observability):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        manual = tracer.open_span("manual")
        with tracer.span("open") as open_span:
            tracer.clear()
            with tracer.span("inner"):
                pass
        tracer.close_span(manual)
        records = tracer.spans()
        assert [r.name for r in records] == ["inner", "open", "manual"]
        assert tracer.dropped == 0
        # ``inner`` began on the fresh stack; ``open`` began before the
        # new epoch.
        assert records[0].parent_id is None
        assert records[1].span_id == open_span.span_id
        assert records[1].start < 0.0
        with tracer.span("after"):
            pass
        assert tracer.find("after")[0].parent_id is None

    @pytest.mark.parametrize("capacity", [100_000, 3_000])
    def test_threads_append_concurrently(self, observability, capacity):
        """More threads than cores, switching as often as the
        interpreter allows: no row is lost or torn."""
        tracer = Tracer(max_spans=capacity)
        per_thread = 2_500
        tags = "abcd"
        start = threading.Barrier(len(tags))

        def work(tag: str) -> None:
            start.wait()
            for i in range(per_thread):
                if i % 3:
                    with tracer.span(tag, i=i):
                        pass
                else:
                    tracer.close_span(tracer.open_span(tag, i=i))

        threads = [threading.Thread(target=work, args=(tag,)) for tag in tags]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = len(tags) * per_thread
        records = tracer.spans()
        assert len(records) == min(capacity, total)
        assert tracer.dropped == total - len(records)
        assert len({r.span_id for r in records}) == len(records)
        for tag in tags:
            mine = [r for r in records if r.name == tag]
            # Each thread's spans keep their order; the kept ones are
            # that thread's newest (none, when others evicted them all).
            assert [r.args["i"] for r in mine] == list(
                range(per_thread - len(mine), per_thread)
            )
            assert len({r.thread_id for r in mine}) <= 1

    def test_records_get_copies_of_shared_args(self, observability):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("query", strategy="inflex", k=5):
                pass
        first, second, _ = tracer.spans()
        assert first.args == second.args == {"strategy": "inflex", "k": 5}
        assert first.args is not second.args
        first.args["k"] = 99
        assert tracer.spans()[0].args == {"strategy": "inflex", "k": 5}

    def test_equal_args_of_other_types_stay_distinct(self, observability):
        tracer = Tracer()
        for k in (1, True, 1.0, 1, -0.0, 0.0, 0):
            with tracer.span("query", k=k):
                pass
        kept = [r.args["k"] for r in tracer.spans()]
        assert [repr(k) for k in kept] == [
            "1", "True", "1.0", "1", "-0.0", "0.0", "0"
        ]

    def test_exports_of_a_fixed_sequence(self, observability, monkeypatch):
        clock = _FakeClock()
        monkeypatch.setattr(tracing, "time", clock)
        monkeypatch.setattr(tracing, "perf_counter", clock.perf_counter)
        tracer = Tracer(max_spans=6)
        _record_fixed_sequence(tracer)
        expected = json.loads(EXPECTED_EXPORTS.read_text())
        assert _normalized_exports(tracer) == expected

    def test_retained_bytes_per_span(self, observability):
        spans = 20_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracer = Tracer()
            with bind(RequestContext("0123456789abcdef", "req")):
                for i in range(spans // 4):
                    with tracer.span("query", strategy="inflex", k=10):
                        with tracer.span("query.search"):
                            pass
                        with tracer.span("query.selection", size=i % 4):
                            pass
                    tracer.close_span(
                        tracer.open_span("serving.batch", size=1)
                    )
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tracer.spans()) == spans
        assert retained / spans <= 96, f"{retained / spans:.0f} B per span"


# ----------------------------------------------------------------------
# Query-path instrumentation
# ----------------------------------------------------------------------
class TestQueryInstrumentation:
    def test_query_timing_equals_sum_of_child_phase_spans(
        self, small_index, small_workload, observability
    ):
        _, tracer = observability
        answer = small_index.query(small_workload.items[0], 5)
        (query_record,) = tracer.find("query")
        children = tracer.children_of(query_record.span_id)
        assert {child.name for child in children} <= {
            "query.search",
            "query.selection",
            "query.aggregation",
        }
        assert answer.timing.total == pytest.approx(
            sum(child.duration for child in children), rel=1e-9
        )
        # The public QueryTiming fields ARE the span durations.
        by_name = {child.name: child.duration for child in children}
        assert answer.timing.search == by_name["query.search"]

    def test_query_counters_recorded(
        self, small_index, small_workload, observability
    ):
        registry, _ = observability
        small_index.query(small_workload.items[1], 5)
        snap = registry.snapshot()
        totals = {
            (entry["labels"]["strategy"], entry["labels"]["outcome"]): entry[
                "value"
            ]
            for entry in snap["repro_queries_total"]["series"]
        }
        assert sum(totals.values()) == 1.0
        phase_counts = {
            entry["labels"]["phase"]: entry["value"]["count"]
            for entry in snap["repro_query_phase_seconds"]["series"]
        }
        assert phase_counts["total"] == 1
        assert snap["repro_search_total"]["series"], "search not recorded"

    def test_query_batch_aggregates_into_registry(
        self, small_index, small_workload, observability
    ):
        registry, _ = observability
        answers = small_index.query_batch(
            np.vstack(small_workload.items[:4]), 5
        )
        assert len(answers) == 4
        snap = registry.snapshot()
        assert (
            snap["repro_query_batches_total"]["series"][0]["value"] == 1.0
        )
        assert (
            snap["repro_query_batch_size"]["series"][0]["value"]["count"]
            == 1
        )
        expected_leaves = sum(
            answer.search_stats.leaves_visited for answer in answers
        )
        assert (
            snap["repro_batch_leaves_visited_total"]["series"][0]["value"]
            == expected_leaves
        )
        expected_divs = sum(
            answer.search_stats.divergence_computations
            for answer in answers
        )
        assert (
            snap["repro_batch_divergence_computations_total"]["series"][0][
                "value"
            ]
            == expected_divs
        )

    def test_disabled_records_nothing(self, small_index, small_workload):
        assert not obs.enabled()
        registry = obs.get_registry()
        registry.reset()
        obs.get_tracer().clear()
        answer = small_index.query(small_workload.items[2], 5)
        assert answer.timing.total > 0.0  # timing still populated
        snap = registry.snapshot()
        # reset() keeps previously-seen label series alive but zeroed;
        # disabled queries must not have added anything.
        assert (
            sum(
                entry["value"]
                for entry in snap["repro_queries_total"]["series"]
            )
            == 0.0
        )
        assert obs.get_tracer().spans() == []


class TestCacheInstrumentation:
    def test_stats_dict_and_evictions(
        self, small_index, small_workload, observability
    ):
        registry, _ = observability
        cache = CachedIndex(small_index, max_entries=2)
        items = small_workload.items
        cache.query(items[0], 5)
        cache.query(items[0], 5)  # hit
        cache.query(items[1], 5)
        cache.query(items[2], 5)  # evicts items[0]
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 3
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["max_entries"] == 2
        assert stats["hit_rate"] == pytest.approx(0.25)
        snap = registry.snapshot()
        assert snap["repro_cache_hits_total"]["series"][0]["value"] == 1.0
        assert (
            snap["repro_cache_misses_total"]["series"][0]["value"] == 3.0
        )
        assert (
            snap["repro_cache_evictions_total"]["series"][0]["value"] == 1.0
        )
        assert snap["repro_cache_entries"]["series"][0]["value"] == 2.0

    def test_clear_resets_local_accounting(self, small_index, small_workload):
        cache = CachedIndex(small_index, max_entries=2)
        cache.query(small_workload.items[0], 5)
        cache.clear()
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "expirations": 0,
            "entries": 0,
            "max_entries": 2,
            "hit_rate": 0.0,
        }


class TestGlobalSwitch:
    def test_enable_disable_round_trip(self):
        assert not obs.enabled()
        obs.enable()
        try:
            assert obs.enabled()
        finally:
            obs.disable()
        assert not obs.enabled()
