"""Observability overhead benchmark.

The `repro.obs` layer promises (a) **no measurable cost while
disabled** — every instrumentation site short-circuits on one attribute
check — and (b) **< 5% query-path cost while enabled**.  This bench
enforces both on the real query hot path: interleaved batches of TIM
queries are timed disabled / enabled / disabled, and each enabled batch
is compared against the *mean of its two bracketing disabled batches*.
The per-round ratio cancels machine-speed drift that is slower than a
round (CPU frequency scaling, noisy-neighbor steal on shared runners) —
a global median over the series does not, because slow minutes inflate
whole rounds and the enabled/disabled split within them survives the
median.  The reported overhead is the median of the per-round ratios;
the two disabled series are additionally compared with the repo's own
paired t-test — the instrumented-but-off path must be statistically
indistinguishable from itself across the enabled runs.

The same gate covers the request-scoped telemetry sites (PR 6):
context binding, flight recording, and SLO observation wrap each query
the way the serving layer wraps each request, under the same budgets.
The telemetry numbers — overhead both modes, flight-recorder memory at
10k records, slow-query capture cost, and the tracer ring's retained
bytes per span and when full — land in ``BENCH_obs.json``.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import register_report

from repro import obs
from repro.core import InflexConfig, InflexIndex
from repro.datasets import generate_flixster_like
from repro.obs import context as obs_context
from repro.obs import instruments
from repro.obs.flightrec import (
    FlightRecord,
    FlightRecorder,
    gamma_fingerprint,
)
from repro.obs.slo import SLOMonitor
from repro.obs.tracing import Tracer
from repro.stats.tests import paired_t_test

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

#: Interleaved measurement rounds; each contributes one disabled-A,
#: one enabled, and one disabled-B batch time.
ROUNDS = 30
QUERIES_PER_BATCH = 16
K = 8


@pytest.fixture(scope="module")
def query_setup():
    """A small but real index plus a query workload.

    The 32-point cloud makes a query cost ~1 ms — the millisecond
    scale the paper targets for online answering.  A much smaller
    index would answer in a few hundred microseconds and the *fixed*
    per-query instrument cost (a handful of microseconds) would read
    as a large percentage of nothing.
    """
    data = generate_flixster_like(
        num_nodes=250,
        num_topics=4,
        num_items=60,
        topics_per_node=1,
        base_strength=0.2,
        seed=13,
    )
    config = InflexConfig(
        num_index_points=32,
        num_dirichlet_samples=1000,
        seed_list_length=10,
        ris_num_sets=800,
        knn=6,
        leaf_size=8,
        seed=7,
    )
    index = InflexIndex.build(data.graph, data.item_topics, config)
    return index, data.item_topics[:QUERIES_PER_BATCH]


def _paired_overhead(
    disabled_a: list[float],
    enabled: list[float],
    disabled_b: list[float],
) -> float:
    """Median of the per-round enabled-vs-bracket ratios.

    Each enabled batch ran between its own two disabled batches, so
    dividing by their mean cancels any machine-speed drift slower than
    one round; the median across rounds then discards the rounds a
    scheduler hiccup landed on.
    """
    ratios = [
        e / ((a + b) / 2.0) - 1.0
        for a, e, b in zip(disabled_a, enabled, disabled_b)
    ]
    return statistics.median(ratios)


def _batch_seconds(index, queries) -> float:
    start = time.perf_counter()
    for gamma in queries:
        index.query(gamma, K)
    return time.perf_counter() - start


def test_observability_overhead(query_setup):
    index, queries = query_setup
    obs.disable()
    obs.get_registry().reset()
    obs.get_tracer().clear()
    try:
        for _ in range(3):  # warm caches and the JIT-less interpreter
            _batch_seconds(index, queries)
        disabled_a: list[float] = []
        disabled_b: list[float] = []
        enabled: list[float] = []
        for _ in range(ROUNDS):
            obs.disable()
            disabled_a.append(_batch_seconds(index, queries))
            obs.enable()
            enabled.append(_batch_seconds(index, queries))
            obs.disable()
            disabled_b.append(_batch_seconds(index, queries))
    finally:
        obs.disable()
        obs.get_registry().reset()
        obs.get_tracer().clear()

    median_disabled = statistics.median(disabled_a + disabled_b)
    median_enabled = statistics.median(enabled)
    enabled_overhead = _paired_overhead(disabled_a, enabled, disabled_b)
    # The two disabled series bracket every enabled batch; any real
    # disabled-mode cost (or drift) would separate them.
    ttest = paired_t_test(disabled_a, disabled_b)
    drift = abs(ttest.mean_difference) / median_disabled

    per_query_us = median_disabled / QUERIES_PER_BATCH * 1e6
    register_report(
        "Observability overhead (query hot path)",
        "\n".join(
            [
                f"batches: {ROUNDS} x {QUERIES_PER_BATCH} queries, k={K}",
                f"disabled median batch: {median_disabled * 1e3:.3f} ms "
                f"({per_query_us:.0f} us/query)",
                f"enabled  median batch: {median_enabled * 1e3:.3f} ms",
                f"enabled overhead (paired per-round): "
                f"{enabled_overhead * 100:+.2f}%  (budget < 5%)",
                f"disabled A-vs-B paired t-test: p={ttest.p_value:.3f}, "
                f"mean drift {drift * 100:.3f}% of a batch",
            ]
        ),
    )

    # (b) enabled-mode overhead stays under the 5% budget.
    assert enabled_overhead < 0.05, (
        f"enabled observability costs {enabled_overhead * 100:.2f}% "
        f"(> 5%) on the query hot path"
    )
    # (a) disabled mode is statistically indistinguishable: either the
    # paired test finds no effect, or the effect size is noise-level
    # (< 1% of a batch) — guarding against huge-sample trivia.
    assert ttest.p_value > 0.01 or drift < 0.01, (
        f"disabled-mode drift {drift * 100:.3f}% of a batch is "
        f"significant (p={ttest.p_value:.4f})"
    )


def _telemetry_batch_seconds(index, queries, flight, slo, tracer) -> float:
    """One batch of queries through the full per-request telemetry
    path: context bind, query spans, SLO observe, flight record —
    the same sites the serving layer touches per request."""
    start = time.perf_counter()
    for gamma in queries:
        context = obs_context.new_request_context()
        with obs_context.bind(context):
            began = time.perf_counter()
            answer = index.query(gamma, K)
            elapsed = time.perf_counter() - began
        verdicts = slo.observe(elapsed)
        instruments.record_slo_verdicts(verdicts)
        slow = flight.record(
            FlightRecord(
                request_id=context.request_id,
                trace_id=context.trace_id,
                route="/query",
                fingerprint=gamma_fingerprint(gamma),
                k=K,
                strategy=answer.strategy,
                duration_s=elapsed,
                timings={"total": answer.timing.total},
            ),
            tracer,
        )
        instruments.record_flight(len(flight), slow)
    return time.perf_counter() - start


#: Spans :func:`_record_cold_reads` records per read.
SPANS_PER_READ = 7
#: The query's phase spans (literal names, as on the query path).
PHASES = ("query.search", "query.selection", "query.aggregation")


def _record_cold_reads(tracer: Tracer, reads: int) -> None:
    """The spans one served cold read records, ``reads`` times: the
    loop's ``serving.request``/``serving.batch``, the executor's
    ``query_batch``/``query`` and three phase spans, one trace each."""
    for _ in range(reads):
        context = obs_context.new_request_context()
        request = tracer.open_span(
            "serving.request",
            category="serving",
            trace_id=context.trace_id,
            route="/query",
        )
        batch = tracer.open_span(
            "serving.batch",
            category="serving",
            trace_id=context.trace_id,
            parent_id=request.span_id,
            size=1,
        )
        with obs_context.bind(context.child_of(batch)):
            with tracer.span("query_batch", strategy="inflex", size=1):
                with tracer.span("query", strategy="inflex", k=K):
                    for phase in PHASES:
                        with tracer.span(phase):
                            pass
        tracer.close_span(batch)
        tracer.close_span(request)


def _tracer_footprint() -> tuple[float, int]:
    """Bytes a default tracer retains (tracemalloc) per span after 20k
    spans of cold reads, and in all once its 100k-span ring is full."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracer = Tracer()
        reads = 20_000 // SPANS_PER_READ
        _record_cold_reads(tracer, reads)
        gc.collect()
        per_span = (tracemalloc.get_traced_memory()[0] - base) / (
            reads * SPANS_PER_READ
        )
        # Past the capacity, so the ring has wrapped.
        _record_cold_reads(tracer, 110_000 // SPANS_PER_READ)
        gc.collect()
        full_ring = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert tracer.dropped > 0
    return per_span, full_ring


def test_request_telemetry_overhead(query_setup):
    """The PR-6 telemetry sites obey the same two promises as the core
    instruments, measured end to end and recorded in BENCH_obs.json."""
    index, queries = query_setup
    obs.disable()
    obs.get_registry().reset()
    obs.get_tracer().clear()
    tracer = obs.get_tracer()
    flight = FlightRecorder(capacity=4096, slow_threshold_s=60.0)
    slo = SLOMonitor()
    try:
        for _ in range(3):
            _telemetry_batch_seconds(index, queries, flight, slo, tracer)
        disabled_a: list[float] = []
        disabled_b: list[float] = []
        enabled: list[float] = []
        for _ in range(ROUNDS):
            obs.disable()
            disabled_a.append(
                _telemetry_batch_seconds(index, queries, flight, slo, tracer)
            )
            obs.enable()
            enabled.append(
                _telemetry_batch_seconds(index, queries, flight, slo, tracer)
            )
            obs.disable()
            disabled_b.append(
                _telemetry_batch_seconds(index, queries, flight, slo, tracer)
            )
    finally:
        obs.disable()
        obs.get_registry().reset()
        obs.get_tracer().clear()

    median_disabled = statistics.median(disabled_a + disabled_b)
    median_enabled = statistics.median(enabled)
    enabled_overhead = _paired_overhead(disabled_a, enabled, disabled_b)
    ttest = paired_t_test(disabled_a, disabled_b)
    drift = abs(ttest.mean_difference) / median_disabled

    # Flight-recorder memory at 10k records (enabled, realistic shape).
    obs.enable()
    big = FlightRecorder(capacity=10_000, slow_threshold_s=60.0)
    for i in range(10_000):
        big.record(
            FlightRecord(
                request_id=f"{i:012x}",
                trace_id=f"{i:016x}",
                route="/query",
                fingerprint="5f2a9c01",
                k=K,
                strategy="inflex",
                duration_s=0.004,
                timings={
                    "search": 0.001,
                    "selection": 0.002,
                    "aggregation": 0.001,
                    "total": 0.004,
                },
            )
        )
    flight_memory_bytes = big.approx_memory_bytes()

    # Slow-query capture cost: record() with span-tree capture versus
    # the plain fast-path record, per call.
    tracer.clear()
    context = obs_context.new_request_context()
    with obs_context.bind(context):
        with tracer.span("query"):
            with tracer.span("query.search"):
                pass
            with tracer.span("query.selection"):
                pass
    captures = 2_000

    def time_records(threshold_s: float) -> float:
        recorder = FlightRecorder(
            capacity=captures, slow_capacity=captures,
            slow_threshold_s=threshold_s,
        )
        start = time.perf_counter()
        for i in range(captures):
            recorder.record(
                FlightRecord(
                    request_id=f"{i:012x}",
                    trace_id=context.trace_id,
                    duration_s=0.2,
                ),
                tracer,
            )
        return (time.perf_counter() - start) / captures

    fast_record_s = time_records(threshold_s=60.0)
    slow_record_s = time_records(threshold_s=0.1)
    capture_cost_us = (slow_record_s - fast_record_s) * 1e6
    span_bytes, ring_bytes = _tracer_footprint()
    obs.disable()
    obs.get_registry().reset()
    obs.get_tracer().clear()

    payload = {
        "cpu_count": os.cpu_count(),
        "rounds": ROUNDS,
        "queries_per_batch": QUERIES_PER_BATCH,
        "k": K,
        "disabled_median_batch_ms": median_disabled * 1e3,
        "enabled_median_batch_ms": median_enabled * 1e3,
        "enabled_overhead_pct": enabled_overhead * 100.0,
        "disabled_drift_pct": drift * 100.0,
        "disabled_drift_p_value": ttest.p_value,
        "flight_recorder_records": 10_000,
        "flight_recorder_memory_bytes": flight_memory_bytes,
        "flight_recorder_bytes_per_record": flight_memory_bytes / 10_000,
        "slow_capture_cost_us": capture_cost_us,
        "fast_record_us": fast_record_s * 1e6,
        "slow_record_us": slow_record_s * 1e6,
        "tracer_spans_per_read": SPANS_PER_READ,
        "tracer_retained_bytes_per_span": span_bytes,
        "tracer_full_ring_spans": 100_000,
        "tracer_full_ring_bytes": ring_bytes,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2))

    register_report(
        "Request-scoped telemetry overhead",
        "\n".join(
            [
                f"batches: {ROUNDS} x {QUERIES_PER_BATCH} queries, k={K} "
                "(context + spans + SLO + flight record per query)",
                f"disabled median batch: {median_disabled * 1e3:.3f} ms",
                f"enabled  median batch: {median_enabled * 1e3:.3f} ms",
                f"enabled overhead (paired per-round): "
                f"{enabled_overhead * 100:+.2f}%  (budget < 5%)",
                f"disabled A-vs-B paired t-test: p={ttest.p_value:.3f}, "
                f"mean drift {drift * 100:.3f}% of a batch",
                f"flight recorder @10k records: "
                f"{flight_memory_bytes / 1024:.0f} KiB "
                f"({flight_memory_bytes / 10_000:.0f} B/record)",
                f"slow-query span capture: {capture_cost_us:+.1f} us "
                f"per slow request (fast record "
                f"{fast_record_s * 1e6:.1f} us)",
                f"tracer ring: {span_bytes:.0f} B retained per span, "
                f"{ring_bytes / 2**20:.1f} MiB when full (100k spans)",
            ]
        ),
    )

    assert enabled_overhead < 0.05, (
        f"enabled telemetry costs {enabled_overhead * 100:.2f}% "
        f"(> 5%) on the query hot path"
    )
    assert ttest.p_value > 0.01 or drift < 0.01, (
        f"disabled-mode drift {drift * 100:.3f}% of a batch is "
        f"significant (p={ttest.p_value:.4f})"
    )
    # The 10k-record ring stays comfortably in single-digit MiB.
    assert flight_memory_bytes < 32 * 1024 * 1024
    # Typed ring rows with shared strings and args: about 75 B a span
    # (each span object with its args dict held about 360 B).
    assert span_bytes <= 96


def test_disabled_primitive_costs():
    """Micro-check: one disabled span costs well under a microsecond-
    scale budget, so per-query instrumentation cannot register."""
    obs.disable()
    tracer = obs.get_tracer()
    iterations = 20_000
    start = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("noop"):
            pass
    per_span_us = (time.perf_counter() - start) / iterations * 1e6
    register_report(
        "Disabled span cost",
        f"{per_span_us:.3f} us per disabled span "
        f"({iterations} iterations)",
    )
    # Generous budget: 4 spans/query at < 10 us each is noise next to
    # a millisecond-scale query.
    assert per_span_us < 10.0
