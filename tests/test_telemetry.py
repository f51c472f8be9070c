"""Tests for the request-scoped telemetry layer.

Covers the tentpole end to end: context propagation (tasks, executor
threads, worker processes), the flight recorder and slow-query
capture, the SLO monitor's burn-rate math under a fake clock, the
structured JSON event log, the debug HTTP surfaces, and the ``top``
view's Prometheus parsing — plus the acceptance criteria: one stitched
cross-process trace, a ``/debug/slow`` entry with a full span tree,
and ``repro_slo_*`` burn rates flipping the ``/healthz`` detail.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging
import math
import threading

import numpy as np
import pytest

from repro import obs
from repro.core import ServingConfig
from repro.obs import context as _ctx
from repro.obs.flightrec import (
    FlightRecord,
    FlightRecorder,
    gamma_fingerprint,
)
from repro.obs.logs import (
    RateLimitFilter,
    configure_json_logging,
    get_logger,
    reset_logging,
)
from repro.obs.slo import SLOConfig, SLOMonitor
from repro.obs.tracing import span_payload
from repro.serving import QueryServer
from repro.serving.protocol import (
    encode_request,
    json_body,
    read_response,
)
from repro.serving.topview import (
    MetricsSample,
    parse_prometheus,
    quantile_from_buckets,
    render_top,
)


# ----------------------------------------------------------------------
# Request context propagation
# ----------------------------------------------------------------------
class TestRequestContext:
    def test_mint_generates_distinct_ids(self):
        a = _ctx.new_request_context()
        b = _ctx.new_request_context()
        assert a.trace_id != b.trace_id
        assert a.request_id != b.request_id
        assert len(a.trace_id) == 16 and len(a.request_id) == 12

    def test_mint_honors_supplied_ids(self):
        context = _ctx.new_request_context(
            trace_id="cafe", request_id="beef"
        )
        assert context.trace_id == "cafe"
        assert context.request_id == "beef"

    def test_bind_scopes_the_context(self):
        assert _ctx.current_context() is None
        context = _ctx.new_request_context()
        with _ctx.bind(context):
            assert _ctx.current_context() is context
        assert _ctx.current_context() is None

    def test_bind_none_is_a_noop_block(self):
        with _ctx.bind(None):
            assert _ctx.current_context() is None

    def test_wire_round_trip(self):
        context = _ctx.new_request_context(parent_span_id=7)
        assert _ctx.RequestContext.from_wire(context.to_wire()) == context

    def test_wrap_carries_context_into_a_thread(self):
        # run_in_executor does not propagate contextvars; wrap() must.
        context = _ctx.new_request_context()
        seen = []

        def probe():
            seen.append(_ctx.current_context())

        with _ctx.bind(context):
            bound = _ctx.wrap(probe)
        thread = threading.Thread(target=bound)
        thread.start()
        thread.join()
        assert seen == [context]

    def test_asyncio_tasks_inherit_the_context(self):
        context = _ctx.new_request_context()

        async def child():
            return _ctx.current_context()

        async def main():
            with _ctx.bind(context):
                return await asyncio.create_task(child())

        assert asyncio.run(main()) is context


class TestTracerContextIntegration:
    def test_root_span_adopts_bound_context(self):
        obs.enable()
        tracer = obs.get_tracer()
        context = _ctx.new_request_context(parent_span_id=41)
        with _ctx.bind(context):
            with tracer.span("work"):
                pass
        (record,) = [r for r in tracer.spans() if r.name == "work"]
        assert record.trace_id == context.trace_id
        assert record.parent_id == 41

    def test_nested_spans_inherit_trace_id(self):
        obs.enable()
        tracer = obs.get_tracer()
        context = _ctx.new_request_context()
        with _ctx.bind(context):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        records = {r.name: r for r in tracer.spans()}
        assert records["inner"].trace_id == context.trace_id
        assert records["inner"].parent_id == records["outer"].span_id

    def test_open_close_span_does_not_touch_the_stack(self):
        # Manual spans serve event-loop regions that cross awaits: a
        # thread-local stack would mis-parent spans of interleaved
        # tasks, so open_span must not push.
        obs.enable()
        tracer = obs.get_tracer()
        manual = tracer.open_span("manual", trace_id="feed")
        with tracer.span("independent"):
            pass
        tracer.close_span(manual)
        records = {r.name: r for r in tracer.spans()}
        assert records["independent"].parent_id is None
        assert records["manual"].trace_id == "feed"
        assert records["manual"].duration > 0

    def test_adopt_stitches_remote_payloads(self):
        obs.enable()
        tracer = obs.get_tracer()
        with tracer.span("dispatch") as dispatch:
            pass
        payloads = [
            span_payload(
                "remote.chunk", 1000.0, 0.25, trace_id="abcd", lo=0, hi=8
            )
        ]
        adopted = tracer.adopt(
            payloads, trace_id="abcd", parent_id=dispatch.span_id
        )
        assert adopted == 1
        (chunk,) = [r for r in tracer.spans() if r.name == "remote.chunk"]
        assert chunk.trace_id == "abcd"
        assert chunk.parent_id == dispatch.span_id
        assert chunk.duration == pytest.approx(0.25)

    def test_disabled_mode_records_nothing(self):
        tracer = obs.get_tracer()
        span = tracer.open_span("ghost")
        tracer.close_span(span)
        assert tracer.adopt([{"name": "x"}]) == 0
        assert not [r for r in tracer.spans() if r.name == "ghost"]


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
def _record(request_id="r1", duration_s=0.01, **kwargs) -> FlightRecord:
    return FlightRecord(
        request_id=request_id, trace_id="t-" + request_id,
        duration_s=duration_s, **kwargs,
    )


class TestFlightRecorder:
    def test_disabled_mode_keeps_no_state(self):
        recorder = FlightRecorder(capacity=4)
        assert recorder.record(_record()) is False
        assert len(recorder) == 0 and recorder.total == 0

    def test_ring_is_bounded_but_total_counts_all(self):
        obs.enable()
        recorder = FlightRecorder(capacity=3, slow_threshold_s=10.0)
        for i in range(7):
            recorder.record(_record(f"r{i}"))
        assert len(recorder) == 3
        assert recorder.total == 7
        assert [r.request_id for r in recorder.recent()] == [
            "r6", "r5", "r4",
        ]

    def test_slow_requests_capture_their_span_tree(self):
        obs.enable()
        tracer = obs.get_tracer()
        context = _ctx.new_request_context()
        with _ctx.bind(context):
            with tracer.span("query"):
                with tracer.span("query.search"):
                    pass
        recorder = FlightRecorder(capacity=8, slow_threshold_s=0.05)
        record = FlightRecord(
            request_id="slow1",
            trace_id=context.trace_id,
            duration_s=0.2,
        )
        assert recorder.record(record, tracer) is True
        (entry,) = recorder.slow()
        names = {span["name"] for span in entry.spans}
        assert {"query", "query.search"} <= names
        parent = next(
            s for s in entry.spans if s["name"] == "query.search"
        )["parent_id"]
        root_id = next(
            s for s in entry.spans if s["name"] == "query"
        )["span_id"]
        assert parent == root_id

    def test_fast_requests_skip_the_slow_ring(self):
        obs.enable()
        recorder = FlightRecorder(capacity=8, slow_threshold_s=0.05)
        assert recorder.record(_record(duration_s=0.001)) is False
        assert recorder.slow() == [] and recorder.slow_total == 0

    def test_find_by_request_id(self):
        obs.enable()
        recorder = FlightRecorder(capacity=8, slow_threshold_s=10.0)
        recorder.record(_record("aa"))
        recorder.record(_record("bb"))
        assert recorder.find("aa").request_id == "aa"
        assert recorder.find("zz") is None

    def test_approx_memory_is_positive_and_bounded(self):
        obs.enable()
        recorder = FlightRecorder(capacity=16, slow_threshold_s=10.0)
        for i in range(64):
            recorder.record(_record(f"r{i}"))
        assert 0 < recorder.approx_memory_bytes() < 1_000_000

    def test_to_dict_converts_to_milliseconds(self):
        record = _record(duration_s=0.25)
        record.timings = {"search": 0.1}
        payload = record.to_dict()
        assert payload["duration_ms"] == pytest.approx(250.0)
        assert payload["timings_ms"]["search"] == pytest.approx(100.0)


class TestGammaFingerprint:
    def test_stable_and_jitter_tolerant(self):
        gamma = [0.5, 0.3, 0.2]
        assert gamma_fingerprint(gamma) == gamma_fingerprint(
            np.array(gamma) + 1e-9
        )
        assert len(gamma_fingerprint(gamma)) == 8

    def test_distinct_gammas_differ(self):
        assert gamma_fingerprint([0.5, 0.3, 0.2]) != gamma_fingerprint(
            [0.2, 0.3, 0.5]
        )


# ----------------------------------------------------------------------
# SLO monitor
# ----------------------------------------------------------------------
class FakeClock:
    """A steerable monotonic clock for SLO tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSLOMonitor:
    def test_all_good_requests_burn_nothing(self):
        clock = FakeClock()
        monitor = SLOMonitor(clock=clock)
        for _ in range(50):
            monitor.observe(0.001)
            clock.advance(0.5)
        status = monitor.status()
        assert status["healthy"]
        for objective in status["objectives"].values():
            assert objective["fast"]["burn_rate"] == 0.0
            assert not objective["breached"]

    def test_burn_rate_is_bad_fraction_over_budget(self):
        clock = FakeClock()
        config = SLOConfig(latency_threshold_s=0.1, latency_target=0.9)
        monitor = SLOMonitor(config, clock=clock)
        # 2 slow of 10 -> bad fraction 0.2, budget 0.1 -> burn 2.0.
        for i in range(10):
            monitor.observe(0.5 if i < 2 else 0.001)
            clock.advance(1.0)
        latency = monitor.status()["objectives"]["latency"]
        assert latency["fast"]["burn_rate"] == pytest.approx(2.0)
        assert latency["breached"]

    def test_breach_requires_both_windows(self):
        clock = FakeClock()
        config = SLOConfig(
            latency_threshold_s=0.1,
            latency_target=0.9,
            fast_window_s=10.0,
            slow_window_s=100.0,
        )
        monitor = SLOMonitor(config, clock=clock)
        # A long good history fills the slow window...
        for _ in range(90):
            monitor.observe(0.001)
            clock.advance(1.0)
        # ...then a short burst of slow requests: the fast window burns
        # but the slow window still holds budget -> not breached.
        for _ in range(3):
            monitor.observe(0.5)
            clock.advance(0.1)
        latency = monitor.status()["objectives"]["latency"]
        assert latency["fast"]["burn_rate"] > 1.0
        assert latency["slow"]["burn_rate"] <= 1.0
        assert not latency["breached"]
        assert monitor.healthy

    def test_recovery_after_the_window_passes(self):
        clock = FakeClock()
        config = SLOConfig(
            latency_threshold_s=0.1,
            latency_target=0.9,
            fast_window_s=5.0,
            slow_window_s=10.0,
        )
        monitor = SLOMonitor(config, clock=clock)
        for _ in range(5):
            monitor.observe(0.5)
            clock.advance(0.2)
        assert not monitor.healthy
        clock.advance(30.0)
        # Evicted windows are empty -> burn 0 -> healthy again.
        assert monitor.healthy

    def test_error_and_degraded_objectives_track_flags(self):
        clock = FakeClock()
        monitor = SLOMonitor(clock=clock)
        verdicts = monitor.observe(0.001, error=True, degraded=True)
        assert verdicts == {
            "latency": False, "error": True, "degraded": True,
        }

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(latency_threshold_s=0.0)
        with pytest.raises(ValueError):
            SLOConfig(latency_target=1.0)
        with pytest.raises(ValueError):
            SLOConfig(fast_window_s=600.0, slow_window_s=300.0)


# ----------------------------------------------------------------------
# Structured JSON event log
# ----------------------------------------------------------------------
class TestJsonEventLog:
    def _capture(self, **kwargs):
        stream = io.StringIO()
        configure_json_logging(stream=stream, **kwargs)
        return stream

    def test_event_renders_one_json_line_with_fields(self):
        stream = self._capture()
        get_logger("serving").event("request.shed", route="/query", n=3)
        line = stream.getvalue().strip()
        payload = json.loads(line)
        assert payload["event"] == "request.shed"
        assert payload["logger"] == "repro.serving"
        assert payload["route"] == "/query"
        assert payload["n"] == 3

    def test_bound_context_stamps_trace_and_request_ids(self):
        stream = self._capture()
        context = _ctx.new_request_context()
        with _ctx.bind(context):
            get_logger("serving").event("request.slow")
        payload = json.loads(stream.getvalue().strip())
        assert payload["trace_id"] == context.trace_id
        assert payload["request_id"] == context.request_id

    def test_rate_limiter_suppresses_storms_and_reports(self):
        clock = FakeClock()
        limiter = RateLimitFilter(10.0, 5.0, clock=clock)
        passed = 0
        for _ in range(50):
            record = logging.LogRecord(
                "repro.t", logging.INFO, __file__, 1, "boom", (), None
            )
            if limiter.filter(record):
                passed = record
        assert limiter.suppressed_total > 0
        # Let the bucket refill: the next record reports what was lost.
        clock.advance(10.0)
        record = logging.LogRecord(
            "repro.t", logging.INFO, __file__, 1, "after", (), None
        )
        assert limiter.filter(record)
        assert record.event_fields["suppressed"] == (
            limiter.suppressed_total
        )

    def test_configure_is_idempotent(self):
        root = logging.getLogger("repro")
        configure_json_logging(stream=io.StringIO())
        configure_json_logging(stream=io.StringIO())
        named = [
            h for h in root.handlers if h.get_name() == "repro-json"
        ]
        assert len(named) == 1
        reset_logging()
        assert not [
            h for h in root.handlers if h.get_name() == "repro-json"
        ]


# ----------------------------------------------------------------------
# top view: Prometheus parsing and quantiles
# ----------------------------------------------------------------------
EXPOSITION = """\
# HELP repro_serving_requests_total Requests
# TYPE repro_serving_requests_total counter
repro_serving_requests_total{route="/query",status="200"} 90
repro_serving_requests_total{route="/query",status="429"} 10
repro_serving_request_seconds_bucket{route="/query",le="0.01"} 50
repro_serving_request_seconds_bucket{route="/query",le="0.1"} 90
repro_serving_request_seconds_bucket{route="/query",le="+Inf"} 100
repro_serving_request_seconds_sum{route="/query"} 2.5
repro_serving_request_seconds_count{route="/query"} 100
repro_slo_healthy 1
"""


class TestTopView:
    def test_parse_prometheus_series(self):
        series = parse_prometheus(EXPOSITION)
        sample = MetricsSample(series)
        assert sample.value("repro_slo_healthy") == 1.0
        assert sample.total("repro_serving_requests_total") == 100.0
        assert sample.total(
            "repro_serving_requests_total", status="429"
        ) == 10.0

    def test_buckets_are_cumulative_with_inf_last(self):
        sample = MetricsSample(parse_prometheus(EXPOSITION))
        pairs = sample.buckets("repro_serving_request_seconds")
        assert pairs[-1] == (math.inf, 100.0)
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)

    def test_quantiles_interpolate_within_buckets(self):
        pairs = [(0.01, 50.0), (0.1, 90.0), (math.inf, 100.0)]
        assert quantile_from_buckets(pairs, 0.5) == pytest.approx(0.01)
        p90 = quantile_from_buckets(pairs, 0.9)
        assert 0.01 < p90 <= 0.1
        # Ranks landing in +Inf report the largest finite bound.
        assert quantile_from_buckets(pairs, 0.99) == pytest.approx(0.1)
        assert quantile_from_buckets([], 0.5) == 0.0

    def test_render_top_shows_rates_and_slo(self):
        prev = MetricsSample(parse_prometheus(EXPOSITION), at=0.0)
        bumped = EXPOSITION.replace(
            'repro_serving_requests_total{route="/query",status="200"} 90',
            'repro_serving_requests_total{route="/query",status="200"} 190',
        )
        curr = MetricsSample(parse_prometheus(bumped), at=10.0)
        text = render_top(curr, prev, title="test")
        assert "requests" in text and "10.0/s" in text
        assert "healthy: yes" in text
        assert "/query" in text


# ----------------------------------------------------------------------
# Serving integration: debug surfaces, SLO flip, trace stitching
# ----------------------------------------------------------------------
async def _request(
    port, method, target, body=b"", headers=()
):
    """One raw request -> (status, headers, parsed json body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        raw = encode_request(method, target, body)
        if headers:
            head, _, rest = raw.partition(b"\r\n")
            extra = "".join(
                f"{name}: {value}\r\n" for name, value in headers
            ).encode("latin-1")
            raw = head + b"\r\n" + extra + rest
        writer.write(raw)
        await writer.drain()
        status, response_headers, payload = await read_response(reader)
        return (
            status,
            response_headers,
            json.loads(payload) if payload else {},
        )
    finally:
        writer.close()


def _run_with_server(index, config, scenario):
    async def main():
        server = QueryServer(index, config)
        await server.start()
        try:
            return await scenario(server)
        finally:
            if not server.draining:
                await server.aclose()

    return asyncio.run(main())


def _query_body(gamma, k=5):
    return json_body({"gamma": [float(v) for v in gamma], "k": k})


class TestServingTelemetry:
    def test_trace_headers_minted_and_echoed(self, small_index):
        obs.enable()
        config = ServingConfig(port=0)

        async def scenario(server):
            return await _request(
                server.port, "POST", "/query",
                _query_body([0.4, 0.3, 0.2, 0.1]),
            )

        status, headers, _ = _run_with_server(
            small_index, config, scenario
        )
        assert status == 200
        assert len(headers["x-trace-id"]) == 16
        assert len(headers["x-request-id"]) == 12

    def test_incoming_trace_id_is_honored(self, small_index):
        obs.enable()
        config = ServingConfig(port=0)

        async def scenario(server):
            return await _request(
                server.port, "POST", "/query",
                _query_body([0.4, 0.3, 0.2, 0.1]),
                headers=(
                    ("x-trace-id", "feedfacecafebeef"),
                    ("x-request-id", "aabbccddeeff"),
                ),
            )

        status, headers, _ = _run_with_server(
            small_index, config, scenario
        )
        assert status == 200
        assert headers["x-trace-id"] == "feedfacecafebeef"
        assert headers["x-request-id"] == "aabbccddeeff"
        spans = obs.get_tracer().find_trace("feedfacecafebeef")
        assert any(s.name == "serving.request" for s in spans)

    def test_flight_recorder_populates_debug_requests(self, small_index):
        obs.enable()
        config = ServingConfig(port=0)

        async def scenario(server):
            gamma = [0.4, 0.3, 0.2, 0.1]
            await _request(
                server.port, "POST", "/query", _query_body(gamma)
            )
            await _request(
                server.port, "POST", "/query", _query_body(gamma)
            )
            return await _request(server.port, "GET", "/debug/requests")

        status, _, payload = _run_with_server(
            small_index, config, scenario
        )
        assert status == 200
        records = payload["requests"]
        assert len(records) == 2
        newest, oldest = records
        assert newest["cache_hit"] and not oldest["cache_hit"]
        assert newest["fingerprint"] == oldest["fingerprint"]
        assert oldest["k"] == 5 and oldest["strategy"] == "inflex"
        assert oldest["batch_id"] is not None
        assert set(oldest["timings_ms"]) >= {
            "search", "selection", "aggregation", "total",
        }
        # Debug traffic itself must not pollute the recorder.
        assert payload["total"] == 2

    def test_slow_query_captures_full_span_tree(self, small_index):
        obs.enable()
        # An absurdly low threshold makes every request "slow".
        config = ServingConfig(port=0, slow_ms=0.0001)

        async def scenario(server):
            await _request(
                server.port, "POST", "/query",
                _query_body([0.4, 0.3, 0.2, 0.1]),
            )
            return await _request(server.port, "GET", "/debug/slow")

        status, _, payload = _run_with_server(
            small_index, config, scenario
        )
        assert status == 200
        (entry,) = payload["requests"]
        assert entry["slow"]
        names = [span["name"] for span in entry["spans"]]
        assert "serving.request" in names
        assert "serving.batch" in names
        assert any(name.startswith("query") for name in names)

    def test_slo_burn_flips_healthz(self, small_index):
        obs.enable()
        # Sub-microsecond latency SLO: every request violates it.
        config = ServingConfig(port=0, slo_latency_ms=0.00001)

        async def scenario(server):
            for _ in range(5):
                await _request(
                    server.port, "POST", "/query",
                    _query_body([0.4, 0.3, 0.2, 0.1]),
                )
            healthz = await _request(server.port, "GET", "/healthz")
            slo = await _request(server.port, "GET", "/debug/slo")
            metrics_status, _, _ = 0, 0, 0
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(encode_request("GET", "/metrics"))
                await writer.drain()
                metrics_status, _, metrics = await read_response(reader)
            finally:
                writer.close()
            return healthz, slo, metrics_status, metrics.decode()

        healthz, slo, metrics_status, metrics = _run_with_server(
            small_index, config, scenario
        )
        status, _, health = healthz
        assert status == 200 and metrics_status == 200
        assert health["status"] == "degraded"
        assert not health["slo"]["healthy"]
        assert "latency" in health["slo"]["breached"]
        _, _, slo_payload = slo
        latency = slo_payload["objectives"]["latency"]
        assert latency["fast"]["burn_rate"] > 1.0
        assert latency["breached"]
        assert 'repro_slo_burn_rate{objective="latency"' in metrics
        assert "repro_slo_healthy 0" in metrics

    def test_healthy_service_reports_ok(self, small_index):
        obs.enable()
        config = ServingConfig(port=0)

        async def scenario(server):
            await _request(
                server.port, "POST", "/query",
                _query_body([0.4, 0.3, 0.2, 0.1]),
            )
            return await _request(server.port, "GET", "/healthz")

        status, _, health = _run_with_server(
            small_index, config, scenario
        )
        assert status == 200
        assert health["status"] == "ok"
        assert health["slo"]["healthy"]
        assert health["slo"]["breached"] == []

    def test_request_spans_stitch_into_one_trace(self, small_index):
        obs.enable()
        config = ServingConfig(port=0)

        async def scenario(server):
            _, headers, _ = await _request(
                server.port, "POST", "/query",
                _query_body([0.37, 0.31, 0.21, 0.11]),
            )
            return headers["x-trace-id"]

        trace_id = _run_with_server(small_index, config, scenario)
        spans = obs.get_tracer().find_trace(trace_id)
        by_id = {span.span_id: span for span in spans}
        names = {span.name for span in spans}
        assert {"serving.request", "serving.batch", "query"} <= names
        # The query span (executor thread) must chain up to the
        # serving.request span (event loop) through parent links.
        query = next(s for s in spans if s.name == "query")
        ancestry = set()
        cursor = query
        while cursor.parent_id is not None:
            cursor = by_id[cursor.parent_id]
            ancestry.add(cursor.name)
        assert "serving.request" in ancestry
        assert "serving.batch" in ancestry

    def test_stats_expose_flight_and_slo(self, small_index):
        obs.enable()
        config = ServingConfig(port=0)

        async def scenario(server):
            await _request(
                server.port, "POST", "/query",
                _query_body([0.4, 0.3, 0.2, 0.1]),
            )
            return await _request(server.port, "GET", "/stats")

        status, _, stats = _run_with_server(
            small_index, config, scenario
        )
        assert status == 200
        assert stats["flight"]["total"] == 1
        assert "latency" in stats["slo"]["objectives"]


# ----------------------------------------------------------------------
# Cross-process trace stitching (acceptance criterion)
# ----------------------------------------------------------------------
class TestCrossProcessTrace:
    def test_worker_chunk_spans_join_the_parent_trace(self, small_graph):
        from repro.propagation.parallel import (
            ParallelMonteCarloSpread,
            shutdown_pools,
        )

        obs.enable()
        context = _ctx.new_request_context()
        gamma = np.full(4, 0.25)
        try:
            with ParallelMonteCarloSpread(
                small_graph, gamma,
                num_simulations=32, seed=3, workers=2,
            ) as estimator:
                with _ctx.bind(context):
                    estimator.estimate([0, 1, 2])
        finally:
            shutdown_pools()
        spans = obs.get_tracer().find_trace(context.trace_id)
        dispatch = [s for s in spans if s.name == "spread.dispatch"]
        chunks = [s for s in spans if s.name == "spread.chunk"]
        assert len(dispatch) == 1
        assert chunks, "worker chunk spans were not adopted"
        assert all(
            chunk.parent_id == dispatch[0].span_id for chunk in chunks
        )
        assert all(
            chunk.trace_id == context.trace_id for chunk in chunks
        )
        # Worker-side spans carry the worker pid as thread id — a
        # different process than the dispatcher.
        assert any(
            chunk.thread_id != dispatch[0].thread_id for chunk in chunks
        )

    def test_rr_worker_chunk_spans_join_the_parent_trace(self, small_graph):
        from repro.im.imm import RRSampler
        from repro.propagation.parallel import shutdown_pools

        obs.enable()
        context = _ctx.new_request_context()
        gamma = np.full(4, 0.25)
        try:
            with RRSampler(small_graph, workers=2) as sampler:
                with _ctx.bind(context):
                    sampler.sample(gamma, 600, seed=4)
        finally:
            shutdown_pools()
        spans = obs.get_tracer().find_trace(context.trace_id)
        dispatch = [s for s in spans if s.name == "rr.dispatch"]
        chunks = [s for s in spans if s.name == "rr.chunk"]
        assert len(dispatch) == 1
        assert chunks, "worker chunk spans were not adopted"
        assert all(
            chunk.parent_id == dispatch[0].span_id for chunk in chunks
        )
        assert any(
            chunk.thread_id != dispatch[0].thread_id for chunk in chunks
        )
