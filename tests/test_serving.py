"""Tests for the concurrent query service (`repro.serving`).

Covers the serving components in isolation (protocol codec, admission
controller, micro-batcher, singleflight, cache canonicalization and
concurrency safety) and end-to-end: a real asyncio server on a built
index answering overlapping identical + distinct queries, shedding
under a tiny admission budget, and draining cleanly — plus a true
SIGTERM drain of the CLI ``serve`` subprocess.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core import CachedIndex, ServingConfig
from repro.serving import (
    AdmissionController,
    BatchItem,
    MicroBatcher,
    QueryServer,
    QueueFullError,
    SingleFlight,
    build_query_mix,
    run_loadgen,
)
from repro.serving.protocol import (
    ProtocolError,
    encode_request,
    encode_response,
    json_body,
    parse_query_payload,
    read_request,
    read_response,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Cache: canonical keys, concurrency safety, TTL
# ----------------------------------------------------------------------
class TestCanonicalKey:
    def test_rounding_collapses_near_identical_queries(self, small_index):
        cached = CachedIndex(small_index, decimals=3)
        gamma = np.array([0.5, 0.3, 0.15, 0.05])
        jittered = gamma + np.array([1e-6, -1e-6, 1e-6, -1e-6])
        assert cached.canonical_key(gamma, 5, "inflex") == (
            cached.canonical_key(jittered, 5, "inflex")
        )

    def test_sum_drift_is_renormalized_away(self, small_index):
        # The satellite fix: a scaled (unnormalized) variant rounds to a
        # grid point with a different sum; renormalizing the rounded key
        # collapses both into one bucket.
        cached = CachedIndex(small_index, decimals=3)
        gamma = [0.3, 0.3, 0.2, 0.2]
        scaled = [0.6, 0.6, 0.4, 0.4]
        assert cached.canonical_key(gamma, 5, "inflex") == (
            cached.canonical_key(scaled, 5, "inflex")
        )

    def test_negative_rounding_residue_is_clipped(self, small_index):
        cached = CachedIndex(small_index, decimals=3)
        gamma = [0.0, 0.5, 0.3, 0.2]
        dirty = [-1e-9, 0.5, 0.3, 0.2]
        assert cached.canonical_key(gamma, 5, "inflex") == (
            cached.canonical_key(dirty, 5, "inflex")
        )

    def test_distinct_queries_stay_distinct(self, small_index):
        cached = CachedIndex(small_index, decimals=3)
        key_a = cached.canonical_key([0.4, 0.3, 0.2, 0.1], 5, "inflex")
        key_b = cached.canonical_key([0.1, 0.2, 0.3, 0.4], 5, "inflex")
        assert key_a != key_b

    def test_k_and_strategy_partition_the_space(self, small_index):
        cached = CachedIndex(small_index)
        gamma = [0.4, 0.3, 0.2, 0.1]
        keys = {
            cached.canonical_key(gamma, 5, "inflex"),
            cached.canonical_key(gamma, 6, "inflex"),
            cached.canonical_key(gamma, 5, "approx-knn"),
        }
        assert len(keys) == 3


class TestCachedIndexConcurrency:
    def test_hammered_from_threads_stays_consistent(
        self, small_index, small_workload
    ):
        cached = CachedIndex(small_index, max_entries=4)
        pool = list(small_workload.items[:8])
        per_thread = 40
        num_threads = 6
        errors: list[Exception] = []

        def hammer(worker: int) -> None:
            rng = np.random.default_rng(worker)
            try:
                for _ in range(per_thread):
                    gamma = pool[int(rng.integers(len(pool)))]
                    answer = cached.query(gamma, 4)
                    assert len(answer.seeds) > 0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cached.stats()
        # The satellite fix: counters must not tear — every lookup is
        # exactly one hit or one miss, and occupancy respects capacity.
        assert stats["hits"] + stats["misses"] == per_thread * num_threads
        assert stats["entries"] <= 4
        assert len(cached) <= 4

    def test_stats_snapshot_is_consistent(self, small_index, small_workload):
        cached = CachedIndex(small_index)
        for gamma in small_workload.items[:5]:
            cached.query(gamma, 4)
            cached.query(gamma, 4)
        stats = cached.stats()
        assert stats["hits"] == 5
        assert stats["misses"] == 5
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_ttl_expires_entries(self, small_index, small_workload):
        now = [0.0]
        cached = CachedIndex(
            small_index, ttl_seconds=10.0, clock=lambda: now[0]
        )
        gamma = small_workload.items[0]
        cached.query(gamma, 4)
        now[0] = 5.0
        cached.query(gamma, 4)
        assert cached.hits == 1
        now[0] = 20.0
        cached.query(gamma, 4)
        assert cached.expirations == 1
        assert cached.misses == 2
        assert cached.stats()["expirations"] == 1


# ----------------------------------------------------------------------
# Protocol codec
# ----------------------------------------------------------------------
class TestProtocol:
    def _feed(self, payload: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(payload)
        reader.feed_eof()
        return reader

    def test_request_round_trip(self):
        async def scenario():
            body = json_body({"gamma": [0.5, 0.5], "k": 3})
            raw = encode_request("POST", "/query", body)
            request = await read_request(self._feed(raw))
            assert request.method == "POST"
            assert request.target == "/query"
            assert request.json() == {"gamma": [0.5, 0.5], "k": 3}
            assert request.keep_alive

        asyncio.run(scenario())

    def test_response_round_trip(self):
        async def scenario():
            raw = encode_response(
                429,
                json_body({"error": "shed"}),
                extra_headers={"Retry-After": "1"},
            )
            status, headers, body = await read_response(self._feed(raw))
            assert status == 429
            assert headers["retry-after"] == "1"
            assert json.loads(body) == {"error": "shed"}

        asyncio.run(scenario())

    def test_clean_eof_returns_none(self):
        async def scenario():
            return await read_request(self._feed(b""))

        assert asyncio.run(scenario()) is None

    def test_malformed_request_raises(self):
        async def scenario():
            await read_request(self._feed(b"NONSENSE\r\n\r\n"))

        with pytest.raises(ProtocolError):
            asyncio.run(scenario())

    def test_parse_query_payload_normalizes_gamma(self):
        gamma, k, strategy, deadline = parse_query_payload(
            {"gamma": [2.0, 1.0, 1.0], "k": 5}
        )
        assert gamma == pytest.approx([0.5, 0.25, 0.25])
        assert (k, strategy, deadline) == (5, "inflex", None)

    @pytest.mark.parametrize(
        "payload",
        [
            {"gamma": [], "k": 5},
            {"gamma": [0.5, "x"], "k": 5},
            {"gamma": [0.5, -0.5], "k": 5},
            {"gamma": [0.0, 0.0], "k": 5},
            {"gamma": [0.5, 0.5]},
            {"gamma": [0.5, 0.5], "k": 0},
            {"gamma": [0.5, 0.5], "k": True},
            {"gamma": [0.5, 0.5], "k": 5, "deadline_ms": -1},
            "not an object",
        ],
    )
    def test_parse_query_payload_rejects(self, payload):
        with pytest.raises(ProtocolError):
            parse_query_payload(payload)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_inflight_budget_sheds(self):
        controller = AdmissionController(2, 10)
        assert controller.try_admit() is None
        assert controller.try_admit() is None
        assert controller.try_admit() == "inflight"
        controller.release()
        assert controller.try_admit() is None

    def test_queue_depth_sheds(self):
        depth = [0]
        controller = AdmissionController(10, 3, queue_depth=lambda: depth[0])
        assert controller.try_admit() is None
        depth[0] = 3
        assert controller.try_admit() == "queue"

    def test_weighted_admission(self):
        controller = AdmissionController(4, 10)
        assert controller.try_admit(weight=3) is None
        assert controller.try_admit(weight=2) == "inflight"
        controller.release(weight=3)
        assert controller.idle

    def test_snapshot_counts(self):
        controller = AdmissionController(1, 10)
        controller.try_admit()
        controller.try_admit()
        controller.try_admit()
        snapshot = controller.snapshot()
        assert snapshot.inflight == 1
        assert snapshot.admitted_total == 1
        assert snapshot.shed_total == 2
        assert snapshot.shed_by_reason == {"inflight": 2}


# ----------------------------------------------------------------------
# Micro-batcher
# ----------------------------------------------------------------------
def _item(loop, k=5, strategy="inflex", gamma=None):
    return BatchItem(
        gamma=gamma,
        k=k,
        strategy=strategy,
        deadline=None,
        future=loop.create_future(),
    )


class TestMicroBatcher:
    """The batcher runs each group on an executor thread; ``run`` is the
    blocking callable it hands the group to."""

    def test_coalesces_queued_items(self):
        async def scenario():
            calls: list[int] = []

            def run(items):
                calls.append(len(items))
                return [item.k for item in items]

            batcher = MicroBatcher(
                run, max_batch_size=4, max_wait_s=0.01, max_queue_depth=64
            )
            with ThreadPoolExecutor(1) as executor:
                batcher.start(executor)
                loop = asyncio.get_running_loop()
                items = [_item(loop) for _ in range(10)]
                for item in items:
                    batcher.submit(item)
                results = await asyncio.gather(*(i.future for i in items))
                await batcher.drain()
            return calls, results

        calls, results = asyncio.run(scenario())
        assert sum(calls) == 10
        assert max(calls) <= 4
        assert len(calls) < 10  # coalescing actually happened
        assert results == [5] * 10

    def test_partitions_mixed_groups(self):
        async def scenario():
            seen: list[tuple] = []

            def run(items):
                keys = {item.group_key for item in items}
                seen.append((len(items), keys))
                return [item.k for item in items]

            batcher = MicroBatcher(
                run, max_batch_size=8, max_wait_s=0.01, max_queue_depth=64
            )
            with ThreadPoolExecutor(1) as executor:
                batcher.start(executor)
                loop = asyncio.get_running_loop()
                items = [_item(loop, k=1 + (i % 2)) for i in range(8)]
                for item in items:
                    batcher.submit(item)
                await asyncio.gather(*(i.future for i in items))
                await batcher.drain()
            return seen

        seen = asyncio.run(scenario())
        # Every dispatched group is homogeneous in (k, strategy).
        assert all(len(keys) == 1 for _, keys in seen)
        assert sum(size for size, _ in seen) == 8

    def test_queue_bound_raises(self):
        async def scenario():
            def run(items):  # pragma: no cover - never dispatched
                return [None for _ in items]

            batcher = MicroBatcher(
                run, max_batch_size=4, max_wait_s=0.01, max_queue_depth=2
            )
            # Not started: the queue just fills.
            loop = asyncio.get_running_loop()
            batcher.submit(_item(loop))
            batcher.submit(_item(loop))
            with pytest.raises(QueueFullError):
                batcher.submit(_item(loop))

        asyncio.run(scenario())

    def test_executor_failure_propagates_to_futures(self):
        async def scenario():
            def run(items):
                raise RuntimeError("index exploded")

            batcher = MicroBatcher(
                run, max_batch_size=4, max_wait_s=0.001, max_queue_depth=8
            )
            with ThreadPoolExecutor(1) as executor:
                batcher.start(executor)
                loop = asyncio.get_running_loop()
                item = _item(loop)
                batcher.submit(item)
                with pytest.raises(RuntimeError, match="index exploded"):
                    await item.future
                await batcher.drain()

        asyncio.run(scenario())

    def test_lone_submit_dispatches_without_a_window(self):
        async def scenario():
            def run(items):
                return [item.k for item in items]

            batcher = MicroBatcher(
                run, max_wait_s=ServingConfig().max_batch_wait_s
            )
            with ThreadPoolExecutor(1) as executor:
                batcher.start(executor)
                item = _item(asyncio.get_running_loop())
                batcher.submit(item)
                # A handful of bare event-loop turns, no timer: enough
                # to hand the item to the executor, far too few for
                # any window to elapse.
                for _ in range(5):
                    await asyncio.sleep(0)
                dispatched = batcher.stats.batches_total == 1
                await item.future
                await batcher.drain()
            return dispatched

        assert asyncio.run(scenario())

    def test_items_queued_behind_a_busy_executor_leave_together(self):
        async def scenario():
            calls: list[list[tuple]] = []
            entered = threading.Event()
            release = threading.Event()

            def run(items):
                calls.append(
                    [(item.k, item.strategy, item.gamma) for item in items]
                )
                entered.set()
                assert release.wait(10)
                return [item.k for item in items]

            batcher = MicroBatcher(run, max_wait_s=0.0)
            with ThreadPoolExecutor(1) as executor:
                batcher.start(executor)
                loop = asyncio.get_running_loop()
                first = _item(loop, gamma=0)
                batcher.submit(first)
                while not entered.is_set():
                    await asyncio.sleep(0.001)
                burst = [
                    _item(
                        loop,
                        k=1 + i % 2,
                        strategy=("inflex", "sketch")[i // 4],
                        gamma=i + 1,
                    )
                    for i in range(8)
                ]
                for item in burst:
                    batcher.submit(item)
                release.set()
                await asyncio.gather(*(i.future for i in [first, *burst]))
                stats = batcher.stats.to_dict()
                await batcher.drain()
            return calls, stats

        calls, stats = asyncio.run(scenario())
        assert calls[0] == [(5, "inflex", 0)]
        # The whole burst went out in the next window, one call per
        # (k, strategy) group, each group in submit order.
        assert calls[1:] == [
            [(1, "inflex", 1), (1, "inflex", 3)],
            [(2, "inflex", 2), (2, "inflex", 4)],
            [(1, "sketch", 5), (1, "sketch", 7)],
            [(2, "sketch", 6), (2, "sketch", 8)],
        ]
        assert stats["batches_total"] == 5
        assert stats["items_total"] == 9


# ----------------------------------------------------------------------
# Singleflight
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_callers_share_one_computation(self):
        async def scenario():
            flight = SingleFlight()
            computations = 0

            async def supplier():
                nonlocal computations
                computations += 1
                await asyncio.sleep(0.01)
                return "answer"

            outcomes = await asyncio.gather(
                *(flight.run("key", supplier) for _ in range(6))
            )
            return computations, outcomes, flight.coalesced_total

        computations, outcomes, coalesced = asyncio.run(scenario())
        assert computations == 1
        assert all(result == "answer" for result, _ in outcomes)
        assert sum(leader for _, leader in outcomes) == 1
        assert coalesced == 5

    def test_distinct_keys_do_not_coalesce(self):
        async def scenario():
            flight = SingleFlight()
            computations = 0

            async def supplier():
                nonlocal computations
                computations += 1
                await asyncio.sleep(0.005)
                return computations

            await asyncio.gather(
                flight.run("a", supplier), flight.run("b", supplier)
            )
            return computations

        assert asyncio.run(scenario()) == 2

    def test_exception_reaches_every_waiter(self):
        async def scenario():
            flight = SingleFlight()

            async def supplier():
                await asyncio.sleep(0.005)
                raise ValueError("boom")

            results = await asyncio.gather(
                *(flight.run("key", supplier) for _ in range(3)),
                return_exceptions=True,
            )
            return results

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(isinstance(r, ValueError) for r in results)

    def test_new_flight_after_completion(self):
        async def scenario():
            flight = SingleFlight()
            computations = 0

            async def supplier():
                nonlocal computations
                computations += 1
                return computations

            first, _ = await flight.run("key", supplier)
            second, _ = await flight.run("key", supplier)
            return first, second

        assert asyncio.run(scenario()) == (1, 2)


# ----------------------------------------------------------------------
# End-to-end server
# ----------------------------------------------------------------------
async def _post_query(host, port, gamma, k=5, strategy="inflex", deadline_ms=None):
    """One request on its own connection -> (status, headers, payload)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = {"gamma": [float(v) for v in gamma], "k": k, "strategy": strategy}
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        writer.write(encode_request("POST", "/query", json_body(body)))
        await writer.drain()
        status, headers, payload = await read_response(reader)
        return status, headers, json.loads(payload) if payload else {}
    finally:
        writer.close()


def _run_with_server(index, config, scenario):
    """Start a QueryServer, run ``await scenario(server)``, drain, return."""

    async def main():
        server = QueryServer(index, config)
        await server.start()
        try:
            return await scenario(server)
        finally:
            if not server.draining:
                await server.aclose()

    return asyncio.run(main())


class TestQueryServerEndToEnd:
    def test_overlapping_queries_coalesce_and_batch(self, small_index):
        config = ServingConfig(port=0, max_batch_wait_us=4000)

        async def scenario(server):
            rng = np.random.default_rng(7)
            distinct = rng.dirichlet(np.full(4, 0.8), size=16)
            hot = [0.4, 0.3, 0.2, 0.1]
            tasks = [
                _post_query("127.0.0.1", server.port, hot) for _ in range(16)
            ]
            tasks += [
                _post_query("127.0.0.1", server.port, row) for row in distinct
            ]
            responses = await asyncio.gather(*tasks)
            return responses, server.stats()

        responses, stats = _run_with_server(small_index, config, scenario)
        assert all(status == 200 for status, _, _ in responses)
        payloads = [payload for _, _, payload in responses]
        assert all(payload["seeds"] for payload in payloads)
        # Computation count < request count: the 16 identical queries
        # collapse via singleflight/cache, so the batcher saw fewer
        # items than the wire did, and dispatched them in fewer calls.
        assert stats["batcher"]["items_total"] < 32
        coalesced_or_cached = (
            stats["singleflight_coalesced"] + stats["cache"]["hits"]
        )
        assert coalesced_or_cached > 0
        assert stats["batcher"]["batches_total"] < (
            stats["batcher"]["items_total"]
        )

    def test_metrics_scrape_refreshes_slo_gauges(self, small_index):
        """The SLO burn-rate and health gauges are computed when
        /metrics is read: a scrape with no /healthz or /stats before it
        reports the windows as of the scrape."""
        from repro import obs

        obs.enable()
        # Sub-microsecond latency SLO: every request violates it.
        config = ServingConfig(port=0, slo_latency_ms=0.00001)

        async def scenario(server):
            for _ in range(3):
                await _post_query(
                    "127.0.0.1", server.port, [0.4, 0.3, 0.2, 0.1]
                )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(encode_request("GET", "/metrics"))
                await writer.drain()
                return await read_response(reader)
            finally:
                writer.close()

        status, _, metrics = _run_with_server(small_index, config, scenario)
        assert status == 200
        burn = [
            float(line.rsplit(" ", 1)[1])
            for line in metrics.decode().splitlines()
            if line.startswith(
                'repro_slo_burn_rate{objective="latency",window="fast"}'
            )
        ]
        assert burn and burn[0] > 1.0

    def test_burst_behind_slow_executor_batches(self, small_index):
        config = ServingConfig(port=0)
        burst_size = 8

        async def scenario(server):
            entered = threading.Event()
            release = threading.Event()
            all_queued = asyncio.Event()
            submitted = 0
            run = server.batcher._run
            submit = server.batcher.submit

            def slow_run(items):  # on the executor thread
                entered.set()
                assert release.wait(10)
                return run(items)

            def counting_submit(item):
                nonlocal submitted
                submit(item)
                submitted += 1
                if submitted == 1 + burst_size:
                    all_queued.set()

            server.batcher._run = slow_run
            server.batcher.submit = counting_submit
            rng = np.random.default_rng(31)
            gammas = rng.dirichlet(np.full(4, 0.8), size=1 + burst_size)
            tasks = [
                asyncio.ensure_future(
                    _post_query("127.0.0.1", server.port, gammas[0])
                )
            ]
            while not entered.is_set():
                await asyncio.sleep(0.001)
            tasks += [
                asyncio.ensure_future(
                    _post_query("127.0.0.1", server.port, row)
                )
                for row in gammas[1:]
            ]
            await all_queued.wait()
            release.set()
            responses = await asyncio.gather(*tasks)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode_request("GET", "/stats"))
            await writer.drain()
            _, _, payload = await read_response(reader)
            writer.close()
            return responses, json.loads(payload)

        responses, stats = _run_with_server(small_index, config, scenario)
        assert all(status == 200 for status, _, _ in responses)
        assert stats["batcher"]["items_total"] == 1 + burst_size
        assert stats["batcher"]["batches_total"] == 2
        assert stats["batcher"]["mean_batch_size"] > 1

    def test_identical_answers_from_cache(self, small_index):
        config = ServingConfig(port=0)

        async def scenario(server):
            gamma = [0.4, 0.3, 0.2, 0.1]
            first = await _post_query("127.0.0.1", server.port, gamma)
            second = await _post_query("127.0.0.1", server.port, gamma)
            return first, second

        (s1, _, p1), (s2, _, p2) = _run_with_server(
            small_index, config, scenario
        )
        assert s1 == s2 == 200
        assert p1["seeds"] == p2["seeds"]
        assert not p1["cache_hit"] and p2["cache_hit"]

    def test_sheds_with_retry_after_under_tiny_budget(self, small_index):
        config = ServingConfig(
            port=0, max_inflight=1, max_queue_depth=1, retry_after_s=1.0
        )

        async def scenario(server):
            rng = np.random.default_rng(11)
            gammas = rng.dirichlet(np.full(4, 0.8), size=24)
            return await asyncio.gather(
                *(
                    _post_query("127.0.0.1", server.port, row)
                    for row in gammas
                )
            )

        responses = _run_with_server(small_index, config, scenario)
        statuses = [status for status, _, _ in responses]
        assert set(statuses) <= {200, 429}
        assert statuses.count(200) >= 1
        shed = [
            (headers, payload)
            for status, headers, payload in responses
            if status == 429
        ]
        assert shed, "expected sheds under a max_inflight=1 budget"
        for headers, payload in shed:
            # Retry-After is jittered: the exact hint rides in
            # X-Retry-After-Ms, the header is its whole-second ceiling.
            hint_ms = float(headers["x-retry-after-ms"])
            assert 1000.0 <= hint_ms <= 1500.0
            assert int(headers["retry-after"]) == max(
                1, math.ceil(hint_ms / 1000.0)
            )
            assert "shed" in payload["error"]

    def test_batch_endpoint_answers_in_order(self, small_index):
        config = ServingConfig(port=0)

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            queries = [
                {"gamma": [0.4, 0.3, 0.2, 0.1]},
                {"gamma": [0.1, 0.2, 0.3, 0.4], "k": 3},
            ]
            writer.write(
                encode_request(
                    "POST",
                    "/query_batch",
                    json_body({"queries": queries, "k": 5}),
                )
            )
            await writer.drain()
            status, _, payload = await read_response(reader)
            writer.close()
            return status, json.loads(payload)

        status, payload = _run_with_server(small_index, config, scenario)
        assert status == 200
        answers = payload["answers"]
        assert len(answers) == 2
        assert len(answers[0]["seeds"]) == 5
        assert len(answers[1]["seeds"]) == 3

    def test_deadline_propagates_to_degraded_answers(self, small_index):
        config = ServingConfig(port=0, deadline_ms=None)

        async def scenario(server):
            # An already-expired budget cannot finish aggregation; the
            # PR 3 machinery must hand back a degraded answer, not hang.
            return await _post_query(
                "127.0.0.1",
                server.port,
                [0.4, 0.3, 0.2, 0.1],
                deadline_ms=0.0001,
            )

        status, _, payload = _run_with_server(small_index, config, scenario)
        assert status == 200
        assert payload["degraded"]
        assert payload["seeds"]

    def test_bad_requests_get_400(self, small_index):
        config = ServingConfig(port=0)

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                encode_request("POST", "/query", json_body({"k": 5}))
            )
            await writer.drain()
            bad_gamma = await read_response(reader)
            writer.close()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode_request("GET", "/nope"))
            await writer.drain()
            not_found = await read_response(reader)
            writer.close()
            return bad_gamma, not_found

        (bad_status, _, _), (nf_status, _, _) = _run_with_server(
            small_index, config, scenario
        )
        assert bad_status == 400
        assert nf_status == 404

    def test_healthz_reports_index_shape(self, small_index):
        config = ServingConfig(port=0)

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode_request("GET", "/healthz"))
            await writer.drain()
            status, _, payload = await read_response(reader)
            writer.close()
            return status, json.loads(payload)

        status, payload = _run_with_server(small_index, config, scenario)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["num_topics"] == 4
        assert payload["num_index_points"] == small_index.num_index_points

    def test_drain_answers_every_accepted_request(self, small_index):
        config = ServingConfig(port=0, max_batch_wait_us=4000)

        async def scenario(server):
            rng = np.random.default_rng(23)
            gammas = rng.dirichlet(np.full(4, 0.8), size=12)
            tasks = [
                asyncio.ensure_future(
                    _post_query("127.0.0.1", server.port, row)
                )
                for row in gammas
            ]
            # Let the requests hit the wire, then drain mid-flight.
            await asyncio.sleep(0.002)
            server.request_drain()
            responses = await asyncio.gather(*tasks)
            await server.wait_drained()
            # The listener is closed: new connections must fail.
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", server.port)
            return responses

        responses = _run_with_server(small_index, config, scenario)
        # Zero accepted requests lost: every request got a well-formed
        # HTTP response — 200 if admitted before the drain, 503 if it
        # arrived after.
        assert len(responses) == 12
        for status, _, payload in responses:
            assert status in (200, 503)
            if status == 200:
                assert payload["seeds"]

    def test_loadgen_round_trip(self, small_index):
        config = ServingConfig(port=0)

        async def scenario(server):
            return await run_loadgen(
                "127.0.0.1",
                server.port,
                mode="closed",
                duration_s=0.4,
                concurrency=3,
                num_distinct=8,
                seed=5,
            )

        report = _run_with_server(small_index, config, scenario)
        assert report.requests > 0
        assert report.errors == 0
        assert report.ok == report.requests - report.shed
        assert not any(
            status.startswith("5") for status in report.status_counts
        )
        assert report.latency_ms["p99"] >= report.latency_ms["p50"] > 0
        assert report.throughput_qps > 0
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestQueryMix:
    def test_same_seed_same_mix(self):
        pool_a, probs_a = build_query_mix(4, num_distinct=16, seed=3)
        pool_b, probs_b = build_query_mix(4, num_distinct=16, seed=3)
        np.testing.assert_array_equal(pool_a, pool_b)
        np.testing.assert_array_equal(probs_a, probs_b)

    def test_mix_is_a_distribution_over_distributions(self):
        pool, probs = build_query_mix(5, num_distinct=32, seed=1, skew=1.2)
        assert pool.shape == (32, 5)
        np.testing.assert_allclose(pool.sum(axis=1), 1.0, atol=1e-12)
        assert probs.sum() == pytest.approx(1.0)
        assert list(probs) == sorted(probs, reverse=True)

    def test_zero_skew_is_uniform(self):
        _, probs = build_query_mix(4, num_distinct=10, seed=1, skew=0.0)
        np.testing.assert_allclose(probs, 0.1)


# ----------------------------------------------------------------------
# Jittered Retry-After hints (the herd-breaking satellite)
# ----------------------------------------------------------------------
class TestRetryAfterJitter:
    def test_hints_are_deterministic_and_bounded(self, small_index):
        config = ServingConfig(
            port=0, retry_after_s=1.0, retry_jitter=0.5
        )
        first = QueryServer(small_index, config)
        second = QueryServer(small_index, config)
        hints = [first._retry_after() for _ in range(8)]
        # Same policy, fresh server: identical schedule (the jitter is
        # seeded per shed-sequence number, not wall clock).
        assert hints == [second._retry_after() for _ in range(8)]
        ms = [float(h["X-Retry-After-Ms"]) for h in hints]
        assert all(1000.0 <= v <= 1500.0 for v in ms)
        # The whole point: hints are spread out, not one thundering
        # synchronized value.
        assert len(set(ms)) > 1
        for hint, v in zip(hints, ms):
            assert hint["Retry-After"] == str(max(1, math.ceil(v / 1000.0)))

    def test_zero_jitter_restores_fixed_hints(self, small_index):
        config = ServingConfig(
            port=0, retry_after_s=2.0, retry_jitter=0.0
        )
        server = QueryServer(small_index, config)
        for _ in range(4):
            hint = server._retry_after()
            assert hint["Retry-After"] == "2"
            assert float(hint["X-Retry-After-Ms"]) == 2000.0

    def test_retry_jitter_is_validated(self):
        with pytest.raises(ValueError):
            ServingConfig(retry_jitter=1.5)
        with pytest.raises(ValueError):
            ServingConfig(retry_jitter=-0.1)


# ----------------------------------------------------------------------
# SIGTERM drain of the real CLI subprocess
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_artifacts(tmp_path_factory):
    """A tiny dataset + index built through the CLI, for the serve test."""
    from repro.cli import main

    data_dir = tmp_path_factory.mktemp("serve-data")
    assert main(
        [
            "generate", "--out", str(data_dir),
            "--nodes", "80", "--topics", "3", "--items", "24", "--seed", "1",
        ]
    ) == 0
    index_path = data_dir / "index.npz"
    assert main(
        [
            "build", "--data", str(data_dir), "--out", str(index_path),
            "--index-points", "8", "--dirichlet-samples", "300",
            "--seed-list-length", "5", "--ris-sets", "200", "--seed", "2",
        ]
    ) == 0
    return data_dir, index_path


def test_cli_serve_drains_on_sigterm(serve_artifacts):
    data_dir, index_path = serve_artifacts
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--data", str(data_dir), "--index", str(index_path),
            "--port", "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert "serving" in banner, banner
        port = int(banner.split(":")[-1].split()[0])

        async def poke():
            status, _, payload = await _post_query(
                "127.0.0.1", port, [0.5, 0.3, 0.2], k=3
            )
            return status, payload

        status, payload = asyncio.run(poke())
        assert status == 200
        assert payload["seeds"]
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=20)
        assert proc.returncode == 0, out
        assert "drained" in out
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup path
            proc.kill()
            proc.wait()
