"""Tests for the evolving-graph streaming subsystem (`repro.streaming`).

Covers the pieces in isolation — delta validation, CRC-safe log
persistence, edge-state transitions, the incremental maintainer's
invalidation accounting, the subscription registry — and integrated:
the :class:`StreamingEngine` driving index hot-swaps, fault injection
leaving committed state untouched, the synthetic workload generator,
streaming metrics, and the ``/deltas`` + ``/subscriptions`` server
routes end-to-end on a real asyncio server.
"""

from __future__ import annotations

import asyncio
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core import InflexConfig, InflexIndex, ServingConfig
from repro.datasets import generate_delta_workload, generate_flixster_like
from repro.errors import CorruptArtifactError, StreamError
from repro.im import SeedList
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
)
from repro.serving import QueryServer
from repro.simplex import sample_uniform_simplex, smooth
from repro.serving.protocol import (
    encode_request,
    json_body,
    read_response,
)
from repro.streaming import (
    DeltaBatch,
    DeltaLog,
    EdgeDelta,
    EdgeState,
    IncrementalSketchMaintainer,
    StreamingEngine,
    SubscriptionRegistry,
)

PROBS3 = (0.3, 0.2, 0.1)

#: SHA-256 of the JSON of the first ``PERFBENCH_WRITER_BATCHES`` delta
#: batches perfbench's stream-mixed writer sends at a ``--seed``.
PERFBENCH_WRITER_BATCHES = 24
PERFBENCH_WRITER_DIGESTS = {
    1: "09d2299a77dee003acf36e9d265e5d25891218ad874592a4d9109e5d6a81186b",
    2: "08030b1a56a0814e435b79913f4243c83f045a4049d3d987059c6b8495198c9e",
}


def _perfbench_common():
    """``perfbench/common.py``, imported under a name of its own."""
    name = "perfbench_common"
    if name not in sys.modules:
        root = Path(__file__).resolve().parent.parent
        path = root / "perfbench" / "common.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture(scope="module")
def stream_dataset():
    return generate_flixster_like(
        num_nodes=120, num_topics=3, num_items=30, seed=23
    )


@pytest.fixture(scope="module")
def stream_index(stream_dataset) -> InflexIndex:
    config = InflexConfig(
        num_index_points=4,
        num_dirichlet_samples=600,
        seed_list_length=6,
        ris_num_sets=300,
        seed=29,
    )
    return InflexIndex.build(
        stream_dataset.graph, stream_dataset.item_topics, config
    )


def _maintainer(graph, *, num_points=3, num_sets=80, seed=31, **kwargs):
    rng = np.random.default_rng(seed)
    points = rng.dirichlet(np.full(graph.num_topics, 0.8), size=num_points)
    return IncrementalSketchMaintainer(
        graph, points, num_sets=num_sets, seed_list_length=5,
        seed=seed, **kwargs,
    )


# ----------------------------------------------------------------------
# Deltas, batches, and the append-only log
# ----------------------------------------------------------------------
class TestEdgeDelta:
    def test_round_trips_through_dict(self):
        delta = EdgeDelta("reweight", 3, 7, PROBS3)
        assert EdgeDelta.from_dict(delta.to_dict()) == delta

    @pytest.mark.parametrize(
        "op,tail,head,probs",
        [
            ("frobnicate", 0, 1, PROBS3),  # unknown op
            ("add", 0, 1, None),  # add needs probabilities
            ("add", 0, 1, (1.5, 0.2, 0.1)),  # out of [0, 1]
            ("add", 0, 1, ()),  # empty probabilities
            ("remove", 0, 1, PROBS3),  # remove must not carry probs
            ("add", -1, 1, PROBS3),  # negative endpoint
        ],
    )
    def test_invalid_deltas_rejected(self, op, tail, head, probs):
        with pytest.raises(StreamError):
            EdgeDelta(op, tail, head, probs)

    def test_from_dict_rejects_unknown_fields(self):
        payload = EdgeDelta("remove", 1, 2).to_dict()
        payload["bogus"] = True
        with pytest.raises(StreamError):
            EdgeDelta.from_dict(payload)


class TestDeltaBatch:
    def test_coerces_dict_deltas_and_reports_heads(self):
        batch = DeltaBatch(
            deltas=(
                EdgeDelta("add", 0, 5, PROBS3).to_dict(),
                EdgeDelta("remove", 2, 9),
            ),
            timestamp=1.5,
        )
        assert len(batch) == 2
        assert all(isinstance(d, EdgeDelta) for d in batch.deltas)
        assert batch.touched_heads() == {5, 9}

    def test_nonfinite_timestamp_rejected(self):
        with pytest.raises(StreamError):
            DeltaBatch(deltas=(), timestamp=float("nan"))


class TestDeltaLog:
    def _log(self):
        log = DeltaLog()
        log.append(
            DeltaBatch(deltas=(EdgeDelta("add", 0, 1, PROBS3),), timestamp=0.0)
        )
        log.append(
            DeltaBatch(deltas=(EdgeDelta("remove", 0, 1),), timestamp=1.0)
        )
        return log

    def test_rejects_backwards_timestamps(self):
        log = self._log()
        with pytest.raises(StreamError):
            log.append(DeltaBatch(deltas=(), timestamp=0.5))

    def test_save_load_round_trip(self, tmp_path):
        log = self._log()
        path = tmp_path / "stream.jsonl"
        log.save(path)
        loaded = DeltaLog.load(path)
        assert len(loaded) == len(log)
        assert [b.to_dict() for b in loaded] == [b.to_dict() for b in log]

    def test_corrupted_record_detected(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        self._log().save(path)
        lines = path.read_text().splitlines()
        # Flip the op inside the payload of the last record; its
        # stored CRC no longer matches.
        lines[-1] = lines[-1].replace('"remove"', '"add"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptArtifactError):
            DeltaLog.load(path)

    def test_truncated_record_detected(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        self._log().save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(CorruptArtifactError):
            DeltaLog.load(path)

    def test_newer_format_version_rejected(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        self._log().save(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            DeltaLog.load(path)


class TestEdgeState:
    def _state(self):
        rng = np.random.default_rng(3)
        from repro.graph import TopicGraph

        pairs = np.asarray([(0, 1), (1, 2), (2, 0)])
        probs = rng.uniform(0.1, 0.5, size=(3, 3))
        return EdgeState.from_graph(TopicGraph.from_arcs(4, pairs, probs))

    def test_add_existing_arc_rejected(self):
        state = self._state()
        with pytest.raises(StreamError):
            state.apply_delta(EdgeDelta("add", 0, 1, PROBS3))

    def test_remove_missing_arc_rejected(self):
        state = self._state()
        with pytest.raises(StreamError):
            state.apply_delta(EdgeDelta("remove", 3, 0))

    def test_topic_count_mismatch_rejected(self):
        state = self._state()
        with pytest.raises(StreamError):
            state.apply_delta(EdgeDelta("add", 3, 0, (0.1, 0.2)))

    def test_graph_round_trip_preserves_arcs(self):
        state = self._state()
        state.apply_delta(EdgeDelta("add", 3, 0, PROBS3))
        state.apply_delta(EdgeDelta("remove", 0, 1))
        rebuilt = EdgeState.from_graph(state.to_graph())
        assert set(rebuilt.edges) == set(state.edges)
        for arc, probs in state.edges.items():
            np.testing.assert_allclose(rebuilt.edges[arc], probs)

    def test_decay_factor_bounds(self):
        state = self._state()
        with pytest.raises(ValueError):
            state.decay(1.5)
        with pytest.raises(ValueError):
            state.decay(-0.1)
        state.decay(0.0)  # decay-to-zero is legitimate
        assert all(np.all(p == 0.0) for p in state.edges.values())


# ----------------------------------------------------------------------
# Incremental maintainer
# ----------------------------------------------------------------------
class TestIncrementalSketchMaintainer:
    def test_invalidation_accounting_is_conservative(self, stream_dataset):
        maintainer = _maintainer(stream_dataset.graph)
        total = maintainer.num_points * 80
        batch = DeltaBatch(
            deltas=(EdgeDelta("add", 0, 1, PROBS3),)
            if (0, 1) not in EdgeState.from_graph(stream_dataset.graph).edges
            else (EdgeDelta("remove", 0, 1),),
            timestamp=0.0,
        )
        report = maintainer.apply_batch(batch)
        assert report.rr_sets_resampled + report.rr_sets_retained == total
        # A single-arc delta never invalidates everything: only sets
        # containing the arc's head are resampled.
        assert report.rr_sets_resampled < total
        assert maintainer.batches_applied == 1

    def test_backwards_timestamp_rejected(self, stream_dataset):
        maintainer = _maintainer(stream_dataset.graph)
        maintainer.apply_batch(DeltaBatch(deltas=(), timestamp=5.0))
        with pytest.raises(StreamError):
            maintainer.apply_batch(DeltaBatch(deltas=(), timestamp=1.0))

    def test_parallel_refresh_matches_serial(self, stream_dataset):
        log = generate_delta_workload(
            stream_dataset.graph, num_batches=3, batch_size=4, seed=41
        )
        serial = _maintainer(stream_dataset.graph, workers=1)
        threaded = _maintainer(stream_dataset.graph, workers=4)
        for batch in log:
            serial.apply_batch(batch)
            threaded.apply_batch(batch)
        for a, b in zip(serial.pools(), threaded.pools()):
            for array_a, array_b in zip(a, b):
                assert np.array_equal(array_a, array_b)
        assert [s.nodes for s in serial.seed_lists] == [
            s.nodes for s in threaded.seed_lists
        ]

    @pytest.mark.parametrize("site", ["delta-apply", "resample"])
    def test_injected_fault_leaves_state_untouched(
        self, stream_dataset, site
    ):
        maintainer = _maintainer(stream_dataset.graph)
        before_pools = maintainer.pools()
        before_seeds = [sl.nodes for sl in maintainer.seed_lists]
        before_graph = maintainer.graph
        plan = FaultPlan([FaultSpec(site=site, mode="error")])
        batch = DeltaBatch(
            deltas=(EdgeDelta("reweight", *next(
                iter(EdgeState.from_graph(stream_dataset.graph).edges)
            ), PROBS3),),
            timestamp=1.0,
        )
        with pytest.raises(InjectedFaultError):
            maintainer.apply_batch(batch, fault_plan=plan)
        # Apply is transactional: nothing committed.
        assert maintainer.batches_applied == 0
        assert maintainer.time == 0.0
        assert maintainer.graph is before_graph
        for pool, before in zip(maintainer.pools(), before_pools):
            for array, array_before in zip(pool, before):
                assert np.array_equal(array, array_before)
        assert [s.nodes for s in maintainer.seed_lists] == before_seeds
        # The same batch succeeds once the fault clears, identically to
        # a maintainer that never saw the fault.
        report = maintainer.apply_batch(batch)
        assert report.num_deltas == 1

    def test_stats_shape(self, stream_dataset):
        maintainer = _maintainer(stream_dataset.graph)
        stats = maintainer.stats()
        assert stats["num_points"] == 3
        assert stats["num_sets"] == 80
        assert stats["batches_applied"] == 0
        assert stats["retain_fraction"] == 1.0  # vacuous before any batch


# ----------------------------------------------------------------------
# Workload generator
# ----------------------------------------------------------------------
class TestDeltaWorkload:
    def test_stream_is_replayable_and_seeded(self, stream_dataset):
        log_a = generate_delta_workload(
            stream_dataset.graph, num_batches=5, batch_size=6, seed=43
        )
        log_b = generate_delta_workload(
            stream_dataset.graph, num_batches=5, batch_size=6, seed=43
        )
        assert [b.to_dict() for b in log_a] == [b.to_dict() for b in log_b]
        # Replaying through EdgeState raises on any structural error.
        state = EdgeState.from_graph(stream_dataset.graph)
        for batch in log_a:
            for delta in batch.deltas:
                state.apply_delta(delta)

    def test_fraction_validation(self, stream_dataset):
        with pytest.raises(ValueError):
            generate_delta_workload(
                stream_dataset.graph, add_fraction=0.8, remove_fraction=0.5
            )

    @pytest.mark.parametrize("seed", sorted(PERFBENCH_WRITER_DIGESTS))
    def test_perfbench_writer_inputs_are_pinned(self, seed):
        """The benchmark's stream-mixed writer sends
        ``generate_delta_workload`` batches over its dataset; a change
        to the generator or to the edge dictionary whose insertion
        order it draws arcs in would move those inputs silently."""
        common = _perfbench_common()
        inputs = common.Inputs.from_seed(seed)
        graph = generate_flixster_like(
            **common.DATASET, seed=inputs.dataset_seed
        ).graph
        batches = inputs.delta_batches(graph, PERFBENCH_WRITER_BATCHES)
        text = json.dumps(
            [batch.to_dict() for batch in batches],
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == PERFBENCH_WRITER_DIGESTS[seed]


# ----------------------------------------------------------------------
# Subscriptions
# ----------------------------------------------------------------------
class TestSubscriptionRegistry:
    def test_register_baseline_and_notify(self, stream_index):
        registry = SubscriptionRegistry()
        gamma = np.full(3, 1 / 3)
        sub, baseline = registry.register(stream_index, gamma, 5)
        assert baseline.changed
        assert baseline.subscription_id == sub.subscription_id
        assert registry.current_answer(sub.subscription_id) == baseline.seeds
        # Changed points disjoint from the subscription's neighbors:
        # no re-evaluation happens.
        untouched = tuple(
            pid
            for pid in range(stream_index.num_index_points)
            if pid not in sub.neighbor_ids
        )
        updates = registry.notify(0, untouched, stream_index)
        assert updates == ()
        # Overlapping changed points force a re-evaluation.
        updates = registry.notify(1, sub.neighbor_ids[:1], stream_index)
        assert len(updates) == 1
        assert updates[0].batch_id == 1

    def test_poll_drains_and_unknown_id_raises(self, stream_index):
        registry = SubscriptionRegistry()
        sub, _ = registry.register(stream_index, np.full(3, 1 / 3), 5)
        registry.notify(0, sub.neighbor_ids[:1], stream_index)
        drained = registry.poll(sub.subscription_id)
        assert len(drained) == 1
        assert registry.poll(sub.subscription_id) == ()
        with pytest.raises(StreamError):
            registry.poll(999)

    def test_pending_queue_is_bounded(self, stream_index):
        registry = SubscriptionRegistry(max_pending=2)
        sub, _ = registry.register(stream_index, np.full(3, 1 / 3), 5)
        for batch_id in range(5):
            registry.notify(batch_id, sub.neighbor_ids[:1], stream_index)
        drained = registry.poll(sub.subscription_id)
        assert len(drained) == 2
        assert drained[-1].batch_id == 4  # newest kept

    def test_unregister(self, stream_index):
        registry = SubscriptionRegistry()
        sub, _ = registry.register(stream_index, np.full(3, 1 / 3), 5)
        assert registry.unregister(sub.subscription_id)
        assert not registry.unregister(sub.subscription_id)
        assert len(registry) == 0


# ----------------------------------------------------------------------
# Engine: maintainer + index hot-swap + subscriptions
# ----------------------------------------------------------------------
class TestStreamingEngine:
    def test_apply_updates_index_and_subscribers(
        self, stream_dataset, stream_index
    ):
        engine = StreamingEngine(stream_index, num_sets=150, seed=47)
        sub, baseline = engine.subscribe(np.full(3, 1 / 3), 5)
        assert baseline.seeds
        log = generate_delta_workload(
            stream_dataset.graph, num_batches=4, batch_size=6, seed=53
        )
        saw_update = False
        for report, updates in engine.replay(log):
            assert report.rr_sets_resampled >= 0
            saw_update = saw_update or bool(updates)
        assert engine.maintainer.batches_applied == 4
        # The served index reflects the evolved graph.
        assert engine.index.graph is engine.maintainer.graph
        answer = engine.index.query(np.full(3, 1 / 3), 5)
        assert answer.seeds
        stats = engine.stats()
        assert stats["maintainer"]["batches_applied"] == 4
        assert stats["subscriptions"]["subscriptions"] == 1
        # Set-up figures stay those of construction.
        walked = stats["sets_walked_at_setup"]
        assert walked == engine.maintainer.num_points * 150
        assert stats["setup_seconds"] > 0.0

    def test_swapped_index_keeps_points_exactly(
        self, stream_dataset, stream_index
    ):
        """Swaps reuse the already-smoothed points; a second smoothing
        pass would move some of them by about an ulp."""
        config = stream_index.config
        template = InflexIndex(
            stream_dataset.graph,
            sample_uniform_simplex(64, 3, seed=73),
            [SeedList(tuple(range(config.seed_list_length)))] * 64,
            config,
        )
        points = template.index_points.copy()
        assert not np.array_equal(smooth(points), points)
        engine = StreamingEngine(template, num_sets=20, seed=67)
        assert np.array_equal(engine.index.index_points, points)
        log = generate_delta_workload(
            stream_dataset.graph, num_batches=3, batch_size=6, seed=71
        )
        for _ in engine.replay(log):
            assert np.array_equal(engine.index.index_points, points)
            assert engine.index.tree is template.tree

    def test_metrics_flow(self, stream_dataset, stream_index):
        obs.enable()
        obs.get_registry().reset()
        try:
            engine = StreamingEngine(stream_index, num_sets=100, seed=59)
            engine.subscribe(np.full(3, 1 / 3), 5)
            log = generate_delta_workload(
                stream_dataset.graph, num_batches=2, batch_size=4, seed=61
            )
            for _ in engine.replay(log):
                pass
            snapshot = obs.get_registry().snapshot()

            def total(name):
                return sum(
                    s["value"] for s in snapshot[name]["series"]
                )

            assert total("repro_stream_batches_applied_total") == 2.0
            assert total("repro_stream_deltas_applied_total") == 8.0
            assert total("repro_stream_rr_sets_resampled_total") > 0
            assert total("repro_stream_rr_sets_retained_total") > 0
            assert snapshot["repro_stream_subscriptions"]["series"]
            spans = [
                s
                for s in obs.get_tracer().spans()
                if s.name == "stream.apply"
            ]
            assert len(spans) == 2
        finally:
            obs.disable()
            obs.get_registry().reset()
            obs.get_tracer().clear()


# ----------------------------------------------------------------------
# Server routes
# ----------------------------------------------------------------------
async def _request(host, port, method, route, payload=None):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json_body(payload) if payload is not None else b""
        writer.write(encode_request(method, route, body))
        await writer.drain()
        status, headers, raw = await read_response(reader)
        return status, json.loads(raw) if raw else {}
    finally:
        writer.close()


def _run_with_streaming_server(stream_index, scenario, **config_kwargs):
    config = ServingConfig(port=0, **config_kwargs)

    async def main():
        engine = StreamingEngine(stream_index, num_sets=120, seed=67)
        server = QueryServer(stream_index, config, streaming=engine)
        await server.start()
        try:
            return await scenario(server)
        finally:
            if not server.draining:
                await server.aclose()

    return asyncio.run(main())


class TestStreamingRoutes:
    def test_delta_and_subscription_round_trip(
        self, stream_dataset, stream_index
    ):
        log = generate_delta_workload(
            stream_dataset.graph, num_batches=1, batch_size=4, seed=71
        )
        batch_payload = log.batches[0].to_dict()

        async def scenario(server):
            host, port = "127.0.0.1", server.port
            status, sub_payload = await _request(
                host,
                port,
                "POST",
                "/subscriptions",
                {"gamma": [1 / 3, 1 / 3, 1 / 3], "k": 5},
            )
            assert status == 200
            sid = sub_payload["subscription"]["subscription_id"]
            assert sub_payload["baseline"]["seeds"]
            status, listing = await _request(host, port, "GET", "/subscriptions")
            assert status == 200 and len(listing["subscriptions"]) == 1
            status, applied = await _request(
                host, port, "POST", "/deltas", batch_payload
            )
            assert status == 200
            assert applied["report"]["num_deltas"] == 4
            status, updates = await _request(
                host, port, "GET", f"/subscriptions/{sid}/updates"
            )
            assert status == 200
            # A query still answers against the swapped index.
            status, answer = await _request(
                host,
                port,
                "POST",
                "/query",
                {"gamma": [1 / 3, 1 / 3, 1 / 3], "k": 5},
            )
            assert status == 200 and answer["seeds"]
            stats = server.stats()
            return updates, stats

        updates, stats = _run_with_streaming_server(stream_index, scenario)
        assert stats["streaming"]["maintainer"]["batches_applied"] == 1
        assert isinstance(updates["updates"], list)

    def test_malformed_batch_gets_400_unknown_subscription_404(
        self, stream_index
    ):
        async def scenario(server):
            host, port = "127.0.0.1", server.port
            bad = await _request(
                host,
                port,
                "POST",
                "/deltas",
                {"deltas": [{"op": "frobnicate", "tail": 0, "head": 1}],
                 "timestamp": 0.0},
            )
            missing = await _request(
                host, port, "GET", "/subscriptions/42/updates"
            )
            return bad[0], missing[0]

        bad_status, missing_status = _run_with_streaming_server(
            stream_index, scenario
        )
        assert bad_status == 400
        assert missing_status == 404

    def test_deltas_404_without_streaming(self, stream_index):
        config = ServingConfig(port=0)

        async def main():
            server = QueryServer(stream_index, config)
            await server.start()
            try:
                return await _request(
                    "127.0.0.1",
                    server.port,
                    "POST",
                    "/deltas",
                    {"deltas": [], "timestamp": 0.0},
                )
            finally:
                await server.aclose()

        status, _ = asyncio.run(main())
        assert status == 404
