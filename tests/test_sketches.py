"""Tests for the per-topic composable RR sketch bank.

Covers the bank itself (layout invariants, allocation, composition),
its persistence (CRC manifest, crash atomicity, chaos hooks), the
shared-memory publish/attach path, the ``strategy="sketch"`` dispatch
and degraded-answer upgrades in :class:`InflexIndex`, the serving
stack end to end, and the streaming refresh that keeps the bank fresh
across delta batches.  The statistical/determinism contracts live in
``tests/test_sketch_properties.py``.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core import InflexIndex, ServingConfig, SketchConfig
from repro.core.query import TimAnswer
from repro.errors import CorruptArtifactError, QueryError
from repro.im.seed_list import SeedList
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.faults import InjectedFaultError
from repro.serving.protocol import (
    answer_to_dict,
    encode_request,
    json_body,
    read_response,
)
from repro.serving.server import QueryServer
from repro.sketches import (
    SketchBank,
    attach_sketches,
    load_sketches,
    publish_sketches,
    save_sketches,
)


@pytest.fixture(scope="module")
def bank(small_graph) -> SketchBank:
    """A bank over the 200-node, 4-topic session graph."""
    return SketchBank.build(
        small_graph, SketchConfig(num_sets=300, seed=23)
    )


@pytest.fixture()
def sketch_index(small_index) -> InflexIndex:
    """A private copy of ``small_index`` with an attached bank.

    The session index is shared read-only across modules, so the bank
    is attached to a structural copy rather than the fixture itself.
    """
    index = InflexIndex(
        small_index.graph,
        small_index.index_points,
        list(small_index.seed_lists),
        small_index.config,
        dirichlet=small_index.dirichlet,
        tree=small_index.tree,
    )
    index.attach_sketches(
        SketchBank.build(
            small_index.graph, SketchConfig(num_sets=300, seed=29)
        )
    )
    return index


class TestSketchBank:
    def test_build_layout_invariants(self, small_graph, bank):
        assert bank.num_topics == small_graph.num_topics == 4
        assert bank.num_sets == 300
        arrays = bank.arrays()
        offsets = arrays["pool_offsets"]
        indptr = arrays["indptr_matrix"]
        assert offsets.shape == (5,)
        assert indptr.shape == (4, 301)
        assert np.all(np.diff(offsets) >= 0)
        assert np.all(indptr[:, 0] == 0)
        assert np.all(np.diff(indptr, axis=1) >= 1)  # root always present
        # Pool sizes in the matrix agree with the flat offsets.
        assert np.array_equal(indptr[:, -1], np.diff(offsets))
        assert arrays["values"].max() < small_graph.num_nodes
        assert arrays["roots_matrix"].max() < small_graph.num_nodes

    def test_members_sorted_within_each_set(self, bank):
        arrays = bank.arrays()
        for z in range(bank.num_topics):
            lo = int(arrays["pool_offsets"][z])
            indptr = arrays["indptr_matrix"][z]
            for s in range(bank.num_sets):
                members = arrays["values"][
                    lo + indptr[s]:lo + indptr[s + 1]
                ]
                assert np.all(np.diff(members) > 0) or members.size <= 1

    def test_allocation_largest_remainder(self, bank):
        counts = bank.allocate([0.5, 0.3, 0.15, 0.05], 100)
        assert counts.tolist() == [50, 30, 15, 5]
        # 7/4 = 1.75 each: equal fractional parts, ties toward lower
        # topic ids get the three leftover sets.
        counts = bank.allocate([0.25, 0.25, 0.25, 0.25], 7)
        assert counts.tolist() == [2, 2, 2, 1]
        assert int(counts.sum()) == 7

    def test_allocation_bounds(self, bank):
        with pytest.raises(ValueError, match="budget"):
            bank.allocate([0.25, 0.25, 0.25, 0.25], 0)
        with pytest.raises(ValueError, match="budget"):
            bank.allocate([0.25] * 4, bank.num_sets + 1)
        with pytest.raises(ValueError, match="topics"):
            bank.allocate([0.5, 0.5], 10)

    def test_vertex_composition_is_the_pool_prefix(self, bank):
        arrays = bank.arrays()
        for z in range(bank.num_topics):
            gamma = np.zeros(bank.num_topics)
            gamma[z] = 1.0
            values, indptr, roots = bank.compose(gamma, budget=bank.num_sets)
            lo = int(arrays["pool_offsets"][z])
            hi = int(arrays["pool_offsets"][z + 1])
            assert np.array_equal(values, arrays["values"][lo:hi])
            assert np.array_equal(indptr, arrays["indptr_matrix"][z])
            assert np.array_equal(roots, arrays["roots_matrix"][z])

    def test_composition_order_invariance(self, bank):
        gamma = [0.4, 0.3, 0.2, 0.1]
        base = bank.compose_index(gamma, budget=200).greedy_select(8)
        permuted = bank.compose_index(
            gamma, budget=200, order=[3, 1, 0, 2]
        ).greedy_select(8)
        assert base == permuted

    def test_compose_rejects_non_permutation_order(self, bank):
        with pytest.raises(ValueError, match="permutation"):
            bank.compose([0.25] * 4, order=[0, 1, 2, 2])

    def test_from_pools_rejects_ragged_pools(self, bank):
        pool_a = (
            np.array([0, 1, 2], dtype=np.uint32),
            np.array([0, 2, 3]),
            np.array([0, 2], dtype=np.uint32),
        )
        pool_b = (
            np.array([3], dtype=np.uint32),
            np.array([0, 1]),
            np.array([3], dtype=np.uint32),
        )
        with pytest.raises(ValueError, match="equally sized"):
            SketchBank.from_pools(
                [pool_a, pool_b], 10, SketchConfig(num_sets=2)
            )

    def test_stats_shape(self, bank):
        stats = bank.stats()
        assert stats["num_topics"] == 4
        assert stats["num_sets"] == 300
        assert stats["memory_bytes"] == bank.nbytes > 0


class TestPersistence:
    def test_round_trip(self, bank, tmp_path):
        path = tmp_path / "bank.npz"
        save_sketches(bank, path)
        loaded = load_sketches(path)
        for name, array in bank.arrays().items():
            assert np.array_equal(array, loaded.arrays()[name]), name
        assert loaded.num_nodes == bank.num_nodes
        assert loaded.config == bank.config

    def test_crash_before_rename_leaves_previous_artifact(
        self, bank, small_graph, tmp_path
    ):
        path = tmp_path / "bank.npz"
        save_sketches(bank, path)
        other = SketchBank.build(
            small_graph, SketchConfig(num_sets=50, seed=99)
        )
        plan = FaultPlan([FaultSpec(site="save-sketches", mode="crash")])
        with pytest.raises(InjectedFaultError):
            save_sketches(other, path, fault_plan=plan)
        # The interrupted save must not have clobbered the good file.
        assert load_sketches(path).num_sets == bank.num_sets

    def test_bitflip_is_caught_by_the_manifest(self, bank, tmp_path):
        path = tmp_path / "bank.npz"
        save_sketches(bank, path)
        plan = FaultPlan(
            [FaultSpec(site="sketches-load", mode="bitflip")]
        )
        with pytest.raises(CorruptArtifactError, match="checksum"):
            load_sketches(path, fault_plan=plan)

    def test_truncated_file_raises_corrupt(self, bank, tmp_path):
        path = tmp_path / "bank.npz"
        save_sketches(bank, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(CorruptArtifactError):
            load_sketches(path)

    def test_non_archive_raises_corrupt(self, tmp_path):
        path = tmp_path / "bank.npz"
        path.write_bytes(b"not an npz archive at all")
        with pytest.raises(CorruptArtifactError):
            load_sketches(path)


class TestSharedMemory:
    def test_publish_attach_round_trip(self, bank):
        payload, spec = publish_sketches(bank, prefix="repro-test-sk")
        try:
            attached = attach_sketches(spec)
            for name, array in bank.arrays().items():
                assert np.array_equal(array, attached.arrays()[name]), name
            assert attached.num_nodes == bank.num_nodes
            assert attached.config == bank.config
        finally:
            payload.release()

    def test_attached_bank_answers_queries(self, bank):
        payload, spec = publish_sketches(bank, prefix="repro-test-sk2")
        try:
            attached = attach_sketches(spec)
            direct = bank.compose_index([0.4, 0.3, 0.2, 0.1]).greedy_select(5)
            shared = attached.compose_index(
                [0.4, 0.3, 0.2, 0.1]
            ).greedy_select(5)
            assert direct == shared
        finally:
            payload.release()


class TestStrategyDispatch:
    def test_sketch_strategy_answers(self, sketch_index):
        answer = sketch_index.query(
            [0.4, 0.3, 0.2, 0.1], 5, strategy="sketch"
        )
        assert answer.strategy == "sketch"
        assert answer.seeds.algorithm == "sketch"
        assert len(answer.seeds) == 5
        assert len(set(answer.seeds)) == 5
        assert not answer.degraded and answer.reason is None
        assert answer.timing.total > 0

    def test_sketch_strategy_is_deterministic(self, sketch_index):
        first = sketch_index.query([0.7, 0.1, 0.1, 0.1], 6, strategy="sketch")
        second = sketch_index.query([0.7, 0.1, 0.1, 0.1], 6, strategy="sketch")
        assert tuple(first.seeds) == tuple(second.seeds)

    def test_sketch_strategy_requires_bank(self, small_index):
        assert small_index.sketches is None
        with pytest.raises(QueryError, match="sketch bank"):
            small_index.query([0.4, 0.3, 0.2, 0.1], 5, strategy="sketch")

    def test_distance_fallback_upgrades_answer(self, sketch_index):
        # Reattach with an absurdly tight threshold: every query is
        # "far", so the default strategy degrades to composed sketches.
        bank = sketch_index.sketches
        tight = SketchBank(
            bank.arrays()["values"],
            bank.arrays()["pool_offsets"],
            bank.arrays()["indptr_matrix"],
            bank.arrays()["roots_matrix"],
            bank.num_nodes,
            SketchConfig(
                num_sets=bank.num_sets,
                fallback_divergence=1e-9,
                seed=bank.config.seed,
            ),
        )
        sketch_index.attach_sketches(tight)
        answer = sketch_index.query([0.4, 0.3, 0.2, 0.1], 5)
        assert answer.degraded
        assert answer.reason == "distance"
        assert answer.seeds.algorithm == "sketch:fallback"
        assert answer.neighbor_weights == (0.0,)

    def test_deadline_fallback_uses_sketches_when_attached(
        self, sketch_index
    ):
        answer = sketch_index.query(
            [0.4, 0.3, 0.2, 0.1], 5, deadline_ms=1e-7
        )
        assert answer.degraded
        assert answer.reason == "deadline"
        assert answer.seeds.algorithm == "sketch:fallback"

    def test_deadline_fallback_without_bank_stays_neighbor(
        self, small_index
    ):
        answer = small_index.query(
            [0.4, 0.3, 0.2, 0.1], 5, deadline_ms=1e-7
        )
        assert answer.degraded
        assert answer.reason == "deadline"
        assert answer.seeds.algorithm == "inflex:degraded"

    def test_stats_report_the_bank(self, sketch_index, small_index):
        assert "sketches" in sketch_index.stats()
        assert "sketches" not in small_index.stats()

    def test_maintenance_preserves_attachment(self, sketch_index):
        grown = sketch_index.with_added_point([0.1, 0.2, 0.3, 0.4])
        assert grown.sketches is sketch_index.sketches
        shrunk = grown.without_point(grown.num_index_points - 1)
        assert shrunk.sketches is sketch_index.sketches

    def test_attach_rejects_mismatched_bank(self, sketch_index, tiny_graph):
        wrong = SketchBank.build(tiny_graph, SketchConfig(num_sets=10))
        with pytest.raises(ValueError, match="sketch bank"):
            sketch_index.attach_sketches(wrong)

    def test_detach_restores_plain_behavior(self, sketch_index):
        sketch_index.attach_sketches(None)
        assert sketch_index.sketches is None
        with pytest.raises(QueryError, match="sketch bank"):
            sketch_index.query([0.4, 0.3, 0.2, 0.1], 5, strategy="sketch")


class TestAnswerProtocol:
    def test_answer_dict_carries_algorithm_and_reason(self):
        answer = TimAnswer(
            seeds=SeedList((1, 2), (2.0, 1.0), algorithm="sketch:fallback"),
            strategy="inflex",
            degraded=True,
            reason="distance",
        )
        payload = answer_to_dict(answer)
        assert payload["algorithm"] == "sketch:fallback"
        assert payload["reason"] == "distance"
        assert payload["degraded"] is True

    def test_reason_defaults_to_none(self):
        answer = TimAnswer(
            seeds=SeedList((1,), (1.0,), algorithm="inflex"),
            strategy="inflex",
        )
        assert answer.reason is None
        assert answer_to_dict(answer)["reason"] is None


async def _post(port, target, body):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_request("POST", target, json_body(body)))
        await writer.drain()
        status, _, payload = await read_response(reader)
        return status, json.loads(payload) if payload else {}
    finally:
        writer.close()


async def _get(port, target):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_request("GET", target))
        await writer.drain()
        status, _, payload = await read_response(reader)
        return status, json.loads(payload) if payload else {}
    finally:
        writer.close()


def _run_with_server(index, scenario, **config_kwargs):
    async def main():
        server = QueryServer(
            index, ServingConfig(port=0, **config_kwargs)
        )
        await server.start()
        try:
            return await scenario(server)
        finally:
            if not server.draining:
                await server.aclose()

    return asyncio.run(main())


class TestServingEndToEnd:
    def test_sketch_strategy_over_the_wire(self, sketch_index):
        async def scenario(server):
            single = await _post(
                server.port,
                "/query",
                {"gamma": [0.4, 0.3, 0.2, 0.1], "k": 5,
                 "strategy": "sketch"},
            )
            batch = await _post(
                server.port,
                "/query_batch",
                {"queries": [
                    {"gamma": [0.4, 0.3, 0.2, 0.1], "k": 5,
                     "strategy": "sketch"},
                    {"gamma": [0.1, 0.2, 0.3, 0.4], "k": 5,
                     "strategy": "sketch"},
                ]},
            )
            stats = await _get(server.port, "/stats")
            return single, batch, stats

        (s1, one), (s2, many), (s3, stats) = _run_with_server(
            sketch_index, scenario
        )
        assert s1 == s2 == s3 == 200
        assert one["strategy"] == "sketch"
        assert one["algorithm"] == "sketch"
        assert one["reason"] is None
        direct = sketch_index.query(
            [0.4, 0.3, 0.2, 0.1], 5, strategy="sketch"
        )
        assert one["seeds"] == list(direct.seeds)
        assert [a["strategy"] for a in many["answers"]] == ["sketch"] * 2
        assert stats["sketches"]["num_sets"] == 300

    def test_far_query_fallback_reason_reaches_the_wire(self, small_index):
        index = InflexIndex(
            small_index.graph,
            small_index.index_points,
            list(small_index.seed_lists),
            small_index.config,
            dirichlet=small_index.dirichlet,
            tree=small_index.tree,
        )
        index.attach_sketches(
            SketchBank.build(
                small_index.graph,
                SketchConfig(
                    num_sets=200, fallback_divergence=1e-9, seed=31
                ),
            )
        )

        async def scenario(server):
            answer = await _post(
                server.port,
                "/query",
                {"gamma": [0.4, 0.3, 0.2, 0.1], "k": 5},
            )
            stats = await _get(server.port, "/stats")
            return answer, stats

        (status, payload), (_, stats) = _run_with_server(index, scenario)
        assert status == 200
        assert payload["degraded"] is True
        assert payload["reason"] == "distance"
        assert payload["algorithm"] == "sketch:fallback"
        assert stats["degraded_reasons"] == {"distance": 1}

    def test_unknown_strategy_still_rejected(self, sketch_index):
        async def scenario(server):
            return await _post(
                server.port,
                "/query",
                {"gamma": [0.4, 0.3, 0.2, 0.1], "k": 5,
                 "strategy": "sorcery"},
            )

        status, payload = _run_with_server(sketch_index, scenario)
        assert status == 400
        assert "strategy" in payload["error"]


class TestStreamingRefresh:
    @pytest.fixture()
    def bank_index(self, small_graph):
        from repro.core import InflexConfig

        rng = np.random.default_rng(5)
        config = InflexConfig(
            num_index_points=6,
            num_dirichlet_samples=300,
            seed_list_length=5,
            ris_num_sets=200,
            knn=3,
            leaf_size=4,
            seed=41,
        )
        index = InflexIndex.build(
            small_graph, rng.dirichlet([1.0] * 4, size=12), config
        )
        index.attach_sketches(
            SketchBank.build(
                small_graph, SketchConfig(num_sets=100, seed=43)
            )
        )
        return index

    @pytest.fixture()
    def engine(self, bank_index):
        from repro.streaming import StreamingEngine

        return StreamingEngine(bank_index, num_sets=200)

    @staticmethod
    def _touch_batch(graph, timestamp):
        from repro.streaming import DeltaBatch, EdgeDelta

        for tail in range(graph.num_nodes):
            if graph.indptr[tail + 1] > graph.indptr[tail]:
                head = int(graph.indices[graph.indptr[tail]])
                break
        return DeltaBatch(
            deltas=(
                EdgeDelta(
                    op="reweight",
                    tail=tail,
                    head=head,
                    probabilities=(0.5, 0.2, 0.1, 0.1),
                ),
            ),
            timestamp=timestamp,
        )

    def test_bank_refreshes_and_matches_scratch_rebuild(self, engine):
        """The served bank starts as the index's bank, bit for bit, and
        after a batch equals both the replay oracle over that bank and
        a bank built from scratch on the final graph."""
        from repro.im.imm import _block_size
        from tests.rr_reference import replay_pools

        start = engine.index.sketches
        assert start is not None
        graph = engine.maintainer.graph
        before = {
            name: array.copy() for name, array in start.arrays().items()
        }
        batch = self._touch_batch(graph, 1.0)
        engine.apply(batch)
        stats = engine.stats()
        assert stats["sketch_maintainer"]["batches_applied"] == 1
        assert stats["sketch_maintainer"]["rr_sets_resampled"] > 0
        # Refreshing swapped in a new bank; the original is untouched.
        for name, array in start.arrays().items():
            assert np.array_equal(array, before[name]), name
        final_graph, pools, _ = replay_pools(
            graph,
            np.eye(4),
            start.pools(),
            np.random.SeedSequence(43),
            _block_size(graph.num_nodes),
            [batch],
            seed_list_length=1,
        )
        replayed = SketchBank.from_pools(
            pools, graph.num_nodes, start.config
        )
        scratch = SketchBank.build(final_graph, start.config)
        live = engine.index.sketches
        assert live is not start
        for name, array in live.arrays().items():
            assert np.array_equal(array, replayed.arrays()[name]), name
            assert np.array_equal(array, scratch.arrays()[name]), name

    def test_bank_at_construction_is_the_index_bank(self, bank_index):
        from repro.streaming import StreamingEngine

        served = StreamingEngine(bank_index, num_sets=200).index.sketches
        for name, array in bank_index.sketches.arrays().items():
            assert np.array_equal(served.arrays()[name], array), name

    def test_sketch_queries_stay_live_across_batches(self, engine):
        before = engine.index.query(
            [0.4, 0.3, 0.2, 0.1], 4, strategy="sketch"
        )
        assert before.seeds
        graph = engine.maintainer.graph
        engine.apply(self._touch_batch(graph, 1.0))
        engine.apply(self._touch_batch(engine.maintainer.graph, 2.0))
        after = engine.index.query(
            [0.4, 0.3, 0.2, 0.1], 4, strategy="sketch"
        )
        assert len(after.seeds) == 4

    def test_refresh_metric_increments(self, engine):
        from repro import obs

        obs.enable()
        engine.apply(self._touch_batch(engine.maintainer.graph, 1.0))
        snapshot = obs.get_registry().snapshot()
        refreshes = snapshot["repro_sketch_refreshes_total"]["series"]
        assert sum(entry["value"] for entry in refreshes) >= 1

    def test_plain_engine_has_no_sketch_maintainer(self, small_index):
        from repro.streaming import StreamingEngine

        engine = StreamingEngine(small_index, num_sets=100)
        assert engine.index.sketches is None
        assert "sketch_maintainer" not in engine.stats()


class TestObservability:
    def test_sketch_query_records_metrics(self, sketch_index):
        from repro import obs

        obs.enable()
        # Re-attach so the pool gauge is set while obs is enabled.
        sketch_index.attach_sketches(sketch_index.sketches)
        sketch_index.query([0.4, 0.3, 0.2, 0.1], 5, strategy="sketch")
        snapshot = obs.get_registry().snapshot()
        composes = snapshot["repro_sketch_composes_total"]["series"]
        assert sum(entry["value"] for entry in composes) == 1
        seconds = snapshot["repro_sketch_compose_seconds"]["series"]
        assert sum(entry["value"]["count"] for entry in seconds) == 1
        pool = snapshot["repro_sketch_pool_sets"]["series"]
        assert any(entry["value"] == 4 * 300 for entry in pool)

    def test_fallback_reason_labels(self, sketch_index):
        from repro import obs

        obs.enable()
        sketch_index.query([0.4, 0.3, 0.2, 0.1], 5, deadline_ms=1e-7)
        snapshot = obs.get_registry().snapshot()
        series = snapshot["repro_sketch_fallbacks_total"]["series"]
        by_reason = {
            entry["labels"]["reason"]: entry["value"] for entry in series
        }
        assert by_reason.get("deadline") == 1

    def test_spans_emitted(self, sketch_index):
        from repro import obs

        obs.enable()
        obs.get_tracer().clear()
        sketch_index.query([0.4, 0.3, 0.2, 0.1], 5, strategy="sketch")
        names = {span.name for span in obs.get_tracer().spans()}
        assert "sketch.compose" in names
        assert "sketch.select" in names


class TestCli:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        from repro.cli import main

        data = tmp_path_factory.mktemp("sk-cli-data")
        assert main(
            ["generate", "--out", str(data), "--nodes", "100",
             "--topics", "3", "--items", "20", "--seed", "3"]
        ) == 0
        out = tmp_path_factory.mktemp("sk-cli-index") / "index.npz"
        assert main(
            ["build", "--data", str(data), "--out", str(out),
             "--index-points", "6", "--dirichlet-samples", "300",
             "--seed-list-length", "5", "--ris-sets", "300",
             "--sketches", "--sketch-sets", "120", "--seed", "5"]
        ) == 0
        return data, out

    def test_build_writes_colocated_bank(self, built):
        _, out = built
        bank_path = out.with_name("index.sketches.npz")
        assert bank_path.exists()
        assert load_sketches(bank_path).num_sets == 120

    def test_query_uses_sketch_strategy(self, built, capsys):
        from repro.cli import main

        data, out = built
        assert main(
            ["query", "--data", str(data), "--index", str(out),
             "--gamma", "0.7,0.2,0.1", "--k", "4",
             "--strategy", "sketch"]
        ) == 0
        printed = capsys.readouterr().out
        assert "strategy: sketch" in printed

    def test_query_reports_fallback_reason(self, built, capsys):
        from repro.cli import main

        data, out = built
        assert main(
            ["query", "--data", str(data), "--index", str(out),
             "--gamma", "0.98,0.01,0.01", "--k", "4",
             "--deadline-ms", "0.0000001"]
        ) == 0
        printed = capsys.readouterr().out
        assert "DEGRADED: deadline" in printed
        assert "sketch:fallback" in printed
