"""Tests for the INFLEX core: config, query types, aggregation, index."""

import numpy as np
import pytest

from repro.core import (
    InflexConfig,
    InflexIndex,
    STRATEGIES,
    TimAnswer,
    TimQuery,
    aggregate_seed_lists,
    load_index,
    offline_ic_seed_list,
    offline_seed_list,
    save_index,
)
from repro.errors import QueryError
from repro.im import SeedList, greedy_seed_selection
from repro.propagation import SnapshotSpread
from repro.simplex import sample_uniform_simplex


class TestConfig:
    def test_defaults_valid(self):
        InflexConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_index_points": 1},
            {"num_dirichlet_samples": 10, "num_index_points": 20},
            {"seed_list_length": 0},
            {"im_engine": "bogus"},
            {"aggregator": "bogus"},
            {"max_leaves": 0},
            {"knn": 0},
            {"ad_alpha": 0.0},
            {"epsilon": -1.0},
            {"selection_threshold": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            InflexConfig(**kwargs)


class TestTimQuery:
    def test_valid(self):
        q = TimQuery(np.array([0.5, 0.5]), 3)
        assert q.num_topics == 2

    def test_invalid_gamma(self):
        with pytest.raises(QueryError):
            TimQuery(np.array([0.5, 0.2]), 3)

    def test_invalid_k(self):
        with pytest.raises(QueryError):
            TimQuery(np.array([0.5, 0.5]), 0)


class TestTimAnswer:
    def test_validation(self):
        seeds = SeedList((1, 2))
        with pytest.raises(ValueError):
            TimAnswer(
                seeds=seeds,
                strategy="inflex",
                neighbor_ids=(1,),
                neighbor_divergences=(0.1, 0.2),
            )
        with pytest.raises(ValueError):
            TimAnswer(
                seeds=seeds,
                strategy="inflex",
                neighbor_ids=(1,),
                neighbor_divergences=(0.1,),
                neighbor_weights=(0.5, 0.5),
            )


class TestAggregateSeedLists:
    def test_single_list_passthrough(self):
        result = aggregate_seed_lists([SeedList((4, 2, 9))], 2)
        assert result.nodes == (4, 2)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            aggregate_seed_lists([SeedList((1,))], 0)

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError):
            aggregate_seed_lists(
                [SeedList((1,)), SeedList((2,))], 1, aggregator="nope"
            )

    def test_empty_input(self):
        with pytest.raises(ValueError):
            aggregate_seed_lists([], 1)

    def test_consensus(self):
        lists = [SeedList((1, 2, 3)), SeedList((1, 3, 2)), SeedList((1, 2, 4))]
        result = aggregate_seed_lists(lists, 3)
        assert result.nodes[0] == 1


class TestOfflineSeedLists:
    def test_engines_agree_on_easy_instance(self, small_dataset):
        graph = small_dataset.graph
        gamma = small_dataset.item_topics[0]
        ris = offline_seed_list(
            graph, gamma, 3, engine="ris", ris_num_sets=4000, seed=1
        )
        celfpp = offline_seed_list(
            graph, gamma, 3, engine="celf++", num_snapshots=150, seed=2
        )
        # Both should find the same top seed on a clear-cut instance.
        assert ris.nodes[0] == celfpp.nodes[0]

    def test_celf_variants_identical(self, small_dataset):
        graph = small_dataset.graph
        gamma = small_dataset.item_topics[1]
        celfpp = offline_seed_list(
            graph, gamma, 3, engine="celf++", num_snapshots=80, seed=3
        )
        greedy = greedy_seed_selection(
            SnapshotSpread(graph, gamma, num_snapshots=80, seed=3),
            graph.num_nodes,
            3,
        )
        assert celfpp.nodes == greedy.nodes

    def test_unknown_engine(self, small_dataset):
        with pytest.raises(ValueError):
            offline_seed_list(
                small_dataset.graph,
                small_dataset.item_topics[0],
                2,
                engine="bogus",
            )
        for removed in ("celf", "greedy", "greedy-mc"):
            with pytest.raises(ValueError, match="unknown engine"):
                offline_seed_list(
                    small_dataset.graph,
                    small_dataset.item_topics[0],
                    2,
                    engine=removed,
                )

    def test_offline_ic_uses_uniform(self, small_dataset):
        result = offline_ic_seed_list(
            small_dataset.graph, 3, ris_num_sets=2000, seed=4
        )
        assert len(result) == 3


class TestInflexIndex:
    def test_build_artifacts(self, small_index, small_dataset):
        assert small_index.num_index_points == 20
        assert len(small_index.seed_lists) == 20
        assert all(len(sl) == 12 for sl in small_index.seed_lists)
        assert small_index.dirichlet is not None
        assert small_index.tree.num_points == 20
        assert np.allclose(small_index.index_points.sum(axis=1), 1.0)

    def test_build_validations(self, small_dataset):
        config = InflexConfig(num_index_points=4, num_dirichlet_samples=100)
        wrong_topics = np.ones((10, small_dataset.num_topics + 1))
        wrong_topics /= wrong_topics.sum(axis=1, keepdims=True)
        with pytest.raises(ValueError):
            InflexIndex.build(small_dataset.graph, wrong_topics, config)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_query_contract(self, small_index, small_workload, strategy):
        gamma = small_workload.items[0]
        index = small_index
        if strategy == "sketch":
            # The session index is shared read-only across modules, so
            # the bank goes on a structural copy, not the fixture.
            from repro.core import SketchConfig
            from repro.sketches import SketchBank

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
                    small_index.graph, SketchConfig(num_sets=200, seed=7)
                )
            )
        answer = index.query(gamma, 5, strategy=strategy)
        assert len(answer.seeds) == 5
        assert len(set(answer.seeds.nodes)) == 5
        assert answer.strategy == strategy
        assert answer.timing.total > 0
        if strategy == "sketch":
            # Composition answers from per-topic pools, not index lists.
            assert answer.num_neighbors_used == 0
        else:
            assert answer.num_neighbors_used >= 1
        assert all(
            0 <= v < small_index.graph.num_nodes for v in answer.seeds
        )

    def test_query_deterministic(self, small_index, small_workload):
        gamma = small_workload.items[1]
        a = small_index.query(gamma, 6)
        b = small_index.query(gamma, 6)
        assert a.seeds.nodes == b.seeds.nodes

    def test_epsilon_match_on_index_point(self, small_index):
        point = small_index.index_points[7]
        answer = small_index.query(point, 5)
        assert answer.epsilon_match
        assert answer.neighbor_ids == (7,)
        assert answer.seeds.nodes == small_index.seed_lists[7].top(5).nodes

    def test_unknown_strategy(self, small_index, small_workload):
        with pytest.raises(QueryError):
            small_index.query(small_workload.items[0], 3, strategy="nope")

    def test_topic_mismatch(self, small_index):
        with pytest.raises(QueryError):
            small_index.query(np.array([0.5, 0.5]), 3)

    def test_invalid_k(self, small_index, small_workload):
        with pytest.raises(QueryError):
            small_index.query(small_workload.items[0], 0)

    def test_k_beyond_list_length_uses_union(self, small_index, small_workload):
        # l = 12 per list, but aggregation can return up to the union of
        # the retrieved lists (use approx-knn: no selection pruning, so
        # several lists always enter the union).
        answer = small_index.query(
            small_workload.items[2], 20, strategy="approx-knn"
        )
        assert len(answer.seeds) > 12

    def test_neighbor_metadata_sorted(self, small_index, small_workload):
        answer = small_index.query(small_workload.items[3], 5)
        divs = np.asarray(answer.neighbor_divergences)
        assert np.all(np.diff(divs) >= -1e-12)
        weights = np.asarray(answer.neighbor_weights)
        assert np.all(weights >= 0) and np.all(weights <= 1)

    def test_progress_callback(self, small_dataset):
        stages = []
        config = InflexConfig(
            num_index_points=4,
            num_dirichlet_samples=200,
            seed_list_length=3,
            ris_num_sets=200,
            seed=5,
        )
        InflexIndex.build(
            small_dataset.graph,
            small_dataset.item_topics,
            config,
            progress=lambda stage, done, total: stages.append(stage),
        )
        assert "dirichlet" in stages
        assert "seed-lists" in stages

    def test_progress_stage_sequence(self, small_dataset):
        """Each stage reports ``0/total`` when it starts, in pipeline
        order; the bb-tree reports ``tree 0/1`` after the last seed
        list, so a progress-driven stage timer times it on its own."""
        reports = []
        config = InflexConfig(
            num_index_points=4,
            num_dirichlet_samples=200,
            seed_list_length=3,
            ris_num_sets=200,
            seed=5,
        )
        InflexIndex.build(
            small_dataset.graph,
            small_dataset.item_topics,
            config,
            progress=lambda *report: reports.append(report),
        )
        starts = [stage for stage, done, _ in reports if done == 0]
        assert starts == [
            "dirichlet", "sampling", "clustering", "seed-lists", "tree",
        ]
        assert reports[-1] == ("tree", 0, 1)
        assert reports[-2] == ("seed-lists", 4, 4)

    def test_constructor_validations(self, small_dataset, small_index):
        config = small_index.config
        points = small_index.index_points
        lists = small_index.seed_lists
        with pytest.raises(ValueError):
            InflexIndex(small_dataset.graph, points, lists[:-1], config)


class TestPersistence:
    def test_round_trip(self, small_index, small_dataset, small_workload, tmp_path):
        path = tmp_path / "index.npz"
        save_index(small_index, path)
        loaded = load_index(path, small_dataset.graph)
        assert loaded.num_index_points == small_index.num_index_points
        assert np.allclose(loaded.index_points, small_index.index_points)
        for a, b in zip(loaded.seed_lists, small_index.seed_lists):
            assert a.nodes == b.nodes
        # Same answers after reload (tree rebuilt deterministically).
        gamma = small_workload.items[0]
        assert (
            loaded.query(gamma, 5).seeds.nodes
            == small_index.query(gamma, 5).seeds.nodes
        )

    def test_round_trip_keeps_points_exactly(
        self, small_index, small_dataset, tmp_path
    ):
        # Saved points were smoothed at build time; loading must not
        # smooth them again (that moves them by about an ulp).
        path = tmp_path / "index.npz"
        save_index(small_index, path)
        loaded = load_index(path, small_dataset.graph)
        assert np.array_equal(loaded.index_points, small_index.index_points)
        save_index(loaded, tmp_path / "again.npz")
        again = load_index(tmp_path / "again.npz", small_dataset.graph)
        assert np.array_equal(again.index_points, small_index.index_points)

    def test_config_preserved(self, small_index, small_dataset, tmp_path):
        path = tmp_path / "index.npz"
        save_index(small_index, path)
        loaded = load_index(path, small_dataset.graph)
        assert loaded.config == small_index.config


class TestIndexStats:
    def test_stats_contents(self, small_index):
        stats = small_index.stats()
        assert stats["num_index_points"] == small_index.num_index_points
        assert stats["tree_leaves"] >= 1
        assert stats["tree_depth"] >= 1
        assert stats["memory_bytes"] == small_index.memory_footprint()
        assert stats["im_engine"] == "imm"
        assert len(stats["dirichlet_alpha"]) == small_index.graph.num_topics

    def test_stats_json_serializable(self, small_index):
        import json

        json.dumps(small_index.stats())

    def test_assembled_index_has_no_dirichlet(self, small_index, small_dataset):
        from repro.core import InflexIndex

        rebuilt = InflexIndex(
            small_dataset.graph,
            small_index.index_points,
            small_index.seed_lists,
            small_index.config,
        )
        assert "dirichlet_alpha" not in rebuilt.stats()
