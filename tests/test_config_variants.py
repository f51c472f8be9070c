"""End-to-end tests of alternative InflexConfig variants.

The default pipeline is weighted Copeland + Local Kemenization; these
tests drive the other supported combinations through a real index so
no configuration path rots.
"""

import numpy as np
import pytest

from repro.core import IM_ENGINES, InflexConfig, InflexIndex, PAPER_CONFIG
from repro.im import greedy_seed_selection
from repro.propagation import SnapshotSpread


@pytest.fixture(scope="module")
def base_kwargs():
    return dict(
        num_index_points=16,
        num_dirichlet_samples=800,
        seed_list_length=8,
        ris_num_sets=600,
        knn=5,
        leaf_size=6,
        seed=91,
    )


@pytest.fixture(scope="module")
def artifacts(small_dataset):
    return small_dataset.graph, small_dataset.item_topics


def _build(artifacts, **kwargs) -> InflexIndex:
    graph, catalog = artifacts
    return InflexIndex.build(graph, catalog, InflexConfig(**kwargs))


class TestAggregatorVariants:
    @pytest.mark.parametrize("aggregator", ["copeland", "borda", "mc4"])
    def test_query_works(self, artifacts, base_kwargs, aggregator):
        index = _build(artifacts, aggregator=aggregator, **base_kwargs)
        gamma = artifacts[1][0]
        answer = index.query(gamma, 6)
        assert len(answer.seeds) == 6
        assert len(set(answer.seeds.nodes)) == 6

    def test_aggregators_broadly_agree(self, artifacts, base_kwargs):
        gamma = artifacts[1][1]
        answers = {}
        for aggregator in ("copeland", "borda", "mc4"):
            index = _build(artifacts, aggregator=aggregator, **base_kwargs)
            answers[aggregator] = set(index.query(gamma, 6).seeds.nodes)
        # Same retrieval, different consensus rules: substantial overlap.
        assert len(answers["copeland"] & answers["borda"]) >= 3
        assert len(answers["copeland"] & answers["mc4"]) >= 3


class TestWeightingVariants:
    def test_unweighted(self, artifacts, base_kwargs):
        index = _build(artifacts, weighted=False, **base_kwargs)
        gamma = artifacts[1][2]
        answer = index.query(gamma, 5)
        assert len(answer.seeds) == 5
        # Weights are still reported (for inspection) even if unused.
        assert all(0 <= w <= 1 for w in answer.neighbor_weights)

    def test_no_local_kemenization(self, artifacts, base_kwargs):
        index = _build(
            artifacts, local_kemenization=False, **base_kwargs
        )
        gamma = artifacts[1][3]
        answer = index.query(gamma, 5)
        assert len(answer.seeds) == 5

    def test_celf_engine_build(self, artifacts):
        """An index assembled from outside seed lists answers: here plain
        greedy on live-edge snapshots, the lists the ``celf++`` engine
        must reproduce."""
        graph, catalog = artifacts
        config = InflexConfig(
            num_index_points=4,
            num_dirichlet_samples=200,
            seed_list_length=3,
            ris_num_sets=200,
            num_snapshots=25,
            knn=3,
            seed=92,
        )
        built = InflexIndex.build(graph, catalog, config)
        seed_lists = [
            greedy_seed_selection(
                SnapshotSpread(graph, point, num_snapshots=25, seed=92),
                graph.num_nodes,
                3,
            )
            for point in built.index_points
        ]
        index = InflexIndex(graph, built.index_points, seed_lists, config)
        assert all(
            seed_list.algorithm == "greedy"
            for seed_list in index.seed_lists
        )
        answer = index.query(catalog[4], 3)
        assert len(answer.seeds) == 3


    @pytest.mark.parametrize("engine", ["celf", "greedy", "greedy-mc"])
    def test_removed_engines_rejected(self, engine):
        assert IM_ENGINES == ("imm", "ris", "celf++", "celf++-mc")
        with pytest.raises(ValueError, match="im_engine"):
            InflexConfig(im_engine=engine)


class TestPaperConfig:
    def test_paper_config_valid(self):
        assert PAPER_CONFIG.num_index_points == 1000
        assert PAPER_CONFIG.seed_list_length == 50
        assert PAPER_CONFIG.max_leaves == 5
        assert PAPER_CONFIG.knn == 10

    def test_epsilon_zero_allowed(self):
        InflexConfig(epsilon=0.0)

    def test_frozen(self):
        config = InflexConfig()
        with pytest.raises(Exception):
            config.knn = 99  # type: ignore[misc]
