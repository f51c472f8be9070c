"""Tests for the influence-maximization algorithms."""

import numpy as np
import pytest

from repro.core.offline import offline_seed_list
from repro.im import (
    SeedList,
    celfpp_seed_selection,
    greedy_seed_selection,
    random_seeds,
    walk_rr_index,
)
from repro.propagation import SnapshotSpread, estimate_spread


class TestSeedList:
    def test_basic(self):
        sl = SeedList((3, 1, 2), (5.0, 2.0, 1.0), algorithm="x")
        assert len(sl) == 3
        assert sl[0] == 3
        assert 1 in sl
        assert sl.rank_of(2) == 2
        assert sl.rank_of(99) is None
        assert sl.estimated_spread == pytest.approx(8.0)

    def test_top(self):
        sl = SeedList((3, 1, 2), (5.0, 2.0, 1.0))
        top = sl.top(2)
        assert top.nodes == (3, 1)
        assert top.marginal_gains == (5.0, 2.0)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SeedList((1, 1, 2))

    def test_gain_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SeedList((1, 2), (1.0,))

    def test_iteration_order(self):
        sl = SeedList((5, 3, 9))
        assert list(sl) == [5, 3, 9]

    def test_as_array(self):
        sl = SeedList((5, 3))
        arr = sl.as_array()
        assert arr.dtype == np.int64
        assert arr.tolist() == [5, 3]


class TestGreedyFamilyEquivalence:
    """Greedy and CELF++ must return the same seeds when run on the
    same deterministic (snapshot) spread oracle — CELF++ is an exact
    optimization, not an approximation."""

    @pytest.fixture(scope="class")
    def oracle(self, small_graph):
        gamma = np.full(
            small_graph.num_topics, 1.0 / small_graph.num_topics
        )
        return SnapshotSpread(
            small_graph, gamma, num_snapshots=60, seed=21
        )

    def test_all_agree(self, oracle, small_graph):
        n = small_graph.num_nodes
        greedy = greedy_seed_selection(oracle, n, 4)
        celfpp = celfpp_seed_selection(oracle, n, 4)
        assert greedy.nodes == celfpp.nodes
        assert np.allclose(greedy.marginal_gains, celfpp.marginal_gains)

    def test_gains_nonincreasing(self, oracle, small_graph):
        result = celfpp_seed_selection(oracle, small_graph.num_nodes, 5)
        gains = result.marginal_gains
        assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))

    def test_k_zero(self, oracle, small_graph):
        assert (
            len(celfpp_seed_selection(oracle, small_graph.num_nodes, 0)) == 0
        )

    def test_k_too_large_rejected(self, oracle):
        with pytest.raises(ValueError):
            greedy_seed_selection(oracle, 5, 6)
        with pytest.raises(ValueError):
            celfpp_seed_selection(oracle, 5, 6)

    def test_candidate_restriction(self, oracle, small_graph):
        pool = [0, 1, 2, 3, 4]
        result = celfpp_seed_selection(
            oracle, small_graph.num_nodes, 3, candidates=pool
        )
        assert set(result.nodes) <= set(pool)


class TestRIS:
    def test_rr_sets_contain_root(self, small_graph):
        gamma = np.full(
            small_graph.num_topics, 1.0 / small_graph.num_topics
        )
        index = walk_rr_index(
            small_graph, gamma, 50, np.random.default_rng(22), block=1
        )
        assert index.num_sets == 50
        for set_id in range(index.num_sets):
            assert index.contains(set_id, int(index.roots[set_id]))

    def test_spread_estimate_unbiased_vs_mc(self, small_graph):
        gamma = np.zeros(small_graph.num_topics)
        gamma[0] = 1.0
        index = walk_rr_index(
            small_graph, gamma, 6000, np.random.default_rng(23), block=1
        )
        seeds = [0, 1, 2]
        ris_est = index.spread_estimate(seeds)
        mc_est = estimate_spread(
            small_graph, gamma, seeds, num_simulations=3000, seed=24
        ).mean
        assert ris_est == pytest.approx(mc_est, rel=0.2, abs=1.0)

    def test_selection_beats_random(self, small_graph):
        gamma = np.zeros(small_graph.num_topics)
        gamma[0] = 1.0
        result = offline_seed_list(
            small_graph, gamma, 5, engine="ris", ris_num_sets=3000, seed=25
        )
        random = random_seeds(small_graph.num_nodes, 5, seed=26)
        s_ris = estimate_spread(
            small_graph, gamma, result.nodes, num_simulations=500, seed=27
        ).mean
        s_rand = estimate_spread(
            small_graph, gamma, random.nodes, num_simulations=500, seed=27
        ).mean
        assert s_ris > s_rand

    def test_gains_nonincreasing(self, small_graph):
        gamma = np.full(
            small_graph.num_topics, 1.0 / small_graph.num_topics
        )
        result = offline_seed_list(
            small_graph, gamma, 8, engine="ris", ris_num_sets=2000, seed=28
        )
        gains = result.marginal_gains
        assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))

    def test_pads_when_rr_sets_exhausted(self, tiny_graph):
        gamma = np.array([1.0, 0.0])
        index = walk_rr_index(
            tiny_graph, gamma, 5, np.random.default_rng(29), block=1
        )
        result = index.seed_list(tiny_graph.num_nodes, algorithm="ris")
        assert len(result) == tiny_graph.num_nodes
        assert len(set(result.nodes)) == tiny_graph.num_nodes

    def test_invalid_args(self, small_graph):
        gamma = np.full(
            small_graph.num_topics, 1.0 / small_graph.num_topics
        )
        with pytest.raises(ValueError):
            walk_rr_index(small_graph, gamma, 0, np.random.default_rng(30))
        index = walk_rr_index(
            small_graph, gamma, 10, np.random.default_rng(30), block=1
        )
        with pytest.raises(ValueError):
            index.seed_list(-1, algorithm="ris")

    def test_deterministic(self, small_graph):
        gamma = np.full(
            small_graph.num_topics, 1.0 / small_graph.num_topics
        )
        a = offline_seed_list(
            small_graph, gamma, 5, engine="ris", ris_num_sets=500, seed=31
        )
        b = offline_seed_list(
            small_graph, gamma, 5, engine="ris", ris_num_sets=500, seed=31
        )
        assert a.nodes == b.nodes


class TestHeuristics:
    def test_random_seeds_distinct(self):
        result = random_seeds(100, 10, seed=32)
        assert len(set(result.nodes)) == 10

    def test_random_seeds_bounds(self):
        with pytest.raises(ValueError):
            random_seeds(5, 6)
