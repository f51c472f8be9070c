"""Tests for index maintenance and range search."""

import numpy as np
import pytest

from repro.bbtree import range_search
from repro.errors import EmptyIndexError
from repro.im import SeedList
from repro.simplex import (
    kl_divergence_matrix,
    sample_uniform_simplex,
    smooth,
)


class TestIndexMaintenance:
    def test_add_point_with_explicit_list(self, small_index):
        gamma = sample_uniform_simplex(
            1, small_index.graph.num_topics, seed=1
        )[0]
        seeds = SeedList(tuple(range(12)))
        grown = small_index.with_added_point(gamma, seeds)
        assert grown.num_index_points == small_index.num_index_points + 1
        assert grown.seed_lists[-1].nodes == seeds.nodes
        # Original is untouched (immutable style).
        assert small_index.num_index_points == 20

    def test_add_point_precomputes_when_needed(self, small_index):
        gamma = sample_uniform_simplex(
            1, small_index.graph.num_topics, seed=2
        )[0]
        grown = small_index.with_added_point(gamma)
        new_list = grown.seed_lists[-1]
        assert len(new_list) == small_index.config.seed_list_length

    def test_added_point_improves_coverage(self, small_index):
        gamma = sample_uniform_simplex(
            1, small_index.graph.num_topics, seed=3
        )[0]
        before = small_index.coverage_of(gamma)
        grown = small_index.with_added_point(gamma, SeedList((0, 1, 2)))
        after = grown.coverage_of(gamma)
        assert after <= before
        assert after == pytest.approx(0.0, abs=1e-6)

    def test_added_point_answers_epsilon_exact(self, small_index):
        gamma = sample_uniform_simplex(
            1, small_index.graph.num_topics, seed=4
        )[0]
        seeds = SeedList(tuple(range(5)))
        grown = small_index.with_added_point(gamma, seeds)
        answer = grown.query(gamma, 5)
        assert answer.epsilon_match
        assert answer.seeds.nodes == seeds.nodes

    def test_existing_points_come_back_exactly(self, small_index):
        """Maintenance smooths only the new points, once; the existing
        (already smoothed) points are kept bit for bit."""
        gammas = sample_uniform_simplex(
            3, small_index.graph.num_topics, seed=5
        )
        seeds = SeedList(tuple(range(4)))
        points = small_index.index_points
        grown = small_index.with_added_point(gammas[0], seeds)
        assert np.array_equal(grown.index_points[:-1], points)
        assert np.array_equal(grown.index_points[-1], smooth(gammas[0]))
        batch = small_index.with_added_points(gammas, [seeds] * 3)
        assert np.array_equal(batch.index_points[:-3], points)
        assert np.array_equal(batch.index_points[-3:], smooth(gammas))
        shrunk = small_index.without_point(2)
        assert np.array_equal(
            shrunk.index_points, np.delete(points, 2, axis=0)
        )
        assert shrunk.dirichlet is small_index.dirichlet

    def test_remove_point(self, small_index):
        shrunk = small_index.without_point(0)
        assert shrunk.num_index_points == small_index.num_index_points - 1
        assert np.allclose(
            shrunk.index_points, small_index.index_points[1:]
        )

    def test_remove_bounds(self, small_index):
        with pytest.raises(ValueError):
            small_index.without_point(-1)
        with pytest.raises(ValueError):
            small_index.without_point(small_index.num_index_points)

    def test_cannot_empty_index(self, small_index):
        shrunk = small_index
        with pytest.raises(EmptyIndexError):
            for _ in range(small_index.num_index_points):
                shrunk = shrunk.without_point(0)


class TestRangeSearch:
    @pytest.fixture(scope="class")
    def tree_points(self):
        from repro.bbtree import BBTree

        points = sample_uniform_simplex(250, 5, seed=8)
        return BBTree(points, seed=9), points

    def test_matches_brute_force(self, tree_points):
        tree, points = tree_points
        rng = np.random.default_rng(10)
        for _ in range(8):
            query = rng.dirichlet(np.ones(5))
            radius = rng.uniform(0.05, 0.5)
            result = range_search(tree, query, radius)
            divs = kl_divergence_matrix(points, query)
            expected = set(np.flatnonzero(divs <= radius).tolist())
            assert set(result.indices.tolist()) == expected

    def test_zero_radius(self, tree_points):
        tree, points = tree_points
        result = range_search(tree, points[17], 1e-12)
        assert 17 in result.indices.tolist()

    def test_prunes_subtrees(self, tree_points):
        tree, _ = tree_points
        query = sample_uniform_simplex(1, 5, seed=11)[0]
        result = range_search(tree, query, 0.01)
        assert result.stats.nodes_pruned > 0

    def test_negative_radius_rejected(self, tree_points):
        tree, _ = tree_points
        with pytest.raises(ValueError):
            range_search(tree, np.full(5, 0.2), -0.1)
