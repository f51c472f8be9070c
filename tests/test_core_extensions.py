"""Tests for the future-work extensions: what-if, segments, auto-size."""

import numpy as np
import pytest

from repro.core import (
    auto_size_index,
    compare_positionings,
    estimate_segment_spread,
    sample_segment_rr_sets,
    segment_influence_maximization,
)
from repro.im import random_seeds
from repro.propagation import estimate_spread


class TestWhatIf:
    def test_report_structure(self, small_index, small_dataset):
        z = small_dataset.num_topics
        candidates = {
            "pure-0": np.eye(z)[0],
            "pure-1": np.eye(z)[1],
            "blend": np.full(z, 1.0 / z),
        }
        report = compare_positionings(
            small_index, candidates, 5, num_simulations=40, seed=1
        )
        assert len(report.candidates) == 3
        assert report.best.spread.mean == max(
            c.spread.mean for c in report.candidates
        )
        assert 0.0 <= report.seed_overlap("pure-0", "pure-1") <= 1.0
        assert "What-if" in report.render()

    def test_different_topics_different_seeds(self, small_index, small_dataset):
        z = small_dataset.num_topics
        candidates = {"a": np.eye(z)[0], "b": np.eye(z)[1]}
        report = compare_positionings(
            small_index, candidates, 8, num_simulations=20, seed=2
        )
        # On an interest-structured graph, pure topics should target
        # (at least partly) different users.
        assert report.seed_overlap("a", "b") < 1.0

    def test_empty_candidates_rejected(self, small_index):
        with pytest.raises(ValueError):
            compare_positionings(small_index, {}, 5)


class TestSegmentQueries:
    @pytest.fixture(scope="class")
    def segment(self, small_dataset):
        rng = np.random.default_rng(3)
        return rng.choice(
            small_dataset.graph.num_nodes, size=40, replace=False
        )

    def test_segment_spread_bounded(self, small_dataset, segment):
        gamma = small_dataset.item_topics[0]
        seeds = [0, 1, 2]
        seg = estimate_segment_spread(
            small_dataset.graph,
            gamma,
            seeds,
            segment,
            num_simulations=100,
            seed=4,
        )
        total = estimate_spread(
            small_dataset.graph, gamma, seeds, num_simulations=100, seed=4
        )
        assert 0 <= seg.mean <= len(segment)
        assert seg.mean <= total.mean + 1e-9

    def test_targeted_beats_random_within_segment(
        self, small_dataset, segment
    ):
        gamma = small_dataset.item_topics[1]
        targeted = segment_influence_maximization(
            small_dataset.graph, gamma, 5, segment, num_sets=3000, seed=5
        )
        random = random_seeds(small_dataset.graph.num_nodes, 5, seed=6)
        s_targeted = estimate_segment_spread(
            small_dataset.graph,
            gamma,
            targeted.nodes,
            segment,
            num_simulations=300,
            seed=7,
        ).mean
        s_random = estimate_segment_spread(
            small_dataset.graph,
            gamma,
            random.nodes,
            segment,
            num_simulations=300,
            seed=7,
        ).mean
        assert s_targeted > s_random

    def test_rr_sets_rooted_in_segment(self, small_dataset, segment):
        gamma = small_dataset.item_topics[2]
        index = sample_segment_rr_sets(
            small_dataset.graph, gamma, segment, 30, seed=8
        )
        assert index.num_sets == 30
        assert index.num_nodes == small_dataset.graph.num_nodes
        # Every RR set contains its root, which is a segment member.
        members = set(int(v) for v in segment)
        for set_id, root in enumerate(index.roots.tolist()):
            assert root in members
            assert index.contains(set_id, root)

    def test_validation(self, small_dataset):
        gamma = small_dataset.item_topics[0]
        with pytest.raises(ValueError):
            estimate_segment_spread(
                small_dataset.graph, gamma, [0], [], num_simulations=10
            )
        with pytest.raises(ValueError):
            estimate_segment_spread(
                small_dataset.graph,
                gamma,
                [0],
                [10**6],
                num_simulations=10,
            )
        with pytest.raises(ValueError):
            segment_influence_maximization(
                small_dataset.graph, gamma, 2, [0, 1], num_sets=0
            )


class TestAutoSize:
    def test_coverage_decreases_with_h(self, small_dataset):
        result = auto_size_index(
            small_dataset.item_topics,
            candidate_sizes=(4, 16, 64),
            num_cloud_samples=1500,
            num_validation_queries=100,
            improvement_tolerance=0.001,
            seed=9,
        )
        values = [result.coverage[h] for h in result.candidate_sizes]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_stops_at_knee(self, small_dataset):
        result = auto_size_index(
            small_dataset.item_topics,
            candidate_sizes=(4, 8, 16, 32, 64),
            num_cloud_samples=1200,
            num_validation_queries=80,
            improvement_tolerance=0.9,  # absurdly strict: stop early
            seed=10,
        )
        assert result.chosen_size <= 8
        assert "Auto-sizing" in result.render()

    def test_validation(self, small_dataset):
        with pytest.raises(ValueError):
            auto_size_index(
                small_dataset.item_topics, candidate_sizes=(1,)
            )
        with pytest.raises(ValueError):
            auto_size_index(
                small_dataset.item_topics, improvement_tolerance=2.0
            )
