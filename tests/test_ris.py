"""Correctness battery for reverse-influence sampling: the one reverse
walker of `repro.im.imm`, driven sequentially (`walk_rr_index`, the
``ris`` engine and segment path) and by the pooled `RRSampler`.

Three families of checks the RR-set machinery must pass:

* **Exact differential** — on graphs small enough for
  :func:`repro.propagation.exact.exact_spread` to enumerate all
  ``2^m`` live-edge worlds, the unbiased RR estimate
  ``n * coverage / num_sets`` must converge to the exact spread within
  binomial confidence bounds; segment-rooted sets likewise converge to
  the exact within-segment spread.
* **Root containment** — every sampled RR set contains the root it was
  grown from (the root is the first draw of the per-set stream).
* **Determinism** — the same seed yields bit-identical collections
  regardless of the ``REPRO_SIM_WORKERS`` environment value or the
  explicit worker count (block streams are keyed by position, not by
  where they run).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.segment import sample_segment_rr_sets
from repro.im.imm import (
    RRIndex,
    RRSampler,
    sample_rr_block,
    sample_rr_index,
    walk_rr_index,
)
from repro.propagation.exact import (
    exact_activation_probabilities,
    exact_spread,
)

GAMMA = np.array([0.7, 0.3])

#: Seed sets spanning the tiny graph's topology (source, middle, sink).
SEED_SETS = ([0], [2], [5], [0, 3], [1, 4], [0, 1, 2])


def _binomial_bound(n: int, exact: float, num_sets: int) -> float:
    """A 5-sigma bound on |estimate - exact| for the RR estimator.

    The RR estimate is ``n * B/num_sets`` with
    ``B ~ Binomial(num_sets, exact/n)``, so its standard error is
    ``n * sqrt(p (1 - p) / num_sets)``.
    """
    p = exact / n
    return 5.0 * n * np.sqrt(p * (1.0 - p) / num_sets) + 1e-9


class TestExactDifferential:
    """RR spread estimates converge to the enumerated ground truth."""

    NUM_SETS = 6000

    @pytest.mark.parametrize("seeds", SEED_SETS)
    def test_legacy_collection_matches_exact(self, tiny_graph, seeds):
        """The ``ris`` engine's one-set-at-a-time walk."""
        exact = exact_spread(tiny_graph, GAMMA, seeds)
        index = walk_rr_index(
            tiny_graph,
            GAMMA,
            self.NUM_SETS,
            np.random.default_rng(123),
            block=1,
        )
        estimate = index.spread_estimate(seeds)
        bound = _binomial_bound(
            tiny_graph.num_nodes, exact, self.NUM_SETS
        )
        assert abs(estimate - exact) <= bound

    @pytest.mark.parametrize("seeds", SEED_SETS)
    def test_packed_index_matches_exact(self, tiny_graph, seeds):
        exact = exact_spread(tiny_graph, GAMMA, seeds)
        index = sample_rr_index(
            tiny_graph, GAMMA, self.NUM_SETS, seed=123
        )
        estimate = index.spread_estimate(seeds)
        bound = _binomial_bound(
            tiny_graph.num_nodes, exact, self.NUM_SETS
        )
        assert abs(estimate - exact) <= bound

    def test_both_samplers_agree_with_each_other(self, tiny_graph):
        """Sequential and pooled sampling target the same quantity."""
        sequential = walk_rr_index(
            tiny_graph, GAMMA, 4000, np.random.default_rng(7), block=1
        )
        index = sample_rr_index(tiny_graph, GAMMA, 4000, seed=7)
        for seeds in SEED_SETS:
            a = sequential.spread_estimate(seeds)
            b = index.spread_estimate(seeds)
            assert abs(a - b) <= _binomial_bound(
                tiny_graph.num_nodes, max(a, b), 4000
            )


    @pytest.mark.parametrize("segment", ([3, 4, 5], [2], [0, 1, 4]))
    @pytest.mark.parametrize("seeds", ([0], [1, 3], [2]))
    def test_segment_estimate_matches_exact(self, tiny_graph, segment, seeds):
        """Segment-rooted sets estimate the within-segment spread."""
        assert tiny_graph.num_arcs <= 20
        probs = exact_activation_probabilities(tiny_graph, GAMMA, seeds)
        exact = float(probs[segment].sum())
        index = sample_segment_rr_sets(
            tiny_graph, GAMMA, segment, self.NUM_SETS, seed=17
        )
        assert set(index.roots.tolist()) <= set(segment)
        estimate = (
            len(segment) * index.covered_count(seeds) / index.num_sets
        )
        bound = _binomial_bound(len(segment), exact, self.NUM_SETS)
        assert abs(estimate - exact) <= bound


class TestRootContainment:
    def test_legacy_set_starts_with_its_root(self, tiny_graph):
        """A one-set walk draws its root first and contains it."""
        probs = tiny_graph.item_probabilities(GAMMA)
        in_indptr, in_tails, in_arc_ids = tiny_graph.reverse_view
        in_probs = probs[in_arc_ids]
        n = tiny_graph.num_nodes
        for seed in range(50):
            rng = np.random.default_rng(seed)
            replay = np.random.default_rng(seed)
            expected_root = int(replay.integers(n))
            values, indptr, roots = sample_rr_block(
                in_indptr, in_tails, in_probs, n, 1, rng
            )
            assert int(roots[0]) == expected_root
            assert expected_root in values.tolist()
            assert indptr.tolist() == [0, values.size]

    def test_given_roots_are_kept(self, small_graph):
        """Caller-supplied roots (segment targeting) root their sets."""
        gamma = np.full(4, 0.25)
        probs = small_graph.item_probabilities(gamma)
        in_indptr, in_tails, in_arc_ids = small_graph.reverse_view
        roots = np.array([5, 5, 0, 199, 17], dtype=np.int64)
        values, indptr, got = sample_rr_block(
            in_indptr,
            in_tails,
            probs[in_arc_ids],
            small_graph.num_nodes,
            roots.size,
            np.random.default_rng(3),
            roots,
        )
        assert got.tolist() == roots.tolist()
        for i, root in enumerate(roots.tolist()):
            assert root in values[indptr[i] : indptr[i + 1]].tolist()

    def test_packed_index_sets_contain_their_roots(self, small_graph):
        gamma = np.full(4, 0.25)
        index = sample_rr_index(small_graph, gamma, 800, seed=31)
        assert index.roots.shape == (800,)
        for set_id in range(index.num_sets):
            root = int(index.roots[set_id])
            assert index.contains(set_id, root)
            assert root in index.members(set_id).tolist()

    def test_members_are_sorted_and_unique(self, small_graph):
        gamma = np.full(4, 0.25)
        index = sample_rr_index(small_graph, gamma, 400, seed=37)
        for set_id in range(index.num_sets):
            members = index.members(set_id)
            assert np.all(np.diff(members.astype(np.int64)) > 0)


class TestDeterminism:
    def test_legacy_same_seed_identical_collections(self, tiny_graph):
        a = walk_rr_index(
            tiny_graph, GAMMA, 200, np.random.default_rng(42), block=1
        )
        b = walk_rr_index(
            tiny_graph, GAMMA, 200, np.random.default_rng(42), block=1
        )
        assert a.num_sets == b.num_sets == 200
        assert np.array_equal(a.roots, b.roots)
        for set_id in range(a.num_sets):
            assert np.array_equal(a.members(set_id), b.members(set_id))

    @pytest.mark.parametrize("env_workers", ["1", "3"])
    def test_collection_invariant_under_sim_workers_env(
        self, tiny_graph, monkeypatch, env_workers
    ):
        """REPRO_SIM_WORKERS must never leak into sampled randomness."""
        monkeypatch.setenv("REPRO_SIM_WORKERS", env_workers)
        sequential = walk_rr_index(
            tiny_graph, GAMMA, 100, np.random.default_rng(11), block=1
        )
        index = sample_rr_index(tiny_graph, GAMMA, 100, seed=11)
        monkeypatch.setenv("REPRO_SIM_WORKERS", "1")
        baseline_sequential = walk_rr_index(
            tiny_graph, GAMMA, 100, np.random.default_rng(11), block=1
        )
        baseline_index = sample_rr_index(tiny_graph, GAMMA, 100, seed=11)
        for got, want in (
            (sequential, baseline_sequential),
            (index, baseline_index),
        ):
            assert np.array_equal(got.roots, want.roots)
            for set_id in range(got.num_sets):
                assert np.array_equal(
                    got.members(set_id), want.members(set_id)
                )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sampler_bit_identical_across_worker_counts(
        self, small_graph, workers
    ):
        gamma = np.array([0.4, 0.3, 0.2, 0.1])
        with RRSampler(small_graph, workers=1) as inline:
            base = inline.sample(gamma, 700, seed=19)
        with RRSampler(small_graph, workers=workers) as pooled:
            wide = pooled.sample(gamma, 700, seed=19)
        for a, b in zip(base, wide):
            assert np.array_equal(a, b)

    def test_requests_draw_disjoint_streams(self, small_graph):
        """Different ``request`` ids must not replay the same sets."""
        gamma = np.full(4, 0.25)
        with RRSampler(small_graph, workers=1) as sampler:
            first = sampler.sample(gamma, 64, seed=5, request=0)
            second = sampler.sample(gamma, 64, seed=5, request=1)
            replayed = sampler.sample(gamma, 64, seed=5, request=0)
        assert not np.array_equal(first[2], second[2])
        assert np.array_equal(first[2], replayed[2])


class TestValidation:
    def test_zero_sets_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="num_sets"):
            walk_rr_index(tiny_graph, GAMMA, 0, np.random.default_rng(0))
        with RRSampler(tiny_graph, workers=1) as sampler:
            with pytest.raises(ValueError, match="num_sets"):
                sampler.sample(GAMMA, 0)

    def test_empty_collection_has_no_estimate(self):
        index = RRIndex(
            np.empty(0, dtype=np.uint32),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.uint32),
            6,
        )
        with pytest.raises(ValueError, match="no RR sets"):
            index.spread_estimate([0])

    def test_closed_sampler_rejected(self, tiny_graph):
        sampler = RRSampler(tiny_graph, workers=1)
        sampler.close()
        with pytest.raises(RuntimeError, match="closed"):
            sampler.sample(GAMMA, 10)

    def test_topic_mismatch_rejected(self, tiny_graph):
        with RRSampler(tiny_graph, workers=1) as sampler:
            with pytest.raises(ValueError, match="topics"):
                sampler.sample(np.array([0.5, 0.3, 0.2]), 10)
