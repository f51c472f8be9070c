"""Differential tests: the table-driven searches and the row-based
preference matrix against the code they replaced, kept in
``tests/search_reference.py``.

Every kernel must reproduce the reference bit for bit:

* :func:`inflex_search` (every switch) and :func:`leaf_limited_search`
  return the same indices, the same divergence bits and the same
  :class:`SearchStats` on random trees — KL and the other Bregman
  divergences, learned and fixed branching, duplicated points —
  for random, epsilon-match and far queries;
* :func:`similar_enough` (leaf moments, eigh axis, float statistic,
  near-tie fallback) decides as the SVD test does, on leaves and on
  clouds built to sit near its thresholds: equal or nearly equal top
  eigenvalues, spreads near the 1e-8 checks, duplicated points, extreme
  tails, far queries;
* :func:`exact_nearest_neighbors`, now one scan, returns the branch and
  bound's neighbors and divergences except where equal divergences
  straddle the k-th place, and then it keeps the lower id;
* :func:`pairwise_preference_matrix` (a subset-sum table for the first
  lists, one list at a time past it) equals the per-list product sum,
  weights and ragged lists included;
* :meth:`InflexIndex.query` answers as the reference pipeline does.

Examples per test are a quarter of the active Hypothesis profile's
budget: 25 by default, many more under ``--hypothesis-profile=deep``
(registered in ``conftest.py``).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bbtree.search as search
import tests.search_reference as ref
from repro.bbtree import (
    BBTree,
    exact_nearest_neighbors,
    inflex_search,
    leaf_limited_search,
    similar_enough,
)
from repro.core import InflexConfig, InflexIndex
from repro.divergence import (
    ItakuraSaito,
    KLDivergence,
    Mahalanobis,
    SquaredEuclidean,
)
from repro.graph import interest_topic_graph
from repro.im import SeedList
from repro.ranking import pairwise_preference_matrix, ranking_rows
from repro.simplex.vectors import smooth

SETTINGS = settings(
    max_examples=max(5, settings.default.max_examples // 4), deadline=None
)

DIVERGENCES = {
    "kl": KLDivergence,
    "sqeuclidean": SquaredEuclidean,
    "itakura-saito": ItakuraSaito,
}

TREES = st.fixed_dictionaries(
    {
        "h": st.integers(8, 300),
        "z": st.integers(2, 8),
        "concentration": st.sampled_from([0.2, 1.0, 5.0]),
        "duplicates": st.integers(0, 6),
        "branching": st.sampled_from(["gmeans", 2, 3]),
        "leaf_size": st.sampled_from([4, 8, 16]),
        "divergence": st.sampled_from([*DIVERGENCES, "mahalanobis"]),
        "seed": st.integers(0, 2**16),
    }
)


def _tree(spec) -> BBTree:
    rng = np.random.default_rng(spec["seed"])
    z = spec["z"]
    base = smooth(rng.dirichlet(np.full(z, spec["concentration"]), spec["h"]))
    points = np.vstack([base, base[: spec["duplicates"]]])
    if spec["divergence"] == "mahalanobis":
        factor = rng.normal(size=(z, z))
        divergence = Mahalanobis(factor @ factor.T + z * np.eye(z))
    else:
        divergence = DIVERGENCES[spec["divergence"]]()
    return BBTree(
        points,
        divergence=divergence,
        leaf_size=spec["leaf_size"],
        branching=spec["branching"],
        seed=spec["seed"],
    )


def _queries(tree: BBTree, seed: int) -> list[np.ndarray]:
    """Random, epsilon-match (a stored point, and one an ulp away) and
    far-from-everything queries (a simplex corner, smoothed and raw)."""
    rng = np.random.default_rng(seed)
    z = tree.points.shape[1]
    stored = tree.points[rng.integers(tree.num_points)]
    corner = np.eye(z)[rng.integers(z)]
    return [
        *smooth(rng.dirichlet(np.full(z, 0.5), 3)),
        stored,
        np.nextafter(stored, 1.0),
        smooth(corner),
        corner,
    ]


def _same_result(new, old) -> None:
    assert new.indices.tobytes() == old.indices.tobytes()
    assert new.divergences.tobytes() == old.divergences.tobytes()
    assert new.stats == old.stats


@SETTINGS
@given(
    TREES,
    st.sampled_from([0.0, 1e-9, 1e-3]),
    st.sampled_from([0.05, 0.5, 0.8]),
    st.integers(1, 6),
    st.booleans(),
    st.booleans(),
)
def test_inflex_search_matches_reference(
    spec, epsilon, ad_alpha, max_leaves, use_ad_test, use_pruning
):
    tree = _tree(spec)
    options = dict(
        epsilon=epsilon,
        ad_alpha=ad_alpha,
        max_leaves=max_leaves,
        use_ad_test=use_ad_test,
        use_pruning=use_pruning,
    )
    for query in _queries(tree, spec["seed"]):
        _same_result(
            inflex_search(tree, query, **options),
            ref.inflex_search(tree, query, **options),
        )


@SETTINGS
@given(TREES, st.integers(1, 12), st.integers(1, 6))
def test_leaf_limited_search_matches_reference(spec, k, max_leaves):
    tree = _tree(spec)
    k = min(k, tree.num_points)
    for query in _queries(tree, spec["seed"]):
        _same_result(
            leaf_limited_search(tree, query, k, max_leaves=max_leaves),
            ref.leaf_limited_search(tree, query, k, max_leaves=max_leaves),
        )


def _leaf_by_leaf(tree: BBTree, query) -> np.ndarray:
    """Every point's divergence, each leaf scored as one block."""
    divs = np.empty(tree.num_points)
    for leaf in tree.leaves():
        divs[leaf.point_ids] = ref.reference_divergence_to_point(
            tree.divergence, tree.points[leaf.point_ids], query
        )
    return divs


@SETTINGS
@given(TREES, st.integers(1, 12))
def test_exact_scan_matches_branch_and_bound(spec, k):
    tree = _tree(spec)
    k = min(k, tree.num_points)
    for query in _queries(tree, spec["seed"]):
        new = exact_nearest_neighbors(tree, query, k)
        # The k smallest by (divergence, id) over every leaf block.
        divs = _leaf_by_leaf(tree, query)
        order = np.lexsort((np.arange(tree.num_points), divs))[:k]
        assert np.array_equal(new.indices, order)
        assert new.divergences.tobytes() == divs[order].tobytes()
        assert new.stats == search.SearchStats(
            leaves_visited=tree.num_leaves(),
            divergence_computations=tree.num_points,
            nodes_pruned=0,
            epsilon_match=False,
            stopped_early=False,
        )
        # The branch and bound is never closer.  Its projection bounds
        # can prune a true neighbor of an extreme query (a corner of
        # the simplex under Itakura--Saito); where it does not, it
        # finds the same neighbors unless equal divergences straddle
        # the k-th place.
        old = ref.exact_nearest_neighbors(tree, query, k)
        assert (old.divergences >= new.divergences).all()
        ranked = np.sort(divs)
        if old.divergences.tobytes() == new.divergences.tobytes() and (
            k == tree.num_points or ranked[k] != ranked[k - 1]
        ):
            assert np.array_equal(old.indices, new.indices)


@SETTINGS
@given(TREES)
def test_similar_enough_matches_svd_test_on_leaves(spec):
    tree = _tree(spec)
    for query in _queries(tree, spec["seed"]):
        for leaf in tree.leaves():
            points = tree.points[leaf.point_ids]
            for alpha in (0.05, 0.8):
                assert similar_enough(points, query, alpha=alpha) == (
                    ref.similar_enough(points, query, alpha=alpha)
                )


CLOUDS = st.fixed_dictionaries(
    {
        "n": st.integers(3, 40),
        "z": st.integers(2, 8),
        "kind": st.sampled_from(
            [
                "gaussian",
                "equal-top",
                "small-gap",
                "tiny",
                "near-1e-8",
                "spread-1e-8",
                "diagonal-1e-8",
                "duplicated",
                "extreme-tail",
                "far-query",
            ]
        ),
        "scale": st.floats(1e-9, 1e-2),
        "seed": st.integers(0, 2**16),
        "alpha": st.sampled_from([0.05, 0.5, 0.8, 0.999]),
    }
)


def _cloud(spec) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(spec["seed"])
    n, z, kind = spec["n"], spec["z"], spec["kind"]
    center = rng.dirichlet(np.ones(z))
    if kind == "equal-top":
        # A square in the first two coordinates: the top two
        # eigenvalues of the scatter are equal (up to rounding).
        signs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
        offsets = np.zeros((n, z))
        offsets[:, :2] = signs[np.arange(n) % 4] * spec["scale"]
    elif kind == "small-gap":
        # The same square stretched by about the eigengap cut: the top
        # two eigenvalues sit a relative 1e-4 apart, give or take.
        signs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
        offsets = np.zeros((n, z))
        offsets[:, :2] = signs[np.arange(n) % 4] * spec["scale"]
        offsets[:, 0] *= 1.0 + rng.choice([2.5e-5, 5e-5, 1e-4, 2e-4])
        offsets[:, 2:] = rng.normal(size=(n, z - 2)) * spec["scale"] * 1e-3
    elif kind == "tiny":
        offsets = rng.normal(size=(n, z)) * 1e-9
    elif kind == "near-1e-8":
        offsets = np.zeros((n, z))
        offsets[:, 0] = np.where(np.arange(n) % 2, 1.0, -1.0) * 1e-8 * (
            1.0 + rng.uniform(-1e-6, 1e-6)
        )
    elif kind == "spread-1e-8":
        # Every coordinate a few 1e-8 wide: the degeneracy checks' band.
        offsets = rng.uniform(-3e-8, 3e-8, size=(n, z))
    elif kind == "diagonal-1e-8":
        # Two clusters along the diagonal, every coordinate within
        # 1e-8 of the mean: the SVD path calls the cloud constant,
        # though its projection on the diagonal spreads wider.
        offsets = np.outer(np.where(np.arange(n) % 2, 0.8e-8, -0.8e-8), np.ones(z))
    elif kind == "duplicated":
        offsets = np.repeat(rng.normal(size=(2, z)) * spec["scale"], n, 0)[:n]
    elif kind == "extreme-tail":
        # The query 4.5 to 7 deviations out: a normal tail near 1e-7.
        offsets = rng.normal(size=(n, z)) * spec["scale"]
        offsets[-1, 0] = rng.uniform(4.5, 7.0) * spec["scale"]
    elif kind == "far-query":
        offsets = rng.normal(size=(n, z)) * spec["scale"]
        offsets[-1] = 1e3 * spec["scale"]
    else:
        offsets = rng.normal(size=(n, z)) * spec["scale"]
    cloud = center + offsets
    return cloud[:-1], cloud[-1]


@SETTINGS
@given(CLOUDS)
def test_similar_enough_matches_svd_test_on_degenerate_clouds(spec):
    points, query = _cloud(spec)
    alpha = spec["alpha"]
    decision = ref.similar_enough(points, query, alpha=alpha)
    assert similar_enough(points, query, alpha=alpha) == decision
    assert ref.eigh_similar_enough(points, query, alpha=alpha) == decision


RANKINGS = st.integers(1, 16).flatmap(
    lambda count: st.tuples(
        st.lists(
            st.lists(
                st.integers(0, 40), min_size=0, max_size=12, unique=True
            ),
            min_size=count,
            max_size=count,
        ),
        st.one_of(
            st.none(),
            st.lists(
                st.one_of(
                    st.floats(0.0, 1.0),
                    st.sampled_from([0.0, 5e-324, 1e-300, 1.0 / 3.0]),
                ),
                min_size=count,
                max_size=count,
            ),
        ),
        st.lists(st.integers(0, 50), max_size=4, unique=True),
    )
)


@SETTINGS
@given(RANKINGS)
def test_preference_matrix_matches_reference(case):
    lists, weights, extra = case
    if not any(lists) and not extra:
        return
    if weights is not None and sum(weights) <= 0:
        return
    old_matrix, old_universe = ref.pairwise_preference_matrix(
        lists, weights=weights, extra_nodes=extra
    )
    for rankings in (lists, ranking_rows(lists)):
        for build in (pairwise_preference_matrix, ref.row_preference_matrix):
            matrix, universe = build(
                rankings, weights=weights, extra_nodes=extra
            )
            assert universe == old_universe
            assert matrix.tobytes() == old_matrix.tobytes()


def _index(seed: int, h: int, z: int, length: int, config) -> InflexIndex:
    rng = np.random.default_rng(seed)
    graph = interest_topic_graph(60, z, topics_per_node=1, seed=seed)
    points = rng.dirichlet(np.full(z, 0.5), h)
    seed_lists = [
        SeedList(tuple(rng.permutation(60)[: rng.integers(1, length + 1)]))
        for _ in range(h)
    ]
    return InflexIndex(graph, points, seed_lists, config)


def _answer_fields(answer) -> tuple:
    return (
        answer.seeds.nodes,
        answer.seeds.algorithm,
        answer.neighbor_ids,
        np.asarray(answer.neighbor_divergences).tobytes(),
        np.asarray(answer.neighbor_weights).tobytes(),
        answer.epsilon_match,
        answer.degraded,
        answer.reason,
    )


def _reference_aggregate(table, ids, k, **options):
    """The reference aggregation over the lists rows ``ids`` of the
    index's ranking table hold."""
    lists = [
        [node for node in row.tolist() if node >= 0] for row in table.rows[ids]
    ]
    return list(ref.aggregate_seed_lists(lists, k, **options).nodes)


@SETTINGS
@given(
    st.integers(0, 2**16),
    st.integers(8, 120),
    st.integers(2, 6),
    st.sampled_from(["copeland", "borda", "mc4"]),
    st.booleans(),
    st.booleans(),
    st.integers(1, 12),
)
def test_answers_match_reference_pipeline(
    seed, h, z, aggregator, weighted, kemenization, k
):
    config = InflexConfig(
        num_index_points=2,
        num_dirichlet_samples=10,
        seed_list_length=10,
        knn=min(8, h),
        leaf_size=8,
        aggregator=aggregator,
        weighted=weighted,
        local_kemenization=kemenization,
        seed=seed,
    )
    index = _index(seed, h, z, 10, config)
    queries = _queries(index.tree, seed)
    strategies = ("inflex", "approx-ad", "approx-knn", "approx-knn-sel",
                  "exact-knn")
    new = {
        strategy: [index.query(q, k, strategy=strategy) for q in queries]
        for strategy in strategies
    }
    # exact-knn keeps its scan here (the branch and bound is checked
    # against it above): its answers isolate the aggregation.
    with mock.patch.multiple(
        "repro.core.index",
        inflex_search=ref.inflex_search,
        leaf_limited_search=ref.leaf_limited_search,
        aggregate_rankings=_reference_aggregate,
    ):
        old = {
            strategy: [index.query(q, k, strategy=strategy) for q in queries]
            for strategy in strategies
        }
    for strategy in strategies:
        for a, b in zip(new[strategy], old[strategy]):
            assert _answer_fields(a) == _answer_fields(b)
            assert a.search_stats == b.search_stats


# ----------------------------------------------------------------------
# The exact-knn tie rule
# ----------------------------------------------------------------------
def test_exact_knn_breaks_ties_toward_the_lower_id():
    """Duplicated index points give exactly equal divergences; the scan
    keeps the lower ids at the k-th place, as every other search does
    (the branch and bound kept the higher one, in visit order)."""
    rng = np.random.default_rng(5)
    base = smooth(rng.dirichlet(np.ones(4), 60))
    tree = BBTree(np.vstack([base, base[:6]]), leaf_size=8, seed=3)
    disagreements = 0
    for query in smooth(rng.dirichlet(np.ones(4), 30)):
        divs = _leaf_by_leaf(tree, query)
        for k in range(1, 13):
            result = exact_nearest_neighbors(tree, query, k)
            order = np.lexsort((np.arange(tree.num_points), divs))[:k]
            assert np.array_equal(result.indices, order)
            old = ref.exact_nearest_neighbors(tree, query, k)
            disagreements += not np.array_equal(result.indices, old.indices)
    assert disagreements > 0


def _grid_tree() -> BBTree:
    """Mirror images on a dyadic grid have bit-equal squared-Euclidean
    divergences to a grid center, and they sit in different leaves."""
    grid = np.arange(8) / 8.0
    points = np.array([(x, y) for x in grid for y in grid])
    return BBTree(
        points, divergence=SquaredEuclidean(), leaf_size=4, branching=2,
        seed=1,
    )


GRID_QUERIES = [[0.4375, 0.4375], [0.4375, 0.25], [0.0625, 0.5]]


def test_exact_knn_ties_across_leaves_go_to_the_lower_id():
    tree = _grid_tree()
    for query in np.array(GRID_QUERIES):
        divs = _leaf_by_leaf(tree, query)
        for k in range(1, tree.num_points + 1):
            result = exact_nearest_neighbors(tree, query, k)
            order = np.lexsort((np.arange(tree.num_points), divs))[:k]
            assert np.array_equal(result.indices, order)


@pytest.mark.parametrize("max_leaves", [1, 2, 5, 16])
def test_guided_searches_match_reference_through_exact_ties(max_leaves):
    """Equal child-center divergences: the descent takes the first."""
    tree = _grid_tree()
    for query in np.array(GRID_QUERIES):
        _same_result(
            inflex_search(tree, query, max_leaves=max_leaves),
            ref.inflex_search(tree, query, max_leaves=max_leaves),
        )
        _same_result(
            leaf_limited_search(tree, query, 6, max_leaves=max_leaves),
            ref.leaf_limited_search(tree, query, 6, max_leaves=max_leaves),
        )


# ----------------------------------------------------------------------
# Each near-tie fallback of similar_enough runs the SVD path
# ----------------------------------------------------------------------
@pytest.fixture
def svd_calls():
    calls = []
    original = search._similar_enough_svd

    def spy(pooled, alpha):
        calls.append(alpha)
        return original(pooled, alpha)

    with mock.patch.object(search, "_similar_enough_svd", spy):
        yield calls


def _reference_p_value(points, query) -> float:
    from repro.stats.anderson_darling import (
        anderson_darling_p_value,
        anderson_darling_statistic,
        corrected_statistic,
        project_to_principal_axis,
    )

    pooled = np.vstack([points, query])
    projected = project_to_principal_axis(pooled)
    a_star = corrected_statistic(
        anderson_darling_statistic(projected), pooled.shape[0]
    )
    return a_star, anderson_darling_p_value(a_star)


def _agree(points, query, alpha) -> bool:
    decision = similar_enough(points, query, alpha=alpha)
    assert decision == ref.similar_enough(points, query, alpha=alpha)
    return decision


class TestNearTieFallbacks:
    def _cloud(self, seed=0, n=12, z=4):
        rng = np.random.default_rng(seed)
        cloud = rng.normal(size=(n, z)) * np.array([3.0, 1.0, 0.5, 0.2])
        return cloud[:-1], cloud[-1]

    def test_p_value_at_alpha(self, svd_calls):
        points, query = self._cloud()
        _, p_value = _reference_p_value(points, query)
        _agree(points, query, p_value)
        assert svd_calls == [p_value]

    def test_alpha_outside_the_unit_interval(self, svd_calls):
        points, query = self._cloud()
        assert _agree(points, query, 1.0) is False
        assert svd_calls == [1.0]

    @pytest.mark.parametrize("cut", [0.2, 0.34, 0.6])
    def test_statistic_at_a_p_value_cut_point(self, svd_calls, cut):
        # Normal quantiles along one axis, then slide the query out
        # along it until A*^2 sits on the cut: A*^2 is small with the
        # query at the center and grows without bound as it leaves.
        from statistics import NormalDist

        n = 15
        points = np.zeros((n, 3))
        points[:, 0] = [
            3.0 * NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)
        ]
        points[:, 1] = 0.01 * np.sin(np.arange(n))

        def query_at(t):
            return np.array([t, 0.0, 0.0])

        def a_star(t):
            return _reference_p_value(points, query_at(t))[0]

        low, high = 0.0, 60.0
        assert a_star(low) < cut < a_star(high)
        for _ in range(100):
            mid = 0.5 * (low + high)
            if a_star(mid) < cut:
                low = mid
            else:
                high = mid
        assert abs(a_star(low) - cut) < 1e-9
        # alpha far from this p-value: only the cut-point check fires.
        _agree(points, query_at(low), 0.999)
        assert svd_calls == [0.999]

    def test_all_coordinates_within_1e_8(self, svd_calls):
        rng = np.random.default_rng(3)
        cloud = 0.25 + rng.uniform(-4e-9, 4e-9, size=(10, 4))
        assert _agree(cloud[:-1], cloud[-1], 0.05) is True
        assert svd_calls == [0.05]

    @pytest.mark.parametrize("z", [2, 6])
    def test_coordinates_within_1e_8_on_the_diagonal(self, svd_calls, z):
        # Every coordinate within 1e-8 of the mean, but the projection
        # on the diagonal spreads sqrt(z) times wider: only the SVD
        # path's per-coordinate check calls this cloud constant.
        offsets = np.where(np.arange(10) % 2, 0.8e-8, -0.8e-8)
        cloud = np.full(z, 1.0 / z) + np.outer(offsets, np.ones(z))
        assert _agree(cloud[:-1], cloud[-1], 0.8) is True
        assert svd_calls == [0.8]

    def test_projected_spread_at_1e_8(self, svd_calls):
        cloud = np.full((10, 3), 0.3)
        cloud[:, 0] += np.where(np.arange(10) % 2, 1.0, -1.0) * 1e-8 * (
            1.0 + 1e-7
        )
        _agree(cloud[:-1], cloud[-1], 0.05)
        assert svd_calls == [0.05]

    @pytest.mark.parametrize("stretch", [0.0, 1e-9])
    def test_equal_top_eigenvalues(self, svd_calls, stretch):
        # A square: the top two eigenvalues are equal, or a hair apart.
        square = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
        cloud = np.zeros((12, 3))
        cloud[:, :2] = np.tile(square, (3, 1))
        cloud[:, 0] *= 1.0 + stretch
        _agree(cloud[:-1], cloud[-1], 0.05)
        assert svd_calls == [0.05]

    def test_extreme_tail(self, svd_calls):
        rng = np.random.default_rng(4)
        cloud = rng.normal(size=(60, 3)) * np.array([1.0, 0.3, 0.1])
        cloud[-1] = [400.0, 0.0, 0.0]
        _agree(cloud[:-1], cloud[-1], 0.05)
        assert svd_calls == [0.05]

    def test_ordinary_cloud_needs_no_fallback(self, svd_calls):
        points, query = self._cloud(seed=9)
        _agree(points, query, 0.05)
        _agree(points, query, 0.8)
        assert svd_calls == []
