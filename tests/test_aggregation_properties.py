"""Differential properties of the matrix-based rank aggregation.

``aggregate_seed_lists`` builds one weighted pairwise-preference matrix
and runs Copeland and Local Kemenization on it.  These tests check it
against a reference written straight from the definitions: a per-pair
scan of every input list (the preference weight of ``a`` over ``b``),
Copeland scores as a dict, and the Dwork et al. bubble-up pass on top.
Inputs cover overlapping lists over a small node range, disjoint lists,
single lists, and weights that are absent, equal, small integers (which
force exact Copeland ties), tenths (whose sums tie or not depending on
the order they are added in) or random floats.

``TestQueryMatchesReferenceKernels`` checks the whole served path:
:meth:`InflexIndex.query` for ``inflex``, ``exact-knn`` and
``approx-knn-sel`` against an answer assembled from the kernels the
index used to run (``tests/search_reference.py``): node-walking
searches with the SVD stopping test, a leaf-by-leaf exact scan, the gap
rule over numpy scalars, and the list-based preference matrix with
Copeland and the full Local Kemenization pass.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tests.search_reference as ref
from repro.bbtree import SearchResult, SearchStats
from repro.core import InflexConfig, InflexIndex
from repro.core.aggregation import aggregate_seed_lists
from repro.graph import interest_topic_graph
from repro.im import SeedList
from repro.ranking import (
    borda_scores,
    brute_force_kemeny,
    copeland_scores,
    importance_weights,
)
from repro.ranking.kemeny import TIE_TOLERANCE
from repro.simplex.kl import kl_max_bound
from repro.simplex.vectors import smooth


def _prefers(first, second, lists, weights):
    """Total weight of the lists ranking ``first`` ahead of ``second``.

    A node a list ranks beats every node it omits; lists ranking
    neither node abstain.
    """
    total = 0.0
    for weight, ranking in zip(weights, lists):
        position = {node: i for i, node in enumerate(ranking)}
        rank_first = position.get(first)
        rank_second = position.get(second)
        if rank_first is None and rank_second is None:
            continue
        if rank_second is None or (
            rank_first is not None and rank_first < rank_second
        ):
            total += weight
    return total


def _reference_preferences(lists, weights):
    unit = [1.0] * len(lists) if weights is None else list(weights)
    union = sorted({node for ranking in lists for node in ranking})
    return union, {
        (a, b): _prefers(a, b, lists, unit)
        for a in union
        for b in union
        if a != b
    }


def _reference_copeland_scores(union, prefer):
    scores = {}
    for a in union:
        score = 0.0
        for b in union:
            if b == a:
                continue
            if prefer[a, b] > prefer[b, a]:
                score += 1.0
            elif prefer[a, b] == prefer[b, a]:
                score += 0.5
        scores[a] = score
    return scores


def _reference_kemenize(order, prefer):
    order = list(order)
    for start in range(1, len(order)):
        i = start
        while i > 0 and prefer[order[i], order[i - 1]] > prefer[
            order[i - 1], order[i]
        ]:
            order[i - 1], order[i] = order[i], order[i - 1]
            i -= 1
    return order


def _by_score(scores):
    return sorted(scores, key=lambda node: (-scores[node], node))


def _aggregate(lists, weights, aggregator):
    return list(
        aggregate_seed_lists(
            [SeedList(tuple(ranking)) for ranking in lists],
            max(len(ranking) for ranking in lists) * len(lists),
            aggregator=aggregator,
            weights=weights,
        ).nodes
    )


# ----------------------------------------------------------------------
# Input strategies
# ----------------------------------------------------------------------
def _ranking(nodes, max_size):
    return st.lists(
        st.integers(0, nodes - 1), min_size=1, max_size=max_size, unique=True
    )


overlapping_lists = st.lists(_ranking(8, 6), min_size=1, max_size=6)


@st.composite
def disjoint_lists(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    lists, start = [], 0
    for size in sizes:
        lists.append(list(range(start, start + size))[::-1])
        start += size
    return lists


single_lists = _ranking(10, 8).map(lambda ranking: [ranking])

any_lists = st.one_of(overlapping_lists, disjoint_lists(), single_lists)


@st.composite
def lists_and_weights(draw, lists_strategy=any_lists):
    lists = draw(lists_strategy)
    count = len(lists)
    weights = draw(
        st.one_of(
            st.none(),
            st.floats(0.1, 5.0).map(lambda w: [w] * count),
            st.lists(
                st.integers(0, 3), min_size=count, max_size=count
            ).filter(lambda ws: sum(ws) > 0).map(
                lambda ws: [float(w) for w in ws]
            ),
            st.lists(
                st.integers(1, 9).map(lambda i: i / 10),
                min_size=count,
                max_size=count,
            ),
            st.lists(
                st.floats(0.0, 1.0), min_size=count, max_size=count
            ).filter(lambda ws: sum(ws) > 0),
        )
    )
    return lists, weights


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
class TestAggregationMatchesDefinitions:
    @given(lists_and_weights())
    @settings(max_examples=300, deadline=None)
    def test_copeland_scores_match_reference(self, case):
        lists, weights = case
        union, prefer = _reference_preferences(lists, weights)
        assert copeland_scores(lists, weights=weights) == (
            _reference_copeland_scores(union, prefer)
        )

    @given(lists_and_weights())
    @example(([[1, 0], [1, 0], [1, 0], [0, 1]], [0.1, 0.2, 0.3, 0.6]))
    @settings(max_examples=300, deadline=None)
    def test_copeland_then_kemenization_matches_reference(self, case):
        # The example: 0.1 + 0.2 + 0.3 exceeds 0.6 when summed in list
        # order but equals it when summed in reverse, so node 1 beats
        # node 0 only under the list-order accumulation.
        lists, weights = case
        union, prefer = _reference_preferences(lists, weights)
        expected = _reference_kemenize(
            _by_score(_reference_copeland_scores(union, prefer)), prefer
        )
        assert _aggregate(lists, weights, "copeland") == expected

    @given(lists_and_weights())
    @settings(max_examples=150, deadline=None)
    def test_borda_then_kemenization_matches_reference(self, case):
        lists, weights = case
        _, prefer = _reference_preferences(lists, weights)
        expected = _reference_kemenize(
            _by_score(borda_scores(lists, weights=weights)), prefer
        )
        assert _aggregate(lists, weights, "borda") == expected

    @pytest.mark.parametrize("aggregator", ["copeland", "borda", "mc4"])
    @given(case=lists_and_weights())
    @settings(max_examples=100, deadline=None)
    def test_no_adjacent_swap_lowers_disagreement(self, aggregator, case):
        lists, weights = case
        _, prefer = _reference_preferences(lists, weights)
        result = _aggregate(lists, weights, aggregator)
        for above, below in zip(result, result[1:]):
            # Swapping the pair changes the weighted pairwise
            # disagreement by prefer[above, below] - prefer[below, above].
            assert prefer[below, above] <= prefer[above, below]


def _strict_majority(lists, weights):
    """Whether the weighted majority over full rankings is a strict
    total order, a pair counting as tied when flipping it moves the
    oracle's objective by at most ``TIE_TOLERANCE``."""
    union, prefer = _reference_preferences(lists, weights)
    size = len(union)
    total = len(lists) if weights is None else sum(weights)
    # Flipping one pair moves each full ranking's normalized K^(p)
    # distance (p = 1/2) by one over its maximum, size^2 + p*size*(size-1).
    scale = total * (size * size + 0.5 * size * (size - 1))
    wins = [
        sum(
            (prefer[a, b] - prefer[b, a]) / scale > TIE_TOLERANCE
            for b in union
            if b != a
        )
        for a in union
    ]
    return sorted(wins) == list(range(size))


@st.composite
def condorcet_permutations(draw):
    """Full rankings of one union of at most six nodes, weighted so the
    weighted majority relation is a strict total order."""
    size = draw(st.integers(2, 6))
    lists = draw(
        st.lists(st.permutations(range(size)), min_size=2, max_size=5)
    )
    lists, weights = draw(lists_and_weights(st.just(lists)))
    assume(_strict_majority(lists, weights))
    return lists, weights


class TestKemenyOracle:
    @given(condorcet_permutations())
    @example(([[0, 1, 3, 2], [0, 1, 2, 3]], [5e-324, 0.0]))
    # 0.1 + 0.7 is one ulp below 0.8: a tie, not a majority for 5 over 4.
    @example(
        ([[0, 1, 2, 3, 5, 4], [0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]],
         [0.8, 0.1, 0.7])
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_on_condorcet_inputs(self, case):
        # With a strict, transitive weighted majority over full rankings
        # the Kemeny optimum is unique: the majority order itself.
        lists, weights = case
        # Explicit examples bypass the strategy's own check.
        assume(_strict_majority(lists, weights))
        assert _aggregate(lists, weights, "copeland") == brute_force_kemeny(
            lists, weights=weights
        )


# ----------------------------------------------------------------------
# The served query path against the replaced kernels
# ----------------------------------------------------------------------
def _exact_scan(tree, query, k) -> SearchResult:
    """The K nearest by a leaf-by-leaf scan, ties toward the lower id."""
    divs = np.empty(tree.num_points)
    for leaf in tree.leaves():
        divs[leaf.point_ids] = ref.reference_divergence_to_point(
            tree.divergence, tree.points[leaf.point_ids], query
        )
    order = np.lexsort((np.arange(tree.num_points), divs))[:k]
    stats = SearchStats(
        leaves_visited=tree.num_leaves(),
        divergence_computations=tree.num_points,
        nodes_pruned=0,
        epsilon_match=False,
        stopped_early=False,
    )
    return SearchResult(order, divs[order], stats)


def _reference_answer(index, gamma, k, strategy) -> tuple:
    config = index.config
    tree = index.tree
    query = smooth(np.asarray(gamma, dtype=np.float64))
    knn = min(config.knn, index.num_index_points)
    if strategy == "inflex":
        result = ref.inflex_search(
            tree,
            query,
            epsilon=config.epsilon,
            ad_alpha=config.ad_alpha,
            max_leaves=config.max_leaves,
        )
    elif strategy == "exact-knn":
        result = _exact_scan(tree, query, knn)
    else:
        result = ref.leaf_limited_search(
            tree, query, knn, max_leaves=config.max_leaves
        )
    lists = index.seed_lists
    if result.stats.epsilon_match:
        match = int(result.indices[0])
        return (
            lists[match].nodes[:k],
            (match,),
            result.divergences[:1].tobytes(),
            np.ones(1).tobytes(),
            result.stats,
        )
    if strategy == "inflex":
        result = result.top(min(config.knn, len(result)))
    weights = importance_weights(
        result.divergences,
        index.graph.num_topics,
        kl_max=kl_max_bound.__wrapped__(
            index.graph.num_topics, eps=config.weight_bound_eps
        ),
    )
    keep = (
        ref.select_neighbors(weights, threshold=config.selection_threshold)
        if strategy != "exact-knn"
        else len(result)
    )
    kept = weights[:keep] if config.weighted else None
    if kept is not None and kept.sum() <= 0:
        kept = None
    seeds = ref.aggregate_seed_lists(
        [lists[i].nodes for i in result.indices[:keep].tolist()],
        k,
        aggregator=config.aggregator,
        weights=kept,
        apply_local_kemenization=config.local_kemenization,
    )
    return (
        seeds.nodes,
        tuple(result.indices[:keep].tolist()),
        result.divergences[:keep].tobytes(),
        weights[:keep].tobytes(),
        result.stats,
    )


def _served_answer(answer) -> tuple:
    return (
        answer.seeds.nodes,
        answer.neighbor_ids,
        np.asarray(answer.neighbor_divergences, dtype=np.float64).tobytes(),
        np.asarray(answer.neighbor_weights, dtype=np.float64).tobytes(),
        answer.search_stats,
    )


class TestQueryMatchesReferenceKernels:
    @settings(
        max_examples=max(5, settings.default.max_examples // 4),
        deadline=None,
    )
    @given(
        st.integers(0, 2**16),
        st.integers(8, 120),
        st.integers(2, 6),
        st.integers(1, 16),
        st.sampled_from(["copeland", "borda", "mc4"]),
        st.booleans(),
        st.booleans(),
        st.integers(1, 12),
    )
    def test_answers_match(
        self, seed, h, z, knn, aggregator, weighted, kemenization, k
    ):
        rng = np.random.default_rng(seed)
        graph = interest_topic_graph(60, z, topics_per_node=1, seed=seed)
        lists = [
            SeedList(tuple(rng.permutation(60)[: rng.integers(1, 13)]))
            for _ in range(h)
        ]
        config = InflexConfig(
            num_index_points=2,
            num_dirichlet_samples=10,
            seed_list_length=12,
            knn=knn,
            leaf_size=8,
            aggregator=aggregator,
            weighted=weighted,
            local_kemenization=kemenization,
            seed=seed,
        )
        index = InflexIndex(
            graph, rng.dirichlet(np.full(z, 0.5), h), lists, config
        )
        stored = index.index_points[rng.integers(h)]
        gammas = [
            *rng.dirichlet(np.full(z, 0.5), 4),
            stored,
            np.eye(z)[rng.integers(z)],
        ]
        for strategy in ("inflex", "exact-knn", "approx-knn-sel"):
            for gamma in gammas:
                served = index.query(gamma, k, strategy=strategy)
                assert _served_answer(served) == _reference_answer(
                    index, gamma, k, strategy
                )
