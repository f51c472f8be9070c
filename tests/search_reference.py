"""The bb-tree searches and the preference matrix as first written:
the oracle for the table-driven kernels.

Kept as ``rr_reference.py`` keeps the RR-set machinery: the code is the
code the kernels replaced, with the metrics hooks taken out and every
divergence computed by :func:`reference_divergence_to_point` and
:func:`reference_divergence` below (the formulas ``BregmanDivergence``
had before the prepared-point kernels), so the oracle does not lean on what it
checks.

* :func:`inflex_search` and :func:`leaf_limited_search` walk
  ``BBTreeNode`` objects, score each leaf and each node's children with
  their own ``divergence_to_point`` call, and bound subtrees with
  :func:`can_prune` on raw points;
* :func:`exact_nearest_neighbors` is the best-first branch and bound
  with projection bounds (:func:`project_to_ball`), including its
  higher-id pick among equal divergences at the k-th place;
* :func:`similar_enough` projects on the SVD axis and runs
  ``anderson_darling_test``;
* :func:`pairwise_preference_matrix` adds each list's full
  ``weight * (rank < rank)`` product, and :func:`aggregate_seed_lists`
  re-lists the seed lists for it on every call, then runs
  :func:`copeland_order` (scores from their own ``P > P.T`` and
  ``P == P.T``) and :func:`kemenize` (a dict from nodes to columns and
  the full insertion pass).

The kernels the leaf-moment and subset-sum kernels replaced are kept
too, as their own oracles: :func:`eigh_similar_enough` (the pooled
points re-stacked and re-centered on every call, the axis from ``eigh``
of their scatter) and :func:`row_preference_matrix` (each row list
adding its weight to the rows of the nodes it ranks).
"""

from __future__ import annotations

import heapq
import itertools
import math
from itertools import chain

import numpy as np

from repro.bbtree.projection import ProjectionResult
from repro.bbtree.search import SearchResult, SearchStats
from repro.bbtree.tree import BBTree, BBTreeNode
from repro.im.seed_list import SeedList
from repro.ranking.borda import _prepare_lists, _prepare_weights, borda_aggregation
from repro.ranking.copeland import ranking_rows
from repro.ranking.mc4 import mc4_order
from repro.stats.anderson_darling import (
    anderson_darling_p_value,
    anderson_darling_test,
    corrected_statistic,
    project_to_principal_axis,
)


def reference_divergence(div, p, q) -> float:
    """``d_f(p, q)`` for two single points."""
    p_arr = div._prepare(np.asarray(p, dtype=np.float64))
    q_arr = div._prepare(np.asarray(q, dtype=np.float64))
    grad_q = div.gradient(q_arr[np.newaxis, :])[0]
    value = (
        div.generator(p_arr[np.newaxis, :])[0]
        - div.generator(q_arr[np.newaxis, :])[0]
        - float(np.dot(grad_q, p_arr - q_arr))
    )
    return max(float(value), 0.0)


def reference_divergence_to_point(div, points, q) -> np.ndarray:
    """``d_f(points[i], q)`` for every row."""
    pts = div._prepare(np.atleast_2d(np.asarray(points, dtype=np.float64)))
    q_arr = div._prepare(np.asarray(q, dtype=np.float64))
    grad_q = div.gradient(q_arr[np.newaxis, :])[0]
    point_generator = div.generator(pts)
    values = (
        point_generator
        - div.generator(q_arr[np.newaxis, :])[0]
        - (pts - q_arr[np.newaxis, :]) @ grad_q
    )
    return np.maximum(values, 0.0)


def project_to_ball(
    divergence: BregmanDivergence,
    center: np.ndarray,
    radius: float,
    query: np.ndarray,
    *,
    tol: float = 1e-6,
    max_iter: int = 64,
) -> ProjectionResult:
    """Minimum divergence ``min_{x in B(center, radius)} d_f(x, query)``.

    Runs the bisection to ``tol`` on the radius equation.  The returned
    value is evaluated at the final *inside* iterate, so it is a valid
    upper bound of the true minimum that converges to it.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if reference_divergence(divergence, query, center) <= radius:
        return ProjectionResult(0.0, 0, True)
    theta_query = divergence.gradient(
        divergence._prepare(np.asarray(query, dtype=np.float64))[np.newaxis, :]
    )[0]
    theta_center = divergence.gradient(
        divergence._prepare(np.asarray(center, dtype=np.float64))[np.newaxis, :]
    )[0]

    def point_at(lam: float) -> np.ndarray:
        theta = (1.0 - lam) * theta_query + lam * theta_center
        return divergence.gradient_inverse(theta[np.newaxis, :])[0]

    low, high = 0.0, 1.0  # x_low outside the ball, x_high inside
    iterations = 0
    best_inside_point = np.asarray(center, dtype=np.float64)
    for iterations in range(1, max_iter + 1):
        mid = 0.5 * (low + high)
        candidate = point_at(mid)
        to_center = reference_divergence(divergence, candidate, center)
        if to_center <= radius:
            high = mid
            best_inside_point = candidate
        else:
            low = mid
        if high - low < tol:
            break
    return ProjectionResult(
        min_divergence=float(
            reference_divergence(divergence, best_inside_point, query)
        ),
        iterations=iterations,
        inside=False,
    )


def can_prune(
    divergence: BregmanDivergence,
    center: np.ndarray,
    radius: float,
    query: np.ndarray,
    threshold: float,
    *,
    tol: float = 1e-4,
    max_iter: int = 32,
) -> bool:
    """Decide Eq. 5: is ``min_{x in B} d_f(x, q) >= threshold``?

    Early-exit variant of :func:`project_to_ball` for the search loop:

    * if any inside iterate is already closer than ``threshold`` the
      ball *might* contain an improving point — answer ``False``
      immediately (the upper bound dropped below the threshold);
    * if the bracket converges with the boundary divergence at or above
      ``threshold``, the subtree is safely prunable.
    """
    if threshold <= 0:
        return False
    if reference_divergence(divergence, query, center) <= radius:
        return False
    theta_query = divergence.gradient(
        divergence._prepare(np.asarray(query, dtype=np.float64))[np.newaxis, :]
    )[0]
    theta_center = divergence.gradient(
        divergence._prepare(np.asarray(center, dtype=np.float64))[np.newaxis, :]
    )[0]

    def point_at(lam: float) -> np.ndarray:
        theta = (1.0 - lam) * theta_query + lam * theta_center
        return divergence.gradient_inverse(theta[np.newaxis, :])[0]

    # The center itself is the innermost candidate: if even the center
    # is closer than the threshold, no pruning.
    if reference_divergence(divergence, center, query) < threshold:
        return False
    low, high = 0.0, 1.0
    for _ in range(max_iter):
        mid = 0.5 * (low + high)
        candidate = point_at(mid)
        if reference_divergence(divergence, candidate, center) <= radius:
            high = mid
            # Inside the ball: its divergence to q upper-bounds the min.
            if reference_divergence(divergence, candidate, query) < threshold:
                return False
        else:
            low = mid
        if high - low < tol:
            break
    boundary = point_at(high)
    return bool(reference_divergence(divergence, boundary, query) >= threshold)


def _sorted_result(
    ids: list[int],
    divs: list[float],
    stats: SearchStats,
) -> SearchResult:
    indices = np.asarray(ids, dtype=np.int64)
    divergences = np.asarray(divs, dtype=np.float64)
    order = np.lexsort((indices, divergences))
    return SearchResult(indices[order], divergences[order], stats)


def exact_nearest_neighbors(tree: BBTree, query, k: int) -> SearchResult:
    """True K nearest neighbors under ``d_f(point, query)``.

    Best-first branch and bound: nodes are expanded in order of the
    minimum divergence any of their ball's points could have to the
    query (computed by Bregman projection); a node is pruned when that
    bound cannot beat the current ``k``-th best.
    """
    if not 1 <= k <= tree.num_points:
        raise ValueError(f"k must be in [1, {tree.num_points}], got {k}")
    q = np.asarray(query, dtype=np.float64)
    divergence = tree.divergence
    counter = itertools.count()
    heap: list[tuple[float, int, BBTreeNode]] = [(0.0, next(counter), tree.root)]
    # Max-heap of the best k so far: (-divergence, point_id).
    best: list[tuple[float, int]] = []
    leaves = 0
    computations = 0
    pruned = 0
    while heap:
        bound, _, node = heapq.heappop(heap)
        if len(best) == k and bound >= -best[0][0]:
            pruned += 1
            continue
        if node.is_leaf:
            leaves += 1
            divs = reference_divergence_to_point(
                divergence, tree.points[node.point_ids], q
            )
            computations += int(divs.size)
            for point_id, value in zip(node.point_ids, divs):
                entry = (-float(value), int(point_id))
                if len(best) < k:
                    heapq.heappush(best, entry)
                elif entry > best[0]:
                    heapq.heapreplace(best, entry)
            continue
        threshold = -best[0][0] if len(best) == k else np.inf
        for child in node.children:
            if np.isfinite(threshold):
                projection = project_to_ball(
                    divergence, child.center, child.radius, q
                )
                # The bisection converges to the projection from above,
                # so shave a safety margin off before using it as a
                # branch-and-bound lower bound — otherwise a borderline
                # tie could prune a true neighbor.
                child_bound = max(
                    0.0,
                    projection.min_divergence
                    * (1.0 - 1e-6)
                    - 1e-12,
                )
                if child_bound >= threshold:
                    pruned += 1
                    continue
            else:
                child_bound = 0.0
            heapq.heappush(heap, (child_bound, next(counter), child))
    stats = SearchStats(
        leaves_visited=leaves,
        divergence_computations=computations,
        nodes_pruned=pruned,
        epsilon_match=False,
        stopped_early=False,
    )
    ranked = sorted(((-neg, pid) for neg, pid in best))
    return _sorted_result(
        [pid for _, pid in ranked], [d for d, _ in ranked], stats
    )


def _descend(
    tree: BBTree,
    node: BBTreeNode,
    q: np.ndarray,
    heap: list,
    counter,
) -> tuple[BBTreeNode, int]:
    """Walk from ``node`` to a leaf, following the child whose ball
    center is closest to the query and queueing the siblings.

    Returns the reached leaf and the number of divergence evaluations
    spent on center comparisons.
    """
    divergence = tree.divergence
    computations = 0
    while not node.is_leaf:
        centers = np.vstack([child.center for child in node.children])
        divs = reference_divergence_to_point(divergence, centers, q)
        computations += int(divs.size)
        closest = int(np.argmin(divs))
        for i, child in enumerate(node.children):
            if i != closest:
                heapq.heappush(heap, (float(divs[i]), next(counter), child))
        node = node.children[closest]
    return node, computations


def leaf_limited_search(
    tree: BBTree, query, k: int, *, max_leaves: int = 5
) -> SearchResult:
    """Approximate K-NN: guided traversal visiting at most ``max_leaves``.

    The ``approxKNN`` baseline of the paper: the K nearest among the
    points of the visited leaves are returned; they need not be the true
    nearest neighbors.
    """
    if not 1 <= k <= tree.num_points:
        raise ValueError(f"k must be in [1, {tree.num_points}], got {k}")
    if max_leaves < 1:
        raise ValueError(f"max_leaves must be >= 1, got {max_leaves}")
    q = np.asarray(query, dtype=np.float64)
    divergence = tree.divergence
    counter = itertools.count()
    heap: list = [(0.0, next(counter), tree.root)]
    ids: list[int] = []
    divs: list[float] = []
    leaves = 0
    computations = 0
    while heap and leaves < max_leaves:
        _, _, node = heapq.heappop(heap)
        leaf, spent = _descend(tree, node, q, heap, counter)
        computations += spent
        leaves += 1
        leaf_divs = reference_divergence_to_point(
            divergence, tree.points[leaf.point_ids], q
        )
        computations += int(leaf_divs.size)
        ids.extend(int(v) for v in leaf.point_ids)
        divs.extend(float(v) for v in leaf_divs)
    stats = SearchStats(
        leaves_visited=leaves,
        divergence_computations=computations,
        nodes_pruned=0,
        epsilon_match=False,
        stopped_early=False,
    )
    return _sorted_result(ids, divs, stats).top(k)


def similar_enough(points, query, *, alpha: float = 0.05) -> bool:
    """The paper's leaf-acceptance test.

    The query is pooled with the leaf population, the pooled points are
    projected onto one dimension (their first principal axis), and an
    Anderson--Darling normality test with unknown mean/variance is run.
    Accepting normality means the leaf population plausibly surrounds
    the query as one homogeneous cloud — good enough neighbors, stop
    searching.  Samples too small or too degenerate to test are treated
    as *not* similar enough (the search continues to the next leaf).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    pooled = np.vstack([pts, np.asarray(query, dtype=np.float64)])
    if pooled.shape[0] < 8:
        return False
    projected = project_to_principal_axis(pooled)
    if abs(projected.std()) <= 1e-8:
        # A degenerate (constant) projection means all points coincide
        # with the query direction-wise — trivially similar.
        return True
    try:
        result = anderson_darling_test(projected, alpha=alpha)
    except ValueError:
        return False
    return result.is_normal


def inflex_search(
    tree: BBTree,
    query,
    *,
    epsilon: float = 1e-9,
    ad_alpha: float = 0.8,
    max_leaves: int = 5,
    use_ad_test: bool = True,
    use_pruning: bool = True,
) -> SearchResult:
    """Algorithm 1: the INFLEX approximate nearest-neighbor search.

    Traverses the bb-tree depth-first toward the child ball whose
    center is closest to the query, queueing siblings by center
    divergence.  At each leaf:

    1. a point within ``epsilon`` of the query ends the search
       immediately and alone (the epsilon-exact match);
    2. otherwise the leaf population joins the solution set, and the
       Anderson--Darling ``similar_enough`` test decides whether to
       stop;
    3. otherwise the next-best queued subtree is visited, unless the
       Eq. 5 projection bound proves it cannot contain a point closer
       than the current worst retrieved divergence.

    ``max_leaves`` bounds the traversal (the paper fixes it to 5).
    Setting ``use_ad_test=False`` recovers the pure leaf-budget
    behavior; ``use_pruning=False`` disables the projection bound.
    """
    if max_leaves < 1:
        raise ValueError(f"max_leaves must be >= 1, got {max_leaves}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    q = np.asarray(query, dtype=np.float64)
    divergence = tree.divergence
    counter = itertools.count()
    heap: list = [(0.0, next(counter), tree.root)]
    ids: list[int] = []
    divs: list[float] = []
    leaves = 0
    computations = 0
    pruned = 0
    epsilon_match = False
    stopped_early = False
    while heap and leaves < max_leaves:
        priority, _, node = heapq.heappop(heap)
        if use_pruning and divs:
            delta = max(divs)
            if priority > 0 and can_prune(
                divergence, node.center, node.radius, q, delta
            ):
                pruned += 1
                continue
        leaf, spent = _descend(tree, node, q, heap, counter)
        computations += spent
        leaves += 1
        leaf_divs = reference_divergence_to_point(
            divergence, tree.points[leaf.point_ids], q
        )
        computations += int(leaf_divs.size)
        nearest_in_leaf = int(np.argmin(leaf_divs))
        if leaf_divs[nearest_in_leaf] <= epsilon:
            match_id = int(leaf.point_ids[nearest_in_leaf])
            stats = SearchStats(
                leaves_visited=leaves,
                divergence_computations=computations,
                nodes_pruned=pruned,
                epsilon_match=True,
                stopped_early=True,
            )
            return SearchResult(
                np.asarray([match_id], dtype=np.int64),
                np.asarray(
                    [float(leaf_divs[nearest_in_leaf])], dtype=np.float64
                ),
                stats,
            )
        ids.extend(int(v) for v in leaf.point_ids)
        divs.extend(float(v) for v in leaf_divs)
        if use_ad_test and similar_enough(
            tree.points[leaf.point_ids], q, alpha=ad_alpha
        ):
            stopped_early = True
            break
    stats = SearchStats(
        leaves_visited=leaves,
        divergence_computations=computations,
        nodes_pruned=pruned,
        epsilon_match=epsilon_match,
        stopped_early=stopped_early,
    )
    return _sorted_result(ids, divs, stats)
def pairwise_preference_matrix(
    rankings, *, weights=None, extra_nodes=()
) -> tuple[np.ndarray, list[int]]:
    """Weighted pairwise-preference matrix over the union of the lists.

    Returns ``(P, universe)`` where ``universe`` is the sorted union and
    ``P[a, b]`` is the total weight of lists preferring
    ``universe[a]`` over ``universe[b]``.  ``extra_nodes`` joins the
    universe as nodes no list ranks (every list abstains between two of
    them and prefers any node it ranks over them).
    """
    lists = _prepare_lists(rankings)
    w = _prepare_weights(weights, len(lists))
    lengths = [len(ranking) for ranking in lists]
    flat = np.fromiter(
        chain.from_iterable(lists), dtype=np.int64, count=sum(lengths)
    )
    universe = np.unique(
        np.concatenate([flat, np.asarray(extra_nodes, dtype=np.int64)])
    )
    # One (lists x union) rank array.  Absent nodes sit at a sentinel
    # behind every position, so "rank(v) < rank(v')" is exactly the
    # present-beats-absent rule and absent-vs-absent pairs tie.
    ranks = np.full((len(lists), universe.size), max(lengths))
    starts = np.cumsum(lengths) - lengths
    ranks[
        np.repeat(np.arange(len(lists)), lengths),
        np.searchsorted(universe, flat),
    ] = np.arange(flat.size) - np.repeat(starts, lengths)
    matrix = np.zeros((universe.size, universe.size))
    # Accumulate list by list, in input order: Copeland's exact
    # P == P.T tie test depends on the summation order.
    for weight, rank in zip(w, ranks):
        matrix += weight * (rank[:, np.newaxis] < rank[np.newaxis, :])
    return matrix, universe.tolist()


def _copeland_score_array(matrix: np.ndarray) -> np.ndarray:
    wins = (matrix > matrix.T).sum(axis=1).astype(np.float64)
    ties = ((matrix == matrix.T).sum(axis=1) - 1).astype(np.float64)
    return wins + 0.5 * ties


def copeland_order(matrix: np.ndarray, universe: list[int]) -> list[int]:
    """Descending Copeland score, ties toward the lower node id."""
    order = np.argsort(-_copeland_score_array(matrix), kind="stable")
    return [universe[i] for i in order.tolist()]


def kemenize(ordering, matrix: np.ndarray, universe: list[int]) -> list[int]:
    """Local Kemenization: the full bubble-up pass over ``ordering``."""
    position = {node: i for i, node in enumerate(universe)}
    order = [position[node] for node in ordering]
    beats = matrix > matrix.T
    for start in range(1, len(order)):
        i = start
        while i > 0:
            above = order[i - 1]
            below = order[i]
            if beats[below, above]:
                order[i - 1], order[i] = below, above
                i -= 1
            else:
                break
    return [universe[i] for i in order]


def row_preference_matrix(
    rankings, *, weights=None, extra_nodes=()
) -> tuple[np.ndarray, list[int]]:
    """The preference matrix over a :func:`ranking_rows` array: each
    list adds its weight to the rows of the nodes it ranks, in input
    order."""
    rows = (
        rankings
        if isinstance(rankings, np.ndarray)
        else ranking_rows(rankings)
    )
    w = _prepare_weights(weights, rows.shape[0])
    present = rows >= 0
    universe = np.unique(
        np.concatenate(
            [rows[present], np.asarray(extra_nodes, dtype=np.int64)]
        )
    )
    columns = np.searchsorted(universe, rows)
    ranks = np.full((rows.shape[0], universe.size), rows.shape[1])
    list_of, position = np.nonzero(present)
    ranks[list_of, columns[list_of, position]] = position
    matrix = np.zeros((universe.size, universe.size))
    behind = np.arange(rows.shape[1])[:, np.newaxis]
    for weight, rank, row_columns, length in zip(
        w.tolist(), ranks, columns, present.sum(axis=1).tolist()
    ):
        matrix[row_columns[:length]] += weight * (rank > behind[:length])
    return matrix, universe.tolist()


#: The eigh path's near-threshold band, eigengap and tail floor.
_NEAR = 1e-6
_MIN_GAP = 1e-4
_MIN_TAIL = 1e-7
_P_VALUE_CUTS = (0.2, 0.34, 0.6)


def eigh_similar_enough(points, query, *, alpha: float = 0.05) -> bool:
    """The stopping test on the re-stacked pooled points: the axis from
    ``eigh`` of their scatter, the statistic in plain floats, and the
    SVD test near any threshold."""
    pooled = np.vstack(
        [
            np.atleast_2d(np.asarray(points, dtype=np.float64)),
            np.asarray(query, dtype=np.float64),
        ]
    )
    n = pooled.shape[0]
    if n < 8:
        return False
    centered = pooled - pooled.mean(axis=0)
    if not (0.0 < alpha < 1.0 and np.abs(centered).max() > 1e-8):
        return _svd_similar(pooled, alpha)
    values, vectors = np.linalg.eigh(centered.T @ centered)
    if values.size > 1 and values[-1] - values[-2] <= _MIN_GAP * values[-1]:
        return _svd_similar(pooled, alpha)
    projected = sorted((centered @ vectors[:, -1]).tolist())
    mean = sum(projected) / n
    deviations = [value - mean for value in projected]
    squares = sum(d * d for d in deviations)
    if squares <= n * (1e-8 * (1.0 + _NEAR)) ** 2:
        return _svd_similar(pooled, alpha)
    scale = math.sqrt(0.5 * (n - 1) / squares)
    cdf = [0.5 * math.erfc(-d * scale) for d in deviations]
    if cdf[0] < _MIN_TAIL or 1.0 - cdf[-1] < _MIN_TAIL:
        return _svd_similar(pooled, alpha)
    total = sum(
        (2 * i + 1) * (math.log(cdf[i]) + math.log(1.0 - cdf[n - 1 - i]))
        for i in range(n)
    )
    corrected = corrected_statistic(-n - total / n, n)
    p_value = anderson_darling_p_value(corrected)
    if abs(p_value - alpha) <= _NEAR * alpha or any(
        abs(corrected - cut) <= _NEAR * cut for cut in _P_VALUE_CUTS
    ):
        return _svd_similar(pooled, alpha)
    return p_value >= alpha


def _svd_similar(pooled: np.ndarray, alpha: float) -> bool:
    points = pooled[:-1]
    return similar_enough(points, pooled[-1], alpha=alpha)


_MATRIX_AGGREGATORS = {"copeland": copeland_order, "mc4": mc4_order}
_AGGREGATORS = ("borda", *_MATRIX_AGGREGATORS)


def aggregate_seed_lists(
    seed_lists,
    k: int,
    *,
    aggregator: str = "copeland",
    weights=None,
    apply_local_kemenization: bool = True,
) -> SeedList:
    """Combine precomputed seed lists into one ranked answer list.

    Parameters
    ----------
    seed_lists:
        The retrieved neighbors' :class:`~repro.im.seed_list.SeedList`
        objects (or plain sequences of node ids).
    k:
        Requested answer length; the returned list is the top ``k`` of
        the aggregation (shorter if the union has fewer than ``k``
        nodes — by retrieving more index points a caller can always
        satisfy larger ``k``, as the paper notes in Section 2).
    aggregator:
        ``"copeland"`` (paper's best), ``"borda"`` or ``"mc4"``.
    weights:
        Importance weight per input list; ``None`` for the unweighted
        variants.
    apply_local_kemenization:
        Run the Local Kemenization refinement pass over the aggregated
        order before cutting to ``k`` (weights, when given, carry into
        the majority votes, per Section 4.2).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lists = [list(entry) for entry in seed_lists]
    if not lists:
        raise ValueError("no seed lists to aggregate")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    if aggregator not in _AGGREGATORS:
        raise ValueError(
            f"unknown aggregator {aggregator!r}; "
            f"expected one of {sorted(_AGGREGATORS)}"
        )
    if len(lists) == 1:
        ranked = list(lists[0])
    else:
        if aggregator != "borda" or apply_local_kemenization:
            matrix, universe = pairwise_preference_matrix(
                lists, weights=weights
            )
        if aggregator == "borda":
            ranked = borda_aggregation(lists, None, weights=weights)
        else:
            ranked = _MATRIX_AGGREGATORS[aggregator](matrix, universe)
        if apply_local_kemenization:
            ranked = kemenize(ranked, matrix, universe)
    return SeedList(
        tuple(ranked[:k]), (), algorithm=f"aggregation:{aggregator}"
    )


def select_neighbors(weights, *, threshold: float) -> int:
    """The gap rule of automatic neighbor selection, over numpy
    scalars: keep lists until ``1/t`` minus the ``t``-th normalized
    weight reaches ``threshold``."""
    w = np.asarray(weights, dtype=np.float64)
    running_sum = 0.0
    for t in range(1, w.size + 1):
        running_sum += w[t - 1]
        if t <= 1 or running_sum <= 0:
            continue
        normalized_t = w[t - 1] / running_sum
        if (1.0 / t) - normalized_t >= threshold:
            return t - 1
    return int(w.size)
