"""Nearest-neighbor search procedures on the Bregman ball tree.

Three searches back the paper's query strategies:

* :func:`exact_nearest_neighbors` — one scan of every point, the true K
  nearest neighbors (the ``exactKNN`` baseline);
* :func:`leaf_limited_search` — Algorithm-1-style guided depth-first
  traversal that stops after a fixed number of leaves (``approxKNN``).
* :func:`inflex_search` — the paper's Algorithm 1: guided DFS with a
  priority queue, an epsilon-exact shortcut, Anderson--Darling
  early stopping, and Eq. 5 pruning via the Bregman projection
  (the search behind INFLEX and ``approxAD``).

Every search returns a :class:`SearchResult` carrying instrumentation
(leaves visited, divergence computations) used by the Figure 5
experiment and the paper's early-stopping statistics.

The searches read the tree's :class:`~repro.bbtree.tree.SearchTables`
and prepare the query once, so a visited node or leaf costs one small
block product; every divergence, decision and count is the one the
node-walking search computes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.bbtree.projection import can_prune, project_to_ball
from repro.bbtree.tree import BBTree, LeafMoments, SearchTables
from repro.divergence.base import BregmanDivergence, PreparedPoint
from repro.obs import instruments as _obs
from repro.stats.anderson_darling import (
    anderson_darling_p_value,
    anderson_darling_test,
    corrected_statistic,
    project_to_principal_axis,
)


@dataclass(frozen=True)
class SearchStats:
    """Instrumentation of one tree search.

    Attributes
    ----------
    leaves_visited:
        Number of leaf nodes whose populations were scanned.
    divergence_computations:
        Point-to-query divergence evaluations (leaf scans plus child
        center comparisons during descent).
    nodes_pruned:
        Subtrees skipped by the Eq. 5 projection bound.
    epsilon_match:
        Whether the search ended on an epsilon-exact match.
    stopped_early:
        Whether the Anderson--Darling criterion ended the search before
        the leaf budget was exhausted.
    """

    leaves_visited: int
    divergence_computations: int
    nodes_pruned: int
    epsilon_match: bool
    stopped_early: bool


@dataclass(frozen=True)
class SearchResult:
    """Neighbors found by a tree search, nearest first.

    ``indices`` address rows of the tree's point matrix; ``divergences``
    are the corresponding ``d_f(point, query)`` values.
    """

    indices: np.ndarray
    divergences: np.ndarray
    stats: SearchStats

    def __len__(self) -> int:
        return int(self.indices.size)

    def top(self, k: int) -> "SearchResult":
        """Restrict to the ``k`` nearest of the retrieved neighbors."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return SearchResult(
            self.indices[:k], self.divergences[:k], self.stats
        )


def _sorted_result(
    indices: np.ndarray,
    divergences: np.ndarray,
    stats: SearchStats,
) -> SearchResult:
    """The neighbors ordered by ``(divergence, id)``."""
    order = np.lexsort((indices, divergences))
    return SearchResult(indices[order], divergences[order], stats)


def _leaf_divergences(
    tables: SearchTables,
    divergence: BregmanDivergence,
    leaf: int,
    target: PreparedPoint,
) -> np.ndarray:
    start, stop = tables.point_start[leaf], tables.point_stop[leaf]
    return divergence.prepared_divergences(
        tables.points[start:stop], tables.point_generator[start:stop], target
    )


def _leaf_ids(tables: SearchTables, leaf: int) -> np.ndarray:
    return tables.point_ids[tables.point_start[leaf]:tables.point_stop[leaf]]


# ----------------------------------------------------------------------
# Exact search
# ----------------------------------------------------------------------
def exact_nearest_neighbors(tree: BBTree, query, k: int) -> SearchResult:
    """True K nearest neighbors under ``d_f(point, query)``.

    One scan: every leaf block is scored and the ``k`` smallest
    divergences are kept, ties broken toward the lower point id (as in
    every other search).  At index sizes INFLEX serves, a
    branch-and-bound descent with projection bounds visits every leaf
    anyway and pays for the bounds on top.
    """
    if not 1 <= k <= tree.num_points:
        raise ValueError(f"k must be in [1, {tree.num_points}], got {k}")
    tables = tree.tables
    divergence = tree.divergence
    target = divergence.prepare_point(query)
    divs = np.concatenate(
        [
            _leaf_divergences(tables, divergence, leaf, target)
            for leaf in tables.leaves
        ]
    )
    stats = SearchStats(
        leaves_visited=len(tables.leaves),
        divergence_computations=int(divs.size),
        nodes_pruned=0,
        epsilon_match=False,
        stopped_early=False,
    )
    _obs.record_search("exact", stats)
    order = np.lexsort((tables.point_ids, divs))[:k]
    return SearchResult(tables.point_ids[order], divs[order], stats)


# ----------------------------------------------------------------------
# Range search
# ----------------------------------------------------------------------
def range_search(tree: BBTree, query, radius: float) -> SearchResult:
    """All points with ``d_f(point, query) <= radius`` (exact).

    The paper notes plain range search is the wrong primitive for
    INFLEX (the right number of neighbors depends on what is found),
    but it is the natural tree query for other similarity workloads, so
    the bb-tree supports it: subtrees are pruned whenever the Bregman
    projection of the query onto their ball exceeds the radius.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    q = np.asarray(query, dtype=np.float64)
    divergence = tree.divergence
    ids: list[int] = []
    divs: list[float] = []
    leaves = 0
    computations = 0
    pruned = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        projection = project_to_ball(
            divergence, node.center, node.radius, q
        )
        # Small slack: the bisection returns a tight upper bound of the
        # true minimum, so pruning needs a safety margin to stay exact.
        if projection.min_divergence > radius + 1e-6 * (1.0 + radius):
            pruned += 1
            continue
        if node.is_leaf:
            leaves += 1
            leaf_divs = divergence.divergence_to_point(
                tree.points[node.point_ids], q
            )
            computations += int(leaf_divs.size)
            inside = leaf_divs <= radius
            ids.extend(int(v) for v in node.point_ids[inside])
            divs.extend(float(v) for v in leaf_divs[inside])
        else:
            stack.extend(node.children)
    stats = SearchStats(
        leaves_visited=leaves,
        divergence_computations=computations,
        nodes_pruned=pruned,
        epsilon_match=False,
        stopped_early=False,
    )
    _obs.record_search("range", stats)
    return _sorted_result(
        np.asarray(ids, dtype=np.int64),
        np.asarray(divs, dtype=np.float64),
        stats,
    )


# ----------------------------------------------------------------------
# Shared guided traversal used by the approximate searches
# ----------------------------------------------------------------------
def _descend(
    tables: SearchTables,
    divergence: BregmanDivergence,
    node: int,
    target: PreparedPoint,
    heap: list,
    counter,
) -> tuple[int, int]:
    """Walk from ``node`` to a leaf, following the child whose ball
    center is closest to the query and queueing the siblings.

    Returns the reached leaf and the number of divergence evaluations
    spent on center comparisons.
    """
    computations = 0
    start, stop = tables.child_start[node], tables.child_stop[node]
    while start < stop:
        divs = divergence.prepared_divergences(
            tables.centers[start:stop],
            tables.center_generator[start:stop],
            target,
        )
        computations += stop - start
        closest = int(np.argmin(divs))
        for child, value in enumerate(divs.tolist(), start):
            if child != start + closest:
                heapq.heappush(heap, (value, next(counter), child))
        node = start + closest
        start, stop = tables.child_start[node], tables.child_stop[node]
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
    tables = tree.tables
    divergence = tree.divergence
    target = divergence.prepare_point(query)
    counter = itertools.count()
    heap: list = [(0.0, next(counter), 0)]
    ids: list[np.ndarray] = []
    divs: list[np.ndarray] = []
    leaves = 0
    computations = 0
    while heap and leaves < max_leaves:
        _, _, node = heapq.heappop(heap)
        leaf, spent = _descend(tables, divergence, node, target, heap, counter)
        computations += spent
        leaves += 1
        leaf_divs = _leaf_divergences(tables, divergence, leaf, target)
        computations += int(leaf_divs.size)
        ids.append(_leaf_ids(tables, leaf))
        divs.append(leaf_divs)
    stats = SearchStats(
        leaves_visited=leaves,
        divergence_computations=computations,
        nodes_pruned=0,
        epsilon_match=False,
        stopped_early=False,
    )
    _obs.record_search("leaf-limited", stats)
    result = _sorted_result(np.concatenate(ids), np.concatenate(divs), stats)
    return result.top(k)


# ----------------------------------------------------------------------
# Algorithm 1: the INFLEX similarity search
# ----------------------------------------------------------------------
#: Relative half-width of the band around each float threshold of the
#: SVD test (alpha, the p-value cut-points, the two 1e-8 degeneracy
#: checks) inside which :func:`similar_enough` re-runs the SVD path.
#: The eigh-based statistic agrees with it to about 1e-10 relative.
_NEAR = 1e-6
#: Top eigengap, relative to the top eigenvalue, below which the
#: principal axis is ill-defined and the SVD path decides.
_MIN_GAP = 1e-4
#: Smallest normal tail probability the lean statistic trusts: below
#: it ``1 - F`` loses digits to cancellation (and the SVD path clips).
_MIN_TAIL = 1e-7
#: The cut-points of the piecewise p-value approximation.
_P_VALUE_CUTS = (0.2, 0.34, 0.6)


def similar_enough(points, query, *, alpha: float = 0.05) -> bool:
    """The paper's leaf-acceptance test.

    The query is pooled with the leaf population, the pooled points are
    projected onto one dimension (their first principal axis), and an
    Anderson--Darling normality test with unknown mean/variance is run.
    Accepting normality means the leaf population plausibly surrounds
    the query as one homogeneous cloud — good enough neighbors, stop
    searching.  Fewer than 8 pooled points are *not* similar enough
    (the search continues to the next leaf); a pooled cloud whose
    projection is constant (standard deviation at most 1e-8) is
    trivially similar.  Any other input the test cannot run on (an
    ``alpha`` outside (0, 1)) is not similar enough.

    The pooled statistics come from the points' :class:`LeafMoments`
    (the search reads them from the tree's tables) by a rank-one update
    for the query, the axis is the top eigenvector of the pooled
    ``Z x Z`` scatter matrix, and the statistic is summed in floats.
    Whenever the outcome could differ from the SVD formulation
    (``stats.project_to_principal_axis`` then ``anderson_darling_test``)
    — a value within ``_NEAR`` of a threshold, a small top eigengap, an
    extreme tail — that formulation decides, so the answer is always
    the one it gives.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    # One point of the leaf's dimension (reshape raises otherwise).
    q = np.asarray(query, dtype=np.float64).reshape(pts.shape[1])
    if pts.shape[0] + 1 < 8:
        return False
    return _pooled_test(LeafMoments.of(pts), pts, q, alpha)


def _pooled_test(
    leaf: LeafMoments, points: np.ndarray, query: np.ndarray, alpha: float
) -> bool:
    """:func:`similar_enough` on the moments of ``points`` (at least 7)."""
    n = leaf.count + 1
    offset = query - leaf.mean
    scatter = leaf.scatter + (offset * (leaf.count / n))[:, np.newaxis] * offset
    # The SVD path's all-coordinates-within-1e-8 check, made sufficient:
    # a trace above Z * n * t^2 puts some pooled value farther than t
    # from the pooled mean.  Clouds this check cannot clear, and
    # non-finite ones, go to the SVD path.
    trace = scatter.trace()
    floor = offset.size * n * (1e-8 * (1.0 + _NEAR)) ** 2
    if not (0.0 < alpha < 1.0 and floor < trace < math.inf):
        return _svd_decides(points, query, alpha)
    values, vectors = np.linalg.eigh(scatter)
    if values.size > 1 and values[-1] - values[-2] <= _MIN_GAP * values[-1]:
        return _svd_decides(points, query, alpha)
    # Deviations from the mean do not move with the origin, so project
    # the leaf-centered points and the query offset as they are.
    axis = vectors[:, -1]
    projected = (leaf.centered @ axis).tolist()
    projected.append(float(offset @ axis))
    projected.sort()
    mean = sum(projected) / n
    deviations = [value - mean for value in projected]
    squares = sum(d * d for d in deviations)
    if squares <= n * (1e-8 * (1.0 + _NEAR)) ** 2:
        return _svd_decides(points, query, alpha)
    # Standardize by the ddof=1 deviation; F(x) = erfc(-x / sqrt 2) / 2.
    scale = -math.sqrt(0.5 * (n - 1) / squares)
    cdf = [0.5 * math.erfc(d * scale) for d in deviations]
    if cdf[0] < _MIN_TAIL or 1.0 - cdf[-1] < _MIN_TAIL:
        return _svd_decides(points, query, alpha)
    total = sum(
        weight * math.log(low * (1.0 - high))
        for weight, low, high in zip(range(1, 2 * n, 2), cdf, reversed(cdf))
    )
    corrected = corrected_statistic(-n - total / n, n)
    p_value = anderson_darling_p_value(corrected)
    if abs(p_value - alpha) <= _NEAR * alpha or any(
        abs(corrected - cut) <= _NEAR * cut for cut in _P_VALUE_CUTS
    ):
        return _svd_decides(points, query, alpha)
    return p_value >= alpha


def _svd_decides(points: np.ndarray, query: np.ndarray, alpha: float) -> bool:
    return _similar_enough_svd(np.vstack([points, query]), alpha)


def _similar_enough_svd(pooled: np.ndarray, alpha: float) -> bool:
    """:func:`similar_enough` on the SVD axis with the library test;
    decides every case near one of its thresholds."""
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
    tables = tree.tables
    divergence = tree.divergence
    target = divergence.prepare_point(q)
    counter = itertools.count()
    heap: list = [(0.0, next(counter), 0)]
    ids: list[np.ndarray] = []
    divs: list[np.ndarray] = []
    delta = 0.0  # the worst retrieved divergence, once there is one
    leaves = 0
    computations = 0
    pruned = 0
    stopped_early = False
    while heap and leaves < max_leaves:
        priority, _, node = heapq.heappop(heap)
        if (
            use_pruning
            and divs
            and priority > 0
            and can_prune(
                divergence,
                tables.prepared_centers[node],
                tables.radii[node],
                target,
                delta,
            )
        ):
            pruned += 1
            continue
        leaf, spent = _descend(tables, divergence, node, target, heap, counter)
        computations += spent
        leaves += 1
        leaf_divs = _leaf_divergences(tables, divergence, leaf, target)
        computations += int(leaf_divs.size)
        nearest_in_leaf = int(np.argmin(leaf_divs))
        if leaf_divs[nearest_in_leaf] <= epsilon:
            stats = SearchStats(
                leaves_visited=leaves,
                divergence_computations=computations,
                nodes_pruned=pruned,
                epsilon_match=True,
                stopped_early=True,
            )
            _obs.record_search("inflex", stats)
            return SearchResult(
                _leaf_ids(tables, leaf)[[nearest_in_leaf]],
                leaf_divs[[nearest_in_leaf]],
                stats,
            )
        ids.append(_leaf_ids(tables, leaf))
        divs.append(leaf_divs)
        delta = max(delta, float(leaf_divs.max()))
        if use_ad_test and leaf_divs.size >= 7:
            start, stop = tables.point_start[leaf], tables.point_stop[leaf]
            if _pooled_test(
                tables.leaf_moments[leaf],
                tables.raw_points[start:stop],
                q,
                ad_alpha,
            ):
                stopped_early = True
                break
    stats = SearchStats(
        leaves_visited=leaves,
        divergence_computations=computations,
        nodes_pruned=pruned,
        epsilon_match=False,
        stopped_early=stopped_early,
    )
    _obs.record_search("inflex", stats)
    return _sorted_result(np.concatenate(ids), np.concatenate(divs), stats)
