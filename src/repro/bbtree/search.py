"""Nearest-neighbor search procedures on the Bregman ball tree.

Three searches back the paper's query strategies:

* :func:`exact_nearest_neighbors` — branch-and-bound best-first search
  with Bregman-projection lower bounds; returns the true K nearest
  neighbors (the ``exactKNN`` baseline).
* :func:`leaf_limited_search` — Algorithm-1-style guided depth-first
  traversal that stops after a fixed number of leaves (``approxKNN``).
* :func:`inflex_search` — the paper's Algorithm 1: guided DFS with a
  priority queue, an epsilon-exact shortcut, Anderson--Darling
  early stopping, and Eq. 5 pruning via the Bregman projection
  (the search behind INFLEX and ``approxAD``).

Every search returns a :class:`SearchResult` carrying instrumentation
(leaves visited, divergence computations) used by the Figure 5
experiment and the paper's early-stopping statistics.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.bbtree.projection import can_prune, project_to_ball
from repro.bbtree.tree import BBTree, BBTreeNode
from repro.obs import instruments as _obs
from repro.stats.anderson_darling import (
    anderson_darling_test,
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
    ids: list[int],
    divs: list[float],
    stats: SearchStats,
) -> SearchResult:
    indices = np.asarray(ids, dtype=np.int64)
    divergences = np.asarray(divs, dtype=np.float64)
    order = np.lexsort((indices, divergences))
    return SearchResult(indices[order], divergences[order], stats)


# ----------------------------------------------------------------------
# Exact branch-and-bound search
# ----------------------------------------------------------------------
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
            divs = divergence.divergence_to_point(
                tree.points[node.point_ids], q
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
    _obs.record_search("exact", stats)
    ranked = sorted(((-neg, pid) for neg, pid in best))
    return _sorted_result(
        [pid for _, pid in ranked], [d for d, _ in ranked], stats
    )


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
    return _sorted_result(ids, divs, stats)


# ----------------------------------------------------------------------
# Shared guided traversal used by the approximate searches
# ----------------------------------------------------------------------
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
        divs = divergence.divergence_to_point(centers, q)
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
        leaf_divs = divergence.divergence_to_point(
            tree.points[leaf.point_ids], q
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
    _obs.record_search("leaf-limited", stats)
    return _sorted_result(ids, divs, stats).top(k)


# ----------------------------------------------------------------------
# Algorithm 1: the INFLEX similarity search
# ----------------------------------------------------------------------
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
        leaf_divs = divergence.divergence_to_point(
            tree.points[leaf.point_ids], q
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
            _obs.record_search("inflex", stats)
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
    _obs.record_search("inflex", stats)
    return _sorted_result(ids, divs, stats)
