"""Bregman K-means++ and Lloyd iterations (Banerjee et al. 2005).

INFLEX uses Bregman K-means++ twice:

* over the Dirichlet samples, to select the ``h`` index-point centroids
  (Section 3.1 of the paper), and
* recursively at every bb-tree node, to partition a node's population
  into children (Section 3.2, following Nielsen et al.).

Hard Bregman clustering assigns each point ``x`` to the centroid ``c``
minimizing ``d_f(x, c)`` and recomputes each centroid as the arithmetic
mean of its cluster — which is *exactly* optimal for every Bregman
divergence (the right-centroid property), so Lloyd's argument carries
over unchanged and the objective decreases monotonically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.divergence.base import BregmanDivergence
from repro.rng import resolve_rng


@dataclass(frozen=True)
class KMeansResult:
    """Result of a Bregman K-means run.

    Attributes
    ----------
    centroids:
        Array of shape ``(k, d)``.
    labels:
        Cluster assignment per input point, shape ``(n,)``.
    inertia:
        Final clustering objective ``sum_i d_f(x_i, c_{label_i})``.
    iterations:
        Number of Lloyd iterations performed.
    converged:
        Whether assignments stabilized before the iteration budget.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    converged: bool

    @property
    def num_clusters(self) -> int:
        return int(self.centroids.shape[0])


#: Rows per divergence block are chosen so a block holds about this many
#: entries: 8 MB of float64, whatever the number of centroids.
_BLOCK_ENTRIES = 1 << 20

#: A row whose best and runner-up divergences differ by less than this,
#: relative to the magnitude of the terms they are summed from, is a
#: near-tie; it is re-scored with :meth:`divergence_to_point`.
_TIE_RTOL = 1e-9


def kmeanspp_seeding(
    points, k: int, divergence: BregmanDivergence, seed=None
) -> np.ndarray:
    """Select ``k`` initial centroid *indices* with D^2-style sampling.

    The classic K-means++ scheme of Arthur & Vassilvitskii, with the
    squared Euclidean distance replaced by the Bregman divergence
    ``d_f(x, c)`` (Banerjee et al. justify the same potential argument).
    """
    pts = np.asarray(points, dtype=np.float64)
    return _Cloud(pts, divergence).seed(k, resolve_rng(seed))


def bregman_kmeans(
    points,
    k: int,
    divergence: BregmanDivergence,
    *,
    seed=None,
    max_iter: int = 100,
    n_init: int = 1,
) -> KMeansResult:
    """Cluster ``points`` into ``k`` groups under a Bregman divergence.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    k:
        Number of clusters, ``1 <= k <= n``.
    divergence:
        Any :class:`~repro.divergence.base.BregmanDivergence`.
    seed:
        Randomness control for seeding (and restarts).
    max_iter:
        Lloyd iteration budget per restart.
    n_init:
        Number of independent restarts; the lowest-inertia run wins.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"points must be a non-empty 2-D array, got {pts.shape}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    rng = resolve_rng(seed)
    cloud = _Cloud(pts, divergence)
    best: KMeansResult | None = None
    for _ in range(n_init):
        result = _single_kmeans(pts, cloud, k, rng, max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def _single_kmeans(
    pts: np.ndarray,
    cloud: _Cloud,
    k: int,
    rng: np.random.Generator,
    max_iter: int,
) -> KMeansResult:
    centroids = pts[cloud.seed(k, rng)].copy()
    labels = np.full(pts.shape[0], -1, dtype=np.int64)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_labels, nearest = cloud.assign(centroids)
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        # Each centroid must equal ``right_centroid(pts[labels == j])``
        # bit for bit: the mean of the prepared members, summed in their
        # original order.  A stable sort makes every cluster a contiguous
        # run of its rows in that order.  (Labels fit the smallest
        # unsigned type, where the stable sort is a radix sort.)
        order = np.argsort(
            labels.astype(np.min_scalar_type(k)), kind="stable"
        )
        counts = np.bincount(labels, minlength=k)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        if not counts.all():
            # Re-seed empty clusters at the point farthest from its
            # current centroid — standard empty-cluster repair.
            worst = cloud.farthest(centroids, labels, nearest)
            centroids[counts == 0] = pts[worst]
        members = cloud.points[order]
        filled = np.flatnonzero(counts)
        for j in filled:
            centroids[j] = np.add.reduce(members[bounds[j]:bounds[j + 1]])
        # The division ndarray.mean does after the same reduction.
        centroids[filled] /= counts[filled, np.newaxis]
    if not converged:
        labels, nearest = cloud.assign(centroids)
    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=float(nearest.sum()),
        iterations=iterations,
        converged=converged,
    )


class _Cloud:
    """A prepared point cloud with the per-point terms every pass reuses.

    Assignment scores each row block with one
    :meth:`~repro.divergence.base.BregmanDivergence.divergence_matrix`
    call, so the peak is one ``(block, k)`` matrix.  Rows whose best and
    runner-up centroids are a near-tie at that precision are re-scored
    with the column formula of :meth:`divergence_to_point`, which is
    what decides the winner.
    """

    def __init__(
        self, pts: np.ndarray, divergence: BregmanDivergence
    ) -> None:
        self.divergence = divergence
        self.points = divergence.prepare(pts)
        self.generator = divergence.generator(self.points)
        self._abs_points = np.abs(self.points)
        self._abs_generator = np.abs(self.generator)

    def seed(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """K-means++ seeding indices (see :func:`kmeanspp_seeding`)."""
        divergence = self.divergence
        n = self.points.shape[0]
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        chosen = np.empty(k, dtype=np.int64)
        chosen[0] = rng.integers(n)
        closest = divergence.divergence_to_point(
            self.points,
            self.points[chosen[0]],
            point_generator=self.generator,
        )
        for j in range(1, k):
            total = closest.sum()
            if total <= 0:
                # All remaining points coincide with a chosen centroid;
                # fill the rest uniformly at random among unchosen
                # indices.
                remaining = np.setdiff1d(
                    np.arange(n), chosen[:j], assume_unique=False
                )
                fill = rng.choice(remaining, size=k - j, replace=False)
                chosen[j:] = fill
                return chosen
            probabilities = closest / total
            chosen[j] = rng.choice(n, p=probabilities)
            distance_new = divergence.divergence_to_point(
                self.points,
                self.points[chosen[j]],
                point_generator=self.generator,
            )
            closest = np.minimum(closest, distance_new)
        return chosen

    def _rounding_scale(self, cents: np.ndarray) -> np.ndarray:
        """Per row, a bound on the terms ``d_f(x, c)`` is summed from.

        ``|f(x)| + <|x|, |grad f(c)|> + |<c, grad f(c)>| + |f(c)|``,
        maximized over the centroids ``c``: the rounding error of either
        formula for any of the row's divergences is a few ulps of it.
        """
        abs_grads = np.abs(self.divergence.gradient(cents))
        centroid_terms = np.einsum(
            "ij,ij->i", np.abs(cents), abs_grads
        ) + np.abs(self.divergence.generator(cents))
        return (
            self._abs_generator
            + self._abs_points @ abs_grads.max(axis=0)
            + centroid_terms.max()
        )

    def assign(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest centroid of every row and the divergence to it."""
        divergence = self.divergence
        n, k = self.points.shape[0], centroids.shape[0]
        labels = np.empty(n, dtype=np.int64)
        nearest = np.empty(n)
        cents = divergence.prepare(centroids)
        # Two entries' rounding apart is a near-tie.
        tie_band = 2 * _TIE_RTOL * self._rounding_scale(cents)
        ties = []
        block = max(1, _BLOCK_ENTRIES // k)
        for start in range(0, n, block):
            rows = slice(start, min(start + block, n))
            matrix = divergence.divergence_matrix(
                self.points[rows],
                cents,
                point_generator=self.generator[rows],
            )
            span = np.arange(matrix.shape[0])
            best = matrix.argmin(axis=1)
            labels[rows] = best
            nearest[rows] = matrix[span, best]
            # Every entry within the band counts once; a second one in a
            # row makes that row a near-tie.
            within = np.flatnonzero(
                matrix <= (nearest[rows] + tie_band[rows])[:, np.newaxis]
            )
            crowded = np.bincount(within // k, minlength=span.size) > 1
            ties.append(start + np.flatnonzero(crowded))
        tied = np.concatenate(ties)
        if tied.size:
            exact = np.column_stack(
                [
                    divergence.divergence_to_point(
                        self.points[tied],
                        centroid,
                        point_generator=self.generator[tied],
                    )
                    for centroid in centroids
                ]
            )
            labels[tied] = exact.argmin(axis=1)
            nearest[tied] = exact.min(axis=1)
        return labels, nearest

    def farthest(
        self, centroids: np.ndarray, labels: np.ndarray, nearest: np.ndarray
    ) -> int:
        """Row farthest from its centroid, as the column formula ranks it.

        Rows within the near-tie band of the maximum are re-scored
        against the whole cloud's column for their centroid, so the
        first of equally far rows wins.
        """
        slack = _TIE_RTOL * self._rounding_scale(
            self.divergence.prepare(centroids)
        )
        top = int(np.argmax(nearest))
        candidates = np.flatnonzero(
            nearest + slack >= nearest[top] - slack[top]
        )
        exact = np.empty(candidates.size)
        for label in np.unique(labels[candidates]):
            column = self.divergence.divergence_to_point(
                self.points, centroids[label], point_generator=self.generator
            )
            mine = labels[candidates] == label
            exact[mine] = column[candidates[mine]]
        return int(candidates[np.argmax(exact)])
