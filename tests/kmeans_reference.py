"""Column-by-column Bregman K-means++: the oracle for the matmul kernel.

This is the clustering algorithm as first written, kept verbatim in
behaviour: the ``(n, k)`` divergence matrix is built one
:meth:`divergence_to_point` column per centroid, and each centroid is
the mean of a boolean-masked cluster.  ``repro.clustering.kmeanspp``
must reproduce its seeding indices, labels, iteration counts and
centroids bit for bit wherever no row's best and runner-up centroid
are a near-tie.  :func:`reference_kmeans` also reports the smallest
relative best-vs-runner-up margin it met, so a test can tell whether
that condition held.
"""

from __future__ import annotations

import numpy as np

from repro.rng import resolve_rng

#: A margin below this, relative to the magnitude of the terms the two
#: divergences are summed from, is a near-tie.
TIE_RTOL = 1e-9


def divergence_columns(points, centroids, divergence):
    """Matrix ``D[i, j] = d_f(points[i], centroids[j])``, column by column."""
    return np.column_stack(
        [divergence.divergence_to_point(points, c) for c in centroids]
    )


def term_scale(points, centroids, divergence):
    """``|f(x)| + <|x|, |grad f(c)|> + |<c, grad f(c)>| + |f(c)|``, (n, k)."""
    pts = divergence.prepare(points)
    cents = divergence.prepare(centroids)
    abs_grads = np.abs(divergence.gradient(cents))
    centroid_terms = np.sum(np.abs(cents) * abs_grads, axis=1) + np.abs(
        divergence.generator(cents)
    )
    return (
        np.abs(divergence.generator(pts))[:, None]
        + np.abs(pts) @ abs_grads.T
        + centroid_terms[None, :]
    )


def relative_margins(points, centroids, divergence):
    """Best-vs-runner-up margin of every row over its rounding scale.

    ``inf`` for a single centroid, where there is no runner-up.
    """
    distances = divergence_columns(points, centroids, divergence)
    if distances.shape[1] == 1:
        return np.full(distances.shape[0], np.inf)
    scale = term_scale(points, centroids, divergence)
    span = np.arange(distances.shape[0])
    order = np.argsort(distances, axis=1, kind="stable")
    best, runner_up = order[:, 0], order[:, 1]
    margin = distances[span, runner_up] - distances[span, best]
    return margin / (scale[span, best] + scale[span, runner_up])


def reference_seeding(points, k, divergence, seed=None):
    """K-means++ seeding indices, as the original implementation drew them."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = resolve_rng(seed)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    closest = divergence.divergence_to_point(pts, pts[chosen[0]])
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            remaining = np.setdiff1d(np.arange(n), chosen[:j])
            chosen[j:] = rng.choice(remaining, size=k - j, replace=False)
            return chosen
        chosen[j] = rng.choice(n, p=closest / total)
        closest = np.minimum(
            closest, divergence.divergence_to_point(pts, pts[chosen[j]])
        )
    return chosen


def reference_kmeans(points, k, divergence, *, seed=None, max_iter=100):
    """One restart of the original Lloyd loop.

    Returns ``(seed_idx, centroids, labels, inertia, iterations,
    converged, min_margin, repaired)``: ``min_margin`` is the smallest
    relative margin over every assignment the run made, ``repaired``
    whether an empty cluster was re-seeded.
    """
    pts = np.asarray(points, dtype=np.float64)
    rng = resolve_rng(seed)
    seed_idx = reference_seeding(pts, k, divergence, seed=rng)
    centroids = pts[seed_idx].copy()
    labels = np.full(pts.shape[0], -1, dtype=np.int64)
    min_margin = np.inf
    repaired = False
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        distances = divergence_columns(pts, centroids, divergence)
        min_margin = min(
            min_margin, relative_margins(pts, centroids, divergence).min()
        )
        new_labels = np.argmin(distances, axis=1)
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        for j in range(k):
            members = pts[labels == j]
            if members.shape[0] == 0:
                repaired = True
                worst = int(
                    np.argmax(distances[np.arange(pts.shape[0]), labels])
                )
                centroids[j] = pts[worst]
            else:
                centroids[j] = divergence.right_centroid(members)
    distances = divergence_columns(pts, centroids, divergence)
    min_margin = min(
        min_margin, relative_margins(pts, centroids, divergence).min()
    )
    labels = np.argmin(distances, axis=1)
    inertia = float(distances[np.arange(pts.shape[0]), labels].sum())
    return (
        seed_idx,
        centroids,
        labels,
        inertia,
        iterations,
        converged,
        float(min_margin),
        repaired,
    )
