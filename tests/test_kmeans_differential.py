"""Differential tests: the one-matmul Bregman K-means against the
column-by-column original kept in ``tests/kmeans_reference.py``.

Seeding shares the original's arithmetic, so its indices must match
always.  Lloyd assignment sums the divergence in another order, so
labels, iteration counts and (bit-identical) centroids must match
wherever the reference never met a near-tie: a row whose best and
runner-up centroids differ by less than ``TIE_RTOL`` of the terms they
are summed from.  Where it did, the two runs may part ways, and every
final label is checked against the column formula instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.clustering import bregman_kmeans, kmeanspp_seeding
from repro.datasets import generate_flixster_like
from repro.divergence import (
    ItakuraSaito,
    KLDivergence,
    Mahalanobis,
    SquaredEuclidean,
)
from repro.rng import resolve_rng
from repro.simplex.dirichlet import fit_dirichlet_mle
from repro.simplex.vectors import as_distribution_matrix, smooth
from tests.kmeans_reference import (
    TIE_RTOL,
    divergence_columns,
    reference_kmeans,
    reference_seeding,
    term_scale,
)

DIVERGENCES = ("kl", "sqeuclidean", "itakura-saito", "mahalanobis")


def make_divergence(name: str, dim: int, seed: int = 0):
    if name == "kl":
        return KLDivergence()
    if name == "sqeuclidean":
        return SquaredEuclidean()
    if name == "itakura-saito":
        return ItakuraSaito()
    root = np.random.default_rng(seed).normal(size=(dim, dim))
    return Mahalanobis(root @ root.T + dim * np.eye(dim))


@st.composite
def clouds(draw):
    """Simplex rows: smooth Dirichlet draws, or a coarse grid that is
    full of duplicate points and exact ties."""
    dim = draw(st.integers(2, 6))
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        alpha = draw(st.sampled_from([0.2, 1.0, 5.0]))
        points = rng.dirichlet(np.full(dim, alpha), size=n)
    else:
        grid = rng.integers(0, 3, size=(n, dim)).astype(np.float64) + 0.5
        points = grid / grid.sum(axis=1, keepdims=True)
    return points, seed


def assert_same_clustering(result, ref):
    _, centroids, labels, inertia, iterations, converged, _, _ = ref
    np.testing.assert_array_equal(result.labels, labels)
    assert result.iterations == iterations
    assert result.converged == converged
    # Bit-identical, not merely close: the means sum the same rows in
    # the same order.
    assert np.array_equal(result.centroids, centroids)
    assert result.inertia == pytest.approx(inertia, rel=1e-9, abs=1e-12)


def assert_labels_nearest(points, result, divergence):
    """Each label is the column formula's argmin up to a near-tie."""
    distances = divergence_columns(points, result.centroids, divergence)
    scale = term_scale(points, result.centroids, divergence)
    span = np.arange(points.shape[0])
    best = distances.argmin(axis=1)
    gap = distances[span, result.labels] - distances[span, best]
    bound = TIE_RTOL * (scale[span, result.labels] + scale[span, best])
    assert np.all(gap <= bound)


@given(
    clouds(),
    st.sampled_from(DIVERGENCES),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_seeding_matches_reference(cloud, name, k, seed):
    points, _ = cloud
    k = min(k, points.shape[0])
    divergence = make_divergence(name, points.shape[1])
    np.testing.assert_array_equal(
        kmeanspp_seeding(points, k, divergence, seed=seed),
        reference_seeding(points, k, divergence, seed=seed),
    )


@given(
    clouds(),
    st.sampled_from(DIVERGENCES),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
    st.integers(1, 30),
)
@settings(max_examples=80, deadline=None)
def test_kmeans_matches_reference(cloud, name, k, seed, max_iter):
    points, _ = cloud
    k = min(k, points.shape[0])
    divergence = make_divergence(name, points.shape[1])
    ref = reference_kmeans(points, k, divergence, seed=seed, max_iter=max_iter)
    result = bregman_kmeans(
        points, k, divergence, seed=seed, max_iter=max_iter
    )
    min_margin, repaired = ref[6], ref[7]
    event(f"repaired={repaired}")
    if min_margin > TIE_RTOL:
        event("no near-tie")
        assert_same_clustering(result, ref)
    else:
        event("near-tie")
        assert_labels_nearest(points, result, divergence)


@pytest.mark.parametrize("name", DIVERGENCES)
@pytest.mark.parametrize(
    "points, k",
    [
        # Every point coincides: seeding fills uniformly, two clusters
        # come out empty and are re-seeded.
        (np.tile([[0.2, 0.3, 0.5]], (6, 1)), 3),
        # Three distinct points, four clusters: one stays empty.
        (
            np.repeat(
                [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]],
                4,
                axis=0,
            ),
            4,
        ),
    ],
)
def test_empty_cluster_repair_matches_reference(name, points, k):
    divergence = make_divergence(name, points.shape[1])
    ref = reference_kmeans(points, k, divergence, seed=3)
    assert ref[7], "the fixture must exercise the empty-cluster repair"
    # These ties are exact, so the near-tie re-scoring decides them as
    # the reference does: hold the full comparison regardless.
    assert_same_clustering(bregman_kmeans(points, k, divergence, seed=3), ref)


def test_blocked_assignment_matches_reference(monkeypatch):
    """Row blocks smaller than the cloud give the same clustering."""
    import repro.clustering.kmeanspp as kmeanspp

    monkeypatch.setattr(kmeanspp, "_BLOCK_ENTRIES", 7 * 5)
    points = np.random.default_rng(11).dirichlet(np.full(4, 0.7), size=300)
    divergence = KLDivergence()
    ref = reference_kmeans(points, 5, divergence, seed=12)
    assert ref[6] > TIE_RTOL
    assert_same_clustering(bregman_kmeans(points, 5, divergence, seed=12), ref)


def test_benchmark_build_clustering_matches_reference():
    """The clustering of the repository benchmark's build, n=8000, h=40."""
    # Dataset and build seeds of the benchmark (perfbench/common.py).
    data = generate_flixster_like(
        num_nodes=1000,
        num_topics=6,
        num_items=300,
        topics_per_node=1,
        base_strength=0.2,
        seed=1771191195,
    )
    catalog = smooth(as_distribution_matrix(data.item_topics))
    dirichlet = fit_dirichlet_mle(catalog)
    divergence = KLDivergence()
    runs = []
    for _ in range(2):
        rng = resolve_rng(235139577)
        samples = dirichlet.sample(8000, seed=rng)
        runs.append((samples, rng))
    (samples, rng_ref), (same_samples, rng_new) = runs
    np.testing.assert_array_equal(samples, same_samples)
    ref = reference_kmeans(samples, 40, divergence, seed=rng_ref)
    assert ref[6] > TIE_RTOL
    result = bregman_kmeans(samples, 40, divergence, seed=rng_new)
    assert_same_clustering(result, ref)
    assert result.iterations == 40
