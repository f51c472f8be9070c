"""Tests for the Bregman divergence framework."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.divergence import (
    ItakuraSaito,
    KLDivergence,
    Mahalanobis,
    SquaredEuclidean,
)
from repro.simplex import kl_divergence, sample_uniform_simplex

ALL_DIVERGENCES = [
    KLDivergence(),
    SquaredEuclidean(),
    ItakuraSaito(),
    Mahalanobis(np.array([[2.0, 0.5], [0.5, 1.0]])),
]

positive_pairs = st.integers(min_value=0, max_value=5000).map(
    lambda seed: np.random.default_rng(seed).uniform(0.05, 2.0, size=(2, 2))
)


@pytest.mark.parametrize("div", ALL_DIVERGENCES, ids=lambda d: d.name)
class TestCommonProperties:
    def test_identity_zero(self, div):
        x = np.array([0.4, 0.6])
        assert div.divergence(x, x) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative(self, div):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.uniform(0.05, 1.5, 2)
            q = rng.uniform(0.05, 1.5, 2)
            assert div.divergence(p, q) >= 0.0

    def test_gradient_inverse_round_trip(self, div):
        x = np.array([[0.3, 0.9]])
        theta = div.gradient(div._prepare(x))
        back = div.gradient_inverse(theta)
        assert np.allclose(back, x, atol=1e-9)

    def test_vectorized_matches_scalar(self, div):
        rng = np.random.default_rng(2)
        points = rng.uniform(0.05, 1.5, size=(5, 2))
        q = rng.uniform(0.05, 1.5, 2)
        batch = div.divergence_to_point(points, q)
        singles = [div.divergence(p, q) for p in points]
        assert np.allclose(batch, singles, atol=1e-9)

    def test_divergence_matrix_matches_columns(self, div):
        rng = np.random.default_rng(4)
        points = rng.uniform(0.05, 1.5, size=(7, 2))
        centroids = np.vstack([points[2], rng.uniform(0.05, 1.5, (3, 2))])
        matrix = div.divergence_matrix(points, centroids)
        columns = np.column_stack(
            [div.divergence_to_point(points, c) for c in centroids]
        )
        assert matrix.shape == (7, 4)
        assert np.all(matrix >= 0.0)
        assert np.allclose(matrix, columns, rtol=1e-12, atol=1e-12)
        generator = div.generator(div.prepare(points))
        assert np.array_equal(
            div.divergence_matrix(
                points, centroids, point_generator=generator
            ),
            matrix,
        )
        assert np.array_equal(
            div.divergence_to_point(
                points, centroids[1], point_generator=generator
            ),
            columns[:, 1],
        )

    def test_divergence_from_point_matches_scalar(self, div):
        rng = np.random.default_rng(3)
        points = rng.uniform(0.05, 1.5, size=(5, 2))
        p = rng.uniform(0.05, 1.5, 2)
        batch = div.divergence_from_point(p, points)
        singles = [div.divergence(p, q) for q in points]
        assert np.allclose(batch, singles, atol=1e-9)

    def test_right_centroid_is_minimizer(self, div):
        rng = np.random.default_rng(4)
        points = rng.uniform(0.1, 1.0, size=(8, 2))
        centroid = div.right_centroid(points)
        objective = div.divergence_to_point(points, centroid).sum()
        for _ in range(20):
            other = centroid + rng.normal(0, 0.05, 2)
            if np.any(other <= 0):
                continue
            assert div.divergence_to_point(points, other).sum() >= (
                objective - 1e-9
            )

    def test_left_centroid_is_minimizer(self, div):
        rng = np.random.default_rng(5)
        points = rng.uniform(0.1, 1.0, size=(8, 2))
        centroid = div.left_centroid(points)
        objective = div.divergence_from_point(centroid, points).sum()
        for _ in range(20):
            other = centroid + rng.normal(0, 0.05, 2)
            if np.any(other <= 0):
                continue
            assert div.divergence_from_point(other, points).sum() >= (
                objective - 1e-9
            )

    def test_weighted_centroid_weights_validation(self, div):
        points = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(ValueError):
            div.right_centroid(points, weights=[1.0])
        with pytest.raises(ValueError):
            div.right_centroid(points, weights=[0.0, 0.0])


class TestKLSpecifics:
    def test_matches_simplex_kl_on_distributions(self):
        div = KLDivergence()
        pts = sample_uniform_simplex(2, 4, seed=6)
        # Generalized KL equals ordinary KL for normalized inputs.
        assert div.divergence(pts[0], pts[1]) == pytest.approx(
            kl_divergence(pts[0], pts[1]), abs=1e-9
        )

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            KLDivergence(eps=0.0)

    @given(positive_pairs)
    @settings(max_examples=50)
    def test_property_generalized_kl_formula(self, pair):
        div = KLDivergence()
        p, q = pair
        expected = np.sum(p * np.log(p / q) - p + q)
        assert div.divergence(p, q) == pytest.approx(expected, abs=1e-9)


class TestSquaredEuclideanSpecifics:
    def test_closed_form(self):
        div = SquaredEuclidean()
        p = np.array([1.0, 2.0])
        q = np.array([0.0, 0.0])
        assert div.divergence(p, q) == pytest.approx(2.5)

    def test_symmetric(self):
        div = SquaredEuclidean()
        p = np.array([0.7, 1.3])
        q = np.array([0.2, 0.4])
        assert div.divergence(p, q) == pytest.approx(div.divergence(q, p))


class TestItakuraSaitoSpecifics:
    def test_closed_form(self):
        div = ItakuraSaito()
        p = np.array([2.0])
        q = np.array([1.0])
        assert div.divergence(p, q) == pytest.approx(2.0 - np.log(2.0) - 1.0)

    def test_asymmetric(self):
        div = ItakuraSaito()
        p = np.array([2.0, 1.0])
        q = np.array([1.0, 1.0])
        assert div.divergence(p, q) != pytest.approx(div.divergence(q, p))


class TestMahalanobisSpecifics:
    def test_identity_matrix_matches_sqeuclidean(self):
        maha = Mahalanobis(np.eye(3))
        sq = SquaredEuclidean()
        p = np.array([1.0, 0.5, 0.2])
        q = np.array([0.3, 0.3, 0.3])
        assert maha.divergence(p, q) == pytest.approx(sq.divergence(p, q))

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            Mahalanobis(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            Mahalanobis(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Mahalanobis(np.ones((2, 3)))
