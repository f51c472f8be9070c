"""Tests for the Dirichlet distribution and Minka MLE."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConvergenceError, InvalidDistributionError
from repro.simplex import Dirichlet, fit_dirichlet_mle


class TestDirichlet:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(InvalidDistributionError):
            Dirichlet(np.array([1.0, 0.0]))

    def test_rejects_short_alpha(self):
        with pytest.raises(InvalidDistributionError):
            Dirichlet(np.array([1.0]))

    def test_mean(self):
        d = Dirichlet(np.array([2.0, 6.0]))
        assert np.allclose(d.mean(), [0.25, 0.75])

    def test_sample_shape_and_support(self):
        d = Dirichlet(np.array([0.3, 0.3, 0.4]))
        samples = d.sample(100, seed=1)
        assert samples.shape == (100, 3)
        assert np.allclose(samples.sum(axis=1), 1.0)
        assert np.all(samples > 0)

    def test_sample_deterministic_with_seed(self):
        d = Dirichlet(np.array([1.0, 2.0]))
        assert np.allclose(d.sample(5, seed=3), d.sample(5, seed=3))

    def test_sample_negative_rejected(self):
        with pytest.raises(ValueError):
            Dirichlet(np.array([1.0, 1.0])).sample(-1)

    def test_log_pdf_uniform_alpha_is_constant(self):
        d = Dirichlet(np.ones(3))
        pts = d.sample(10, seed=2)
        values = d.log_pdf(pts)
        # Dirichlet(1,1,1) is uniform: density Gamma(3) = 2 everywhere.
        assert np.allclose(values, np.log(2.0), atol=1e-6)

    def test_log_pdf_dimension_mismatch(self):
        d = Dirichlet(np.ones(3))
        with pytest.raises(InvalidDistributionError):
            d.log_pdf(np.ones((2, 4)) / 4)


class TestFitDirichletMLE:
    @pytest.mark.parametrize("method", ["newton", "fixed-point"])
    def test_recovers_alpha(self, method):
        true = Dirichlet(np.array([2.0, 0.8, 4.0, 1.2]))
        samples = true.sample(6000, seed=5)
        fitted = fit_dirichlet_mle(samples, method=method)
        assert np.allclose(fitted.alpha, true.alpha, rtol=0.12)

    def test_newton_and_fixed_point_agree(self):
        true = Dirichlet(np.array([1.5, 2.5, 0.7]))
        samples = true.sample(3000, seed=6)
        a = fit_dirichlet_mle(samples, method="newton").alpha
        b = fit_dirichlet_mle(samples, method="fixed-point").alpha
        assert np.allclose(a, b, rtol=1e-3)

    def test_likelihood_at_fit_beats_perturbation(self):
        true = Dirichlet(np.array([1.0, 3.0]))
        samples = true.sample(2000, seed=7)
        fitted = fit_dirichlet_mle(samples)
        perturbed = Dirichlet(fitted.alpha * 1.5)
        assert fitted.mean_log_likelihood(samples) >= (
            perturbed.mean_log_likelihood(samples)
        )

    def test_unknown_method_rejected(self):
        samples = Dirichlet(np.ones(3)).sample(50, seed=8)
        with pytest.raises(ValueError):
            fit_dirichlet_mle(samples, method="bogus")

    def test_too_few_observations_rejected(self):
        with pytest.raises(InvalidDistributionError):
            fit_dirichlet_mle(np.array([[0.5, 0.5]]))

    def test_strict_convergence_flag(self):
        samples = Dirichlet(np.array([2.0, 2.0])).sample(500, seed=9)
        with pytest.raises(ConvergenceError):
            fit_dirichlet_mle(samples, max_iter=1, strict=True, tol=1e-14)

    def test_concentrated_catalog(self):
        # Sparse, low-concentration data (topic-model-like catalogs).
        true = Dirichlet(np.full(5, 0.3))
        samples = true.sample(5000, seed=10)
        fitted = fit_dirichlet_mle(samples)
        assert np.allclose(fitted.alpha, true.alpha, rtol=0.2)


class TestSpecialFunctionPorts:
    """``repro.simplex.special`` returns scipy's bits for the fit's
    positive finite arguments (scipy is the oracle here only)."""

    GRID = np.concatenate(
        [
            np.arange(1.0, 11.0),
            np.geomspace(1e-3, 1e9, 2_001),
            np.linspace(0.001, 20.0, 2_001),
            [0.5, 1.5, 2.0 - 2**-52, 2.0 + 2**-51, 10.0 - 2**-49, 10.5],
            [1e8, 1e8 + 2.0, 1e17, 3e17],
        ]
    )

    @staticmethod
    def _bits(values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64).view(np.int64)

    def test_digamma_on_a_grid(self):
        from scipy.special import digamma

        from repro.simplex.special import digamma as ported

        assert np.array_equal(
            self._bits(ported(self.GRID)), self._bits(digamma(self.GRID))
        )

    def test_trigamma_on_a_grid(self):
        from scipy.special import polygamma

        from repro.simplex.special import trigamma

        assert np.array_equal(
            self._bits(trigamma(self.GRID)),
            self._bits(polygamma(1, self.GRID)),
        )

    @given(
        st.floats(
            min_value=1e-3,
            max_value=1e9,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    def test_scalars_match_scipy(self, x):
        from scipy.special import digamma, polygamma

        from repro.simplex.special import psi, zeta2

        assert self._bits(psi(x)) == self._bits(digamma(x))
        assert self._bits(zeta2(x)) == self._bits(polygamma(1, x))

    def test_other_arguments_defer_to_scipy(self):
        from scipy.special import digamma, polygamma

        from repro.simplex.special import digamma as ported
        from repro.simplex.special import trigamma

        values = np.array([-2.5, -1.0, 0.0, np.inf, np.nan, 3.0])
        np.testing.assert_array_equal(ported(values), digamma(values))
        np.testing.assert_array_equal(
            trigamma(values), polygamma(1, values)
        )

    def test_scalar_input_gives_a_scalar(self):
        from repro.simplex.special import digamma, trigamma

        assert np.ndim(digamma(2.5)) == 0
        assert np.ndim(trigamma(np.float64(2.5))) == 0
