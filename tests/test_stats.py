"""Tests for the statistics package: AD test, t-test, metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats import (
    anderson_darling_statistic,
    anderson_darling_test,
    corrected_statistic,
    nrmse,
    paired_t_test,
    pearson_correlation,
    project_to_principal_axis,
    rmse,
    spearman_correlation,
)


class TestAndersonDarling:
    def test_accepts_gaussian(self):
        rng = np.random.default_rng(1)
        accepted = 0
        for i in range(20):
            sample = rng.normal(3.0, 2.0, size=200)
            if anderson_darling_test(sample, alpha=0.05).is_normal:
                accepted += 1
        # At alpha=0.05 roughly 95% of normal samples should pass.
        assert accepted >= 16

    def test_rejects_bimodal(self):
        rng = np.random.default_rng(2)
        sample = np.concatenate(
            [rng.normal(-4, 0.5, 150), rng.normal(4, 0.5, 150)]
        )
        assert anderson_darling_test(sample, alpha=0.05).reject_normality

    def test_rejects_heavy_uniform(self):
        rng = np.random.default_rng(3)
        sample = rng.uniform(0, 1, 500)
        assert anderson_darling_test(sample, alpha=0.05).reject_normality

    def test_matches_scipy_statistic(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(4)
        sample = rng.normal(0, 1, 100)
        ours = anderson_darling_statistic(sample)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FutureWarning)
            theirs = scipy_stats.anderson(sample, dist="norm").statistic
        assert ours == pytest.approx(theirs, rel=1e-9)

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(3, 120),
        shape=st.sampled_from(["normal", "exponential", "t3", "uniform"]),
        alpha=st.sampled_from([0.001, 0.05, 0.5, 0.8, 0.95]),
    )
    @settings(max_examples=300, deadline=None)
    def test_decisions_match_scipy_ndtr(self, seed, size, shape, alpha):
        """The erfc-based normal CDF gives the decisions scipy's ndtr
        gives (the statistics agree to the last few bits)."""
        from scipy.special import ndtr

        from repro.stats.anderson_darling import anderson_darling_p_value

        rng = np.random.default_rng(seed)
        sample = {
            "normal": lambda: rng.normal(size=size),
            "exponential": lambda: rng.exponential(size=size),
            "t3": lambda: rng.standard_t(3, size=size),
            "uniform": lambda: rng.uniform(size=size),
        }[shape]()
        data = np.sort(sample)
        standardized = (data - data.mean()) / data.std(ddof=1)
        cdf = np.clip(ndtr(standardized), 1e-300, 1.0 - 1e-16)
        weights = 2.0 * np.arange(1, size + 1) - 1.0
        reference = float(
            -size
            - np.sum(weights * (np.log(cdf) + np.log(1.0 - cdf[::-1])))
            / size
        )
        p_value = anderson_darling_p_value(
            corrected_statistic(reference, size)
        )
        result = anderson_darling_test(sample, alpha=alpha)
        assert result.statistic == pytest.approx(reference, rel=1e-12)
        assert result.reject_normality == (p_value < alpha)

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            anderson_darling_statistic([1.0, 2.0])

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError):
            anderson_darling_statistic([1.0] * 10)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            anderson_darling_test([1.0, 2.0, 3.0], alpha=1.5)

    def test_correction_grows_statistic(self):
        assert corrected_statistic(1.0, 10) > 1.0

    def test_p_value_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        sample = rng.normal(0, 1, 80)
        strict = anderson_darling_test(sample, alpha=0.5)
        lax = anderson_darling_test(sample, alpha=0.001)
        # Same p-value; rejection depends on alpha.
        assert strict.p_value == lax.p_value
        if strict.reject_normality:
            assert strict.p_value < 0.5


class TestPrincipalAxisProjection:
    def test_recovers_dominant_direction(self):
        rng = np.random.default_rng(6)
        direction = np.array([1.0, 2.0, -1.0])
        direction /= np.linalg.norm(direction)
        t = rng.normal(0, 3.0, 100)
        points = np.outer(t, direction) + rng.normal(0, 0.01, (100, 3))
        projected = project_to_principal_axis(points)
        # Projection variance should match the generating coordinate.
        assert abs(np.corrcoef(projected, t)[0, 1]) > 0.999

    def test_degenerate_cloud(self):
        points = np.ones((5, 3))
        assert np.allclose(project_to_principal_axis(points), 0.0)


class TestPairedTTest:
    def test_detects_difference(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0.5, 1.0, 200)
        b = a - 0.5 + rng.normal(0, 0.1, 200)
        result = paired_t_test(a, b)
        assert result.significant(0.01)
        assert result.mean_difference > 0

    def test_no_difference(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0, 1, 100)
        b = a + rng.normal(0, 0.5, 100)
        result = paired_t_test(a, b)
        # No systematic shift: p-value should not be tiny.
        assert result.p_value > 0.001

    def test_identical_samples(self):
        a = np.array([1.0, 2.0, 3.0])
        result = paired_t_test(a, a)
        assert result.p_value == 1.0
        assert result.statistic == 0.0

    def test_constant_nonzero_difference(self):
        a = np.array([1.0, 2.0, 3.0])
        result = paired_t_test(a, a - 1.0)
        assert result.p_value == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(9)
        a = rng.normal(0, 1, 50)
        b = rng.normal(0.2, 1, 50)
        ours = paired_t_test(a, b)
        theirs = scipy_stats.ttest_rel(a, b)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-9)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-9)


class TestMetrics:
    def test_rmse_zero_on_equal(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_rmse_known(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_nrmse_normalization(self):
        assert nrmse([9.0, 11.0], [10.0, 10.0]) == pytest.approx(0.1)

    def test_nrmse_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            nrmse([1.0, -1.0], [1.0, -1.0])

    def test_pearson_perfect(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_pearson_constant_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation([1.0, 1.0], [1.0, 2.0])

    def test_spearman_monotone(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.exp(x)  # monotone but nonlinear
        assert spearman_correlation(x, y) == pytest.approx(1.0)

    def test_spearman_with_ties(self):
        x = np.array([1.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 1.0, 2.0, 3.0])
        assert spearman_correlation(x, y) == pytest.approx(1.0)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100),
            min_size=3,
            max_size=20,
        )
    )
    @settings(max_examples=50)
    def test_property_rmse_nonnegative(self, values):
        arr = np.asarray(values)
        other = arr + 1.0
        assert rmse(arr, other) == pytest.approx(1.0)
