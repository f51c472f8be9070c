"""Anderson--Darling normality test (mean and variance unknown).

INFLEX uses this test in two places:

* while *building* the bb-tree, G-means style, to decide whether a node's
  population should be split further (learning the branching factor), and
* while *searching*, as the early-stopping criterion: if the query item
  together with the points of the current leaf is "compatible with a
  normal distribution" after a one-dimensional projection, the leaf
  population is declared similar enough and the search stops.

The implementation follows the classic case-4 recipe (both parameters
estimated from the sample): standardize with the sample mean and
standard deviation, compute

    A^2 = -n - (1/n) sum_i (2i - 1) [ln F(y_i) + ln(1 - F(y_{n+1-i}))]

and apply D'Agostino's small-sample correction
``A*^2 = A^2 (1 + 0.75/n + 2.25/n^2)``.  The p-value uses D'Agostino &
Stephens' piecewise-exponential approximation, so any significance level
can be tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: D'Agostino critical values for the corrected statistic ``A*^2``.
#: The 1.8692 entry at alpha = 1e-4 is the value the G-means paper uses.
CRITICAL_VALUES = {
    0.10: 0.631,
    0.05: 0.752,
    0.025: 0.873,
    0.01: 1.035,
    0.005: 1.159,
    0.0001: 1.8692,
}


@dataclass(frozen=True)
class AndersonDarlingResult:
    """Outcome of an Anderson--Darling normality test.

    Attributes
    ----------
    statistic:
        The raw ``A^2`` statistic.
    corrected_statistic:
        ``A*^2`` after D'Agostino's finite-sample correction.
    p_value:
        Approximate p-value for the null hypothesis of normality.
    alpha:
        Significance level the test was run at.
    reject_normality:
        ``True`` when the null (the sample is normal) is rejected.
    sample_size:
        Number of observations tested.
    """

    statistic: float
    corrected_statistic: float
    p_value: float
    alpha: float
    reject_normality: bool
    sample_size: int

    @property
    def is_normal(self) -> bool:
        """Convenience inverse of :attr:`reject_normality`."""
        return not self.reject_normality


def anderson_darling_statistic(sample) -> float:
    """Return the raw ``A^2`` statistic for ``sample`` (case 4).

    Raises
    ------
    ValueError
        If fewer than 3 observations are supplied or the sample is
        (numerically) constant, in which case the statistic is undefined.
    """
    data = np.sort(np.asarray(sample, dtype=np.float64))
    n = data.size
    if n < 3:
        raise ValueError(f"Anderson-Darling needs >= 3 observations, got {n}")
    mean = data.mean()
    std = data.std(ddof=1)
    if std <= 0 or not np.isfinite(std):
        raise ValueError("sample is constant; normality test undefined")
    standardized = (data - mean) / std
    # The normal CDF as erfc(-x / sqrt 2) / 2, with math.erfc: scipy's
    # ndtr gives the same decisions but costs every query path the
    # import of scipy.special.
    cdf = 0.5 * np.array(
        [math.erfc(-x / math.sqrt(2.0)) for x in standardized.tolist()]
    )
    # Clip away exact 0/1 so the logs stay finite for extreme outliers.
    cdf = np.clip(cdf, 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    weights = 2.0 * i - 1.0
    a_squared = -n - np.sum(weights * (np.log(cdf) + np.log(1.0 - cdf[::-1]))) / n
    return float(a_squared)


def corrected_statistic(a_squared: float, n: int) -> float:
    """Apply D'Agostino's correction ``A*^2 = A^2 (1 + 0.75/n + 2.25/n^2)``."""
    return a_squared * (1.0 + 0.75 / n + 2.25 / (n * n))


def anderson_darling_p_value(corrected: float) -> float:
    """D'Agostino & Stephens approximation of the p-value from ``A*^2``."""
    a = corrected
    if a < 0.2:
        p = 1.0 - np.exp(-13.436 + 101.14 * a - 223.73 * a * a)
    elif a < 0.34:
        p = 1.0 - np.exp(-8.318 + 42.796 * a - 59.938 * a * a)
    elif a < 0.6:
        p = np.exp(0.9177 - 4.279 * a - 1.38 * a * a)
    else:
        p = np.exp(1.2937 - 5.709 * a + 0.0186 * a * a)
    return float(min(max(p, 0.0), 1.0))


def anderson_darling_test(sample, *, alpha: float = 0.05) -> AndersonDarlingResult:
    """Test the null hypothesis that ``sample`` is normally distributed.

    Parameters
    ----------
    sample:
        1-D array-like with at least 3 non-constant observations.
    alpha:
        Significance level; the null is rejected when the p-value falls
        below it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    data = np.asarray(sample, dtype=np.float64)
    a_squared = anderson_darling_statistic(data)
    corrected = corrected_statistic(a_squared, data.size)
    p_value = anderson_darling_p_value(corrected)
    return AndersonDarlingResult(
        statistic=a_squared,
        corrected_statistic=corrected,
        p_value=p_value,
        alpha=alpha,
        reject_normality=p_value < alpha,
        sample_size=int(data.size),
    )


def project_to_principal_axis(points) -> np.ndarray:
    """Project multivariate points onto their first principal component.

    Both G-means and INFLEX's ``similar_enough`` check are one-
    dimensional tests: the points under scrutiny are projected onto a
    single informative direction first.  We use the leading right
    singular vector of the centered point cloud, which is the standard
    G-means choice when a split direction is not otherwise available.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centered = pts - pts.mean(axis=0, keepdims=True)
    if (np.abs(centered) <= 1e-8).all():
        return np.zeros(pts.shape[0])
    # SVD of an (n, d) matrix with small d is cheap and stable.
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[0]
