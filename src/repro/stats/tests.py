"""Hypothesis tests used in the paper's evaluation.

Section 5 compares methods with *paired t-tests* (e.g., leaf-by-leaf
retrieval against Anderson--Darling early stopping, Copeland^w against
the other aggregators).  This module provides a small, dependency-light
implementation returning effect direction alongside the p-value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PairedTTestResult:
    """Outcome of a paired t-test on two matched samples.

    Attributes
    ----------
    statistic:
        The t statistic of the mean difference ``a - b``.
    p_value:
        Two-sided p-value (use :attr:`p_value_one_sided` for the
        directional test).
    mean_difference:
        Average of ``a - b``; positive means ``a`` tends to exceed ``b``.
    degrees_of_freedom:
        ``n - 1`` for ``n`` pairs.
    """

    statistic: float
    p_value: float
    mean_difference: float
    degrees_of_freedom: int

    @property
    def p_value_one_sided(self) -> float:
        """p-value for the one-sided alternative matching the sign of
        :attr:`mean_difference`."""
        return self.p_value / 2.0

    def significant(self, alpha: float = 0.05) -> bool:
        """``True`` when the two-sided p-value is below ``alpha``."""
        return self.p_value < alpha


def paired_t_test(a, b) -> PairedTTestResult:
    """Paired t-test of matched samples ``a`` and ``b``.

    Raises
    ------
    ValueError
        On length mismatch or fewer than 2 pairs.
    """
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if a_arr.shape != b_arr.shape or a_arr.ndim != 1:
        raise ValueError(
            f"paired samples must be 1-D and equal length, got "
            f"{a_arr.shape} and {b_arr.shape}"
        )
    n = a_arr.size
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    diff = a_arr - b_arr
    mean = diff.mean()
    std = diff.std(ddof=1)
    if std == 0.0:
        # Identical pairs: no evidence of a difference (or infinite
        # evidence if the constant difference is nonzero).
        statistic = 0.0 if mean == 0.0 else np.inf * np.sign(mean)
        p_value = 1.0 if mean == 0.0 else 0.0
        return PairedTTestResult(float(statistic), p_value, float(mean), n - 1)
    # Deferred: scipy.stats costs a build or a server start most of a
    # second to import, and only the experiments call this function.
    from scipy.stats import t as student_t

    statistic = mean / (std / np.sqrt(n))
    p_value = 2.0 * student_t.sf(abs(statistic), df=n - 1)
    return PairedTTestResult(
        float(statistic), float(p_value), float(mean), n - 1
    )
