"""Dirichlet distribution with maximum-likelihood estimation.

INFLEX selects index points by (1) fitting a Dirichlet to the catalog of
item topic distributions by maximum likelihood, following Minka's
*Estimating a Dirichlet distribution* (2000), (2) sampling a large number
of points from the fitted Dirichlet, and (3) clustering the samples.
This module provides steps (1) and (2).

Both of Minka's estimators are implemented:

* the **fixed-point** iteration (simple, globally convergent), and
* the **generalized Newton** iteration the paper cites, which exploits
  the Hessian's ``diagonal + rank-one`` structure for an exact Newton
  step in ``O(Z)`` per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError, InvalidDistributionError
from repro.rng import resolve_rng
from repro.simplex.special import digamma, trigamma
from repro.simplex.vectors import MACHINE_EPS, as_distribution_matrix, smooth


# The fit runs on scipy-identical ports of digamma and trigamma
# (``repro.simplex.special``), so building an index imports no scipy;
# ``log_pdf`` imports scipy.special when it is called.


def _inverse_digamma(y: np.ndarray, *, iterations: int = 6) -> np.ndarray:
    """Invert the digamma function with Newton's method (Minka, App. C)."""
    y = np.asarray(y, dtype=np.float64)
    x = np.where(y >= -2.22, np.exp(y) + 0.5, -1.0 / (y - digamma(1.0)))
    for _ in range(iterations):
        x = x - (digamma(x) - y) / trigamma(x)
    return x


@dataclass(frozen=True)
class Dirichlet:
    """A Dirichlet distribution over the ``(Z-1)``-simplex.

    Parameters
    ----------
    alpha:
        Concentration parameters, one positive value per topic.
    """

    alpha: np.ndarray = field()

    def __post_init__(self) -> None:
        arr = np.asarray(self.alpha, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidDistributionError(
                f"alpha must be a 1-D vector of length >= 2, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise InvalidDistributionError(
                "alpha entries must be finite and strictly positive"
            )
        object.__setattr__(self, "alpha", arr)

    @property
    def num_topics(self) -> int:
        """Dimensionality ``Z`` of the simplex."""
        return int(self.alpha.size)

    @property
    def concentration(self) -> float:
        """Total concentration ``sum(alpha)``."""
        return float(self.alpha.sum())

    def mean(self) -> np.ndarray:
        """Expected topic distribution ``alpha / sum(alpha)``."""
        return self.alpha / self.alpha.sum()

    def sample(self, num_samples: int, seed=None) -> np.ndarray:
        """Draw ``num_samples`` topic distributions, shape ``(n, Z)``."""
        if num_samples < 0:
            raise ValueError(f"num_samples must be >= 0, got {num_samples}")
        rng = resolve_rng(seed)
        draws = rng.dirichlet(self.alpha, size=num_samples)
        # Guard against exact zeros from the gamma sampler in extreme
        # low-concentration regimes; downstream KL math requires support
        # everywhere.
        return smooth(draws)

    def log_pdf(self, points) -> np.ndarray:
        """Log density of each row of ``points`` under this Dirichlet."""
        pts = smooth(as_distribution_matrix(np.atleast_2d(points)))
        if pts.shape[1] != self.num_topics:
            raise InvalidDistributionError(
                f"points have {pts.shape[1]} topics, expected {self.num_topics}"
            )
        from scipy.special import gammaln

        norm = gammaln(self.alpha.sum()) - gammaln(self.alpha).sum()
        return norm + np.log(pts) @ (self.alpha - 1.0)

    def mean_log_likelihood(self, points) -> float:
        """Average log density over the rows of ``points``."""
        return float(np.mean(self.log_pdf(points)))


def _suff_stats(points: np.ndarray) -> np.ndarray:
    """Mean of ``log(points)`` per topic — the Dirichlet sufficient stats."""
    return np.mean(np.log(points), axis=0)


def _initial_alpha(points: np.ndarray) -> np.ndarray:
    """Moment-matching initialization (Minka, Section 1).

    Matches the first moment and a rough estimate of the total
    concentration from the second moment of the first coordinate.
    """
    mean = points.mean(axis=0)
    second = np.mean(points[:, 0] ** 2)
    denom = second - mean[0] ** 2
    if denom <= 0:
        total = float(points.shape[1])
    else:
        total = (mean[0] - second) / denom
        if not np.isfinite(total) or total <= 0:
            total = float(points.shape[1])
    return np.maximum(mean * total, 1e-3)


def _fit_fixed_point(
    log_means: np.ndarray, alpha: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, int, bool]:
    for iteration in range(1, max_iter + 1):
        new_alpha = _inverse_digamma(digamma(alpha.sum()) + log_means)
        new_alpha = np.maximum(new_alpha, 1e-10)
        if np.max(np.abs(new_alpha - alpha)) < tol:
            return new_alpha, iteration, True
        alpha = new_alpha
    return alpha, max_iter, False


def _fit_newton(
    log_means: np.ndarray, alpha: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, int, bool]:
    """Minka's generalized Newton iteration.

    The Hessian of the Dirichlet log-likelihood w.r.t. ``alpha`` is
    ``diag(q) + c * ones * ones^T`` with ``q_k = -psi'(alpha_k)`` and
    ``c = psi'(sum(alpha))`` (per-observation), which admits an exact
    ``O(Z)`` inverse-vector product via Sherman--Morrison.
    """
    for iteration in range(1, max_iter + 1):
        total = alpha.sum()
        gradient = digamma(total) - digamma(alpha) + log_means
        q = -trigamma(alpha)
        c = trigamma(total)
        b = (gradient / q).sum() / (1.0 / c + (1.0 / q).sum())
        step = (gradient - b) / q
        # Backtrack if the full step would leave the positive orthant.
        scale = 1.0
        new_alpha = alpha - scale * step
        while np.any(new_alpha <= 0.0) and scale > 1e-8:
            scale *= 0.5
            new_alpha = alpha - scale * step
        if np.any(new_alpha <= 0.0):
            new_alpha = np.maximum(alpha - 1e-8 * step, 1e-10)
        if np.max(np.abs(new_alpha - alpha)) < tol:
            return new_alpha, iteration, True
        alpha = new_alpha
    return alpha, max_iter, False


def fit_dirichlet_mle(
    points,
    *,
    method: str = "newton",
    tol: float = 1e-9,
    max_iter: int = 1000,
    strict: bool = False,
) -> Dirichlet:
    """Fit a Dirichlet to topic distributions by maximum likelihood.

    Parameters
    ----------
    points:
        Array-like of shape ``(n, Z)``; each row a topic distribution
        (the item catalog in the paper's setting).
    method:
        ``"newton"`` (Minka's generalized Newton, the paper's choice) or
        ``"fixed-point"`` (Minka's fixed-point iteration).
    tol:
        Convergence threshold on the max absolute change of ``alpha``.
    max_iter:
        Iteration budget.
    strict:
        When ``True``, raise :class:`ConvergenceError` if the budget is
        exhausted; otherwise return the best iterate.

    Returns
    -------
    Dirichlet
        The fitted distribution.
    """
    pts = smooth(as_distribution_matrix(points), eps=MACHINE_EPS)
    if pts.shape[0] < 2:
        raise InvalidDistributionError(
            f"need at least 2 observations to fit a Dirichlet, got {pts.shape[0]}"
        )
    log_means = _suff_stats(pts)
    alpha0 = _initial_alpha(pts)
    if method == "newton":
        alpha, _, converged = _fit_newton(log_means, alpha0, tol, max_iter)
        if not converged:
            # The Newton iteration can oscillate for nearly-degenerate
            # catalogs; fall back to the unconditionally stable
            # fixed-point update before giving up.
            alpha, _, converged = _fit_fixed_point(
                log_means, alpha0, tol, max_iter
            )
    elif method == "fixed-point":
        alpha, _, converged = _fit_fixed_point(log_means, alpha0, tol, max_iter)
    else:
        raise ValueError(
            f"unknown method {method!r}; expected 'newton' or 'fixed-point'"
        )
    if strict and not converged:
        raise ConvergenceError(
            f"Dirichlet MLE did not converge within {max_iter} iterations"
        )
    return Dirichlet(alpha)
