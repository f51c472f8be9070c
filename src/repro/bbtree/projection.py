"""Bregman projection onto a Bregman ball (Cayton's bisection).

Search-time pruning (Eq. 5 of the paper) needs the minimum divergence
from any point of a ball ``B(mu, R) = {x : d_f(x, mu) <= R}`` to the
query ``q``:

    ``min_{x in B} d_f(x, q)``.

Cayton (ICML 2008) showed the minimizer lies on the *dual geodesic*
between the query and the ball center,

    ``x_lambda = grad_f_inverse((1 - lambda) grad_f(q) + lambda grad_f(mu))``,

along which ``d_f(x_lambda, mu)`` decreases and ``d_f(x_lambda, q)``
increases monotonically in ``lambda``.  Bisection on
``d_f(x_lambda, mu) = R`` finds the boundary projection; primal/dual
evaluations on the current bracket give upper and lower bounds that let
a *pruning decision* stop long before full convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.divergence.base import BregmanDivergence, PreparedPoint


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of projecting a query onto a Bregman ball.

    Attributes
    ----------
    min_divergence:
        (Approximate) minimum of ``d_f(x, q)`` over the ball.
    iterations:
        Bisection iterations performed.
    inside:
        ``True`` when the query itself lies inside the ball (the
        minimum is 0 and no bisection is needed).
    """

    min_divergence: float
    iterations: int
    inside: bool


def project_to_ball(
    divergence: BregmanDivergence,
    center: np.ndarray,
    radius: float,
    query: np.ndarray,
    *,
    tol: float = 1e-6,
    max_iter: int = 64,
) -> ProjectionResult:
    """Minimum divergence ``min_{x in B(center, radius)} d_f(x, query)``.

    Runs the bisection to ``tol`` on the radius equation.  The returned
    value is evaluated at the final *inside* iterate, so it is a valid
    upper bound of the true minimum that converges to it.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if divergence.divergence(query, center) <= radius:
        return ProjectionResult(0.0, 0, True)
    theta_query = divergence.gradient(
        divergence._prepare(np.asarray(query, dtype=np.float64))[np.newaxis, :]
    )[0]
    theta_center = divergence.gradient(
        divergence._prepare(np.asarray(center, dtype=np.float64))[np.newaxis, :]
    )[0]

    def point_at(lam: float) -> np.ndarray:
        theta = (1.0 - lam) * theta_query + lam * theta_center
        return divergence.gradient_inverse(theta[np.newaxis, :])[0]

    low, high = 0.0, 1.0  # x_low outside the ball, x_high inside
    iterations = 0
    best_inside_point = np.asarray(center, dtype=np.float64)
    for iterations in range(1, max_iter + 1):
        mid = 0.5 * (low + high)
        candidate = point_at(mid)
        to_center = divergence.divergence(candidate, center)
        if to_center <= radius:
            high = mid
            best_inside_point = candidate
        else:
            low = mid
        if high - low < tol:
            break
    return ProjectionResult(
        min_divergence=float(
            divergence.divergence(best_inside_point, query)
        ),
        iterations=iterations,
        inside=False,
    )


def can_prune(
    divergence: BregmanDivergence,
    center,
    radius: float,
    query,
    threshold: float,
    *,
    tol: float = 1e-4,
    max_iter: int = 32,
) -> bool:
    """Decide Eq. 5: is ``min_{x in B} d_f(x, q) >= threshold``?

    Early-exit variant of :func:`project_to_ball` for the search loop:

    * if any inside iterate is already closer than ``threshold`` the
      ball *might* contain an improving point — answer ``False``
      immediately (the upper bound dropped below the threshold);
    * if the bracket converges with the boundary divergence at or above
      ``threshold``, the subtree is safely prunable.

    ``center`` and ``query`` are points or their
    :meth:`~repro.divergence.base.BregmanDivergence.prepare_point`
    forms; a search passes the prepared ones it keeps, and the decision
    is the same either way.
    """
    if threshold <= 0:
        return False
    if not isinstance(center, PreparedPoint):
        center = divergence.prepare_point(center)
    if not isinstance(query, PreparedPoint):
        query = divergence.prepare_point(query)
    if (
        divergence.prepared_divergence(query.point, query.generator, center)
        <= radius
    ):
        return False

    def point_at(lam: float) -> tuple[np.ndarray, float]:
        theta = (1.0 - lam) * query.gradient + lam * center.gradient
        x = divergence._prepare(
            divergence.gradient_inverse(theta[np.newaxis, :])[0]
        )
        return x, float(divergence.generator(x[np.newaxis, :])[0])

    # The center itself is the innermost candidate: if even the center
    # is closer than the threshold, no pruning.
    if (
        divergence.prepared_divergence(center.point, center.generator, query)
        < threshold
    ):
        return False
    low, high = 0.0, 1.0
    for _ in range(max_iter):
        mid = 0.5 * (low + high)
        candidate = point_at(mid)
        if divergence.prepared_divergence(*candidate, center) <= radius:
            high = mid
            # Inside the ball: its divergence to q upper-bounds the min.
            if divergence.prepared_divergence(*candidate, query) < threshold:
                return False
        else:
            low = mid
        if high - low < tol:
            break
    boundary = point_at(high)
    return bool(divergence.prepared_divergence(*boundary, query) >= threshold)
