"""Kullback--Leibler divergence between topic distributions.

INFLEX measures item dissimilarity with the *right-sided* KL divergence
``D_KL(gamma_i || gamma_q)`` — the query item is the second argument —
because that form penalizes the difference over *all* components of the
candidate item rather than only the query's highest mode (Section 3 of
the paper, citing Nielsen & Nock).

All functions smooth their inputs with a machine-epsilon floor so that
zero probabilities never produce infinities, matching the paper's
treatment in the importance-weighting formula (Eq. 9).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.simplex.vectors import MACHINE_EPS, smooth


def kl_divergence(p, q, *, eps: float = MACHINE_EPS) -> float:
    """Return ``D_KL(p || q)`` in nats for two discrete distributions.

    ``p`` and ``q`` must have the same length.  Inputs are smoothed with
    an ``eps`` floor and renormalized before the computation.
    """
    p_arr = smooth(np.asarray(p, dtype=np.float64), eps=eps)
    q_arr = smooth(np.asarray(q, dtype=np.float64), eps=eps)
    if p_arr.shape != q_arr.shape:
        raise ValueError(
            f"shape mismatch: {p_arr.shape} vs {q_arr.shape}"
        )
    return float(np.sum(p_arr * (np.log(p_arr) - np.log(q_arr))))


def kl_divergence_matrix(points, q, *, eps: float = MACHINE_EPS) -> np.ndarray:
    """Return ``D_KL(points[i] || q)`` for every row of ``points``.

    Vectorized form used on bb-tree leaves, where the divergence of the
    query from every stored index point is needed at once.
    """
    pts = smooth(np.atleast_2d(np.asarray(points, dtype=np.float64)), eps=eps)
    q_arr = smooth(np.asarray(q, dtype=np.float64), eps=eps)
    if pts.shape[1] != q_arr.shape[0]:
        raise ValueError(
            f"dimension mismatch: points have {pts.shape[1]} topics, "
            f"query has {q_arr.shape[0]}"
        )
    return np.sum(pts * (np.log(pts) - np.log(q_arr)[np.newaxis, :]), axis=1)


def symmetrized_kl(p, q, *, eps: float = MACHINE_EPS) -> float:
    """Return the Jeffreys symmetrization ``(KL(p||q) + KL(q||p)) / 2``."""
    return 0.5 * (kl_divergence(p, q, eps=eps) + kl_divergence(q, p, eps=eps))


@functools.lru_cache(maxsize=64)
def kl_max_bound(num_topics: int, *, eps: float = MACHINE_EPS) -> float:
    """Empirical upper bound of the KL divergence on the simplex.

    Following the paper, this is the divergence between two *corners* of
    the ``(Z-1)``-simplex after machine-epsilon smoothing.  It is the
    normalization constant ``KL_max`` in the importance-weighting
    function (Eq. 9).  A constant of its arguments, computed once per
    pair (every query's weights need it).
    """
    if num_topics < 2:
        raise ValueError(f"need at least 2 topics, got {num_topics}")
    corner_a = np.zeros(num_topics)
    corner_a[0] = 1.0
    corner_b = np.zeros(num_topics)
    corner_b[1] = 1.0
    return kl_divergence(corner_a, corner_b, eps=eps)
