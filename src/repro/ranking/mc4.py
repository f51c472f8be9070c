"""MC4: Markov-chain rank aggregation (Dwork et al., WWW 2001).

The paper notes that MC4 generalizes Copeland aggregation.  States are
the union of the ranked items; from state ``v`` a uniformly random
opponent ``v'`` is proposed and the chain moves there iff a (weighted)
majority of the input lists ranks ``v'`` ahead of ``v``.  Items are
ranked by descending stationary probability.  Included as the optional
third aggregator, useful for ablations against Borda/Copeland.
"""

from __future__ import annotations

import numpy as np

from repro.ranking.copeland import pairwise_preference_matrix


def mc4_aggregation(
    rankings,
    k: int | None = None,
    *,
    weights=None,
    damping: float = 0.05,
    max_iter: int = 200,
    tol: float = 1e-12,
) -> list[int]:
    """Aggregate ``rankings`` with the MC4 Markov chain.

    Parameters
    ----------
    rankings:
        Input top lists.
    k:
        Number of items to return (``None`` for the full order).
    weights:
        Optional importance weight per input list (majority votes are
        weighted, mirroring the weighted Copeland construction).
    damping:
        Teleportation mass guaranteeing ergodicity.
    max_iter / tol:
        Power-iteration controls for the stationary distribution.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    ranked = mc4_order(
        *pairwise_preference_matrix(rankings, weights=weights),
        damping=damping,
        max_iter=max_iter,
        tol=tol,
    )
    if k is None:
        return ranked
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return ranked[:k]


def mc4_order(
    matrix: np.ndarray,
    universe: list[int],
    *,
    damping: float = 0.05,
    max_iter: int = 200,
    tol: float = 1e-12,
) -> list[int]:
    """Full MC4 order from a precomputed pairwise-preference matrix.

    ``(matrix, universe)`` is a
    :func:`~repro.ranking.copeland.pairwise_preference_matrix`; the
    chain parameters are those of :func:`mc4_aggregation`.
    """
    u = len(universe)
    if u <= 1:
        return list(universe)
    # Transition: from v, propose v' uniformly among the other u-1
    # items; accept when the majority prefers v'.
    beats = (matrix.T > matrix).astype(np.float64)  # beats[v, v'] = v' wins
    transition = beats / (u - 1)
    stay = 1.0 - transition.sum(axis=1)
    transition[np.arange(u), np.arange(u)] += stay
    transition = (1.0 - damping) * transition + damping / u
    distribution = np.full(u, 1.0 / u)
    for _ in range(max_iter):
        updated = distribution @ transition
        if np.abs(updated - distribution).sum() < tol:
            distribution = updated
            break
        distribution = updated
    order = sorted(
        range(u), key=lambda i: (-distribution[i], universe[i])
    )
    return [universe[i] for i in order]
