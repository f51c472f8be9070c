"""Importance weights and automatic neighbor selection (Section 4.2).

INFLEX weights each retrieved index list by its closeness to the query
item (Eq. 9) and then prunes lists whose contribution would be marginal
with a normalized-weight gap rule.
"""

from __future__ import annotations

import numpy as np

from repro.simplex.kl import kl_max_bound

#: The paper's gap threshold for the automatic selection of neighbors.
DEFAULT_SELECTION_THRESHOLD = 0.005

#: Smoothing used to compute the default empirical KL upper bound.  The
#: paper computes ``KL_max`` between two simplex corners with a
#: machine-epsilon floor; that yields ``KL_max ~ 36`` nats and makes
#: ``exp(KL_max)`` so large that every realistic divergence maps to a
#: weight indistinguishable from 1.  A floor of 0.05 keeps the same
#: construction (corner-to-corner bound, ``KL_max ~ 3`` nats) while
#: giving the weights the dynamic range the selection rule needs to
#: tell close neighbors from marginal ones; the bound is a parameter,
#: so the paper's literal choice remains available.
DEFAULT_BOUND_EPS = 0.05


def importance_weights(
    divergences,
    num_topics: int,
    *,
    kl_max: float | None = None,
    bound_eps: float = DEFAULT_BOUND_EPS,
) -> np.ndarray:
    """Map KL divergences to rank-aggregation weights in ``[0, 1]``.

    Implements the exponential transformation of Eq. 9,

        ``W(d) = (exp(KL_max) - exp(d)) / (exp(KL_max) - 1)``,

    which is 1 at ``d = 0`` and decays to 0 at ``d = KL_max``.  (The
    denominator printed in the paper, ``1 - exp(-KL_max)``, does not
    normalize the range to ``[0, 1]``; the form above is the evident
    intent.)  Divergences above the bound clamp to weight 0.

    Parameters
    ----------
    divergences:
        KL divergences of the index points from the query item.
    num_topics:
        Simplex dimensionality, used to compute the default bound.
    kl_max:
        Explicit upper bound; overrides the corner-to-corner default.
    bound_eps:
        Smoothing floor for the default corner-to-corner bound.
    """
    d = np.asarray(divergences, dtype=np.float64)
    if np.any(d < 0):
        raise ValueError(f"divergences must be non-negative, got min {d.min()}")
    if kl_max is None:
        kl_max = kl_max_bound(num_topics, eps=bound_eps)
    if kl_max <= 0:
        raise ValueError(f"kl_max must be positive, got {kl_max}")
    top = np.exp(kl_max)
    weights = (top - np.exp(np.minimum(d, kl_max))) / (top - 1.0)
    return np.clip(weights, 0.0, 1.0)


def select_neighbors(
    weights,
    *,
    threshold: float = DEFAULT_SELECTION_THRESHOLD,
    min_neighbors: int = 1,
) -> int:
    """Automatic selection: how many of the top-weighted lists to keep.

    The weights are scanned in non-increasing order.  If the first ``t``
    neighbors were equally close to the query, each normalized weight
    would be ``1/t``; the scan stops at the first ``t`` whose normalized
    weight falls short of the equal share by at least ``threshold`` —
    that neighbor (and everything after it) is "marginal" and dropped.
    Returns the number ``t`` of lists to keep (all of them when the gap
    never opens).

    Notes
    -----
    The paper states the stop condition as ``w~_t - 1/t >= 0.005``; since
    ``w~_t`` is the *smallest* normalized weight of the prefix it can
    never exceed ``1/t``, so the inequality is implemented with the
    evidently intended orientation ``1/t - w~_t >= threshold``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"weights must be a non-empty vector, got {w.shape}")
    if np.any(np.diff(w) > 1e-12):
        raise ValueError("weights must be sorted in non-increasing order")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    min_neighbors = max(1, int(min_neighbors))
    running_sum = 0.0
    # Python floats: the same IEEE arithmetic as numpy scalars, cheaper.
    for t, weight in enumerate(w.tolist(), 1):
        running_sum += weight
        if t <= min_neighbors or running_sum <= 0:
            continue
        if (1.0 / t) - weight / running_sum >= threshold:
            return t - 1
    return int(w.size)
