"""Borda rank aggregation (plain and importance-weighted).

Borda is the positional method: in each input list, a node earns a
score decreasing in its rank; scores are summed across lists (each list
scaled by its importance weight), and the aggregation is the descending
score order.  For top-``ell`` lists the paper's weighted score of a node
present in list ``i`` at rank ``tau_i(v)`` (1-based) is
``w_i * (ell - tau_i(v) + 1)``; absent nodes contribute nothing to that
list's term.  Borda is a factor-5 approximation of the optimal Kemeny
aggregation (Coppersmith et al.).
"""

from __future__ import annotations

import numpy as np


def _prepare_lists(rankings) -> list[list[int]]:
    lists = [[int(v) for v in ranking] for ranking in rankings]
    if not lists:
        raise ValueError("need at least one ranking to aggregate")
    for ranking in lists:
        if len(set(ranking)) != len(ranking):
            raise ValueError(f"ranking contains duplicates: {ranking}")
    return lists


def _prepare_weights(weights, count: int) -> np.ndarray:
    if weights is None:
        return np.ones(count)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (count,):
        raise ValueError(f"expected {count} weights, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if w.sum() <= 0:
        raise ValueError("weights must have a positive sum")
    return w


def borda_scores(rankings, *, weights=None, ell: int | None = None) -> dict[int, float]:
    """Weighted Borda scores for every node in the union of ``rankings``.

    ``ell`` is the nominal list length used in the positional formula;
    it defaults to the longest input list (all the paper's index lists
    share one length, the precomputed seed budget).
    """
    lists = _prepare_lists(rankings)
    w = _prepare_weights(weights, len(lists))
    if ell is None:
        ell = max(len(ranking) for ranking in lists)
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    scores: dict[int, float] = {}
    for weight, ranking in zip(w, lists):
        for position, node in enumerate(ranking):
            scores[node] = scores.get(node, 0.0) + weight * (ell - position)
    return scores


def borda_aggregation(
    rankings, k: int | None = None, *, weights=None, ell: int | None = None
) -> list[int]:
    """Aggregate ``rankings`` by (weighted) Borda; return the top ``k``.

    Ties break toward the lower node id for determinism.  ``k`` of
    ``None`` returns the full aggregated order over the union.
    """
    scores = borda_scores(rankings, weights=weights, ell=ell)
    ordered = sorted(scores, key=lambda node: (-scores[node], node))
    if k is None:
        return ordered
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return ordered[:k]
