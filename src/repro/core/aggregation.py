"""Seed-list aggregation used by every index-backed query strategy.

Thin orchestration over :mod:`repro.ranking`: pick the aggregator
(Borda / Copeland / MC4), apply importance weights, optionally refine
with Local Kemenization, and cut the result to the requested ``k``.
Copeland, MC4 and Local Kemenization all read one weighted
pairwise-preference matrix, built once per aggregation from the lists
as one padded integer array (:func:`~repro.ranking.copeland.ranking_rows`).
"""

from __future__ import annotations

import numpy as np

from repro.im.seed_list import SeedList
from repro.ranking.borda import borda_aggregation
from repro.ranking.copeland import (
    copeland_order,
    pairwise_preference_matrix,
    ranking_rows,
)
from repro.ranking.kemeny import kemenize
from repro.ranking.mc4 import mc4_order

# Aggregators reading the pairwise-preference matrix.
_MATRIX_AGGREGATORS = {"copeland": copeland_order, "mc4": mc4_order}
_AGGREGATORS = ("borda", *_MATRIX_AGGREGATORS)


def aggregate_seed_lists(
    seed_lists,
    k: int,
    *,
    aggregator: str = "copeland",
    weights=None,
    apply_local_kemenization: bool = True,
) -> SeedList:
    """Combine precomputed seed lists into one ranked answer list.

    Parameters
    ----------
    seed_lists:
        The retrieved neighbors' :class:`~repro.im.seed_list.SeedList`
        objects (or plain sequences of node ids), or the same lists as
        a :func:`~repro.ranking.copeland.ranking_rows` array.
    k:
        Requested answer length; the returned list is the top ``k`` of
        the aggregation (shorter if the union has fewer than ``k``
        nodes — by retrieving more index points a caller can always
        satisfy larger ``k``, as the paper notes in Section 2).
    aggregator:
        ``"copeland"`` (paper's best), ``"borda"`` or ``"mc4"``.
    weights:
        Importance weight per input list; ``None`` for the unweighted
        variants.
    apply_local_kemenization:
        Run the Local Kemenization refinement pass over the aggregated
        order before cutting to ``k`` (weights, when given, carry into
        the majority votes, per Section 4.2).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = seed_lists
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
        if rows:
            rows = ranking_rows(rows)
    if len(rows) == 0:
        raise ValueError("no seed lists to aggregate")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    if aggregator not in _AGGREGATORS:
        raise ValueError(
            f"unknown aggregator {aggregator!r}; "
            f"expected one of {sorted(_AGGREGATORS)}"
        )
    if rows.shape[0] == 1:
        ranked = [node for node in rows[0].tolist() if node >= 0]
    else:
        if aggregator != "borda" or apply_local_kemenization:
            matrix, universe = pairwise_preference_matrix(
                rows, weights=weights
            )
        if aggregator == "borda":
            lists = [row[row >= 0] for row in rows]
            ranked = borda_aggregation(lists, None, weights=weights)
        else:
            ranked = _MATRIX_AGGREGATORS[aggregator](matrix, universe)
        if apply_local_kemenization:
            ranked = kemenize(ranked, matrix, universe)
    return SeedList(
        tuple(ranked[:k]), (), algorithm=f"aggregation:{aggregator}"
    )
