"""Seed-list aggregation used by every index-backed query strategy.

Thin orchestration over :mod:`repro.ranking`: pick the aggregator
(Borda / Copeland / MC4), apply importance weights, optionally refine
with Local Kemenization, and cut the result to the requested ``k``.
Copeland, MC4 and Local Kemenization all read one weighted
pairwise-preference matrix, built once per aggregation from the lists'
:class:`~repro.ranking.copeland.RankingTable`, and Copeland and Local
Kemenization share one comparison of it with its transpose.
"""

from __future__ import annotations

import numpy as np

from repro.im.seed_list import SeedList
from repro.ranking.borda import _prepare_weights, borda_aggregation
from repro.ranking.copeland import (
    RankingTable,
    copeland_columns,
    preference_outcomes,
    ranking_rows,
)
from repro.ranking.kemeny import kemenize_columns
from repro.ranking.mc4 import mc4_order

_AGGREGATORS = ("borda", "copeland", "mc4")


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
    if aggregator not in _AGGREGATORS:
        raise ValueError(
            f"unknown aggregator {aggregator!r}; "
            f"expected one of {sorted(_AGGREGATORS)}"
        )
    if weights is not None and rows.shape[0] > 1:
        weights = _prepare_weights(weights, rows.shape[0])
    ranked = aggregate_rankings(
        RankingTable(rows),
        None,
        k,
        aggregator=aggregator,
        weights=weights,
        apply_local_kemenization=apply_local_kemenization,
    )
    return SeedList(tuple(ranked), (), algorithm=f"aggregation:{aggregator}")


def aggregate_rankings(
    table: RankingTable,
    ids,
    k: int,
    *,
    aggregator: str,
    weights,
    apply_local_kemenization: bool,
) -> list[int]:
    """The top ``k`` of aggregating rows ``ids`` of ``table`` (all rows
    when ``None``), as :func:`aggregate_seed_lists` ranks them.

    The arguments are used as given: ``aggregator`` is ``"borda"``,
    ``"copeland"`` or ``"mc4"``, and ``weights`` (one per row, or
    ``None``) are finite and non-negative with a positive sum — the
    INFLEX index calls this with the weights it computed itself.
    """
    rows = table.rows if ids is None else table.rows[ids]
    if rows.shape[0] == 1:
        return [node for node in rows[0].tolist() if node >= 0][:k]
    if aggregator == "borda":
        ranked = borda_aggregation(
            [row[row >= 0] for row in rows], None, weights=weights
        )
        if not apply_local_kemenization:
            return ranked[:k]
    matrix, universe = table.preferences(ids, weights)
    if aggregator == "copeland":
        beats, ties = preference_outcomes(matrix)
        order = copeland_columns(beats, ties).tolist()
    else:
        if aggregator == "mc4":
            ranked = mc4_order(matrix, universe)
        if not apply_local_kemenization:
            return ranked[:k]
        position = {node: i for i, node in enumerate(universe)}
        order = [position[node] for node in ranked]
        beats = matrix > matrix.T
    if apply_local_kemenization:
        order = kemenize_columns(order, beats)
    return [universe[i] for i in order[:k]]
