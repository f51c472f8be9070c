"""Copeland rank aggregation (plain and importance-weighted).

Copeland is the majority-tournament method: node ``v`` scores one point
for every opponent ``v'`` that ``v`` beats in a (weighted) majority of
the input lists.  The weighted pairwise matrix follows Algorithm 2 of
the paper: each list contributes its importance weight to ``P[v, v']``
whenever it ranks ``v`` ahead of ``v'``; a node present in a list is
ranked ahead of every node absent from it (the implicit top-``ell``
semantics); lists containing neither node abstain.

:func:`pairwise_preference_matrix` is the one builder of that matrix:
Copeland, MC4 and Local Kemenization all read it, so an aggregation
that chains them (``repro.core.aggregation``) builds it once.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.ranking.borda import _prepare_lists, _prepare_weights


def ranking_rows(rankings) -> np.ndarray:
    """Rankings as one integer array, a row each, padded with -1.

    The form :func:`pairwise_preference_matrix` works on.  A caller
    that aggregates subsets of the same lists many times (the INFLEX
    index, once per query) converts them once and passes rows.
    """
    lists = _prepare_lists(rankings)
    lengths = np.array([len(ranking) for ranking in lists])
    flat = np.fromiter(
        chain.from_iterable(lists), dtype=np.int64, count=lengths.sum()
    )
    if flat.size and flat.min() < 0:
        raise ValueError("node ids must be non-negative")
    rows = np.full((len(lists), lengths.max()), -1, dtype=np.int64)
    rows[np.arange(rows.shape[1]) < lengths[:, np.newaxis]] = flat
    return rows


#: Lists whose weights one subset-sum table adds up (a table of
#: ``2**lists`` sums); any further lists are added one at a time.
_TABLE_LISTS = 12


class RankingTable:
    """Rankings addressed by columns of the sorted union of their nodes.

    Built once from rankings (or their :func:`ranking_rows` array); the
    INFLEX index builds one over its seed lists and aggregates subsets
    of them per query, so a query maps nodes to matrix columns through
    this table instead of sorting its lists' nodes again.

    Attributes
    ----------
    rows:
        The :func:`ranking_rows` array.
    nodes:
        The sorted union of the ranked nodes and ``extra_nodes``.
    columns:
        ``rows`` with each node replaced by its index in ``nodes`` and
        each pad by ``nodes.size`` (a spare column).
    """

    def __init__(self, rankings, *, extra_nodes=()) -> None:
        rows = (
            rankings
            if isinstance(rankings, np.ndarray)
            else ranking_rows(rankings)
        )
        present = rows >= 0
        ranked = rows[present]
        self.rows = rows
        self.nodes = np.unique(
            np.concatenate([ranked, np.asarray(extra_nodes, dtype=np.int64)])
        )
        self.columns = np.full(rows.shape, self.nodes.size, dtype=np.intp)
        self.columns[present] = np.searchsorted(self.nodes, ranked)

    def preferences(
        self, ids=None, weights=None
    ) -> tuple[np.ndarray, list[int]]:
        """The :func:`pairwise_preference_matrix` of rows ``ids`` (all
        rows when ``None``), in that order, over the union of their
        nodes (every node of the table when ``ids`` is ``None``).

        ``weights`` (one per selected row, or ``None`` for unit
        weights) are used as given: finite, non-negative, with a
        positive sum, as :func:`pairwise_preference_matrix` checks.
        """
        if ids is None:
            columns = self.columns
            universe = self.nodes
        else:
            columns = self.columns[ids]
            # Renumber the columns these rows use, in node order; the
            # spare column stays last.
            used = np.zeros(self.nodes.size + 1, dtype=bool)
            used[columns] = True
            used[-1] = False
            universe = self.nodes[used[:-1]]
            renumber = np.cumsum(used) - 1
            renumber[-1] = universe.size
            columns = renumber[columns]
        count, length = columns.shape
        # One (lists x union) rank array.  Absent nodes sit at a
        # sentinel behind every position, so "rank(v) < rank(v')" is
        # exactly the present-beats-absent rule and absent-vs-absent
        # pairs tie; pads land in the spare column, cut off after.
        dtype = np.min_scalar_type(length)
        ranks = np.full((count, universe.size + 1), length, dtype=dtype)
        ranks[np.arange(count)[:, np.newaxis], columns] = np.arange(
            length, dtype=dtype
        )
        ranks = ranks[:, :-1]
        w = (
            [1.0] * count
            if weights is None
            else np.asarray(weights, dtype=np.float64).tolist()
        )
        return _weighted_preferences(ranks, w), universe.tolist()


def _weighted_preferences(ranks: np.ndarray, weights: list[float]) -> np.ndarray:
    """``P[a, b]``: the weights of the lists with ``rank[a] < rank[b]``,
    added list by list in input order.

    Copeland's exact ``P == P.T`` tie test depends on that order.  An
    entry's value is the in-order sum over the subset of lists that
    prefer ``a``, so the first lists are read as one subset code per
    entry (bit ``i``: list ``i`` prefers) and looked up in a table of
    every subset's in-order sum; lists past the table are added one at a
    time.
    """
    head = min(len(weights), _TABLE_LISTS)
    prefers = ranks[:head, :, np.newaxis] < ranks[:head, np.newaxis, :]
    bits = np.left_shift(1, np.arange(head, dtype=np.uint16))
    code = (prefers.view(np.uint8) * bits[:, np.newaxis, np.newaxis]).sum(
        axis=0, dtype=np.uint16
    )
    # sums[m] adds the weights of the set bits of m, lowest bit first.
    sums = np.zeros(1 << head)
    for bit, weight in enumerate(weights[:head]):
        sums[1 << bit : 2 << bit] = sums[: 1 << bit] + weight
    matrix = sums.take(code)
    for weight, rank in zip(weights[head:], ranks[head:]):
        np.add(
            matrix,
            weight,
            out=matrix,
            where=rank[:, np.newaxis] < rank[np.newaxis, :],
        )
    return matrix


def pairwise_preference_matrix(
    rankings, *, weights=None, extra_nodes=()
) -> tuple[np.ndarray, list[int]]:
    """Weighted pairwise-preference matrix over the union of the lists.

    Returns ``(P, universe)`` where ``universe`` is the sorted union and
    ``P[a, b]`` is the total weight of lists preferring
    ``universe[a]`` over ``universe[b]``.  ``extra_nodes`` joins the
    universe as nodes no list ranks (every list abstains between two of
    them and prefers any node it ranks over them).  ``rankings`` is a
    sequence of rankings or their :func:`ranking_rows` array.
    """
    table = RankingTable(rankings, extra_nodes=extra_nodes)
    w = _prepare_weights(weights, table.rows.shape[0])
    return table.preferences(weights=w)


def preference_outcomes(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(P > P.T, P == P.T)``: who beats whom, and the exact ties —
    all Copeland and Local Kemenization read of the matrix."""
    transposed = matrix.T
    return matrix > transposed, matrix == transposed


def _scores(beats: np.ndarray, ties: np.ndarray) -> np.ndarray:
    # A win scores 1, an exact tie with another node 1/2.
    return beats.sum(axis=1) + 0.5 * (ties.sum(axis=1) - 1)


def copeland_columns(beats: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """Matrix columns in Copeland order, from :func:`preference_outcomes`:
    descending score, tied scores in column (node id) order."""
    return np.argsort(-_scores(beats, ties), kind="stable")


def copeland_scores(rankings, *, weights=None) -> dict[int, float]:
    """(Weighted) Copeland score of every node in the union.

    Score of ``v``: number of opponents ``v'`` with
    ``P[v, v'] > P[v', v]``, plus half a point per exact pairwise tie
    (the standard Copeland 1/2 convention keeps scores stable under
    list reversal).
    """
    matrix, universe = pairwise_preference_matrix(rankings, weights=weights)
    scores = _scores(*preference_outcomes(matrix))
    return {node: float(scores[i]) for i, node in enumerate(universe)}


def copeland_order(matrix: np.ndarray, universe: list[int]) -> list[int]:
    """Full Copeland order from a :func:`pairwise_preference_matrix`.

    Descending score; ties break toward the lower node id (``universe``
    is sorted, so a stable sort keeps tied nodes in id order).
    """
    order = copeland_columns(*preference_outcomes(matrix))
    return [universe[i] for i in order.tolist()]


def copeland_aggregation(
    rankings, k: int | None = None, *, weights=None
) -> list[int]:
    """Aggregate ``rankings`` by (weighted) Copeland; return the top ``k``.

    Ties break toward the lower node id.  ``k`` of ``None`` returns the
    full aggregated order over the union.
    """
    ordered = copeland_order(
        *pairwise_preference_matrix(rankings, weights=weights)
    )
    if k is None:
        return ordered
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return ordered[:k]
