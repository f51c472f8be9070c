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
    rows = (
        rankings
        if isinstance(rankings, np.ndarray)
        else ranking_rows(rankings)
    )
    w = _prepare_weights(weights, rows.shape[0])
    present = rows >= 0
    universe = np.unique(
        np.concatenate(
            [rows[present], np.asarray(extra_nodes, dtype=np.int64)]
        )
    )
    # One (lists x union) rank array.  Absent nodes sit at a sentinel
    # behind every position, so "rank(v) < rank(v')" is exactly the
    # present-beats-absent rule and absent-vs-absent pairs tie.
    columns = np.searchsorted(universe, rows)
    ranks = np.full((rows.shape[0], universe.size), rows.shape[1])
    list_of, position = np.nonzero(present)
    ranks[list_of, columns[list_of, position]] = position
    matrix = np.zeros((universe.size, universe.size))
    # Accumulate list by list, in input order: Copeland's exact
    # P == P.T tie test depends on the summation order.  A list adds
    # its weight only to the rows of the nodes it ranks (row j: every
    # node behind position j); the entries it skips are the ones the
    # full (rank < rank) product would add 0.0 to.
    behind = np.arange(rows.shape[1])[:, np.newaxis]
    for weight, rank, row_columns, length in zip(
        w.tolist(), ranks, columns, present.sum(axis=1).tolist()
    ):
        matrix[row_columns[:length]] += weight * (rank > behind[:length])
    return matrix, universe.tolist()


def _copeland_score_array(matrix: np.ndarray) -> np.ndarray:
    wins = (matrix > matrix.T).sum(axis=1).astype(np.float64)
    ties = ((matrix == matrix.T).sum(axis=1) - 1).astype(np.float64)
    return wins + 0.5 * ties


def copeland_scores(rankings, *, weights=None) -> dict[int, float]:
    """(Weighted) Copeland score of every node in the union.

    Score of ``v``: number of opponents ``v'`` with
    ``P[v, v'] > P[v', v]``, plus half a point per exact pairwise tie
    (the standard Copeland 1/2 convention keeps scores stable under
    list reversal).
    """
    matrix, universe = pairwise_preference_matrix(rankings, weights=weights)
    scores = _copeland_score_array(matrix)
    return {node: float(scores[i]) for i, node in enumerate(universe)}


def copeland_order(matrix: np.ndarray, universe: list[int]) -> list[int]:
    """Full Copeland order from a :func:`pairwise_preference_matrix`.

    Descending score; ties break toward the lower node id (``universe``
    is sorted, so a stable sort keeps tied nodes in id order).
    """
    order = np.argsort(-_copeland_score_array(matrix), kind="stable")
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
