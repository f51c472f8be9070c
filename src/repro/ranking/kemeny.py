"""Kemeny-optimal aggregation: local refinement and a brute-force oracle.

The Kemeny optimal aggregation (Eq. 8) — the ranking minimizing the mean
Kendall-tau distance to the inputs — is NP-hard for four or more lists,
so INFLEX post-processes the fast Borda/Copeland aggregations with
*Local Kemenization* (Dwork et al., WWW 2001): an insertion-sort pass
that bubbles each element up while a (weighted) majority of the input
lists prefers it over its predecessor.  The result is *locally* Kemeny
optimal: no single adjacent transposition can reduce the objective.

A tiny brute-force solver over all permutations of the union is
included as a test oracle.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.ranking.borda import _prepare_lists
from repro.ranking.copeland import pairwise_preference_matrix
from repro.ranking.kendall import mean_kendall_tau_top

#: Objective values of :func:`brute_force_kemeny` closer than this tie.
TIE_TOLERANCE = 1e-12


def local_kemenization(
    initial, rankings, *, weights=None
) -> list[int]:
    """Bubble-up pass making ``initial`` locally Kemeny optimal.

    Starting from the bottom of ``initial``, each element is swapped
    upward while the (weighted) majority of ``rankings`` strictly
    prefers it over its current predecessor.  With unit weights this is
    exactly the procedure of Dwork et al.; with importance weights it
    refines the weighted Borda/Copeland aggregations as described in
    Section 4.2 of the paper.
    """
    ordering = [int(v) for v in initial]
    if len(set(ordering)) != len(ordering):
        raise ValueError(f"initial aggregation contains duplicates: {ordering}")
    matrix, universe = pairwise_preference_matrix(
        rankings, weights=weights, extra_nodes=ordering
    )
    return kemenize(ordering, matrix, universe)


def kemenize(ordering, matrix: np.ndarray, universe: list[int]) -> list[int]:
    """Local Kemenization of ``ordering`` on a precomputed matrix.

    ``(matrix, universe)`` is a
    :func:`~repro.ranking.copeland.pairwise_preference_matrix` whose
    universe covers ``ordering``; an element moves above its
    predecessor iff ``P[below, above] > P[above, below]``.
    """
    position = {node: i for i, node in enumerate(universe)}
    order = kemenize_columns(
        [position[node] for node in ordering], matrix > matrix.T
    )
    return [universe[i] for i in order]


def kemenize_columns(order: list[int], beats: np.ndarray) -> list[int]:
    """:func:`kemenize` on matrix columns: ``order`` lists columns, and
    ``beats[a, b]`` is ``P[a, b] > P[b, a]``.  Returns a new list."""
    order = list(order)
    if len(order) < 2:
        return order
    # The pass moves the element at position s only if it beats the one
    # above it, and moving it changes nothing past s.  So until a move,
    # and again after any position that moved nothing, position s sees
    # the pair it started with: only the starting pairs that would move
    # (and each position right after a move) need a turn.
    flagged = (np.flatnonzero(beats[order[1:], order[:-1]]) + 1).tolist()
    flagged.append(len(order))
    upcoming = iter(flagged)
    start = next(upcoming)
    while start < len(order):
        i = start
        while i > 0 and beats[order[i], order[i - 1]]:
            order[i - 1], order[i] = order[i], order[i - 1]
            i -= 1
        if i < start:
            start += 1
        else:
            passed = start
            start = next(upcoming)
            while start <= passed:
                start = next(upcoming)
    return order


def brute_force_kemeny(
    rankings, *, p: float = 0.5, weights=None, max_universe: int = 8
) -> list[int]:
    """Exact Kemeny-optimal aggregation by permutation enumeration.

    Only usable for unions of at most ``max_universe`` elements —
    intended as a ground-truth oracle in tests.  Ties between optimal
    permutations (objectives within :data:`TIE_TOLERANCE`) break
    lexicographically for determinism.
    """
    lists = _prepare_lists(rankings)
    universe = sorted({node for ranking in lists for node in ranking})
    if len(universe) > max_universe:
        raise ValueError(
            f"union of size {len(universe)} exceeds max_universe="
            f"{max_universe}; brute force would be intractable"
        )
    best_order: list[int] | None = None
    best_value = np.inf
    for candidate in permutations(universe):
        value = mean_kendall_tau_top(
            list(candidate), lists, p=p, weights=weights
        )
        if value < best_value - TIE_TOLERANCE:
            best_value = value
            best_order = list(candidate)
    assert best_order is not None
    return best_order
