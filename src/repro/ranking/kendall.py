"""Kendall-tau distances: full rankings and Fagin's top-ell extension.

The paper measures seed-list similarity with the Kendall-tau distance.
Seed lists are *top-ell* rankings (only the best ``ell`` of ``|V|``
nodes appear), so Eq. 7 uses Fagin, Kumar & Sivakumar's extension
``K^(p)`` with four penalty cases and a neutral tie parameter
``p = 0.5``.  Both distances are normalized to ``[0, 1]`` by the
maximum possible number of (weighted) disagreements: ``n(n-1)/2`` for
full lists and ``l1*l2 + (C(l1,2) + C(l2,2)) p`` for top lists (which
reduces to the paper's ``ell^2 + ell(ell-1) p`` for equal lengths).
"""

from __future__ import annotations

import numpy as np

#: The paper's neutral penalty for case-4 pairs (both items missing from
#: one of the lists).
DEFAULT_PENALTY = 0.5


def _as_ranking(ranking) -> list[int]:
    """Normalize a ranking input (SeedList or iterable) to an id list."""
    nodes = [int(v) for v in ranking]
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"ranking contains duplicates: {nodes}")
    return nodes


def kendall_tau_full(ranking_a, ranking_b, *, normalized: bool = True) -> float:
    """Kendall-tau distance between two *full* rankings (Eq. 6).

    Both rankings must be permutations of the same set of items.
    """
    a = _as_ranking(ranking_a)
    b = _as_ranking(ranking_b)
    if set(a) != set(b):
        raise ValueError("full rankings must cover the same items")
    n = len(a)
    if n < 2:
        return 0.0
    rank_b = {item: pos for pos, item in enumerate(b)}
    # Count inversions of b's ranks read in a's order.
    sequence = [rank_b[item] for item in a]
    inversions = _count_inversions(sequence)
    if not normalized:
        return float(inversions)
    return inversions / (n * (n - 1) / 2)


def _count_inversions(sequence: list[int]) -> int:
    """Merge-sort inversion count, O(n log n)."""

    def sort(values: list[int]) -> tuple[list[int], int]:
        if len(values) <= 1:
            return values, 0
        mid = len(values) // 2
        left, inv_left = sort(values[:mid])
        right, inv_right = sort(values[mid:])
        merged: list[int] = []
        inversions = inv_left + inv_right
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
                inversions += len(left) - i
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged, inversions

    _, count = sort(list(sequence))
    return count


def kendall_tau_top(
    ranking_a,
    ranking_b,
    *,
    p: float = DEFAULT_PENALTY,
    normalized: bool = True,
) -> float:
    """Fagin's ``K^(p)`` distance between two top lists (Eq. 7).

    Penalty cases over every unordered pair of the union:

    1. both items in both lists — 1 if ordered oppositely, else 0;
    2. both in one list, one of them in the other — 0 if the list
       containing both agrees with the implicit order of the other
       (present item ahead of absent), else 1;
    3. each item in exactly one (different) list — 1 (certain
       disagreement);
    4. both items in only one of the lists — the neutral penalty ``p``.

    Implementation: absent items get a sentinel rank one past the end of
    each list; signed rank-difference products then encode cases 1-3,
    and zero differences (both absent from the same list) mark case 4.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"penalty p must be in [0, 1], got {p}")
    a = _as_ranking(ranking_a)
    b = _as_ranking(ranking_b)
    union = sorted(set(a) | set(b))
    u = len(union)
    if u < 2:
        return 0.0
    sentinel_a = len(a)
    sentinel_b = len(b)
    pos_a = {item: pos for pos, item in enumerate(a)}
    pos_b = {item: pos for pos, item in enumerate(b)}
    ranks_a = np.array(
        [pos_a.get(item, sentinel_a) for item in union], dtype=np.float64
    )
    ranks_b = np.array(
        [pos_b.get(item, sentinel_b) for item in union], dtype=np.float64
    )
    diff_a = np.sign(ranks_a[:, np.newaxis] - ranks_a[np.newaxis, :])
    diff_b = np.sign(ranks_b[:, np.newaxis] - ranks_b[np.newaxis, :])
    opposite = (diff_a * diff_b) < 0
    tied = (diff_a == 0) | (diff_b == 0)
    penalty_matrix = opposite.astype(np.float64) + p * tied
    np.fill_diagonal(penalty_matrix, 0.0)
    total = penalty_matrix.sum() / 2.0  # each unordered pair counted twice
    if not normalized:
        return float(total)
    len_a, len_b = len(a), len(b)
    max_disagreements = (
        len_a * len_b
        + p * (len_a * (len_a - 1) / 2 + len_b * (len_b - 1) / 2)
    )
    if max_disagreements == 0:
        return 0.0
    return float(total / max_disagreements)


def mean_kendall_tau_top(
    candidate,
    rankings,
    *,
    p: float = DEFAULT_PENALTY,
    weights=None,
) -> float:
    """(Weighted) mean top-list distance of ``candidate`` to ``rankings``.

    This is the objective of the Kemeny optimal aggregation problem
    (Eq. 8); Local Kemenization greedily reduces it.
    """
    lists = list(rankings)
    if not lists:
        raise ValueError("need at least one ranking to compare against")
    if weights is None:
        weight_values = np.ones(len(lists))
    else:
        weight_values = np.asarray(weights, dtype=np.float64)
        if weight_values.shape[0] != len(lists):
            raise ValueError(
                f"{weight_values.shape[0]} weights for {len(lists)} rankings"
            )
        if np.any(weight_values < 0):
            raise ValueError("weights must be non-negative")
    total_weight = weight_values.sum()
    if total_weight <= 0:
        raise ValueError("weights must have a positive sum")
    distances = np.array(
        [kendall_tau_top(candidate, ranking, p=p) for ranking in lists]
    )
    # Normalise before multiplying: subnormal weights times a distance
    # below one would underflow to zero and tie every candidate.
    return float((weight_values / total_weight * distances).sum())
