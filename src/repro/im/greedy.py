"""Plain greedy influence maximization (Kempe--Kleinberg--Tardos).

At every step, evaluate the marginal spread gain of every remaining
node and add the best one.  With a monotone submodular spread function
this gives the classic ``(1 - 1/e)`` approximation; it is quadratic in
evaluations and serves here as the reference implementation that
CELF++ must agree with (it is an exact optimization of this algorithm,
not an approximation of it).
"""

from __future__ import annotations

import numpy as np

from repro.im.seed_list import SeedList
from repro.propagation.spread import SpreadEstimator


def greedy_seed_selection(
    estimator: SpreadEstimator,
    num_nodes: int,
    k: int,
    *,
    candidates=None,
) -> SeedList:
    """Select ``k`` seeds by exhaustive greedy marginal-gain search.

    Parameters
    ----------
    estimator:
        Spread oracle; for deterministic greedy invariants use
        :class:`~repro.propagation.snapshots.SnapshotSpread`.
    num_nodes:
        Total number of nodes (candidate universe is ``0..num_nodes-1``
        unless ``candidates`` is given).
    k:
        Seed budget.
    candidates:
        Optional iterable restricting the candidate pool.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    pool = (
        list(range(num_nodes))
        if candidates is None
        else sorted(set(int(c) for c in candidates))
    )
    if k > len(pool):
        raise ValueError(f"k={k} exceeds candidate pool of {len(pool)}")
    # Estimators exposing ``estimate_many`` (the parallel Monte-Carlo
    # engine) evaluate each round's exhaustive sweep as one batch
    # dispatch; the batch consumes the oracle's call sequence in loop
    # order, so the selected seeds are identical either way.
    estimate_many = getattr(estimator, "estimate_many", None)
    seeds: list[int] = []
    gains: list[float] = []
    current_spread = 0.0
    remaining = set(pool)
    for _ in range(k):
        candidates = sorted(remaining)
        if estimate_many is not None:
            values = estimate_many(
                [seeds + [node] for node in candidates]
            )
        else:
            values = [
                estimator.estimate(seeds + [node]) for node in candidates
            ]
        best_node = -1
        best_spread = -np.inf
        for node, value in zip(candidates, values):
            if value > best_spread:
                best_spread = value
                best_node = node
        seeds.append(best_node)
        gains.append(best_spread - current_spread)
        current_spread = best_spread
        remaining.discard(best_node)
    return SeedList(tuple(seeds), tuple(gains), algorithm="greedy")
