"""The paper's ``random`` seed-selection baseline (Figure 8 / Table 2)."""

from __future__ import annotations

from repro.im.seed_list import SeedList
from repro.rng import resolve_rng


def random_seeds(num_nodes: int, k: int, *, seed=None) -> SeedList:
    """``k`` distinct nodes drawn uniformly at random."""
    if not 0 <= k <= num_nodes:
        raise ValueError(f"k must be in [0, {num_nodes}], got {k}")
    rng = resolve_rng(seed)
    chosen = rng.choice(num_nodes, size=k, replace=False)
    return SeedList(tuple(int(v) for v in chosen), (), algorithm="random")
