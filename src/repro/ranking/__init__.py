"""Rank aggregation machinery: Kendall-tau, Borda, Copeland, Kemeny, MC4."""

from repro.ranking.kendall import (
    DEFAULT_PENALTY,
    kendall_tau_full,
    kendall_tau_top,
    mean_kendall_tau_top,
)
from repro.ranking.borda import borda_aggregation, borda_scores
from repro.ranking.copeland import (
    copeland_aggregation,
    copeland_order,
    copeland_scores,
    pairwise_preference_matrix,
    ranking_rows,
)
from repro.ranking.kemeny import (
    brute_force_kemeny,
    kemenize,
    local_kemenization,
)
from repro.ranking.mc4 import mc4_aggregation, mc4_order
from repro.ranking.rbo import overlap_at_k, rank_biased_overlap
from repro.ranking.weights import (
    DEFAULT_SELECTION_THRESHOLD,
    importance_weights,
    select_neighbors,
)

__all__ = [
    "DEFAULT_PENALTY",
    "kendall_tau_full",
    "kendall_tau_top",
    "mean_kendall_tau_top",
    "borda_aggregation",
    "borda_scores",
    "copeland_aggregation",
    "copeland_order",
    "copeland_scores",
    "pairwise_preference_matrix",
    "ranking_rows",
    "brute_force_kemeny",
    "kemenize",
    "local_kemenization",
    "mc4_aggregation",
    "mc4_order",
    "overlap_at_k",
    "rank_biased_overlap",
    "DEFAULT_SELECTION_THRESHOLD",
    "importance_weights",
    "select_neighbors",
]
