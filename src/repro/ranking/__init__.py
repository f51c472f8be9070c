"""Rank aggregation machinery: Kendall-tau, Borda, Copeland, Kemeny, MC4."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.ranking.kendall": (
            "DEFAULT_PENALTY",
            "kendall_tau_full",
            "kendall_tau_top",
            "mean_kendall_tau_top",
        ),
        "repro.ranking.borda": ("borda_aggregation", "borda_scores"),
        "repro.ranking.copeland": (
            "copeland_aggregation",
            "copeland_order",
            "copeland_scores",
            "pairwise_preference_matrix",
            "ranking_rows",
        ),
        "repro.ranking.kemeny": (
            "brute_force_kemeny",
            "kemenize",
            "local_kemenization",
        ),
        "repro.ranking.mc4": ("mc4_aggregation", "mc4_order"),
        "repro.ranking.rbo": ("overlap_at_k", "rank_biased_overlap"),
        "repro.ranking.weights": (
            "DEFAULT_SELECTION_THRESHOLD",
            "importance_weights",
            "select_neighbors",
        ),
    },
)
