"""Cascade models: IC/TIC simulation and expected-spread estimation."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.propagation.cascade": (
            "CascadeTrace",
            "simulate_cascade",
            "simulate_cascade_trace",
            "simulate_item_cascade",
            "simulate_item_cascade_trace",
        ),
        "repro.propagation.spread": (
            "MonteCarloSpread",
            "SpreadEstimate",
            "SpreadEstimator",
            "estimate_spread",
            "estimate_spread_sequential",
        ),
        "repro.propagation.parallel": (
            "ParallelMonteCarloSpread",
            "active_payload_count",
            "shutdown_pools",
        ),
        "repro.propagation.snapshots": ("SnapshotSpread",),
        "repro.propagation.bounds": (
            "one_hop_lower_bound",
            "union_upper_bound",
        ),
        "repro.propagation.exact": (
            "MAX_EXACT_ARCS",
            "exact_activation_probabilities",
            "exact_spread",
        ),
        "repro.propagation.linear_threshold": (
            "estimate_lt_spread",
            "lt_influence_maximization",
            "normalize_lt_weights",
            "sample_lt_rr_sets",
            "simulate_lt_cascade",
            "validate_lt_weights",
        ),
    },
)

__all__ = [
    "one_hop_lower_bound",
    "union_upper_bound",
    "MAX_EXACT_ARCS",
    "exact_activation_probabilities",
    "exact_spread",
    "estimate_lt_spread",
    "lt_influence_maximization",
    "normalize_lt_weights",
    "sample_lt_rr_sets",
    "simulate_lt_cascade",
    "validate_lt_weights",
    "CascadeTrace",
    "simulate_cascade",
    "simulate_cascade_trace",
    "simulate_item_cascade",
    "simulate_item_cascade_trace",
    "MonteCarloSpread",
    "ParallelMonteCarloSpread",
    "active_payload_count",
    "shutdown_pools",
    "SpreadEstimate",
    "SpreadEstimator",
    "estimate_spread",
    "estimate_spread_sequential",
    "SnapshotSpread",
]
