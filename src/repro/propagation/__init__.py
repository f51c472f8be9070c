"""Cascade models: IC/TIC simulation and expected-spread estimation."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
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
        "repro.propagation.exact": (
            "MAX_EXACT_ARCS",
            "exact_activation_probabilities",
            "exact_spread",
        ),
    },
)
