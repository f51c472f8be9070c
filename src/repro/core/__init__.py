"""INFLEX: the paper's primary contribution.

Build an index once with :meth:`InflexIndex.build`, then answer TIM
queries in milliseconds with :meth:`InflexIndex.query`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.config": (
            "AGGREGATORS",
            "CAMPAIGN_ALGORITHMS",
            "CampaignConfig",
            "FleetConfig",
            "IM_ENGINES",
            "InflexConfig",
            "PAPER_CONFIG",
            "ServingConfig",
            "SketchConfig",
        ),
        "repro.core.query": ("QueryTiming", "TimAnswer", "TimQuery"),
        "repro.core.index": ("STRATEGIES", "InflexIndex"),
        "repro.core.aggregation": ("aggregate_seed_lists",),
        "repro.core.offline": (
            "offline_ic_seed_list",
            "offline_seed_list",
            "offline_seed_lists_batch",
            "offline_tic_seed_list",
        ),
        "repro.core.persistence": (
            "atomic_write_bytes",
            "atomic_write_text",
            "crc_of_bytes",
            "load_index",
            "save_index",
        ),
        "repro.core.whatif": ("WhatIfReport", "compare_positionings"),
        "repro.core.segment": (
            "estimate_segment_spread",
            "sample_segment_rr_sets",
            "segment_influence_maximization",
        ),
        "repro.core.autosize": ("AutoSizeResult", "auto_size_index"),
        "repro.core.cache": ("CachedIndex",),
        "repro.core.builder": ("ResumableBuilder",),
        "repro.core.explain": (
            "AnswerExplanation",
            "SeedExplanation",
            "explain_answer",
        ),
    },
)
