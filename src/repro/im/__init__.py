"""Influence maximization: greedy, CELF++, the RR-set engines, random seeds."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.im.seed_list": ("SeedList",),
        "repro.im.greedy": ("greedy_seed_selection",),
        "repro.im.celfpp": ("celfpp_seed_selection",),
        "repro.im.imm": (
            "RRIndex",
            "RRSampler",
            "imm_budgets",
            "imm_seed_selection",
            "sample_rr_block",
            "sample_rr_index",
            "walk_rr_index",
        ),
        "repro.im.heuristics": ("random_seeds",),
    },
)
