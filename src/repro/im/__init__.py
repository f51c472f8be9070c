"""Influence maximization: greedy, CELF, CELF++, RIS, IMM, heuristics."""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.im.seed_list": ("SeedList",),
        "repro.im.greedy": ("greedy_seed_selection",),
        "repro.im.celf": ("celf_seed_selection",),
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
        "repro.im.heuristics": (
            "degree_seeds",
            "pagerank_seeds",
            "random_seeds",
            "weighted_degree_seeds",
        ),
        "repro.im.degree_discount": ("degree_discount_seeds",),
    },
)

__all__ = [
    "SeedList",
    "greedy_seed_selection",
    "celf_seed_selection",
    "celfpp_seed_selection",
    "RRIndex",
    "RRSampler",
    "imm_budgets",
    "imm_seed_selection",
    "sample_rr_block",
    "sample_rr_index",
    "walk_rr_index",
    "degree_discount_seeds",
    "degree_seeds",
    "pagerank_seeds",
    "random_seeds",
    "weighted_degree_seeds",
]
