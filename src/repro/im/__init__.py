"""Influence maximization: greedy, CELF, CELF++, RIS, IMM, heuristics."""

from repro.im.seed_list import SeedList
from repro.im.greedy import greedy_seed_selection
from repro.im.celf import celf_seed_selection
from repro.im.celfpp import celfpp_seed_selection
from repro.im.imm import (
    RRIndex,
    RRSampler,
    imm_budgets,
    imm_seed_selection,
    sample_rr_block,
    sample_rr_index,
    walk_rr_index,
)
from repro.im.heuristics import (
    degree_seeds,
    pagerank_seeds,
    random_seeds,
    weighted_degree_seeds,
)
from repro.im.degree_discount import degree_discount_seeds

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
