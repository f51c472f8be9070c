"""Segment-targeted viral-marketing queries (paper future work).

Section 6 lists "the efficient evaluation of other types of viral
marketing queries (for instance, when specific market segments are
targeted)" as future work.  This module implements the offline
primitive: influence maximization where only adoptions *within a user
segment* count.

Both building blocks extend naturally:

* the spread objective becomes ``sigma_S(S) = E[|cascade(S) ∩ segment|]``,
  still monotone and submodular, so the greedy machinery carries over;
* the RIS engine adapts by rooting reverse-reachable sets at segment
  members only: ``sigma_S(S) = |segment| * P[S hits a segment-rooted RR
  set]``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.topic_graph import TopicGraph
from repro.im.imm import RRIndex, walk_rr_index
from repro.im.seed_list import SeedList
from repro.propagation.cascade import simulate_cascade
from repro.propagation.spread import SpreadEstimate
from repro.rng import resolve_rng


def _validate_segment(segment, num_nodes: int) -> np.ndarray:
    members = np.unique(np.asarray(list(segment), dtype=np.int64))
    if members.size == 0:
        raise ValueError("segment must contain at least one node")
    if members.min() < 0 or members.max() >= num_nodes:
        raise ValueError(
            f"segment members out of node range [0, {num_nodes})"
        )
    return members


def estimate_segment_spread(
    graph: TopicGraph,
    gamma,
    seeds,
    segment,
    *,
    num_simulations: int = 200,
    seed=None,
) -> SpreadEstimate:
    """Monte-Carlo estimate of adoptions *within* ``segment``."""
    if num_simulations < 1:
        raise ValueError(
            f"num_simulations must be >= 1, got {num_simulations}"
        )
    members = _validate_segment(segment, graph.num_nodes)
    probs = graph.item_probabilities(gamma)
    rng = resolve_rng(seed)
    counts = np.empty(num_simulations, dtype=np.float64)
    for i in range(num_simulations):
        active = simulate_cascade(
            graph.indptr, graph.indices, probs, seeds, rng
        )
        counts[i] = active[members].sum()
    std = float(counts.std(ddof=1)) if counts.size > 1 else 0.0
    return SpreadEstimate(
        mean=float(counts.mean()), std=std, num_simulations=num_simulations
    )


def sample_segment_rr_sets(
    graph: TopicGraph,
    gamma,
    segment,
    num_sets: int,
    *,
    seed=None,
) -> RRIndex:
    """RR sets rooted uniformly at *segment members*.

    Roots are drawn from the segment, then walked by the shared reverse
    BFS in blocks of the sampler's size for this graph.  The
    segment-restricted spread of ``S`` is estimated by
    ``|segment| * covered_count(S) / num_sets``; the index's own
    ``num_nodes`` stays the graph's, since any node may be a seed.
    """
    if num_sets < 1:
        raise ValueError(f"num_sets must be >= 1, got {num_sets}")
    members = _validate_segment(segment, graph.num_nodes)
    rng = resolve_rng(seed)
    roots = rng.choice(members, size=num_sets)
    return walk_rr_index(graph, gamma, num_sets, rng, roots=roots)


def segment_influence_maximization(
    graph: TopicGraph,
    gamma,
    k: int,
    segment,
    *,
    num_sets: int = 2000,
    seed=None,
) -> SeedList:
    """Seeds maximizing adoption *within* ``segment`` for item ``gamma``.

    Note that the optimal seeds need not belong to the segment: an
    influential outsider whose cascades reach the segment is a valid —
    often the best — choice.
    """
    index = sample_segment_rr_sets(
        graph, gamma, segment, num_sets, seed=seed
    )
    population = _validate_segment(segment, graph.num_nodes).size
    return index.seed_list(
        k, algorithm="segment-ris", population=population
    )
