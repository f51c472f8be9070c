"""Linear Threshold (LT) propagation — the other Kempe et al. model.

The paper works exclusively with the (topic-aware) Independent Cascade
model, but the INFLEX machinery is model-agnostic: all it needs is a
way to precompute ranked seed lists per index point.  This module
supplies the canonical alternative so the library covers both classic
diffusion models:

* **LT semantics**: every node ``v`` draws a threshold
  ``theta_v ~ U[0, 1]`` once; in-neighbor ``u`` contributes weight
  ``b_{u,v}`` (with ``sum_u b_{u,v} <= 1``); ``v`` activates as soon as
  the total weight of its active in-neighbors reaches ``theta_v``.
* **Topic-aware LT (TLT)**: per-topic weights ``b^z_{u,v}`` mixed by
  the item's topic distribution exactly like Eq. 1 — a convex
  combination of valid LT weight vectors is again valid.
* **Live-edge / RIS equivalence** (Kempe et al., Thm. 4.6): LT is
  distributed as the reachability of a live-edge graph where every node
  keeps at most *one* incoming arc, chosen with probability
  ``b_{u,v}`` (none with the residual).  Reverse-reachable sets are
  therefore *random walks* backwards, which
  :func:`sample_lt_rr_sets` implements.  It keeps its own one-in-arc
  walk (the IC reverse BFS of :mod:`repro.im.imm` flips every in-arc)
  but packs the sets into the shared :class:`~repro.im.imm.RRIndex`,
  so LT seed lists come from the same greedy as every IC engine.
"""

from __future__ import annotations

import numpy as np

from repro.graph.topic_graph import TopicGraph
from repro.im.imm import RRIndex
from repro.im.seed_list import SeedList
from repro.propagation.spread import SpreadEstimate
from repro.rng import resolve_rng


def normalize_lt_weights(graph: TopicGraph) -> TopicGraph:
    """Return a copy of ``graph`` with LT-valid weights.

    For every node and every topic, incoming weights are rescaled so
    they sum to at most 1 (nodes already satisfying the constraint are
    untouched).  This converts any probability-labeled topic graph into
    a topic-aware LT instance.
    """
    in_indptr, _, in_arc_ids = graph.reverse_view
    weights = graph.probabilities.copy()
    for node in range(graph.num_nodes):
        lo, hi = in_indptr[node], in_indptr[node + 1]
        if hi == lo:
            continue
        arc_ids = in_arc_ids[lo:hi]
        totals = weights[arc_ids].sum(axis=0)
        scale = np.where(totals > 1.0, 1.0 / totals, 1.0)
        weights[arc_ids] *= scale[np.newaxis, :]
    return TopicGraph(
        graph.num_nodes, graph.indptr, graph.indices, weights
    )


def validate_lt_weights(graph: TopicGraph, *, tol: float = 1e-9) -> bool:
    """``True`` when every node's per-topic in-weights sum to <= 1."""
    in_indptr, _, in_arc_ids = graph.reverse_view
    for node in range(graph.num_nodes):
        lo, hi = in_indptr[node], in_indptr[node + 1]
        if hi == lo:
            continue
        totals = graph.probabilities[in_arc_ids[lo:hi]].sum(axis=0)
        if np.any(totals > 1.0 + tol):
            return False
    return True


def simulate_lt_cascade(
    graph: TopicGraph, gamma, seeds, rng=None
) -> np.ndarray:
    """One topic-aware LT cascade; returns the activation mask.

    Thresholds are drawn fresh per call; weights come from the item
    mixture (Eq. 1 applied to LT weights).
    """
    rng = resolve_rng(rng)
    n = graph.num_nodes
    weights = graph.item_probabilities(gamma)
    thresholds = rng.random(n)
    active = np.zeros(n, dtype=bool)
    accumulated = np.zeros(n)
    seed_array = np.unique(np.asarray(seeds, dtype=np.int64))
    if seed_array.size == 0:
        return active
    active[seed_array] = True
    frontier = seed_array
    indptr = graph.indptr
    indices = graph.indices
    while frontier.size:
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            break
        offsets = np.repeat(starts, counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        arc_ids = offsets + within
        heads = indices[arc_ids]
        np.add.at(accumulated, heads, weights[arc_ids])
        candidates = np.unique(heads)
        newly = candidates[
            ~active[candidates]
            & (accumulated[candidates] >= thresholds[candidates])
        ]
        if newly.size == 0:
            break
        active[newly] = True
        frontier = newly
    return active


def estimate_lt_spread(
    graph: TopicGraph,
    gamma,
    seeds,
    *,
    num_simulations: int = 200,
    seed=None,
) -> SpreadEstimate:
    """Monte-Carlo LT spread estimate (analogue of IC's)."""
    if num_simulations < 1:
        raise ValueError(
            f"num_simulations must be >= 1, got {num_simulations}"
        )
    rng = resolve_rng(seed)
    counts = np.empty(num_simulations, dtype=np.float64)
    for i in range(num_simulations):
        counts[i] = simulate_lt_cascade(graph, gamma, seeds, rng).sum()
    std = float(counts.std(ddof=1)) if counts.size > 1 else 0.0
    return SpreadEstimate(
        mean=float(counts.mean()),
        std=std,
        num_simulations=num_simulations,
    )


def sample_lt_rr_sets(
    graph: TopicGraph, gamma, num_sets: int, *, seed=None
) -> RRIndex:
    """LT reverse-reachable sets: backward random walks.

    Each step from node ``v`` picks at most one in-neighbor, arc
    ``(u, v)`` with probability ``b^i_{u,v}`` (stop with the residual
    mass), and the walk terminates on revisits.
    """
    if num_sets < 1:
        raise ValueError(f"num_sets must be >= 1, got {num_sets}")
    rng = resolve_rng(seed)
    weights = graph.item_probabilities(gamma)
    in_indptr, in_tails, in_arc_ids = graph.reverse_view
    n = graph.num_nodes
    roots = np.empty(num_sets, dtype=np.uint32)
    sets: list[np.ndarray] = []
    for i in range(num_sets):
        node = int(rng.integers(n))
        roots[i] = node
        visited = {node}
        while True:
            lo, hi = in_indptr[node], in_indptr[node + 1]
            if hi == lo:
                break
            arc_weights = weights[in_arc_ids[lo:hi]]
            draw = rng.random()
            cumulative = np.cumsum(arc_weights)
            position = int(np.searchsorted(cumulative, draw))
            if position >= arc_weights.size:
                break  # residual mass: no live in-arc this realization
            parent = int(in_tails[lo + position])
            if parent in visited:
                break
            visited.add(parent)
            node = parent
        sets.append(np.array(sorted(visited), dtype=np.uint32))
    indptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum([members.size for members in sets], out=indptr[1:])
    return RRIndex(np.concatenate(sets), indptr, roots, n)


def lt_influence_maximization(
    graph: TopicGraph,
    gamma,
    k: int,
    *,
    num_sets: int = 2000,
    seed=None,
) -> SeedList:
    """Seed selection under topic-aware LT via reverse random walks.

    ``graph`` must carry LT-valid weights (see
    :func:`normalize_lt_weights`); an invalid graph makes the walk's
    stopping probabilities negative, so it is rejected.
    """
    if not validate_lt_weights(graph):
        raise ValueError(
            "graph weights violate the LT constraint sum_u b_{u,v} <= 1; "
            "run normalize_lt_weights first"
        )
    index = sample_lt_rr_sets(graph, gamma, num_sets, seed=seed)
    return index.seed_list(k, algorithm="lt-ris")
