"""Property-based tests for incremental RR-sketch maintenance.

Hypothesis draws scalars (graph shape, RNG seeds, stream shape); each
drawn tuple seeds numpy generators, so every example is a fully
deterministic graph + delta-stream instance.  The properties are the
differential contracts :mod:`repro.streaming` promises:

* **incremental == rebuild** — after replaying any valid delta
  sequence, every RR set and every seed list of the incremental
  maintainer is bit-identical to a maintainer built from scratch on
  the final graph with the same RNG streams,
* **add then remove is a no-op** — a batch pair that adds an arc and
  then removes it leaves the sketches exactly where they started,
* **time-decay is monotone** — decayed arc probabilities never exceed
  their pre-decay values, and decay factors compose multiplicatively.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import TopicGraph
from repro.simplex.sampling import sample_uniform_simplex
from repro.streaming import (
    DeltaBatch,
    EdgeDelta,
    EdgeState,
    IncrementalSketchMaintainer,
)

SETTINGS = settings(max_examples=20, deadline=None)


def _random_graph(
    num_nodes: int, num_arcs: int, num_topics: int, seed: int
) -> TopicGraph:
    """A deterministic random simple topic graph."""
    rng = np.random.default_rng(seed)
    tails = rng.integers(0, num_nodes, size=num_arcs)
    heads = rng.integers(0, num_nodes, size=num_arcs)
    keep = tails != heads
    pairs = np.unique(np.stack([tails[keep], heads[keep]], axis=1), axis=0)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    probs = rng.uniform(0.05, 0.6, size=(pairs.shape[0], num_topics))
    return TopicGraph.from_arcs(num_nodes, pairs, probs)


def _index_points(num_points: int, num_topics: int, seed: int) -> np.ndarray:
    return sample_uniform_simplex(num_points, num_topics, seed=seed)


def _random_stream(graph, num_batches, batch_size, seed):
    """A valid delta stream over ``graph`` (mirrors the generator but
    kept local so the property does not depend on the code under
    test's own workload helper)."""
    rng = np.random.default_rng(seed)
    state = EdgeState.from_graph(graph)
    n = graph.num_nodes
    batches = []
    for batch_id in range(num_batches):
        deltas = []
        touched: set[tuple[int, int]] = set()
        for _ in range(batch_size):
            existing = [a for a in state.edges if a not in touched]
            roll = rng.random()
            if roll < 0.4 or not existing:
                arc = None
                for _attempt in range(64):
                    tail = int(rng.integers(n))
                    head = int(rng.integers(n))
                    if (
                        tail != head
                        and (tail, head) not in state.edges
                        and (tail, head) not in touched
                    ):
                        arc = (tail, head)
                        break
                if arc is None:
                    continue
                op = "add"
            else:
                arc = existing[int(rng.integers(len(existing)))]
                op = "remove" if roll < 0.7 else "reweight"
            touched.add(arc)
            if op == "remove":
                delta = EdgeDelta("remove", arc[0], arc[1])
            else:
                probs = tuple(
                    float(p)
                    for p in rng.uniform(0.05, 0.6, size=graph.num_topics)
                )
                delta = EdgeDelta(op, arc[0], arc[1], probs)
            state.apply_delta(delta)
            deltas.append(delta)
        if deltas:
            batches.append(
                DeltaBatch(deltas=tuple(deltas), timestamp=float(batch_id))
            )
    return batches


@given(
    graph_seed=st.integers(0, 2**20),
    stream_seed=st.integers(0, 2**20),
    rng_seed=st.integers(0, 2**20),
    num_nodes=st.integers(20, 60),
    num_batches=st.integers(1, 4),
)
@SETTINGS
def test_incremental_equals_full_rebuild(
    graph_seed, stream_seed, rng_seed, num_nodes, num_batches
):
    """The differential guarantee: replaying any valid delta stream
    leaves the maintainer bit-identical to a from-scratch build on the
    final graph at the same RNG streams."""
    graph = _random_graph(num_nodes, num_nodes * 3, 3, graph_seed)
    points = _index_points(3, 3, graph_seed + 1)
    incremental = IncrementalSketchMaintainer(
        graph, points, num_sets=60, seed_list_length=4, seed=rng_seed
    )
    batches = _random_stream(graph, num_batches, 4, stream_seed)
    for batch in batches:
        incremental.apply_batch(batch)
    fresh = IncrementalSketchMaintainer(
        incremental.graph,
        points,
        num_sets=60,
        seed_list_length=4,
        seed=rng_seed,
    )
    for inc_pool, ref_pool in zip(incremental.pools(), fresh.pools()):
        for inc_array, ref_array in zip(inc_pool, ref_pool):
            assert np.array_equal(inc_array, ref_array)
    for inc_list, ref_list in zip(incremental.seed_lists, fresh.seed_lists):
        assert inc_list.nodes == ref_list.nodes


@given(
    graph_seed=st.integers(0, 2**20),
    rng_seed=st.integers(0, 2**20),
    tail=st.integers(0, 39),
    head=st.integers(0, 39),
)
@SETTINGS
def test_add_then_remove_same_edge_is_noop(graph_seed, rng_seed, tail, head):
    """Adding an arc and removing it again restores every RR set and
    seed list exactly (the resample RNG streams are positional, not
    history-dependent)."""
    if tail == head:
        head = (head + 1) % 40
    graph = _random_graph(40, 120, 3, graph_seed)
    if (tail, head) in EdgeState.from_graph(graph).edges:
        return  # the drawn arc already exists; adding it would be invalid
    points = _index_points(2, 3, graph_seed + 1)
    maintainer = IncrementalSketchMaintainer(
        graph, points, num_sets=50, seed_list_length=4, seed=rng_seed
    )
    before_pools = maintainer.pools()
    before_seeds = [sl.nodes for sl in maintainer.seed_lists]
    maintainer.apply_batch(
        DeltaBatch(
            deltas=(EdgeDelta("add", tail, head, (0.3, 0.2, 0.1)),),
            timestamp=0.0,
        )
    )
    maintainer.apply_batch(
        DeltaBatch(
            deltas=(EdgeDelta("remove", tail, head),), timestamp=0.0
        )
    )
    for pool, before in zip(maintainer.pools(), before_pools):
        for array, array_before in zip(pool, before):
            assert np.array_equal(array, array_before)
    assert [sl.nodes for sl in maintainer.seed_lists] == before_seeds


@given(
    graph_seed=st.integers(0, 2**20),
    decay_rate=st.floats(0.01, 2.0),
    dt1=st.floats(0.1, 5.0),
    dt2=st.floats(0.1, 5.0),
)
@SETTINGS
def test_time_decay_is_monotone_and_composes(
    graph_seed, decay_rate, dt1, dt2
):
    """Decay never increases an arc probability, and decaying by dt1
    then dt2 equals decaying by dt1 + dt2 (exp factors compose)."""
    graph = _random_graph(30, 90, 3, graph_seed)
    stepwise = EdgeState.from_graph(graph)
    original = {arc: probs.copy() for arc, probs in stepwise.edges.items()}
    stepwise.decay(math.exp(-decay_rate * dt1))
    for arc, probs in stepwise.edges.items():
        assert np.all(probs <= original[arc] + 1e-15)
    stepwise.decay(math.exp(-decay_rate * dt2))
    oneshot = EdgeState.from_graph(graph)
    oneshot.decay(math.exp(-decay_rate * (dt1 + dt2)))
    for arc in original:
        np.testing.assert_allclose(
            stepwise.edges[arc], oneshot.edges[arc], rtol=1e-12
        )
        assert np.all(stepwise.edges[arc] <= original[arc] + 1e-15)


@given(
    graph_seed=st.integers(0, 2**20),
    rng_seed=st.integers(0, 2**20),
    decay_rate=st.floats(0.05, 1.0),
)
@SETTINGS
def test_decayed_apply_matches_rebuild_on_decayed_graph(
    graph_seed, rng_seed, decay_rate
):
    """The differential guarantee holds through time-decay too: an
    empty batch at a later timestamp (pure decay) leaves the maintainer
    identical to a fresh build on the decayed graph."""
    graph = _random_graph(25, 75, 3, graph_seed)
    points = _index_points(2, 3, graph_seed + 1)
    maintainer = IncrementalSketchMaintainer(
        graph,
        points,
        num_sets=40,
        seed_list_length=3,
        seed=rng_seed,
        decay_rate=decay_rate,
    )
    stream = _random_stream(graph, 1, 3, graph_seed + 2)
    batch = DeltaBatch(
        deltas=stream[0].deltas if stream else (), timestamp=2.0
    )
    report = maintainer.apply_batch(batch)
    assert report.decayed
    fresh = IncrementalSketchMaintainer(
        maintainer.graph,
        points,
        num_sets=40,
        seed_list_length=3,
        seed=rng_seed,
    )
    for inc_pool, ref_pool in zip(maintainer.pools(), fresh.pools()):
        for inc_array, ref_array in zip(inc_pool, ref_pool):
            assert np.array_equal(inc_array, ref_array)
    for inc_list, ref_list in zip(maintainer.seed_lists, fresh.seed_lists):
        assert inc_list.nodes == ref_list.nodes
