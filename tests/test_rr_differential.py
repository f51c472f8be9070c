"""Differential tests: the one RR-set path against the machinery it
replaced, kept in ``tests/rr_reference.py``.

Every caller of the reverse walker must reproduce the original bit for
bit:

* a one-set walk (``count=1``) matches the scalar ``sample_rr_set`` in
  members, root and the generator state it leaves behind — for
  per-set streams and for one generator shared across sets;
* the flat-key block walker matches the ``lexsort`` block walker;
* ``ris``-engine seed lists match the reference greedy over the
  reference sets, nodes and gains;
* :meth:`RRIndex.seed_list` matches the dictionary greedy on arbitrary
  set families, including padding and a segment population;
* :meth:`RRIndex.greedy_select` matches the lazy heap greedy it
  replaced, with ``exclude``, padding and ``k`` up to every candidate;
* the inverted index matches a stable ``uint32`` argsort on both sides
  of the 16-bit key width;
* the streaming maintainer's per-set contents and seed lists match
  reference walks from the same ``(seed, pid, sid)`` streams.

Random graphs leave some nodes with no in-arcs, so walks that stop at
the root are drawn too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.offline import offline_seed_list
from repro.graph import TopicGraph
from repro.im.imm import RRIndex, sample_rr_block
from repro.simplex.sampling import sample_uniform_simplex
from repro.streaming import (
    DeltaBatch,
    EdgeDelta,
    EdgeState,
    IncrementalSketchMaintainer,
)
from tests.rr_reference import (
    heap_greedy_select,
    ris_seed_selection,
    sample_block_lexsort,
    sample_rr_set,
    sample_rr_sets,
)

SETTINGS = settings(max_examples=25, deadline=None)

GRAPHS = st.tuples(
    st.integers(2, 40),  # nodes
    st.integers(0, 160),  # arcs drawn
    st.integers(1, 3),  # topics
    st.integers(0, 2**20),  # graph seed
)


def _graph(num_nodes, num_arcs, num_topics, seed) -> TopicGraph:
    """A random simple graph; about a third of the nodes get no in-arcs."""
    rng = np.random.default_rng(seed)
    sources_only = rng.random(num_nodes) < 0.35
    heads_pool = np.flatnonzero(~sources_only)
    if heads_pool.size == 0:
        heads_pool = np.arange(num_nodes)
    tails = rng.integers(0, num_nodes, size=num_arcs)
    heads = heads_pool[rng.integers(0, heads_pool.size, size=num_arcs)]
    keep = tails != heads
    pairs = np.unique(np.stack([tails[keep], heads[keep]], axis=1), axis=0)
    pairs = pairs.reshape(-1, 2)
    probs = rng.uniform(0.0, 0.9, size=(pairs.shape[0], num_topics))
    return TopicGraph.from_arcs(num_nodes, pairs, probs)


def _gamma(num_topics, seed) -> np.ndarray:
    return sample_uniform_simplex(1, num_topics, seed=seed)[0]


def _in_view(graph, gamma):
    in_indptr, in_tails, in_arc_ids = graph.reverse_view
    return in_indptr, in_tails, graph.item_probabilities(gamma)[in_arc_ids]


def _assert_seed_lists_equal(got, want):
    assert got.nodes == want.nodes
    assert got.marginal_gains == want.marginal_gains


@given(shape=GRAPHS, seed=st.integers(0, 2**32 - 1), shared=st.booleans())
@SETTINGS
def test_one_set_walk_matches_scalar_reference(shape, seed, shared):
    graph = _graph(*shape)
    n = graph.num_nodes
    in_indptr, in_tails, in_probs = _in_view(graph, _gamma(shape[2], seed))
    visited = np.zeros(n, dtype=bool)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for i in range(30):
        if not shared:
            stream = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
            ours = np.random.default_rng(stream)
            theirs = np.random.default_rng(stream)
        values, indptr, roots = sample_rr_block(
            in_indptr, in_tails, in_probs, n, 1, ours
        )
        members = sample_rr_set(in_indptr, in_tails, in_probs, visited, theirs)
        assert values.tolist() == sorted(members.tolist())
        assert indptr.tolist() == [0, members.size]
        assert int(roots[0]) == int(members[0])
        assert ours.bit_generator.state == theirs.bit_generator.state


@given(
    shape=GRAPHS,
    seed=st.integers(0, 2**32 - 1),
    count=st.sampled_from([1, 7, 1024]),
)
@SETTINGS
def test_block_walk_matches_lexsort_reference(shape, seed, count):
    graph = _graph(*shape)
    view = _in_view(graph, _gamma(shape[2], seed))
    ours = sample_rr_block(
        *view, graph.num_nodes, count, np.random.default_rng(seed)
    )
    theirs = sample_block_lexsort(
        *view, graph.num_nodes, count, np.random.default_rng(seed)
    )
    for got, want in zip(ours, theirs):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@given(
    shape=GRAPHS,
    seed=st.integers(0, 2**32 - 1),
    num_sets=st.integers(2, 120),
    k=st.integers(0, 12),
)
@SETTINGS
def test_ris_engine_matches_reference(shape, seed, num_sets, k):
    graph = _graph(*shape)
    gamma = _gamma(shape[2], seed)
    k = min(k, graph.num_nodes)
    got = offline_seed_list(
        graph, gamma, k, engine="ris", ris_num_sets=num_sets, seed=seed
    )
    sets = sample_rr_sets(
        graph, gamma, num_sets, np.random.default_rng(seed)
    )
    want = ris_seed_selection(sets, graph.num_nodes, k)
    _assert_seed_lists_equal(got, want)
    assert got.algorithm == "ris"


@given(
    num_nodes=st.integers(1, 30),
    num_sets=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    k_frac=st.floats(0.0, 1.0),
    segment=st.booleans(),
)
@SETTINGS
def test_greedy_matches_reference(num_nodes, num_sets, seed, k_frac, segment):
    """Random set families; ``k`` up to every node forces padding, and
    a segment population scales gains while any node stays a seed."""
    rng = np.random.default_rng(seed)
    population = int(rng.integers(1, num_nodes + 1)) if segment else None
    roots = rng.integers(0, population or num_nodes, size=num_sets)
    sets = []
    for root in roots.tolist():
        extra = rng.integers(0, num_nodes, size=int(rng.integers(0, 6)))
        sets.append(np.unique(np.append(extra, root)).astype(np.uint32))
    indptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum([s.size for s in sets], out=indptr[1:])
    index = RRIndex(np.concatenate(sets), indptr, roots, num_nodes)
    k = int(round(k_frac * num_nodes))
    got = index.seed_list(k, algorithm="ris", population=population)
    want = ris_seed_selection(
        [rng.permutation(s) for s in sets],
        population or num_nodes,
        k,
        universe_size=num_nodes,
    )
    _assert_seed_lists_equal(got, want)


def _family(rng, num_nodes, num_sets, nodes=None, hub=None):
    """Random sorted sets over ``nodes`` (default: every node), each
    with a member drawn as its root; ``hub`` joins every set."""
    if nodes is None:
        nodes = np.arange(num_nodes)
    sets = []
    for _ in range(num_sets):
        size = int(rng.integers(1, 6))
        members = rng.choice(nodes, size=size)
        if hub is not None:
            members = np.append(members, hub)
        sets.append(np.unique(members).astype(np.uint32))
    indptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum([m.size for m in sets], out=indptr[1:])
    values = np.concatenate(sets) if sets else np.zeros(0, np.uint32)
    roots = np.array([rng.choice(m) for m in sets], dtype=np.uint32)
    return values, indptr, roots


@given(
    num_nodes=st.integers(1, 40),
    num_sets=st.integers(0, 50),
    seed=st.integers(0, 2**32 - 1),
    hub=st.booleans(),
    num_excluded=st.integers(0, 6),
    k_frac=st.floats(0.0, 1.0),
)
@SETTINGS
def test_argmax_greedy_matches_heap_reference(
    num_nodes, num_sets, seed, hub, num_excluded, k_frac
):
    """A hub in every set covers the family in one pick, so the rest of
    the list is zero-gain candidates, then padding; ``exclude`` may
    name ids outside the graph, which only shrink the budget."""
    rng = np.random.default_rng(seed)
    index = RRIndex(
        *_family(
            rng, num_nodes, num_sets,
            hub=int(rng.integers(num_nodes)) if hub else None,
        ),
        num_nodes,
    )
    exclude = set(
        rng.integers(-2, num_nodes + 2, size=num_excluded).tolist()
    )
    assume(len(exclude) <= num_nodes)
    k = int(round(k_frac * (num_nodes - len(exclude))))
    got = index.greedy_select(k, exclude=exclude)
    want = heap_greedy_select(index, k, exclude=exclude)
    assert got == want
    assert all(isinstance(gain, float) for gain in got[1])


@given(
    num_nodes=st.sampled_from([1 << 16, (1 << 16) + 1]),
    num_sets=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
@SETTINGS
def test_inverted_index_matches_uint32_argsort(num_nodes, num_sets, seed):
    """Sets over a few ids, the top one included, so nodes share sets
    and the 16-bit keys (at 2**16 nodes) reach their largest value."""
    rng = np.random.default_rng(seed)
    nodes = np.append(rng.integers(0, num_nodes, size=12), num_nodes - 1)
    values, indptr, roots = _family(rng, num_nodes, num_sets, nodes)
    index = RRIndex(values, indptr, roots, num_nodes)
    order = np.argsort(values, kind="stable")
    set_of_value = np.repeat(np.arange(num_sets), np.diff(indptr))[order]
    counts = np.bincount(values, minlength=num_nodes)
    assert np.array_equal(index.coverage_counts(), counts)
    starts = np.cumsum(counts) - counts
    for node in np.unique(np.append(nodes, 0)).tolist():
        want = set_of_value[starts[node] : starts[node] + counts[node]]
        got = index.node_sets(node)
        assert got.dtype == np.uint32
        assert np.array_equal(got, want)


@given(
    shape=GRAPHS,
    seed=st.integers(0, 2**20),
    num_sets=st.integers(1, 30),
    tail=st.integers(0, 39),
    head=st.integers(0, 39),
)
@SETTINGS
def test_maintainer_sets_match_reference(shape, seed, num_sets, tail, head):
    graph = _graph(*shape)
    n = graph.num_nodes
    points = sample_uniform_simplex(2, shape[2], seed=seed)
    length = min(3, n)
    maintainer = IncrementalSketchMaintainer(
        graph, points, num_sets=num_sets, seed_list_length=length, seed=seed
    )
    tail, head = tail % n, head % n
    if tail != head:
        delta = (
            EdgeDelta("remove", tail, head)
            if (tail, head) in EdgeState.from_graph(graph).edges
            else EdgeDelta("add", tail, head, (0.5,) * shape[2])
        )
        maintainer.apply_batch(DeltaBatch(deltas=(delta,), timestamp=1.0))
    current = maintainer.graph
    visited = np.zeros(n, dtype=bool)
    for pid, (values, indptr, roots) in enumerate(maintainer.pools()):
        view = _in_view(current, points[pid])
        reference = [
            sample_rr_set(
                *view,
                visited,
                np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(pid, sid))
                ),
            )
            for sid in range(num_sets)
        ]
        for sid, members in enumerate(reference):
            got = values[indptr[sid] : indptr[sid + 1]]
            assert got.tolist() == sorted(members.tolist())
            assert int(roots[sid]) == int(members[0])
        want = ris_seed_selection(reference, n, length)
        _assert_seed_lists_equal(maintainer.seed_lists[pid], want)
