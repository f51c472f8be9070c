"""Differential tests of the CSR batch application against the edge
dictionary it replaced.

:func:`repro.streaming.advance_graph` applies a decay factor and a
batch's deltas straight to a :class:`TopicGraph`'s arrays.
:class:`repro.streaming.EdgeState` (decay, one ``apply_delta`` per
delta, ``to_graph``) is the oracle:

* **same graph** — identical ``indptr``, ``indices`` and
  ``probabilities`` bytes after any mix of adds, reweights and removes
  (one arc added, reweighted and removed inside one batch included) and
  any decay factor in ``[0, 1]``;
* **same error** — an invalid delta (self-loop, node out of range,
  duplicate add, missing arc, wrong topic count) raises the oracle's
  :class:`~repro.errors.StreamError` text at the same delta, and
  neither the input graph nor a maintainer's state changes;
* **one graph** — after a stream of batches, the served index, both of
  a :class:`StreamingEngine`'s maintainers and the engine hold one
  graph object, and the graph the engine was built on is released.

CI re-runs this module under the ``deep`` Hypothesis profile.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InflexConfig, InflexIndex, SketchConfig
from repro.datasets import generate_delta_workload, generate_flixster_like
from repro.errors import StreamError
from repro.graph import TopicGraph
from repro.sketches import SketchBank
from repro.streaming import (
    DeltaBatch,
    EdgeDelta,
    EdgeState,
    IncrementalSketchMaintainer,
    StreamingEngine,
    advance_graph,
)

SETTINGS = settings(deadline=None)
MAINTAINER_SETTINGS = settings(
    max_examples=max(5, settings.default.max_examples // 4), deadline=None
)

probability = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def graphs(draw, max_nodes: int = 7):
    """A small topic graph; its arcs may be empty or complete."""
    n = draw(st.integers(1, max_nodes))
    z = draw(st.integers(1, 3))
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    arcs = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    probs = draw(
        st.lists(
            st.lists(probability, min_size=z, max_size=z),
            min_size=len(arcs),
            max_size=len(arcs),
        )
    )
    return TopicGraph.from_arcs(
        n,
        np.asarray(arcs, dtype=np.int64).reshape(-1, 2),
        np.asarray(probs, dtype=np.float64).reshape(-1, z),
    )


@st.composite
def batches(draw, graph: TopicGraph, edges: set):
    """An ordered delta list over ``graph`` whose edge set is ``edges``
    (updated in place as the valid deltas would change it).  Mostly
    valid deltas; some invalid ones of every kind."""
    n, z = graph.num_nodes, graph.num_topics
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    row = st.lists(probability, min_size=z, max_size=z).map(tuple)
    deltas = []
    for _ in range(draw(st.integers(0, 6))):
        absent = [arc for arc in pairs if arc not in edges]
        present = sorted(edges)
        kinds = ["invalid"]
        if absent:
            kinds += ["add", "cycle"]
        if present:
            kinds += ["reweight", "remove"]
        kind = draw(st.sampled_from(kinds))
        if kind == "add":
            arc = draw(st.sampled_from(absent))
            deltas.append(EdgeDelta("add", *arc, draw(row)))
            edges.add(arc)
        elif kind == "cycle":
            # Add, reweight and remove one arc inside the batch.
            arc = draw(st.sampled_from(absent))
            deltas += [
                EdgeDelta("add", *arc, draw(row)),
                EdgeDelta("reweight", *arc, draw(row)),
                EdgeDelta("remove", *arc),
            ]
        elif kind == "reweight":
            arc = draw(st.sampled_from(present))
            deltas.append(EdgeDelta("reweight", *arc, draw(row)))
        elif kind == "remove":
            arc = draw(st.sampled_from(present))
            deltas.append(EdgeDelta("remove", *arc))
            edges.discard(arc)
        else:
            deltas.append(draw(invalid_delta(n, z, edges)))
    return deltas


@st.composite
def invalid_delta(draw, n: int, z: int, edges: set):
    node = st.integers(0, n - 1)
    row = st.lists(probability, min_size=z, max_size=z).map(tuple)
    kinds = ["self-loop", "out-of-range", "missing", "topics"]
    if edges:
        kinds.append("duplicate-add")
    kind = draw(st.sampled_from(kinds))
    if kind == "self-loop":
        v = draw(node)
        op = draw(st.sampled_from(("add", "reweight")))
        return EdgeDelta(op, v, v, draw(row))
    if kind == "out-of-range":
        far = draw(st.integers(n, n + 3))
        tail, head = draw(
            st.sampled_from(((far, draw(node)), (draw(node), far)))
        )
        return EdgeDelta("remove", tail, head)
    if kind == "duplicate-add":
        arc = draw(st.sampled_from(sorted(edges)))
        return EdgeDelta("add", *arc, draw(row))
    if kind == "missing":
        # Reweight or remove an arc that may or may not exist: the
        # oracle decides whether this one is an error.
        tail, head = draw(node), draw(node)
        op = draw(st.sampled_from(("reweight", "remove")))
        probs = draw(row) if op == "reweight" else None
        return EdgeDelta(op, tail, head, probs)
    size = draw(st.sampled_from([s for s in (1, z + 1, z + 2) if s != z]))
    arc = draw(st.sampled_from([(0, 1), (1, 0)] if n > 1 else [(0, 0)]))
    return EdgeDelta("add", *arc, tuple([0.5] * size))


def oracle(state: EdgeState, deltas, factor: float):
    """``(successor state, None)`` or ``(None, StreamError text)``."""
    staged = state.copy()
    try:
        staged.decay(factor)
        for delta in deltas:
            staged.apply_delta(delta)
    except StreamError as exc:
        return None, str(exc)
    return staged, None


def graph_bytes(graph: TopicGraph):
    return tuple(
        (a.dtype.str, a.shape, a.tobytes())
        for a in (graph.indptr, graph.indices, graph.probabilities)
    )


class TestAdvanceGraph:
    @SETTINGS
    @given(data=st.data())
    def test_matches_edge_state_over_a_stream(self, data):
        graph = data.draw(graphs())
        state = EdgeState.from_graph(graph)
        for _ in range(data.draw(st.integers(1, 4))):
            deltas = data.draw(batches(graph, set(state.edges)))
            factor = data.draw(
                st.one_of(st.just(1.0), st.just(0.0), probability)
            )
            expected, error = oracle(state, deltas, factor)
            before = graph_bytes(graph)
            if error is not None:
                with pytest.raises(StreamError) as info:
                    advance_graph(graph, deltas, factor)
                assert str(info.value) == error
                assert graph_bytes(graph) == before
                continue
            advanced = advance_graph(graph, deltas, factor)
            assert graph_bytes(graph) == before
            assert graph_bytes(advanced) == graph_bytes(expected.to_graph())
            state, graph = expected, advanced

    def test_add_reweight_remove_in_one_batch(self, tiny_graph):
        deltas = [
            EdgeDelta("add", 5, 0, (0.5, 0.5)),
            EdgeDelta("reweight", 5, 0, (0.25, 0.75)),
            EdgeDelta("reweight", 0, 1, (0.1, 0.2)),
            EdgeDelta("remove", 5, 0),
            EdgeDelta("add", 5, 0, (1.0, 0.0)),
        ]
        expected, _ = oracle(EdgeState.from_graph(tiny_graph), deltas, 1.0)
        advanced = advance_graph(tiny_graph, deltas)
        assert graph_bytes(advanced) == graph_bytes(expected.to_graph())
        assert advanced.num_arcs == tiny_graph.num_arcs + 1

    def test_nothing_to_do_returns_the_graph(self, tiny_graph):
        assert advance_graph(tiny_graph, [], 1.0) is tiny_graph

    def test_unsorted_csr_is_ordered_as_the_dictionary_orders_it(self):
        """A hand-built CSR with an unsorted row and a repeated arc: the
        last copy wins and rows come out sorted, as via ``EdgeState``."""
        graph = TopicGraph(
            3,
            [0, 3, 3, 4],
            [2, 1, 2, 0],
            [[0.1], [0.2], [0.3], [0.4]],
        )
        expected = EdgeState.from_graph(graph).to_graph()
        assert graph_bytes(advance_graph(graph, [], 1.0)) == graph_bytes(
            expected
        )

    @pytest.mark.parametrize("factor", [-0.5, 1.5])
    def test_rejects_a_factor_outside_the_unit_interval(
        self, tiny_graph, factor
    ):
        with pytest.raises(StreamError) as info:
            advance_graph(tiny_graph, [], factor)
        with pytest.raises(StreamError) as expected:
            EdgeState.from_graph(tiny_graph).decay(factor)
        assert str(info.value) == str(expected.value)


def _maintainer_state(maintainer):
    return (
        maintainer.graph,
        graph_bytes(maintainer.graph),
        [tuple(a.tobytes() for a in pool) for pool in maintainer.pools()],
        maintainer.seed_lists,
        maintainer.time,
        maintainer.batches_applied,
    )


class TestMaintainerGraph:
    @MAINTAINER_SETTINGS
    @given(data=st.data())
    def test_follows_the_oracle_and_is_untouched_by_errors(self, data):
        graph = data.draw(graphs(max_nodes=6))
        decay_rate = data.draw(st.sampled_from((0.0, 0.3)))
        maintainer = IncrementalSketchMaintainer(
            graph,
            np.full((2, graph.num_topics), 1.0 / graph.num_topics),
            num_sets=12,
            seed_list_length=1,
            seed=5,
            decay_rate=decay_rate,
        )
        state = EdgeState.from_graph(graph)
        clock = 0.0
        for _ in range(data.draw(st.integers(1, 4))):
            deltas = data.draw(batches(maintainer.graph, set(state.edges)))
            step = data.draw(st.sampled_from((0.0, 0.5, 2.0)))
            factor = math.exp(-decay_rate * step) if step else 1.0
            expected, error = oracle(state, deltas, factor)
            before = _maintainer_state(maintainer)
            batch = DeltaBatch(tuple(deltas), timestamp=clock + step)
            if error is not None:
                with pytest.raises(StreamError) as info:
                    maintainer.apply_batch(batch)
                assert str(info.value) == error
                after = _maintainer_state(maintainer)
                assert after[0] is before[0]
                assert after[1:] == before[1:]
                continue
            maintainer.apply_batch(batch)
            assert graph_bytes(maintainer.graph) == graph_bytes(
                expected.to_graph()
            )
            state, clock = expected, clock + step


class TestOneGraphPerEngine:
    def test_engine_maintainers_and_index_share_one_graph(self):
        dataset = generate_flixster_like(
            num_nodes=90, num_topics=3, num_items=24, seed=41
        )
        config = InflexConfig(
            num_index_points=4,
            num_dirichlet_samples=400,
            seed_list_length=4,
            ris_num_sets=120,
            seed=43,
        )
        loaded = TopicGraph(
            dataset.graph.num_nodes,
            dataset.graph.indptr.copy(),
            dataset.graph.indices.copy(),
            dataset.graph.probabilities.copy(),
        )
        index = InflexIndex.build(loaded, dataset.item_topics, config)
        index.attach_sketches(
            SketchBank.build(loaded, SketchConfig(num_sets=60, seed=47))
        )
        # Single-delta batches: some change no seed list, and the
        # served index must still move to the new graph.
        log = generate_delta_workload(
            loaded, num_batches=8, batch_size=1, seed=53
        )
        engine = StreamingEngine(index, num_sets=80, seed=59)
        released = weakref.ref(loaded)
        del index, loaded
        unchanged = 0
        for report, _ in engine.replay(log):
            unchanged += not report.changed_points
            graph = engine.graph
            assert engine.maintainer.graph is graph
            assert engine._sketch_maintainer.graph is graph
            assert engine.index.graph is graph
        assert unchanged
        gc.collect()
        assert released() is None
