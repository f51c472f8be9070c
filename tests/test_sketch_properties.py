"""Property-based tests for per-topic composable RR sketches.

Hypothesis draws scalars (graph shape, seeds, budgets); each drawn
tuple seeds numpy generators, so every example is a fully deterministic
graph instance.  The properties are the determinism contracts
:mod:`repro.sketches` promises:

* **vertex identity** — composing at a simplex vertex ``e_z`` with the
  full budget is bit-identical to pool ``z`` itself, and with any
  smaller budget to its prefix,
* **worker invariance** — banks built with different worker counts are
  bit-identical, so composed greedy answers are too,
* **order invariance** — greedy selection over a composition is
  invariant to the topic iteration order,
* **differential freshness** — a bank maintained incrementally through
  a delta stream matches a bank sampled from scratch on the final
  graph, bit for bit,
* **mixture accuracy** — the composed estimator's greedy answer
  achieves a spread (under a large fresh RR referee) within a constant
  factor of a fresh same-budget IMM answer at the query mixture.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SketchConfig
from repro.graph import TopicGraph
from repro.im.imm import RRIndex, RRSampler
from repro.sketches import SketchBank

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
    probs = rng.uniform(0.1, 0.7, size=(pairs.shape[0], num_topics))
    return TopicGraph.from_arcs(num_nodes, pairs, probs)


def _vertex(num_topics: int, z: int) -> np.ndarray:
    gamma = np.zeros(num_topics)
    gamma[z] = 1.0
    return gamma


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    num_topics=st.integers(2, 4),
    budget_frac=st.floats(0.2, 1.0),
)
def test_vertex_compose_is_pool_prefix(seed, num_topics, budget_frac):
    graph = _random_graph(30, 90, num_topics, seed)
    bank = SketchBank.build(graph, SketchConfig(num_sets=40, seed=seed))
    arrays = bank.arrays()
    budget = max(1, int(budget_frac * bank.num_sets))
    for z in range(num_topics):
        values, indptr, roots = bank.compose(
            _vertex(num_topics, z), budget=budget
        )
        lo = int(arrays["pool_offsets"][z])
        size = int(arrays["indptr_matrix"][z, budget])
        assert np.array_equal(values, arrays["values"][lo:lo + size])
        assert np.array_equal(
            indptr, arrays["indptr_matrix"][z, : budget + 1]
        )
        assert np.array_equal(
            roots, arrays["roots_matrix"][z, :budget]
        )


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    num_topics=st.integers(2, 4),
    workers=st.integers(2, 4),
)
def test_bank_is_worker_count_invariant(seed, num_topics, workers):
    graph = _random_graph(30, 90, num_topics, seed)
    config = SketchConfig(num_sets=30, seed=seed)
    serial = SketchBank.build(graph, config, workers=1)
    parallel = SketchBank.build(graph, config, workers=workers)
    for name, array in serial.arrays().items():
        assert np.array_equal(array, parallel.arrays()[name]), name
    gamma = np.random.default_rng(seed).dirichlet([1.0] * num_topics)
    assert (
        serial.compose_index(gamma).greedy_select(4)
        == parallel.compose_index(gamma).greedy_select(4)
    )


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    num_topics=st.integers(2, 5),
)
def test_greedy_is_topic_order_invariant(seed, num_topics):
    graph = _random_graph(30, 90, num_topics, seed)
    bank = SketchBank.build(graph, SketchConfig(num_sets=30, seed=seed))
    rng = np.random.default_rng(seed)
    gamma = rng.dirichlet([0.7] * num_topics)
    order = rng.permutation(num_topics).tolist()
    base = bank.compose_index(gamma, budget=25).greedy_select(5)
    permuted = bank.compose_index(
        gamma, budget=25, order=order
    ).greedy_select(5)
    assert base == permuted


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    num_topics=st.integers(2, 3),
    num_batches=st.integers(1, 3),
)
def test_incremental_bank_matches_scratch_bank(
    seed, num_topics, num_batches
):
    from repro.streaming import DeltaBatch, EdgeDelta
    from repro.streaming.maintainer import IncrementalSketchMaintainer

    graph = _random_graph(24, 70, num_topics, seed)
    if graph.indptr[-1] == 0:
        return
    config = SketchConfig(num_sets=20, seed=seed % 1000)
    identity = np.eye(num_topics)
    live = IncrementalSketchMaintainer(
        graph, identity, num_sets=20, seed_list_length=1,
        seed=config.seed,
    )
    rng = np.random.default_rng(seed)
    for batch_id in range(num_batches):
        current = live.graph
        tail = int(rng.integers(current.num_nodes))
        head = int(rng.integers(current.num_nodes))
        if tail == head:
            head = (head + 1) % current.num_nodes
        probs = tuple(rng.uniform(0.1, 0.7, size=num_topics))
        existing = {
            (int(t), int(current.indices[j]))
            for t in range(current.num_nodes)
            for j in range(current.indptr[t], current.indptr[t + 1])
        }
        op = "reweight" if (tail, head) in existing else "add"
        live.apply_batch(
            DeltaBatch(
                deltas=(
                    EdgeDelta(op=op, tail=tail, head=head,
                              probabilities=probs),
                ),
                timestamp=float(batch_id + 1),
            )
        )
    scratch = IncrementalSketchMaintainer(
        live.graph, identity, num_sets=20, seed_list_length=1,
        seed=config.seed,
    )
    live_bank = SketchBank.from_pools(
        live.pools(), live.graph.num_nodes, config
    )
    scratch_bank = SketchBank.from_pools(
        scratch.pools(), scratch.graph.num_nodes, config
    )
    for name, array in live_bank.arrays().items():
        assert np.array_equal(array, scratch_bank.arrays()[name]), name


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    num_topics=st.integers(2, 3),
)
def test_composed_answer_tracks_fresh_imm(seed, num_topics):
    """The composed sketch answer is competitive with a fresh build.

    Spread is judged by a large referee RR index sampled at the query
    mixture itself; the composed mixture-of-marginals answer must
    achieve at least 0.8x the spread of a same-budget fresh IMM answer
    (both lazy-greedy, k = 4).
    """
    graph = _random_graph(40, 160, num_topics, seed)
    gamma = np.random.default_rng(seed).dirichlet([1.0] * num_topics)
    k = 4
    bank = SketchBank.build(graph, SketchConfig(num_sets=150, seed=seed))
    sketch_seeds, _ = bank.compose_index(gamma, budget=150).greedy_select(k)
    with RRSampler(graph) as sampler:
        fresh = sampler.sample(gamma, 150, seed=seed + 1, request=7)
        referee_sets = sampler.sample(gamma, 1500, seed=seed + 2, request=8)
    fresh_index = RRIndex(*fresh, graph.num_nodes)
    referee = RRIndex(*referee_sets, graph.num_nodes)
    fresh_seeds, _ = fresh_index.greedy_select(k)
    sketch_spread = referee.spread_of(sketch_seeds)
    fresh_spread = referee.spread_of(fresh_seeds)
    assert sketch_spread >= 0.8 * fresh_spread - 1e-9
