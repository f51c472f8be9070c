"""The streaming engine's contract: a replay of its own streams.

:class:`~repro.streaming.StreamingEngine` starts from per-set point
pools walked side by side and from the index's stored sketch bank,
then re-walks only what an update invalidates — a point's hit set, a
bank's hit block — each from the stream that first walked it.  After
any batch sequence its pools, bank and seed lists must equal
:func:`tests.rr_reference.replay_pools` run on the same initial pools
and batches — with the point pools derived here independently by the
reference walker from the documented stream keys — and so equal the
reference walks (and a new bank) on the final graph.  Beyond
bit-identity:

* the maintained pools still estimate the true spread (exact
  enumeration on graphs of at most 20 arcs after deltas);
* the pools do not depend on the worker count;
* the point pools and the bank never share a stream, even when the
  index and the bank share a seed as CLI builds do.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InflexConfig, InflexIndex, SketchConfig
from repro.graph import TopicGraph
from repro.im import SeedList
from repro.im.imm import RRIndex, _block_size
from repro.propagation.exact import MAX_EXACT_ARCS, exact_spread
from repro.simplex import sample_uniform_simplex
from repro.sketches import SketchBank
from repro.streaming import StreamingEngine
from repro.streaming.engine import point_pool_root
from tests.rr_reference import replay_pools, sample_block_lexsort
from tests.test_streaming_properties import _random_graph, _random_stream

SETTINGS = settings(max_examples=15, deadline=None)


def _index(graph, num_points, seed, *, bank_sets=None):
    """A small index (plus bank) over ``graph``; only its points,
    config and bank matter to the engine."""
    length = 3
    config = InflexConfig(
        num_index_points=num_points,
        num_dirichlet_samples=num_points,
        seed_list_length=length,
        seed=seed,
    )
    points = sample_uniform_simplex(num_points, graph.num_topics, seed=seed)
    index = InflexIndex(
        graph, points, [SeedList(tuple(range(length)))] * num_points, config
    )
    if bank_sets is not None:
        index.attach_sketches(
            SketchBank.build(
                graph,
                SketchConfig(num_sets=bank_sets, seed=seed),
            )
        )
    return index


def _reference_point_pools(graph, points, num_sets, seed):
    """Set ``sid`` of point ``pid`` walked alone by the reference walker
    from the documented key ``(0, pid, sid)`` under ``seed``."""
    n = graph.num_nodes
    in_indptr, in_tails, in_arc_ids = graph.reverse_view
    pools = []
    for pid, point in enumerate(points):
        in_probs = graph.item_probabilities(point)[in_arc_ids]
        sets = [
            sample_block_lexsort(
                in_indptr, in_tails, in_probs, n, 1,
                np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(0, pid, sid))
                ),
            )
            for sid in range(num_sets)
        ]
        indptr = np.zeros(num_sets + 1, dtype=np.int64)
        np.cumsum([part[0].size for part in sets], out=indptr[1:])
        pools.append(
            (
                np.concatenate([part[0] for part in sets]),
                indptr,
                np.concatenate([part[2] for part in sets]),
            )
        )
    return pools


def _assert_pools_equal(got, want):
    assert len(got) == len(want)
    for got_pool, want_pool in zip(got, want):
        for got_array, want_array in zip(got_pool, want_pool):
            assert np.array_equal(got_array, want_array)


def _check_against_replay(engine, graph, seed, batches, decay_rate):
    """Run ``batches`` through ``engine`` (built on ``graph`` with
    ``seed`` for index and bank) and compare with the replay oracle and
    with a rebuild on the final graph."""
    index = engine.index
    bank = index.sketches
    points = index.index_points
    num_sets = engine.maintainer.pools()[0][2].size
    initial = _reference_point_pools(graph, points, num_sets, seed)
    _assert_pools_equal(engine.maintainer.pools(), initial)
    reports = [engine.apply(batch)[0] for batch in batches]
    final_graph, pools, seed_lists = replay_pools(
        graph,
        points,
        initial,
        np.random.SeedSequence(seed, spawn_key=(0,)),
        1,
        batches,
        seed_list_length=index.config.seed_list_length,
        decay_rate=decay_rate,
    )
    assert engine.maintainer.graph.num_arcs == final_graph.num_arcs
    _assert_pools_equal(engine.maintainer.pools(), pools)
    for got, want in zip(engine.maintainer.seed_lists, seed_lists):
        assert got.nodes == want.nodes
        assert got.marginal_gains == want.marginal_gains
    _, bank_pools, _ = replay_pools(
        graph,
        np.eye(graph.num_topics),
        bank.pools(),
        np.random.SeedSequence(bank.config.seed),
        _block_size(graph.num_nodes),
        batches,
        seed_list_length=1,
        decay_rate=decay_rate,
    )
    live = engine.index.sketches.arrays()
    want_bank = SketchBank.from_pools(
        bank_pools, graph.num_nodes, bank.config
    ).arrays()
    rebuilt_bank = SketchBank.build(engine.maintainer.graph, bank.config)
    for name, array in rebuilt_bank.arrays().items():
        assert np.array_equal(live[name], want_bank[name])
        assert np.array_equal(live[name], array)
    _assert_pools_equal(
        _reference_point_pools(final_graph, points, num_sets, seed), pools
    )
    return reports


@given(
    graph_seed=st.integers(0, 2**20),
    stream_seed=st.integers(0, 2**20),
    seed=st.integers(0, 2**20),
    num_nodes=st.integers(15, 40),
    num_batches=st.integers(1, 3),
    decay_rate=st.sampled_from([0.0, 0.4]),
)
@SETTINGS
def test_engine_matches_replay_oracle(
    graph_seed, stream_seed, seed, num_nodes, num_batches, decay_rate
):
    """Pools, bank and seed lists equal the replay of the same initial
    pools and batches (bank seed = index seed); the bank served at
    construction is the index's own bank."""
    graph = _random_graph(num_nodes, num_nodes * 3, 3, graph_seed)
    index = _index(graph, 3, seed, bank_sets=25)
    engine = StreamingEngine(index, num_sets=40, decay_rate=decay_rate)
    assert engine.index.sketches is index.sketches
    batches = _random_stream(graph, num_batches, 3, stream_seed)
    _check_against_replay(engine, graph, seed, batches, decay_rate)


def test_bank_rewalks_only_hit_blocks():
    """On a graph large enough for several blocks per bank pool, a batch
    re-walks some blocks and keeps others, still matching the replay."""
    n = 8192
    rng = np.random.default_rng(3)
    tails = rng.integers(0, n, size=3 * n)
    heads = rng.integers(0, n, size=3 * n)
    keep = tails != heads
    pairs = np.unique(np.stack([tails[keep], heads[keep]], axis=1), axis=0)
    graph = TopicGraph.from_arcs(
        n, pairs, rng.uniform(0.05, 0.4, size=(pairs.shape[0], 2))
    )
    block = _block_size(n)
    assert block < 1000
    index = _index(graph, 2, 11, bank_sets=2 * block + 50)
    engine = StreamingEngine(index, num_sets=60)
    _check_against_replay(
        engine, graph, 11, _random_stream(graph, 2, 2, 13), 0.0
    )
    bank = engine.stats()["sketch_maintainer"]
    assert bank["rr_sets_resampled"] > 0
    assert bank["rr_sets_retained"] > 0


@given(
    graph_seed=st.integers(0, 2**20),
    stream_seed=st.integers(0, 2**20),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=8, deadline=None)
def test_maintained_pools_estimate_exact_spread(
    graph_seed, stream_seed, seed
):
    """After deltas, each maintained point pool's and bank pool's
    spread estimate of a fixed seed set lies within 5 binomial sigmas
    of the exact spread on the final graph."""
    # At most 8 arcs plus 4 adds: exact enumeration stays at <= 2^12
    # outcomes per call.
    graph = _random_graph(7, 8, 2, graph_seed)
    num_sets = 3000
    engine = StreamingEngine(
        _index(graph, 2, seed, bank_sets=num_sets), num_sets=num_sets
    )
    for batch in _random_stream(graph, 2, 2, stream_seed):
        engine.apply(batch)
    final = engine.maintainer.graph
    assert final.num_arcs <= 12 <= MAX_EXACT_ARCS
    n = final.num_nodes
    items = list(engine.index.index_points) + list(np.eye(2))
    pools = engine.maintainer.pools() + engine.index.sketches.pools()
    for gamma, pool in zip(items, pools):
        estimator = RRIndex(*pool, n)
        for seeds in ([0], [1, 2]):
            exact = exact_spread(final, gamma, seeds)
            p = exact / n
            sigma = n * math.sqrt(p * (1.0 - p) / num_sets)
            assert abs(estimator.spread_of(seeds) - exact) <= 5 * sigma + 1e-9


def test_pools_are_worker_count_invariant():
    """Initial pools and pools after a batch are the same for 1 and 2
    workers (the walker takes a sampler block of sets per call, so a
    pool larger than one block spans several calls)."""
    graph = _random_graph(60, 240, 3, 5)
    index = _index(graph, 3, 17, bank_sets=200)
    num_sets = _block_size(graph.num_nodes) + 300
    serial = StreamingEngine(index, num_sets=num_sets, workers=1)
    threaded = StreamingEngine(index, num_sets=num_sets, workers=2)
    _assert_pools_equal(
        serial.maintainer.pools(), threaded.maintainer.pools()
    )
    for batch in _random_stream(graph, 2, 3, 19):
        serial.apply(batch)
        threaded.apply(batch)
    _assert_pools_equal(
        serial.maintainer.pools(), threaded.maintainer.pools()
    )
    for name, array in serial.index.sketches.arrays().items():
        assert np.array_equal(threaded.index.sketches.arrays()[name], array)
    assert [s.nodes for s in serial.maintainer.seed_lists] == [
        s.nodes for s in threaded.maintainer.seed_lists
    ]


def _keys(seed_sequences):
    return {
        (int(ss.entropy), tuple(int(k) for k in ss.spawn_key))
        for ss in seed_sequences
    }


def test_point_pools_and_bank_never_share_a_stream():
    """With one seed for index and bank (as CLI builds do), the point
    pools' per-set keys and the bank's block keys are disjoint."""
    graph = _random_graph(40, 120, 3, 9)
    seed = 235139577
    block = _block_size(graph.num_nodes)
    num_sets = block + 300
    index = _index(graph, 3, seed, bank_sets=num_sets)
    bank = index.sketches
    assert bank.config.seed == index.config.seed
    engine = StreamingEngine(index, num_sets=num_sets)
    # The point pools are the walks of the keys (0, pid, sid) ...
    _assert_pools_equal(
        engine.maintainer.pools(),
        _reference_point_pools(graph, index.index_points, num_sets, seed),
    )
    root = point_pool_root(seed)
    point_pools = _keys(
        np.random.SeedSequence(
            root.entropy, spawn_key=tuple(root.spawn_key) + (pid, sid)
        )
        for pid in range(3)
        for sid in range(num_sets)
    )
    # ... and the adopted bank is SketchBank.build's, keyed (topic, block).
    rebuilt = SketchBank.build(graph, bank.config)
    for name, array in rebuilt.arrays().items():
        assert np.array_equal(engine.index.sketches.arrays()[name], array)
    bank_pools = _keys(
        np.random.SeedSequence(seed, spawn_key=(z, b))
        for z in range(3)
        for b in range(math.ceil(num_sets / block))
    )
    assert len(point_pools) == 3 * num_sets
    assert len(bank_pools) == 3 * 2
    assert point_pools.isdisjoint(bank_pools)
