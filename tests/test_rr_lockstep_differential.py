"""Differential tests: one lock-step walk over many random streams.

:func:`repro.im.imm.sample_rr_block` walks the sets of many streams in
one pass, each stream owning a run of consecutive sets.  Every stream
must draw exactly what it draws walked alone, so a pass over streams
of mixed sizes must equal the concatenation of the streams' lone walks
(``values``, ``indptr`` and ``roots`` bytes, and the generator state
each stream is left in), and it must equal the flat-key walker it
replaced (``flat_key_block`` in ``tests/rr_reference.py``) for one
generator and for one generator per set.

Covered: streams owning no set, nodes without in-arcs (frontiers that
empty at once), graphs without arcs (no set leaves its root), fixed
roots, and passes split by a visited-matrix budget shrunk to a few
sets.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.im import imm
from repro.im.imm import _merge_blocks, sample_rr_block
from tests.rr_reference import flat_key_block
from tests.test_rr_differential import GRAPHS, _gamma, _graph, _in_view

SETTINGS = settings(
    max_examples=max(5, settings.default.max_examples // 4), deadline=None
)

#: Sets owned by each stream of a pass; zero-set streams included.
COUNTS = st.lists(st.integers(0, 9), min_size=1, max_size=8)


def _streams(seed, num_streams):
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for i in range(num_streams)
    ]


def _assert_triples_equal(got, want):
    for ours, theirs in zip(got, want):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


def _states(streams):
    return [stream.bit_generator.state for stream in streams]


def _fixed_roots(seed, num_nodes, num_sets):
    return np.random.default_rng(seed).integers(0, num_nodes, size=num_sets)


def _lone_walks(view, num_nodes, counts, streams, roots=None):
    """Each stream walked by itself, concatenated in stream order."""
    parts = []
    first = 0
    for stream, count in zip(streams, counts):
        parts.append(
            sample_rr_block(
                *view,
                num_nodes,
                count,
                stream,
                None if roots is None else roots[first : first + count],
            )
        )
        first += count
    return _merge_blocks(parts, first)


@given(
    shape=GRAPHS,
    seed=st.integers(0, 2**32 - 1),
    counts=COUNTS,
    fixed=st.booleans(),
)
@SETTINGS
def test_pass_matches_each_stream_walked_alone(shape, seed, counts, fixed):
    graph = _graph(*shape)
    n = graph.num_nodes
    view = _in_view(graph, _gamma(shape[2], seed))
    roots = _fixed_roots(seed, n, sum(counts)) if fixed else None
    ours, theirs = _streams(seed, len(counts)), _streams(seed, len(counts))
    got = sample_rr_block(*view, n, counts, ours, roots)
    want = _lone_walks(view, n, counts, theirs, roots)
    _assert_triples_equal(got, want)
    assert _states(ours) == _states(theirs)


@given(
    shape=GRAPHS,
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 40),
    per_set=st.booleans(),
    fixed=st.booleans(),
)
@SETTINGS
def test_pass_matches_frozen_flat_key_walker(
    shape, seed, count, per_set, fixed
):
    graph = _graph(*shape)
    n = graph.num_nodes
    view = _in_view(graph, _gamma(shape[2], seed))
    roots = _fixed_roots(seed, n, count) if fixed else None
    if per_set:
        if count == 0:
            return  # The frozen walker draws no coin from zero streams.
        ours, theirs = _streams(seed, count), _streams(seed, count)
        got = sample_rr_block(*view, n, [1] * count, ours, roots)
        want = flat_key_block(*view, n, count, theirs, roots)
    else:
        ours = [np.random.default_rng(seed)]
        theirs = [np.random.default_rng(seed)]
        got = sample_rr_block(*view, n, count, ours[0], roots)
        want = flat_key_block(*view, n, count, theirs[0], roots)
    _assert_triples_equal(got, want)
    assert _states(ours) == _states(theirs)


@given(
    num_nodes=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    counts=COUNTS,
)
@SETTINGS
def test_arcless_graph_keeps_every_set_at_its_root(num_nodes, seed, counts):
    in_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    view = (in_indptr, np.empty(0, np.int64), np.empty(0, np.float64))
    ours, theirs = _streams(seed, len(counts)), _streams(seed, len(counts))
    values, indptr, roots = sample_rr_block(*view, num_nodes, counts, ours)
    assert values.tobytes() == roots.tobytes()
    assert indptr.tolist() == list(range(sum(counts) + 1))
    want = [
        stream.integers(0, num_nodes, size=count)
        for stream, count in zip(theirs, counts)
    ]
    assert roots.tolist() == np.concatenate(want).tolist()
    assert _states(ours) == _states(theirs)


@given(
    shape=GRAPHS,
    seed=st.integers(0, 2**32 - 1),
    counts=COUNTS,
    budget_sets=st.integers(1, 12),
    fixed=st.booleans(),
)
@SETTINGS
def test_pass_split_at_the_budget_walks_the_same_sets(
    shape, seed, counts, budget_sets, fixed
):
    graph = _graph(*shape)
    n = graph.num_nodes
    view = _in_view(graph, _gamma(shape[2], seed))
    roots = _fixed_roots(seed, n, sum(counts)) if fixed else None
    whole = _streams(seed, len(counts))
    want = sample_rr_block(*view, n, counts, whole, roots)
    split = _streams(seed, len(counts))
    with mock.patch.object(imm, "_PASS_BYTES", budget_sets * n):
        assert imm._pass_sets(n) == budget_sets
        got = sample_rr_block(*view, n, counts, split, roots)
    _assert_triples_equal(got, want)
    assert _states(split) == _states(whole)


def test_mismatched_counts_rejected():
    view = (np.zeros(3, dtype=np.int64), np.empty(0, np.int64), np.empty(0))
    with pytest.raises(ValueError, match="1 set counts for 2 streams"):
        sample_rr_block(*view, 2, [1], _streams(0, 2))
