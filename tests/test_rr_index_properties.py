"""Property-based tests for the CSR :class:`repro.im.imm.RRIndex`.

Hypothesis drives randomized set families through the index and checks
the invariants the IMM engine leans on:

* pack/unpack roundtrip — ``members(i)`` returns exactly the sets that
  went in;
* coverage bookkeeping — ``coverage_counts``/``covered_count`` agree
  with a naive Python-set recount;
* greedy max coverage — the selection is invariant under any
  permutation of the stored sets.

Style follows ``tests/test_cascade_properties.py``: scalars are drawn
by Hypothesis, bulk structure by a numpy generator seeded from a drawn
seed, so shrinking stays effective while the data stays graph-shaped.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.im.imm import RRIndex

SETTINGS = settings(max_examples=25, deadline=None)


def _random_family(num_nodes: int, num_sets: int, seed: int):
    """Build a random RR-set family as plain Python sets plus arrays.

    Each set has at least one member (its root — real RR sets always
    contain the node they were grown from).
    """
    rng = np.random.default_rng(seed)
    members: list[np.ndarray] = []
    roots: list[int] = []
    for _ in range(num_sets):
        size = int(rng.integers(1, num_nodes + 1))
        chosen = rng.choice(num_nodes, size=size, replace=False)
        chosen = np.sort(chosen).astype(np.uint32)
        members.append(chosen)
        roots.append(int(rng.choice(chosen)))
    values = (
        np.concatenate(members)
        if members
        else np.zeros(0, dtype=np.uint32)
    )
    indptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum([m.size for m in members], out=indptr[1:])
    return members, values, indptr, np.asarray(roots, dtype=np.uint32)


@given(
    num_nodes=st.integers(min_value=1, max_value=80),
    num_sets=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@SETTINGS
def test_pack_unpack_roundtrip(num_nodes, num_sets, seed):
    members, values, indptr, roots = _random_family(
        num_nodes, num_sets, seed
    )
    index = RRIndex(values, indptr, roots, num_nodes)
    assert index.num_sets == num_sets
    for set_id, expected in enumerate(members):
        unpacked = index.members(set_id)
        assert unpacked.dtype == np.uint32
        assert np.array_equal(unpacked, expected)
        assert index.contains(set_id, int(roots[set_id]))
        absent = [
            v
            for v in range(num_nodes)
            if v not in set(expected.tolist())
        ]
        if absent:
            assert not index.contains(set_id, absent[0])


@given(
    num_nodes=st.integers(min_value=1, max_value=60),
    num_sets=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@SETTINGS
def test_coverage_matches_naive_recount(num_nodes, num_sets, seed):
    members, values, indptr, roots = _random_family(
        num_nodes, num_sets, seed
    )
    index = RRIndex(values, indptr, roots, num_nodes)
    as_sets = [set(m.tolist()) for m in members]
    counts = index.coverage_counts()
    for node in range(num_nodes):
        naive = sum(1 for s in as_sets if node in s)
        assert counts[node] == naive
    rng = np.random.default_rng(seed + 1)
    seeds = rng.choice(
        num_nodes, size=min(3, num_nodes), replace=False
    ).tolist()
    naive_covered = sum(
        1 for s in as_sets if not set(seeds).isdisjoint(s)
    )
    assert index.covered_count(seeds) == naive_covered
    assert index.spread_estimate(seeds) == pytest.approx(
        num_nodes * naive_covered / num_sets
    )


@given(
    num_nodes=st.integers(min_value=2, max_value=50),
    num_sets=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=6),
)
@SETTINGS
def test_greedy_invariant_under_set_permutation(
    num_nodes, num_sets, seed, k
):
    members, values, indptr, roots = _random_family(
        num_nodes, num_sets, seed
    )
    k = min(k, num_nodes)
    index = RRIndex(values, indptr, roots, num_nodes)
    rng = np.random.default_rng(seed + 2)
    order = rng.permutation(num_sets)
    shuffled_members = [members[i] for i in order]
    shuffled_values = (
        np.concatenate(shuffled_members)
        if shuffled_members
        else np.zeros(0, dtype=np.uint32)
    )
    shuffled_indptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(
        [m.size for m in shuffled_members], out=shuffled_indptr[1:]
    )
    shuffled = RRIndex(
        shuffled_values,
        shuffled_indptr,
        roots[order],
        num_nodes,
    )
    assert index.greedy_select(k) == shuffled.greedy_select(k)


@given(
    num_nodes=st.integers(min_value=2, max_value=50),
    num_sets=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@SETTINGS
def test_greedy_gains_nonincreasing_and_seeds_distinct(
    num_nodes, num_sets, seed
):
    _, values, indptr, roots = _random_family(num_nodes, num_sets, seed)
    index = RRIndex(values, indptr, roots, num_nodes)
    k = min(num_nodes, 10)
    seeds, gains = index.greedy_select(k)
    assert len(seeds) == k
    assert len(set(seeds)) == k
    assert all(
        gains[i] >= gains[i + 1] for i in range(len(gains) - 1)
    )
    assert sum(gains) == index.covered_count(seeds)


def test_validation_rejects_malformed_input():
    with pytest.raises(ValueError, match="num_nodes"):
        RRIndex(
            np.zeros(0, np.uint32), np.zeros(1, np.int64),
            np.zeros(0, np.uint32), 0,
        )
    with pytest.raises(ValueError, match="roots"):
        RRIndex(
            np.array([1], np.uint32), np.array([0, 1], np.int64),
            np.zeros(0, np.uint32), 4,
        )
    with pytest.raises(ValueError, match="out of node range"):
        RRIndex(
            np.array([9], np.uint32), np.array([0, 1], np.int64),
            np.array([9], np.uint32), 4,
        )
    with pytest.raises(ValueError, match="indptr"):
        RRIndex(
            np.array([1], np.uint32), np.array([0, 2], np.int64),
            np.array([1], np.uint32), 4,
        )
    index = RRIndex(
        np.array([1], np.uint32), np.array([0, 1], np.int64),
        np.array([1], np.uint32), 4,
    )
    with pytest.raises(ValueError, match="set_id"):
        index.members(5)
    with pytest.raises(ValueError, match="set_id"):
        index.contains(-1, 0)
    with pytest.raises(ValueError, match="k"):
        index.greedy_select(-1)
    with pytest.raises(ValueError, match="k="):
        index.greedy_select(9)
    with pytest.raises(ValueError, match="seed"):
        index.covered_count([99])
