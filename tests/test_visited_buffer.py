"""One visited buffer under many walks: :class:`repro.im.imm._VisitedBuffer`.

Every pass of an :class:`~repro.im.imm.RRSampler` (and of each of its
pool workers) walks on one buffer that it clears by the keys it set,
instead of a fresh ``count * num_nodes`` matrix.  A buffer left dirty
would silently drop members from later sets, so these tests walk many
calls of different graph sizes and pass sizes through one buffer and
check each against the same call walked on fresh memory, with the
buffer all ``False`` after every call.  Threads walking on one buffer
(four, switching often) or sampling through one sampler (two) at once
must each get what a lone walk gets, and a pass that fails midway
must leave no set key behind.
"""

from __future__ import annotations

import pickle
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.im import imm
from repro.im.imm import RRSampler, _VisitedBuffer, sample_rr_block
from tests.test_rr_differential import GRAPHS, _gamma, _graph, _in_view

SETTINGS = settings(
    max_examples=max(5, settings.default.max_examples // 4), deadline=None
)

#: One call of a sequence: graph shape, stream seed, sets per stream
#: and the visited-matrix budget in sets (so pass sizes vary too).
CALLS = st.tuples(
    GRAPHS,
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 9), min_size=1, max_size=6),
    st.integers(1, 12),
)


def _streams(seed, num_streams):
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for i in range(num_streams)
    ]


def _assert_triples_equal(got, want):
    for ours, theirs in zip(got, want):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


def _walk(shape, seed, counts, budget_sets, visited=None):
    graph = _graph(*shape)
    n = graph.num_nodes
    view = _in_view(graph, _gamma(shape[2], seed))
    with mock.patch.object(imm, "_PASS_BYTES", budget_sets * n):
        return sample_rr_block(
            *view, n, counts, _streams(seed, len(counts)), visited=visited
        )


@given(calls=st.lists(CALLS, min_size=1, max_size=6))
@SETTINGS
def test_interleaved_calls_on_one_buffer_match_fresh_walks(calls):
    buffer = _VisitedBuffer()
    for shape, seed, counts, budget_sets in calls:
        got = _walk(shape, seed, counts, budget_sets, buffer)
        want = _walk(shape, seed, counts, budget_sets)
        _assert_triples_equal(got, want)
        assert not buffer._array.any()


def _gammas(num_topics, count):
    return [_gamma(num_topics, 100 + i) for i in range(count)]


def test_two_threads_on_one_sampler_match_lone_walks(small_graph):
    """Both threads sample through one sampler's buffer at once; each
    result equals the same request sampled alone."""
    gammas = _gammas(small_graph.num_topics, 12)
    sizes = [37, 700, 3000, 5, 1500, 260] * 2
    with RRSampler(small_graph, workers=1) as sampler:
        want = [
            sampler.sample(gamma, size, seed=7, request=i)
            for i, (gamma, size) in enumerate(zip(gammas, sizes))
        ]
    got: dict = {}
    errors: list = []
    barrier = threading.Barrier(2)

    def worker(offset: int, shared: RRSampler) -> None:
        try:
            barrier.wait()
            for i in range(offset, len(gammas), 2):
                got[i] = shared.sample(
                    gammas[i], sizes[i], seed=7, request=i
                )
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    with RRSampler(small_graph, workers=1) as shared:
        threads = [
            threading.Thread(target=worker, args=(offset, shared))
            for offset in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not shared._visited._array.any()
    assert not errors
    for i, triple in enumerate(want):
        _assert_triples_equal(got[i], triple)


def test_threads_on_one_buffer_match_lone_walks():
    """More threads than CPUs walk on one buffer, switching as often as
    the interpreter allows; every walk equals its lone walk."""
    shape = (40, 160, 2, 3)
    num_threads = 4
    seeds = list(range(32))
    want = [_walk(shape, seed, [9, 4, 7], 6) for seed in seeds]
    buffer = _VisitedBuffer()
    got: dict = {}
    barrier = threading.Barrier(num_threads)
    graph = _graph(*shape)
    n = graph.num_nodes

    def worker(offset: int) -> None:
        barrier.wait()
        for seed in seeds[offset::num_threads]:
            view = _in_view(graph, _gamma(shape[2], seed))
            got[seed] = sample_rr_block(
                *view, n, [9, 4, 7], _streams(seed, 3), visited=buffer
            )

    interval = sys.getswitchinterval()
    # Patched once for every thread: a patch per call would race.
    with mock.patch.object(imm, "_PASS_BYTES", 6 * n):
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
    for seed, triple in zip(seeds, want):
        _assert_triples_equal(got[seed], triple)
    assert not buffer._array.any()


def test_a_held_buffer_hands_out_fresh_memory():
    buffer = _VisitedBuffer()
    held = buffer.acquire(64)
    got = _walk((30, 90, 2, 1), 5, [3, 2], 4, buffer)
    # The pass walked on fresh memory: the held buffer did not grow.
    assert buffer._array.nbytes == 64
    buffer.release(held, np.empty(0, dtype=np.int64))
    _assert_triples_equal(got, _walk((30, 90, 2, 1), 5, [3, 2], 4))
    assert buffer.acquire(8).base is buffer._array


class _Interrupted(BaseException):
    """Stands in for an interrupt that lands in the middle of a pass."""


class _Failing:
    """A stream whose coin draws fail, as an interrupted pass would."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        raise _Interrupted


def test_a_failed_pass_drops_the_buffer():
    graph = _graph(30, 160, 2, 1)
    n = graph.num_nodes
    view = _in_view(graph, _gamma(2, 1))
    buffer = _VisitedBuffer()
    sample_rr_block(*view, n, 20, np.random.default_rng(0), visited=buffer)
    assert buffer._array.nbytes > 0
    with pytest.raises(_Interrupted):
        sample_rr_block(*view, n, [20], [_Failing(1)], visited=buffer)
    assert buffer._array.nbytes == 0
    got = sample_rr_block(
        *view, n, 20, np.random.default_rng(2), visited=buffer
    )
    want = sample_rr_block(*view, n, 20, np.random.default_rng(2))
    _assert_triples_equal(got, want)


def test_sampler_buffer_is_freed_on_close(small_graph):
    sampler = RRSampler(small_graph, workers=1)
    sampler.sample(_gamma(small_graph.num_topics, 1), 500, seed=3)
    assert sampler._visited._array.nbytes > 0
    sampler.close()
    assert sampler._visited._array.nbytes == 0


def test_pickled_buffer_is_the_process_worker_buffer():
    buffer = _VisitedBuffer()
    buffer.acquire(16)
    first = pickle.loads(pickle.dumps(buffer))
    assert first is not buffer
    assert pickle.loads(pickle.dumps(buffer)) is first
    assert first is imm._worker_visited()
