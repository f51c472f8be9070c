"""Differential test: IMM's certified doubling rounds against a greedy
after every round.

:func:`repro.im.imm_seed_selection` skips the pooled index and the
greedy of a phase-1 round whose ``k`` largest node coverage counts
already fall short of ``(1 + eps') * x``, since the greedy's coverage
cannot exceed their sum.  Only the round's verdict is used, so the run
must match :func:`imm_greedy_every_round` (``tests/rr_reference.py``)
exactly: seed-list nodes and gains, the final pooled ``RRIndex``
bytes, and the number of sets drawn by every sampling request.

Covered: ``k`` up to every node, caps that stop the collection from
growing (rounds that re-test the same sets), the canonical and an
explicit ``delta``, and one or two sampling workers.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.im import imm
from repro.im.imm import RRSampler, imm_seed_selection
from tests.rr_reference import imm_greedy_every_round
from tests.test_rr_differential import GRAPHS, _gamma, _graph

SETTINGS = settings(
    max_examples=max(5, settings.default.max_examples // 4), deadline=None
)


class _Recorded(imm.RRIndex):
    """An ``RRIndex`` that keeps every instance built."""

    built: list = []

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        _Recorded.built.append(self)


def _recording(sampler, requests: list):
    """Have ``sampler`` log ``(request, num_sets)`` of every sample."""
    sample = sampler.sample

    def logged(gamma, num_sets, *, seed=None, request=0):
        requests.append((request, num_sets))
        return sample(gamma, num_sets, seed=seed, request=request)

    sampler.sample = logged
    return sampler


@given(
    shape=GRAPHS,
    seed=st.integers(0, 2**32 - 1),
    k_share=st.floats(0.0, 1.0),
    epsilon=st.floats(0.2, 0.9),
    delta=st.one_of(st.none(), st.floats(0.01, 0.5)),
    max_sets=st.one_of(st.none(), st.integers(2, 5000)),
    workers=st.sampled_from([1, 2]),
)
@SETTINGS
def test_certified_rounds_match_a_greedy_every_round(
    shape, seed, k_share, epsilon, delta, max_sets, workers
):
    graph = _graph(*shape)
    n = graph.num_nodes
    # Squared, so small budgets (where rounds fail on the bound) are
    # drawn more often; k still reaches n.
    k = max(1, round(k_share**2 * n))
    gamma = _gamma(shape[2], seed)
    ours, theirs = [], []
    _Recorded.built = []
    with RRSampler(graph, workers=workers) as sampler:
        with mock.patch.object(imm, "RRIndex", _Recorded):
            got = imm_seed_selection(
                graph,
                gamma,
                k,
                epsilon=epsilon,
                delta=delta,
                seed=seed,
                max_sets=max_sets,
                sampler=_recording(sampler, ours),
            )
    with RRSampler(graph, workers=workers) as sampler:
        want, want_index = imm_greedy_every_round(
            _recording(sampler, theirs),
            gamma,
            k,
            epsilon=epsilon,
            delta=delta,
            seed=seed,
            max_sets=max_sets,
        )
    assert got.nodes == want.nodes
    assert got.marginal_gains == want.marginal_gains
    assert ours == theirs
    got_index = _Recorded.built[-1]
    for mine, reference in zip(got_index.csr(), want_index.csr()):
        assert mine.dtype == reference.dtype
        assert mine.tobytes() == reference.tobytes()


def test_failing_rounds_skip_the_greedy(small_graph):
    """On a 200-node graph some rounds fail on the bound alone: fewer
    greedy runs, the same seed list."""
    gamma = _gamma(small_graph.num_topics, 5)
    calls = []
    greedy = imm.RRIndex.greedy_select

    def counted(self, k, **kwargs):
        calls.append(self.num_sets)
        return greedy(self, k, **kwargs)

    with mock.patch.object(imm.RRIndex, "greedy_select", counted):
        got = imm_seed_selection(
            small_graph, gamma, 5, epsilon=0.3, seed=9, workers=1
        )
        ours = len(calls)
        calls.clear()
        with RRSampler(small_graph, workers=1) as sampler:
            want, _ = imm_greedy_every_round(
                sampler, gamma, 5, epsilon=0.3, seed=9
            )
    assert got == want
    assert 1 <= ours < len(calls)
