"""Byte identity and retained size of the server's packed answers.

The query server packs each computed answer into a
:class:`~repro.serving.protocol.ServedAnswer` on the executor thread;
its result cache keeps that record, and every ``/query`` and
``/query_batch`` answer — hit, miss or coalesced follower — is rendered
from it.  These tests hold that rendering to the bytes of the wire
form rendered straight from the :class:`~repro.core.query.TimAnswer`
(``legacy_answer_dict`` below), for every strategy and for
epsilon-exact, deadline-degraded and distance-fallback answers, and
hold the flight record's ``timings`` to the answer's.  They also bound
what a full result cache and a full flight ring retain.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import threading
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.core import (
    STRATEGIES,
    InflexConfig,
    InflexIndex,
    ServingConfig,
    SketchConfig,
)
from repro.core.cache import CachedIndex
from repro.core.query import QueryTiming, TimAnswer
from repro.datasets import generate_flixster_like
from repro.im.seed_list import SeedList
from repro.obs.flightrec import FlightRecord, FlightRecorder
from repro.serving import BatchItem, QueryServer
from repro.serving.protocol import (
    ServedAnswer,
    answer_to_dict,
    encode_request,
    json_body,
    read_response,
)
from repro.sketches import SketchBank

K = 5


def legacy_answer_dict(answer, *, cache_hit=False, coalesced=False) -> dict:
    """The wire form rendered straight from a ``TimAnswer``: the
    reference every packed rendering must match byte for byte."""
    return {
        "seeds": list(answer.seeds.nodes),
        "strategy": answer.strategy,
        "algorithm": answer.seeds.algorithm,
        "epsilon_match": bool(answer.epsilon_match),
        "degraded": bool(answer.degraded),
        "reason": answer.reason,
        "num_neighbors_used": answer.num_neighbors_used,
        "timing_ms": round(answer.timing.total * 1000.0, 4),
        "cache_hit": bool(cache_hit),
        "coalesced": bool(coalesced),
    }


def legacy_timings(answer) -> dict:
    """The flight record's ``timings`` as read off a ``TimAnswer``."""
    timing = answer.timing
    return {
        "search": timing.search,
        "selection": timing.selection,
        "aggregation": timing.aggregation,
        "total": timing.total,
    }


def _copy_with_bank(index, fallback_divergence: float) -> InflexIndex:
    """A private copy of ``index`` with a sketch bank attached (the
    shared ``small_index`` fixture stays read-only)."""
    copy = InflexIndex(
        index.graph,
        index.index_points,
        list(index.seed_lists),
        index.config,
        dirichlet=index.dirichlet,
        tree=index.tree,
    )
    copy.attach_sketches(
        SketchBank.build(
            index.graph,
            SketchConfig(
                num_sets=200,
                fallback_divergence=fallback_divergence,
                seed=29,
            ),
        )
    )
    return copy


@pytest.fixture(scope="module")
def bank_index(small_index) -> InflexIndex:
    """Answers every strategy; only far queries fall back."""
    return _copy_with_bank(small_index, SketchConfig().fallback_divergence)


@pytest.fixture(scope="module")
def far_index(small_index) -> InflexIndex:
    """Every non-sketch query is "far": distance fallbacks."""
    return _copy_with_bank(small_index, 1e-9)


def _gammas(index, count: int, seed: int) -> list[list[float]]:
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.full(index.graph.num_topics, 0.8), size=count)
    return [[float(v) for v in row] for row in rows]


# ----------------------------------------------------------------------
# In process: the packed record renders the TimAnswer's bytes
# ----------------------------------------------------------------------
class TestPackedRendering:
    def test_every_strategy_and_outcome_renders_identically(
        self, bank_index, far_index
    ):
        seen = set()
        for index in (bank_index, far_index):
            # An index point itself is an epsilon-exact match.
            gammas = _gammas(index, 6, seed=3) + [
                [float(v) for v in index.index_points[2]]
            ]
            for strategy, gamma, deadline_ms, k in itertools.product(
                STRATEGIES, gammas, (None, 1e-7), (1, K, 12)
            ):
                answer = index.query(
                    gamma, k, strategy=strategy, deadline_ms=deadline_ms
                )
                packed = ServedAnswer.of(answer)
                flags = itertools.product((False, True), (False, True))
                for hit, coalesced in flags:
                    expected = json_body(
                        legacy_answer_dict(
                            answer, cache_hit=hit, coalesced=coalesced
                        )
                    )
                    assert json_body(
                        answer_to_dict(
                            packed, cache_hit=hit, coalesced=coalesced
                        )
                    ) == expected
                    assert json_body(
                        answer_to_dict(
                            answer, cache_hit=hit, coalesced=coalesced
                        )
                    ) == expected
                assert packed.seeds == list(answer.seeds.nodes)
                assert packed.total == answer.timing.total
                seen.add((strategy, answer.seeds.algorithm, answer.reason))
                if answer.epsilon_match:
                    seen.add("epsilon_match")
        # The sweep reaches every kind of answer it claims to compare.
        assert {entry[0] for entry in seen if isinstance(entry, tuple)} == (
            set(STRATEGIES)
        )
        reasons = {entry[2] for entry in seen if isinstance(entry, tuple)}
        assert {None, "deadline", "distance"} <= reasons
        assert "epsilon_match" in seen
        assert any(
            entry[1] == "sketch:fallback"
            for entry in seen
            if isinstance(entry, tuple)
        )

    def test_uint32_node_ids_and_odd_timings_round_trip(self):
        answer = TimAnswer(
            seeds=SeedList(
                (2**32 - 1, 0, 7, 2**31), algorithm="celf++:degraded"
            ),
            strategy="approx-ad",
            neighbor_ids=(4, 1),
            neighbor_divergences=(0.5, 0.75),
            timing=QueryTiming(
                search=0.1, selection=0.2, aggregation=1.3e-7
            ),
            epsilon_match=True,
            degraded=True,
            reason="deadline",
        )
        packed = ServedAnswer.of(answer)
        assert packed.seeds == [2**32 - 1, 0, 7, 2**31]
        assert len(packed.packed_seeds) == 16
        # 0.1 + 0.2 + 1.3e-7 is not 0.1 + (0.2 + 1.3e-7): the order of
        # QueryTiming.total is kept.
        assert packed.total == answer.timing.total
        assert json_body(answer_to_dict(packed)) == json_body(
            legacy_answer_dict(answer)
        )

    def test_records_share_their_strings(self, small_index):
        gamma = [0.4, 0.3, 0.2, 0.1]
        first = ServedAnswer.of(
            small_index.query(gamma, K, strategy="".join(["in", "flex"]))
        )
        second = ServedAnswer.of(
            small_index.query(gamma, K, strategy="".join(["inf", "lex"]))
        )
        assert first.strategy is second.strategy
        assert first.algorithm is second.algorithm


def test_cache_keys_are_bytes_and_never_collide(small_index):
    """The key is one ``bytes``; its ``k``/``Z`` prefix fixes where the
    vector ends, so a strategy never reads as vector bytes."""
    cached = CachedIndex(small_index)
    gammas = ([1.0, 0.0], [0.5, 0.5], [1.0, 0.0, 0.0], [0.25] * 4)
    strategies = ("", "inflex", "1:", "\x00" * 8, "\ud800")
    keys = [
        cached.canonical_key(gamma, k, strategy)
        for gamma, k, strategy in itertools.product(
            gammas, (1, 11), strategies
        )
    ]
    assert all(isinstance(key, bytes) for key in keys)
    assert len(set(keys)) == len(keys)


# ----------------------------------------------------------------------
# Through the server: hits, misses, coalesced followers, batches
# ----------------------------------------------------------------------
class _RecordingIndex:
    """Delegates to an index and keeps each computed ``TimAnswer``
    under its cache key."""

    def __init__(self, index, key_of):
        self._index = index
        self._key_of = key_of
        self.answers: dict = {}

    def __getattr__(self, name):
        return getattr(self._index, name)

    def query_batch(self, gammas, k, *, strategy, deadline_ms=None):
        answers = self._index.query_batch(
            gammas, k, strategy=strategy, deadline_ms=deadline_ms
        )
        for gamma, answer in zip(gammas, answers):
            self.answers[self._key_of(gamma, k, strategy)] = answer
        return answers


async def _send(port, target, body, request_id):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            encode_request(
                "POST",
                target,
                json_body(body),
                extra_headers={"X-Request-Id": request_id},
            )
        )
        await writer.drain()
        status, _headers, payload = await read_response(reader)
        return status, payload
    finally:
        writer.close()


@pytest.mark.parametrize("which", ["bank", "far"])
def test_server_responses_and_flight_timings_match_legacy_bytes(
    which, bank_index, far_index
):
    index = bank_index if which == "bank" else far_index
    obs.enable()
    gammas = _gammas(index, 8, seed=41)
    point = [float(v) for v in index.index_points[3]]
    ids = itertools.count()
    sent = []  # (request_id, target, body, expected, parts)

    async def scenario(server):
        recorder = _RecordingIndex(index, server.cache.canonical_key)
        server.index = recorder

        async def send(target, body, parts):
            request_id = f"req-{next(ids):04d}"
            status, payload = await _send(
                server.port, target, body, request_id
            )
            assert status == 200, payload
            sent.append((request_id, target, payload, parts))

        def q(gamma, strategy="inflex", **extra):
            return {"gamma": gamma, "k": K, "strategy": strategy, **extra}

        # Misses, one per strategy, then the same queries as hits.
        for strategy, gamma in zip(STRATEGIES, gammas):
            await send(
                "/query",
                q(gamma, strategy),
                [(gamma, K, strategy, False, False)],
            )
        await send("/query", q(point), [(point, K, "inflex", False, False)])
        for strategy, gamma in zip(STRATEGIES, gammas):
            await send(
                "/query",
                q(gamma, strategy),
                [(gamma, K, strategy, True, False)],
            )
        # A deadline-degraded miss, then its hit.
        late = gammas[6]
        for hit in (False, True):
            await send(
                "/query",
                q(late, deadline_ms=1e-6),
                [(late, K, "inflex", hit, False)],
            )
        # Coalesced followers: hold the executor while the leader
        # computes, so three identical reads join its flight.
        entered, release = threading.Event(), threading.Event()
        run = server.batcher._run

        def held_run(items):  # on the executor thread
            entered.set()
            assert release.wait(10)
            return run(items)

        server.batcher._run = held_run
        hot = gammas[7]
        hot_query = q(hot, "approx-knn")
        leader = asyncio.ensure_future(
            send("/query", hot_query, [(hot, K, "approx-knn", False, False)])
        )
        while not entered.is_set():
            await asyncio.sleep(0.001)
        followers = [
            asyncio.ensure_future(
                send(
                    "/query",
                    hot_query,
                    [(hot, K, "approx-knn", False, True)],
                )
            )
            for _ in range(3)
        ]
        while server.singleflight.coalesced_total < 3:
            await asyncio.sleep(0.001)
        release.set()
        await asyncio.gather(leader, *followers)
        server.batcher._run = run
        # A mixed batch: hits, a miss, a follower coalesced inside the
        # batch, another k, a strategy default and a member error.
        fresh = _gammas(index, 2, seed=43)
        await send(
            "/query_batch",
            {
                "k": K,
                "strategy": "approx-knn-sel",
                "queries": [
                    {"gamma": gammas[0], "strategy": STRATEGIES[0]},
                    {"gamma": fresh[0]},
                    {"gamma": fresh[0]},
                    {"gamma": fresh[1], "k": 3, "strategy": "sketch"},
                    {"gamma": hot, "strategy": "approx-knn"},
                    {"gamma": [0.5, 0.5], "k": 2},
                ],
            },
            [
                (gammas[0], K, STRATEGIES[0], True, False),
                (fresh[0], K, "approx-knn-sel", False, False),
                (fresh[0], K, "approx-knn-sel", False, True),
                (fresh[1], 3, "sketch", False, False),
                (hot, K, "approx-knn", True, False),
                None,
            ],
        )
        return recorder.answers

    async def main():
        server = QueryServer(index, ServingConfig(port=0))
        await server.start()
        try:
            answers = await scenario(server)
            return server, answers
        finally:
            await server.aclose()

    server, answers = asyncio.run(main())
    key_of = server.cache.canonical_key
    kinds = set()
    for request_id, target, payload, parts in sent:
        expected = []
        for part in parts:
            if part is None:
                expected.append(None)
                continue
            gamma, k, strategy, hit, coalesced = part
            answer = answers[key_of(gamma, k, strategy)]
            expected.append(
                legacy_answer_dict(answer, cache_hit=hit, coalesced=coalesced)
            )
            kinds.add((hit, coalesced, answer.reason, answer.epsilon_match))
        if target == "/query":
            assert payload == json_body(expected[0])
        else:
            members = json.loads(payload)["answers"]
            assert "error" in members[-1]
            expected[-1] = members[-1]
            assert payload == json_body({"answers": expected})
        # The flight record keeps the answer's own timings, hit or not.
        record = server.flight.find(request_id)
        first = parts[0]
        answer = answers[key_of(*first[:3])]
        assert record.timings == legacy_timings(answer)
        assert record.to_dict()["timings_ms"] == {
            name: value * 1e3 for name, value in legacy_timings(answer).items()
        }
        assert record.cache_hit == any(p[3] for p in parts if p)
        assert record.coalesced == any(p[4] for p in parts if p)
    assert any(kind[0] for kind in kinds)  # a cache hit
    assert any(kind[1] for kind in kinds)  # a coalesced follower
    assert any(kind[2] == "deadline" for kind in kinds)
    assert any(kind[3] for kind in kinds)  # an epsilon-exact answer
    if which == "far":
        assert any(kind[2] == "distance" for kind in kinds)


# ----------------------------------------------------------------------
# Retained bytes
# ----------------------------------------------------------------------
#: Bytes a full server cache may keep per entry (key, packed record,
#: timestamp and LRU slot; about 520 B at Z=6, k=10, against about
#: 1,440 B for a cached ``TimAnswer``).
CACHE_BYTES_PER_ENTRY = 640

#: Bytes a full flight ring may keep per server-shaped record (ids,
#: the query's gamma, the timings dict; about 860 B at Z=6).
FLIGHT_BYTES_PER_RECORD = 1024


@pytest.fixture(scope="module")
def perf_shaped_index() -> InflexIndex:
    """A small index with the benchmark's Z=6 and seed lists of 10."""
    data = generate_flixster_like(
        num_nodes=150, num_topics=6, num_items=40, seed=5
    )
    config = InflexConfig(
        num_index_points=8,
        num_dirichlet_samples=300,
        seed_list_length=10,
        imm_epsilon=0.5,
        seed=3,
    )
    return InflexIndex.build(data.graph, data.item_topics, config)


def _fill(server, gammas, strategies, k):
    """Run ``gammas`` through ``server._run_batch`` as wire requests
    would arrive: fresh strategy strings, keys from the cache."""
    for start in range(0, len(gammas), 64):
        strategy = "".join(strategies[(start // 64) % len(strategies)])
        items = [
            BatchItem(
                gamma=list(gamma),
                k=k,
                strategy=strategy,
                deadline=None,
                future=None,
                key=server.cache.canonical_key(gamma, k, strategy),
            )
            for gamma in gammas[start : start + 64]
        ]
        server._run_batch(items)


def test_full_server_cache_retains_at_most_640_bytes_an_entry(
    perf_shaped_index,
):
    entries = 4096
    server = QueryServer(
        perf_shaped_index, ServingConfig(port=0, cache_entries=entries)
    )
    rng = np.random.default_rng(17)
    gammas = rng.dirichlet(np.ones(6), size=entries)
    strategies = ("inflex", "exact-knn")
    # Warm the index's lazily built state first: only entries count.
    _fill(server, gammas[:128], strategies, 10)
    server.cache.clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _fill(server, gammas, strategies, 10)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(server.cache) == entries
    assert retained / entries <= CACHE_BYTES_PER_ENTRY, retained / entries


def _server_shaped_record(i: int) -> FlightRecord:
    """A record as ``QueryServer._finish_request`` builds one."""
    return FlightRecord(
        request_id=f"{i:016x}",
        trace_id=f"{i:032x}",
        route="/query",
        fingerprint="",
        gamma=[0.1 + i * 1e-9, 0.2, 0.3, 0.1, 0.2, 0.1],
        k=10,
        strategy="inflex",
        status=200,
        duration_s=0.004 + i * 1e-9,
        num_neighbors_used=3,
        batch_id=i,
        timings={
            "search": 0.001 + i * 1e-12,
            "selection": 0.002 + i * 1e-12,
            "aggregation": 0.001 + i * 1e-12,
            "total": 0.004 + i * 1e-12,
        },
    )


def test_flight_records_are_slotted_and_bounded():
    record = _server_shaped_record(0)
    assert not hasattr(record, "__dict__")
    obs.enable()
    capacity = 1024
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ring = FlightRecorder(capacity=capacity, slow_threshold_s=60.0)
        for i in range(3 * capacity):
            ring.record(_server_shaped_record(i))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(ring) == capacity
    assert retained / capacity <= FLIGHT_BYTES_PER_RECORD, retained / capacity
    # The rough accounting covers each slotted record once.
    approx = ring.approx_memory_bytes()
    assert 0 < approx < retained
