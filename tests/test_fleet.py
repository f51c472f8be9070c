"""Tests for the supervised sharded serving fleet (`repro.serving.fleet`).

Covers the fleet components in isolation (circuit breaker state
machine with a scripted clock, hedging policy, topic-affinity routing,
zero-copy shared-memory index publication) and end-to-end: a real
router + worker-process fleet answering queries, surviving a SIGKILLed
worker via shared-memory re-attach, and running under an injected
worker-crash fault plan without ever failing an accepted request.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import FleetConfig, ServingConfig
from repro.resilience import CircuitBreaker, HedgePolicy
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN
from repro.serving import Fleet
from repro.serving.protocol import (
    HttpRequest,
    encode_request,
    json_body,
    read_response,
)
from repro.serving.shared_index import (
    attach_index,
    attach_kind,
    publish_index,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Circuit breaker: exact state-machine scripting
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0], **kwargs)
        return breaker, now

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self._breaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.opened_total == 1

    def test_success_resets_the_streak(self):
        breaker, _ = self._breaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        breaker, now = self._breaker(failure_threshold=1, cooloff_s=5.0)
        breaker.record_failure()
        assert not breaker.allow()
        now[0] = 5.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
        # The single probe slot is taken until its outcome lands.
        assert not breaker.allow()

    def test_probe_success_closes(self):
        breaker, now = self._breaker(failure_threshold=1, cooloff_s=1.0)
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_for_another_cooloff(self):
        breaker, now = self._breaker(failure_threshold=1, cooloff_s=1.0)
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        # Cooloff restarts from the re-trip, not the original trip.
        now[0] = 1.5
        assert breaker.state == OPEN
        now[0] = 2.0
        assert breaker.state == HALF_OPEN

    def test_force_open_skips_the_threshold(self):
        breaker, _ = self._breaker(failure_threshold=99)
        breaker.force_open()
        assert breaker.state == OPEN
        assert breaker.opened_total == 1

    def test_snapshot_shape(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap == {"state": CLOSED, "streak": 1, "opened_total": 0}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooloff_s=0.0)


# ----------------------------------------------------------------------
# Hedging policy
# ----------------------------------------------------------------------
class TestHedgePolicy:
    def test_fixed_delay_wins(self):
        policy = HedgePolicy(delay_ms=25.0)
        policy.observe(9.0)  # ignored: the delay is pinned
        assert policy.delay_s() == pytest.approx(0.025)

    def test_cold_window_uses_the_ceiling(self):
        policy = HedgePolicy(max_ms=200.0)
        assert policy.p99_ms() is None
        assert policy.delay_s() == pytest.approx(0.2)

    def test_derived_delay_tracks_the_window_p99(self):
        policy = HedgePolicy(min_ms=1.0, max_ms=10_000.0, factor=2.0)
        for latency_ms in range(1, 101):  # 1ms .. 100ms
            policy.observe(latency_ms / 1000.0)
        assert policy.p99_ms() == pytest.approx(100.0)
        assert policy.delay_s() == pytest.approx(0.2)  # p99 * factor

    def test_derived_delay_is_clamped(self):
        policy = HedgePolicy(min_ms=50.0, max_ms=60.0)
        policy.observe(0.001)
        assert policy.delay_s() == pytest.approx(0.05)  # floor
        for _ in range(600):
            policy.observe(10.0)
        assert policy.delay_s() == pytest.approx(0.06)  # ceiling

    def test_snapshot_shape(self):
        policy = HedgePolicy(delay_ms=40.0)
        policy.observe(0.02)
        snap = policy.snapshot()
        assert snap["configured_delay_ms"] == 40.0
        assert snap["derived_delay_ms"] == 40.0
        assert snap["window_size"] == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HedgePolicy(delay_ms=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(min_ms=10.0, max_ms=5.0)


# ----------------------------------------------------------------------
# Topic-affinity routing (no processes spawned: Fleet.__init__ is cheap)
# ----------------------------------------------------------------------
class TestShardOrder:
    def _fleet(self, small_index, workers=4, seed=0):
        return Fleet(
            small_index,
            ServingConfig(port=0),
            FleetConfig(workers=workers, affinity_seed=seed),
        )

    def test_order_is_a_permutation(self, small_index):
        fleet = self._fleet(small_index)
        order = fleet.shard_order([0.4, 0.3, 0.2, 0.1])
        assert sorted(order) == [0, 1, 2, 3]

    def test_same_seed_same_routing(self, small_index):
        gamma = [0.7, 0.1, 0.1, 0.1]
        first = self._fleet(small_index, seed=5).shard_order(gamma)
        second = self._fleet(small_index, seed=5).shard_order(gamma)
        assert first == second

    def test_unnormalized_gamma_routes_identically(self, small_index):
        fleet = self._fleet(small_index)
        assert fleet.shard_order([0.4, 0.3, 0.2, 0.1]) == (
            fleet.shard_order([4.0, 3.0, 2.0, 1.0])
        )

    def test_missing_gamma_rotates_over_all_shards(self, small_index):
        fleet = self._fleet(small_index, workers=3)
        firsts = {fleet.shard_order(None)[0] for _ in range(3)}
        assert firsts == {0, 1, 2}

    def test_extract_gamma_from_query_and_batch(self, small_index):
        fleet = self._fleet(small_index)
        gamma = [0.4, 0.3, 0.2, 0.1]
        single = HttpRequest(
            "POST", "/query", body=json_body({"gamma": gamma, "k": 3})
        )
        batch = HttpRequest(
            "POST",
            "/query_batch",
            body=json_body({"queries": [{"gamma": gamma, "k": 3}]}),
        )
        assert fleet._extract_gamma("/query", single) == gamma
        assert fleet._extract_gamma("/query_batch", batch) == gamma
        # Wrong dimensionality / garbage bodies fall back to rotation.
        short = HttpRequest(
            "POST", "/query", body=json_body({"gamma": [0.5, 0.5], "k": 3})
        )
        assert fleet._extract_gamma("/query", short) is None
        junk = HttpRequest("POST", "/query", body=b"not json")
        assert fleet._extract_gamma("/query", junk) is None


# ----------------------------------------------------------------------
# Shared-memory index publication
# ----------------------------------------------------------------------
class TestSharedIndex:
    def test_round_trip_answers_match(self, small_index, small_workload):
        payload, spec = publish_index(small_index)
        try:
            assert attach_kind(spec) == "shm"
            attached = attach_index(spec)
            assert attached.num_index_points == small_index.num_index_points
            assert np.array_equal(
                attached.index_points, small_index.index_points
            )
            assert attached.graph.num_nodes == small_index.graph.num_nodes
            for gamma in small_workload.items[:4]:
                original = small_index.query(gamma, 5)
                mirrored = attached.query(gamma, 5)
                assert list(mirrored.seeds) == list(original.seeds)
        finally:
            payload.release()

    def test_seed_lists_survive_packing(self, small_index):
        payload, spec = publish_index(small_index)
        try:
            attached = attach_index(spec)
            assert [s.nodes for s in attached.seed_lists] == [
                s.nodes for s in small_index.seed_lists
            ]
            assert [s.algorithm for s in attached.seed_lists] == [
                s.algorithm for s in small_index.seed_lists
            ]
        finally:
            payload.release()


# ----------------------------------------------------------------------
# End-to-end: router + worker processes over shared memory
# ----------------------------------------------------------------------
async def _fleet_post(host, port, gamma, k=5, target="/query", request_id=None):
    """One request on its own connection -> (status, headers, payload)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = {"gamma": [float(v) for v in gamma], "k": k}
        extra = {"X-Request-Id": request_id} if request_id else None
        writer.write(
            encode_request(
                "POST", target, json_body(body), extra_headers=extra
            )
        )
        await writer.drain()
        status, headers, payload = await read_response(reader)
        return status, headers, json.loads(payload) if payload else {}
    finally:
        writer.close()


def _fast_fleet_config(**overrides):
    base = dict(
        workers=2,
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.5,
        probe_interval_s=0.5,
        respawn_backoff_s=0.05,
        dispatch_timeout_s=10.0,
    )
    base.update(overrides)
    return FleetConfig(**base)


async def _wait_for(predicate, timeout_s=60.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(0.05)
    raise TimeoutError(f"timed out waiting for {what}")


class TestFleetEndToEnd:
    def test_query_kill_respawn_query(self, small_index):
        async def scenario():
            fleet = Fleet(
                small_index, ServingConfig(port=0), _fast_fleet_config()
            )
            await fleet.start()
            try:
                assert all(
                    h.snapshot()["attach"] == "shm" for h in fleet._handles
                )
                gamma = [0.4, 0.3, 0.2, 0.1]
                status, headers, payload = await _fleet_post(
                    "127.0.0.1", fleet.port, gamma
                )
                assert status == 200
                assert payload["seeds"]
                assert headers["x-shard"] in ("0", "1")

                # SIGKILL one shard: the supervisor must respawn it and
                # the replacement must re-attach from shared memory (no
                # disk reload — its snapshot says so).
                victim = fleet._handles[0]
                victim.process.kill()
                await _wait_for(
                    lambda: victim.generation == 1
                    and victim.snapshot()["state"] == "ready",
                    what="shard 0 respawn",
                )
                snap = victim.snapshot()
                assert snap["restarts"] == 1
                assert snap["attach"] == "shm"

                status, _, payload = await _fleet_post(
                    "127.0.0.1", fleet.port, gamma
                )
                assert status == 200
                assert payload["seeds"]
                report = fleet.fleet_status()
                assert report["dispatch"]["accepted"] == (
                    report["dispatch"]["answered"]
                    + report["dispatch"]["shed"]
                )
            finally:
                await fleet.aclose()

        asyncio.run(scenario())

    def test_status_routes_and_metrics_aggregation(self, small_index):
        async def scenario():
            fleet = Fleet(
                small_index, ServingConfig(port=0), _fast_fleet_config()
            )
            await fleet.start()
            try:
                gamma = [0.4, 0.3, 0.2, 0.1]
                for _ in range(3):
                    status, _, _ = await _fleet_post(
                        "127.0.0.1", fleet.port, gamma
                    )
                    assert status == 200

                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", fleet.port
                )
                try:
                    writer.write(
                        encode_request("GET", "/fleet", b"")
                        + encode_request("GET", "/healthz", b"")
                    )
                    await writer.drain()
                    status, _, body = await read_response(reader)
                    report = json.loads(body)
                    assert status == 200
                    assert len(report["workers"]) == 2
                    assert report["dispatch"]["accepted"] == 3
                    status, _, body = await read_response(reader)
                    assert status == 200
                    assert json.loads(body)["status"] == "ok"
                finally:
                    writer.close()

                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", fleet.port
                )
                try:
                    writer.write(encode_request("GET", "/metrics", b""))
                    await writer.drain()
                    status, _, body = await read_response(reader)
                finally:
                    writer.close()
                assert status == 200
                text = body.decode()
                # Per-shard samples plus the plain fleet-wide sum the
                # loadgen scraper reads.
                assert 'shard="0"' in text and 'shard="1"' in text
                plain = {
                    line.rpartition(" ")[0]
                    for line in text.splitlines()
                    if line and not line.startswith("#")
                }
                assert "repro_cache_hits_total" in plain
                assert "repro_cache_misses_total" in plain
            finally:
                await fleet.aclose()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Chaos: injected worker crashes must never fail an accepted request
# ----------------------------------------------------------------------
class TestFleetChaos:
    def test_no_accepted_request_fails_under_crash_faults(
        self, small_index, monkeypatch
    ):
        # Children inherit the plan through the environment; the rate
        # draw is keyed on (shard, request), so a re-dispatched request
        # rolls independently on the sibling shard.
        monkeypatch.setenv("REPRO_FAULTS", "worker:mode=crash:rate=0.08")

        async def scenario():
            fleet = Fleet(
                small_index,
                ServingConfig(port=0),
                _fast_fleet_config(redispatch_attempts=2),
            )
            await fleet.start()
            try:
                rng = np.random.default_rng(3)
                statuses = []
                for i, gamma in enumerate(
                    rng.dirichlet(np.full(4, 0.8), size=40)
                ):
                    # Respawn takes seconds (a fresh interpreter) while
                    # this loop fires in microseconds; wait for a shard
                    # that is both ready and trusted (closed breaker) so
                    # the test measures fault handling, not how fast
                    # this box forks Python.
                    await _wait_for(
                        lambda: any(
                            s["state"] == "ready"
                            and s["breaker"]["state"] == "closed"
                            for s in map(
                                lambda h: h.snapshot(), fleet._handles
                            )
                        ),
                        what="a trusted ready shard",
                    )
                    # Explicit request ids pin the fault draws, so the
                    # crash pattern is identical on every run.
                    status, _, _ = await _fleet_post(
                        "127.0.0.1",
                        fleet.port,
                        gamma,
                        request_id=f"chaos-{i}",
                    )
                    statuses.append(status)
                # Let the supervisor finish respawning anything that
                # died on the final requests before snapshotting.
                await _wait_for(
                    lambda: all(
                        h.snapshot()["state"] == "ready"
                        for h in fleet._handles
                    ),
                    what="fleet recovery",
                )
                return statuses, fleet.fleet_status()
            finally:
                await fleet.aclose()

        statuses, report = asyncio.run(scenario())
        # Every accepted request got a terminal, non-5xx-error answer:
        # 200 (answered, possibly after re-dispatch) or 503 (honest
        # shed when no shard could take it) — never a 500, never a
        # dropped connection.
        assert len(statuses) == 40
        assert set(statuses) <= {200, 503}
        assert statuses.count(200) >= 32
        dispatch = report["dispatch"]
        assert dispatch["accepted"] == (
            dispatch["answered"] + dispatch["shed"]
        )
        # The plan's 8% crash rate across 40 queries makes at least one
        # kill overwhelmingly likely; respawns must have re-attached
        # shared memory.
        restarts = sum(w["restarts"] for w in report["workers"])
        assert restarts >= 1
        assert all(
            w["attach"] == "shm"
            for w in report["workers"]
            if w["state"] == "ready"
        )


# ----------------------------------------------------------------------
# Hedging end-to-end: a hung primary is beaten by the backup
# ----------------------------------------------------------------------
class TestFleetHedging:
    def test_backup_answers_while_primary_hangs(
        self, small_index, monkeypatch
    ):
        # Hang every request on shard 0 for far longer than the hedge
        # delay; with hedging on, the sibling's answer must land.
        monkeypatch.setenv(
            "REPRO_FAULTS", "worker:mode=hang:shard=0:keep=3"
        )

        async def scenario():
            fleet = Fleet(
                small_index,
                ServingConfig(port=0),
                _fast_fleet_config(
                    hedge=True,
                    hedge_delay_ms=100.0,
                    dispatch_timeout_s=20.0,
                ),
            )
            await fleet.start()
            try:
                # Route to shard 0 first by aiming at its anchor.
                anchor = fleet._anchors[0].tolist()
                assert fleet.shard_order(anchor)[0] == 0
                started = time.monotonic()
                status, headers, payload = await _fleet_post(
                    "127.0.0.1", fleet.port, anchor
                )
                elapsed = time.monotonic() - started
                return status, headers, payload, elapsed, fleet.hedge_total
            finally:
                await fleet.aclose()

        status, headers, payload, elapsed, hedged = asyncio.run(scenario())
        assert status == 200
        assert payload["seeds"]
        assert headers["x-shard"] == "1"
        assert hedged >= 1
        assert elapsed < 2.5  # well below the injected 3s hang


# ----------------------------------------------------------------------
# CLI: fleet serve drains gracefully even with a crashed shard
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_artifacts(tmp_path_factory):
    """A tiny dataset + index built through the CLI, for the CLI test."""
    from repro.cli import main

    data_dir = tmp_path_factory.mktemp("fleet-data")
    assert main(
        [
            "generate", "--out", str(data_dir),
            "--nodes", "80", "--topics", "3", "--items", "24", "--seed", "1",
        ]
    ) == 0
    index_path = data_dir / "index.npz"
    assert main(
        [
            "build", "--data", str(data_dir), "--out", str(index_path),
            "--index-points", "8", "--dirichlet-samples", "300",
            "--seed-list-length", "5", "--ris-sets", "200", "--seed", "2",
        ]
    ) == 0
    return data_dir, index_path


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_FAULTS", None)
    return env


def _child_pids(parent_pid: int) -> list[int]:
    """Direct children of ``parent_pid`` via /proc (Linux)."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 of /proc/<pid>/stat (after the parenthesised comm).
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == parent_pid:
            children.append(int(entry.name))
    return children


@pytest.mark.skipif(
    not Path("/proc").is_dir(), reason="needs /proc to find worker pids"
)
def test_cli_fleet_serve_drains_with_a_crashed_shard(serve_artifacts):
    data_dir, index_path = serve_artifacts
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--data", str(data_dir), "--index", str(index_path),
            "--port", "0", "--workers", "2",
            "--heartbeat-interval", "0.1", "--heartbeat-timeout", "1.5",
        ],
        env=_cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert "serving" in banner, banner
        port = int(banner.split(":")[-1].split()[0])

        async def poke():
            return await _fleet_post("127.0.0.1", port, [0.5, 0.3, 0.2], k=3)

        status, _, payload = asyncio.run(poke())
        assert status == 200
        assert payload["seeds"]

        # SIGKILL one worker, then SIGTERM the router while that shard
        # is down: the drain must still complete cleanly and answer
        # everything it accepted.
        workers = _child_pids(proc.pid)
        assert workers, "no worker children found"
        os.kill(workers[0], signal.SIGKILL)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "drained; all accepted requests answered" in out
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup path
            proc.kill()
            proc.wait()
