"""Supervised sharded serving: router + worker fleet + failure domains.

The fleet splits the standalone :class:`~repro.serving.server.QueryServer`
into a supervision tree (``docs/FLEET.md`` draws the full picture)::

    Fleet (router process)
    ├── shared index payload  (shm segments, owned by the router)
    ├── supervisor task       (heartbeats, probes, respawn)
    └── worker processes 0..N-1, each:
        ├── FleetWorkerServer on an ephemeral port
        ├── heartbeat task  ->  control pipe  ->  supervisor
        └── zero-copy attachment of the shared index

Design points, each load-bearing for a failure mode:

* **Zero-copy publication** — the router loads graph + index once and
  publishes every large array through
  :func:`repro.serving.shared_index.publish_index`.  Workers attach in
  ``O(1)``; a *respawned* worker re-attaches the same segments (the
  router owns them, so they survive any worker death) — crash recovery
  never touches the disk.
* **Topic-affinity routing** — seeded Dirichlet anchor vectors
  partition the simplex; a query routes to the shard whose anchor is
  nearest its ``gamma``, so each worker's result cache stays hot on
  its slice instead of all workers caching everything.
* **Failure domains** — each shard has its own
  :class:`~repro.resilience.CircuitBreaker`; a dead or sick worker is
  shorted out of routing while its siblings keep answering.
* **Crash-safe dispatch** — a request whose shard dies mid-flight is
  re-dispatched (at most once per shard, identified by its forwarded
  request id) to the next-nearest healthy shard; only when every
  candidate fails does the router shed with 503 + Retry-After.
* **Supervision** — workers heartbeat over their control pipe; the
  supervisor detects death (``is_alive``), hangs (stale heartbeats,
  failed ``/healthz`` probes) and recycles the process with bounded
  backoff.
* **Hedging** — optionally, a dispatch that outlives the rolling-p99
  :class:`~repro.resilience.HedgePolicy` delay is duplicated to the
  next shard and the first answer wins (queries are idempotent reads).

Fleet-wide ``/metrics`` aggregates every worker's exposition (samples
gain a ``shard`` label; unlabeled samples are additionally summed into
plain lines so single-process scrapers keep working) and ``/fleet``
reports the supervision state.  ``/fleet/trace?trace=<id>`` pulls the
matching spans out of every worker (``/debug/spans``) and adopts them
under the router's request span — one stitched tree per request across
all processes.
"""

from __future__ import annotations

import asyncio
import collections
import json
import logging
import multiprocessing
import time
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.core.config import CampaignConfig, FleetConfig, ServingConfig
from repro.core.index import InflexIndex
from repro.obs import context as _ctx
from repro.obs import instruments as _obs
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.hedge import HedgePolicy
from repro.serving.front import GET, POST, PROMETHEUS, HttpFront, Route, Shed
from repro.serving.protocol import (
    HttpRequest,
    ProtocolError,
    encode_request,
    error_body,
    json_body,
    read_response,
)
from repro.serving.shared_index import publish_index
from repro.serving.worker import worker_main

#: Worker lifecycle states tracked by the supervisor.
STARTING = "starting"
READY = "ready"
DEAD = "dead"
DOWN = "down"  # respawn budget exhausted; left for the operator

#: Idle keep-alive connections retained per (shard, generation).
_POOL_MAX = 32

#: A starting worker that has not reported ready within this many
#: seconds is presumed wedged (import deadlock, port trouble) and
#: recycled like a hung worker.
_READY_TIMEOUT_S = 120.0

#: Single-process routes the router does not serve (it answers 404):
#: streaming would need coordinated segment swaps across every shard,
#: and the debug surfaces are per process (the router reads worker
#: spans itself through ``/fleet/trace``).
SINGLE_PROCESS_ONLY = frozenset(
    {
        "/deltas",
        "/subscriptions",
        "/subscriptions/{id}/updates",
        "/debug/requests",
        "/debug/slow",
        "/debug/slo",
        "/debug/spans",
    }
)

#: Errors that mean "this shard did not answer" — the re-dispatch set.
_DISPATCH_ERRORS = (
    ConnectionError,
    OSError,
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
    ProtocolError,
)


class WorkerHandle:
    """Supervisor-side state of one shard (process, pipe, breaker)."""

    def __init__(self, shard_id: int, breaker: CircuitBreaker) -> None:
        self.shard_id = shard_id
        self.breaker = breaker
        self.process = None
        self.conn = None
        self.port: int | None = None
        self.attach: str | None = None
        self.state = STARTING
        self.generation = -1
        self.restarts = 0
        self.last_heartbeat = 0.0
        self.heartbeat_seq = 0
        self.spawned_at = 0.0
        self.respawn_at = 0.0
        self.last_probe = 0.0

    def snapshot(self) -> dict:
        """JSON-friendly view for ``/fleet`` and the status CLI."""
        age = (
            round(time.monotonic() - self.last_heartbeat, 3)
            if self.last_heartbeat
            else None
        )
        return {
            "shard": self.shard_id,
            "state": self.state,
            "generation": self.generation,
            "port": self.port,
            "attach": self.attach,
            "restarts": self.restarts,
            "heartbeat_age_s": age,
            "breaker": self.breaker.snapshot(),
        }


class Fleet(HttpFront):
    """The router process: accepts requests, dispatches to shards,
    supervises the worker fleet.

    Parameters
    ----------
    index:
        The index to publish and serve.
    config:
        Per-worker serving knobs (each worker binds an ephemeral port
        regardless of ``config.port``; the *router* listens on
        ``config.host:config.port``).
    fleet_config:
        Topology, supervision, dispatch, and hedging knobs.
    campaign:
        Knobs of every worker's ``POST /campaign`` allocator; defaults
        to :class:`CampaignConfig()`.
    """

    noun = "fleet"
    layer = "fleet"

    def __init__(
        self,
        index: InflexIndex,
        config: ServingConfig | None = None,
        fleet_config: FleetConfig | None = None,
        *,
        campaign: CampaignConfig | None = None,
    ) -> None:
        super().__init__(config or ServingConfig())
        self.fleet_config = fleet_config or FleetConfig()
        self.campaign_config = campaign
        self.index = index
        self._payload = None
        self._spec = None
        self._handles: list[WorkerHandle] = []
        self._pools: dict = {}
        self._mp = multiprocessing.get_context("spawn")
        self._anchors = (
            np.random.default_rng(self.fleet_config.affinity_seed)
            .dirichlet(
                np.ones(index.graph.num_topics),
                size=self.fleet_config.workers,
            )
        )
        self._hedge = HedgePolicy(delay_ms=self.fleet_config.hedge_delay_ms)
        self._rotor = 0
        self._trace_roots: collections.OrderedDict = collections.OrderedDict()
        self._supervisor: asyncio.Task | None = None
        # Dispatch bookkeeping surfaced on /fleet (and asserted by the
        # chaos suite: accepted == answered + shed means nothing was
        # silently dropped).
        self.accepted_total = 0
        self.answered_total = 0
        self.shed_total = 0
        self.redispatch_total = 0
        self.hedge_total = 0

    def routes(self) -> list[Route]:
        """The router's table: work routes forwarded by affinity, plus
        fleet-wide aggregates of the read routes and the fleet views.
        Every other single-process route is in
        :data:`SINGLE_PROCESS_ONLY`."""
        return [
            Route("/query", POST, self._forward, work=True),
            Route("/query_batch", POST, self._forward, work=True),
            Route("/campaign", POST, self._forward, work=True),
            Route("/healthz", GET, self._handle_healthz),
            Route("/metrics", GET, self._handle_metrics, False, PROMETHEUS),
            Route("/stats", GET, self._handle_stats),
            Route("/fleet", GET, self._handle_fleet),
            Route("/fleet/trace", GET, self._handle_fleet_trace),
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, *, wait_ready: bool = True) -> None:
        """Bind the router, publish the index, spawn the workers.

        With ``wait_ready`` (the default) the call returns only once
        every shard has reported ready — callers can hit the fleet
        immediately after.
        """
        await self._listen()
        self._payload, self._spec = publish_index(self.index)
        for shard in range(self.fleet_config.workers):
            handle = WorkerHandle(
                shard,
                CircuitBreaker(
                    self.fleet_config.breaker_failures,
                    self.fleet_config.breaker_cooloff_s,
                ),
            )
            self._handles.append(handle)
            self._spawn(handle)
        self._supervisor = asyncio.get_running_loop().create_task(
            self._supervise()
        )
        if wait_ready:
            await self._wait_ready()

    async def _wait_ready(self, timeout_s: float = _READY_TIMEOUT_S) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if all(h.state == READY for h in self._handles):
                return
            await asyncio.sleep(0.02)
        states = [h.state for h in self._handles]
        raise TimeoutError(f"fleet workers not ready after {timeout_s}s: {states}")

    def _spawn(self, handle: WorkerHandle) -> None:
        """(Re)start one shard's process on the shared payload spec."""
        from repro import obs as _obs_pkg

        handle.generation += 1
        if handle.generation > 0:
            handle.restarts += 1
            _obs.record_fleet_restart(handle.shard_id)
        parent_conn, child_conn = self._mp.Pipe()
        handle.conn = parent_conn
        handle.port = None
        handle.attach = None
        handle.state = STARTING
        handle.spawned_at = time.monotonic()
        handle.last_heartbeat = 0.0
        handle.process = self._mp.Process(
            target=worker_main,
            args=(
                handle.shard_id,
                handle.generation,
                self._spec,
                self.config,
                self.fleet_config,
                self.campaign_config,
                child_conn,
            ),
            kwargs={"obs_enabled": _obs_pkg.enabled()},
            daemon=True,
        )
        handle.process.start()
        child_conn.close()
        self._log.event(
            "fleet.worker.spawn",
            shard=handle.shard_id,
            generation=handle.generation,
        )

    def _begin_drain(self) -> None:
        # Ask every live worker to drain; a crashed shard has no pipe
        # to speak to, which is fine — there is nothing in it to drain.
        for handle in self._handles:
            if handle.conn is not None and handle.state in (STARTING, READY):
                try:
                    handle.conn.send(("drain",))
                except (OSError, BrokenPipeError, ValueError):
                    pass

    async def _shutdown(self, grace_ends: float) -> None:
        # Join the workers (each drains itself), then release the
        # shared segments they were attached to.
        self._close_all_pools()
        loop = asyncio.get_running_loop()
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            remaining = max(0.1, grace_ends - time.monotonic())
            await loop.run_in_executor(None, process.join, remaining)
            if process.is_alive():
                process.terminate()
                await loop.run_in_executor(None, process.join, 2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
        if self._supervisor is not None:
            self._supervisor.cancel()
        if self._payload is not None:
            self._payload.release()
            self._payload = None

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    async def _supervise(self) -> None:
        """Heartbeat/liveness tick: pump control pipes, detect death and
        hangs, respawn with backoff, publish the health gauges."""
        fc = self.fleet_config
        tick = max(0.02, fc.heartbeat_interval_s / 4)
        try:
            while True:
                await asyncio.sleep(tick)
                now = time.monotonic()
                ready = 0
                for handle in self._handles:
                    self._pump_conn(handle)
                    state = handle.state
                    if state in (STARTING, READY):
                        alive = (
                            handle.process is not None
                            and handle.process.is_alive()
                        )
                        if not alive:
                            self._note_death(handle, "exit")
                        elif state == READY:
                            age = now - handle.last_heartbeat
                            _obs.set_fleet_heartbeat_age(handle.shard_id, age)
                            if age > fc.heartbeat_timeout_s:
                                self._recycle(handle, "heartbeat-stale")
                        elif now - handle.spawned_at > _READY_TIMEOUT_S:
                            self._recycle(handle, "start-timeout")
                    if handle.state == DEAD and not self._draining:
                        if now >= handle.respawn_at:
                            self._spawn(handle)
                    if handle.state == READY:
                        ready += 1
                        if now - handle.last_probe >= fc.probe_interval_s:
                            handle.last_probe = now
                            asyncio.get_running_loop().create_task(
                                self._probe(handle)
                            )
                    _obs.set_fleet_breaker_state(
                        handle.shard_id, handle.breaker.state
                    )
                _obs.set_fleet_workers(ready)
        except asyncio.CancelledError:
            return

    def _pump_conn(self, handle: WorkerHandle) -> None:
        """Drain pending control messages from one shard's pipe."""
        conn = handle.conn
        if conn is None:
            return
        try:
            while conn.poll():
                message = conn.recv()
                kind = message[0]
                if kind == "ready":
                    _, port, attach, generation = message
                    if generation != handle.generation:
                        continue  # straggler from a replaced process
                    handle.port = int(port)
                    handle.attach = str(attach)
                    handle.state = READY
                    handle.last_heartbeat = time.monotonic()
                    handle.breaker.record_success()
                    self._log.event(
                        "fleet.worker.ready",
                        shard=handle.shard_id,
                        port=handle.port,
                        attach=handle.attach,
                        generation=generation,
                    )
                elif kind == "hb":
                    handle.heartbeat_seq = int(message[1])
                    handle.last_heartbeat = time.monotonic()
        except (EOFError, OSError, BrokenPipeError):
            # Pipe is gone; the liveness check will classify it.
            handle.conn = None

    async def _probe(self, handle: WorkerHandle) -> None:
        """Deadline-bounded ``/healthz`` probe of one ready shard."""
        generation = handle.generation
        data = encode_request("GET", "/healthz", host=self.config.host)
        try:
            status, _, _ = await asyncio.wait_for(
                self._call(handle, data),
                self.fleet_config.probe_timeout_s,
            )
        except _DISPATCH_ERRORS:
            if handle.generation == generation and handle.state == READY:
                handle.breaker.record_failure()
            return
        if status == 200:
            handle.breaker.record_success()

    def _note_death(self, handle: WorkerHandle, reason: str) -> None:
        """A shard's process is gone: short it out and schedule respawn."""
        exitcode = (
            handle.process.exitcode if handle.process is not None else None
        )
        handle.state = DEAD
        handle.breaker.force_open()
        self._close_pool(handle.shard_id)
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - teardown
                pass
            handle.conn = None
        budget = self.fleet_config.max_respawns
        if budget is not None and handle.restarts >= budget:
            handle.state = DOWN
        handle.respawn_at = (
            time.monotonic() + self.fleet_config.respawn_backoff_s
        )
        self._log.event(
            "fleet.worker.dead",
            level=logging.WARNING,
            shard=handle.shard_id,
            reason=reason,
            exitcode=exitcode,
            state=handle.state,
        )

    def _recycle(self, handle: WorkerHandle, reason: str) -> None:
        """Kill a hung (alive but unresponsive) worker; death handling
        schedules the respawn."""
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
        self._note_death(handle, reason)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_order(self, gamma) -> list[int]:
        """Shard ids nearest-first for a topic vector (all shards, so
        the re-dispatch path walks the same order), or a rotating order
        when the request carries no usable ``gamma``."""
        n = int(self._anchors.shape[0])
        if gamma is None:
            self._rotor = (self._rotor + 1) % max(1, n)
            return [(self._rotor + i) % n for i in range(n)]
        point = np.asarray(gamma, dtype=np.float64)
        total = point.sum()
        if total > 0:
            point = point / total
        distances = ((self._anchors - point) ** 2).sum(axis=1)
        return [int(i) for i in np.argsort(distances, kind="stable")]

    def _extract_gamma(self, route: str, request: HttpRequest):
        """The affinity key of a forwarded request: the query's
        ``gamma``, the first batch member's, or a campaign's
        ``items[0]`` — ``None`` when absent or malformed."""
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        if route == "/campaign":
            items = payload.get("items")
            gamma = items[0] if isinstance(items, list) and items else None
        else:
            entry = payload
            if route == "/query_batch":
                queries = payload.get("queries")
                if not isinstance(queries, list) or not queries:
                    return None
                entry = queries[0]
            if not isinstance(entry, dict):
                return None
            gamma = entry.get("gamma")
        if (
            isinstance(gamma, list)
            and len(gamma) == self._anchors.shape[1]
            and all(isinstance(v, (int, float)) for v in gamma)
        ):
            return gamma
        return None

    def _candidates(self, order: list[int], tried: set[int]) -> list[int]:
        return [
            shard
            for shard in order
            if shard not in tried
            and self._handles[shard].state == READY
        ]

    async def _call(self, handle: WorkerHandle, data: bytes):
        """One request/response over a pooled keep-alive connection.

        Any failure (including cancellation by a hedge winner) closes
        the connection instead of repooling it — a half-read response
        must never leak into the next request.
        """
        key = (handle.shard_id, handle.generation)
        pool = self._pools.setdefault(key, [])
        reader = writer = None
        repooled = False
        try:
            while pool and writer is None:
                reader, writer = pool.pop()
                if writer.is_closing():
                    writer.close()
                    reader = writer = None
            if writer is None:
                if handle.port is None:
                    raise ConnectionError(
                        f"shard {handle.shard_id} has no port yet"
                    )
                reader, writer = await asyncio.open_connection(
                    self.config.host, handle.port
                )
            writer.write(data)
            await writer.drain()
            response = await read_response(reader)
            if len(pool) < _POOL_MAX:
                pool.append((reader, writer))
                repooled = True
            return response
        finally:
            if not repooled and writer is not None:
                writer.close()

    def _close_pool(self, shard_id: int) -> None:
        for key in [k for k in self._pools if k[0] == shard_id]:
            for _, writer in self._pools.pop(key):
                writer.close()

    def _close_all_pools(self) -> None:
        for key in list(self._pools):
            for _, writer in self._pools.pop(key):
                writer.close()

    async def _attempt(
        self, handle: WorkerHandle, data: bytes, backup: WorkerHandle | None
    ):
        """One dispatch, optionally hedged to ``backup``.

        Returns ``(response, winner_handle, hedged)``.
        """
        timeout = self.fleet_config.dispatch_timeout_s
        primary = asyncio.ensure_future(
            asyncio.wait_for(self._call(handle, data), timeout)
        )
        if backup is None:
            return await primary, handle, False
        done, _ = await asyncio.wait({primary}, timeout=self._hedge.delay_s())
        if primary in done:
            return primary.result(), handle, False
        secondary = asyncio.ensure_future(
            asyncio.wait_for(self._call(backup, data), timeout)
        )
        self.hedge_total += 1
        owners = {primary: (handle, False), secondary: (backup, True)}
        pending = set(owners)
        first_error: BaseException | None = None
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                if task.cancelled() or task.exception() is not None:
                    first_error = first_error or (
                        task.exception() or asyncio.CancelledError()
                    )
                    continue
                for loser in pending:
                    loser.cancel()
                winner, was_backup = owners[task]
                _obs.record_fleet_hedge("won" if was_backup else "lost")
                return task.result(), winner, was_backup
        raise first_error  # both sides failed

    async def _forward(self, request: HttpRequest, info: dict):
        """Affinity dispatch with breakers, re-dispatch, and hedging."""
        context = _ctx.current_context()
        if context.parent_span_id is not None:
            # /fleet/trace adopts worker spans under this request span.
            self._trace_roots[context.trace_id] = context.parent_span_id
            while len(self._trace_roots) > 1024:
                self._trace_roots.popitem(last=False)
        reason = self.admission.try_admit()
        if reason is not None:
            self.shed_total += 1
            raise Shed(reason)
        self.accepted_total += 1
        try:
            forward = {
                "X-Trace-Id": context.trace_id,
                "X-Request-Id": context.request_id,
            }
            data = encode_request(
                request.method,
                request.target,
                request.body,
                host=self.config.host,
                extra_headers=forward,
            )
            route = request.target.split("?", 1)[0]
            order = self.shard_order(self._extract_gamma(route, request))
            tried: set[int] = set()
            budget = self.fleet_config.redispatch_attempts + 1
            while len(tried) < budget:
                candidates = self._candidates(order, tried)
                # allow() may consume a half-open breaker's single probe
                # slot, so it is only asked for the shard that will
                # actually receive the request.
                handle = None
                for shard in candidates:
                    if self._handles[shard].breaker.allow():
                        handle = self._handles[shard]
                        break
                if handle is None:
                    break
                backup = None
                if self.fleet_config.hedge and len(tried) + 2 <= budget:
                    for shard in candidates:
                        if shard != handle.shard_id:
                            backup = self._handles[shard]
                            break
                tried.add(handle.shard_id)
                if backup is not None:
                    tried.add(backup.shard_id)
                started = time.monotonic()
                try:
                    response, winner, hedged = await self._attempt(
                        handle, data, backup
                    )
                except _DISPATCH_ERRORS as exc:
                    handle.breaker.record_failure()
                    outcome = (
                        "timeout"
                        if isinstance(exc, asyncio.TimeoutError)
                        else "error"
                    )
                    _obs.record_fleet_dispatch(handle.shard_id, outcome)
                    if len(tried) < budget and self._candidates(order, tried):
                        self.redispatch_total += 1
                        _obs.record_fleet_redispatch()
                        self._log.event(
                            "fleet.redispatch",
                            level=logging.WARNING,
                            shard=handle.shard_id,
                            request_id=context.request_id,
                            error=type(exc).__name__,
                        )
                    continue
                status, headers, body = response
                if hedged and backup is not None and winner is backup:
                    # Primary never answered within the hedge window —
                    # don't let its eventual failure pass unnoticed.
                    handle.breaker.record_failure()
                self._hedge.observe(time.monotonic() - started)
                if status >= 500:
                    winner.breaker.record_failure()
                    _obs.record_fleet_dispatch(winner.shard_id, "error")
                else:
                    winner.breaker.record_success()
                    _obs.record_fleet_dispatch(winner.shard_id, "ok")
                if status == 200:
                    self.answered_total += 1
                elif status in (429, 503):
                    self.shed_total += 1
                else:
                    self.answered_total += 1
                extra = {
                    "X-Shard": str(winner.shard_id),
                }
                for name in ("retry-after", "x-retry-after-ms"):
                    if name in headers:
                        extra[name.title()] = headers[name]
                return status, body, extra
            # Every candidate failed or was shorted out: shed rather
            # than fail — the client retries against a healing fleet.
            self.shed_total += 1
            return (
                503,
                error_body("no healthy shard could answer"),
                self._retry_after(),
            )
        finally:
            self.admission.release()

    def _shed_draining(self):
        # Counted in /fleet's dispatch block like every router shed.
        self.shed_total += 1
        return super()._shed_draining()

    async def _handle_healthz(self, request: HttpRequest, info: dict):
        ready = sum(1 for h in self._handles if h.state == READY)
        if self._draining:
            return 503, json_body({"status": "draining"}), None
        payload = {
            "status": "ok" if ready == len(self._handles) else (
                "degraded" if ready else "down"
            ),
            "workers": len(self._handles),
            "ready": ready,
            # Parity with the single-process server's /healthz: loadgen
            # sizes its query mix from this field.
            "num_topics": int(self.index.graph.num_topics),
        }
        return (200 if ready else 503), json_body(payload), None

    async def _fetch(self, handle: WorkerHandle, target: str):
        """GET ``target`` from one ready shard, or ``None`` on failure."""
        if handle.state != READY:
            return None
        data = encode_request("GET", target, host=self.config.host)
        try:
            status, _, body = await asyncio.wait_for(
                self._call(handle, data), self.fleet_config.probe_timeout_s
            )
        except _DISPATCH_ERRORS:
            return None
        return body if status == 200 else None

    async def _handle_metrics(self, request: HttpRequest, info: dict):
        """Fleet-wide Prometheus exposition.

        Worker samples gain a ``shard`` label; unlabeled samples are
        *also* summed into plain lines so scrapers written against the
        single-process server (exact unlabeled names) keep working.
        The ``repro_fleet_*`` family is router-owned: the workers'
        always-zero copies are dropped from the aggregation, and only
        that family of the router's registry is appended — so no name
        is ever emitted twice (a duplicate plain line would shadow the
        summed value in last-wins scrapers).
        """
        bodies = await asyncio.gather(
            *(self._fetch(handle, "/metrics") for handle in self._handles)
        )
        order: list[str] = []
        meta: dict[str, list[str]] = {}
        labeled: dict[str, list[str]] = {}
        sums: dict[str, float] = {}
        for handle, body in zip(self._handles, bodies):
            if body is None:
                continue
            shard = handle.shard_id
            for line in body.decode("utf-8").splitlines():
                if line.startswith("# "):
                    parts = line.split(" ", 3)
                    if len(parts) < 3:
                        continue
                    name = parts[2]
                    if name.startswith("repro_fleet_"):
                        continue
                    if name not in meta:
                        meta[name] = []
                        labeled[name] = []
                        order.append(name)
                    if line not in meta[name]:
                        meta[name].append(line)
                    continue
                if not line.strip():
                    continue
                series, _, value = line.rpartition(" ")
                if not series:
                    continue
                if "{" in series:
                    name, rest = series.split("{", 1)
                    sample = f'{name}{{shard="{shard}",{rest} {value}'
                else:
                    name = series
                    if name.startswith("repro_fleet_"):
                        continue
                    try:
                        sums[name] = sums.get(name, 0.0) + float(value)
                    except ValueError:
                        continue
                    sample = f'{name}{{shard="{shard}"}} {value}'
                if name.startswith("repro_fleet_"):
                    continue
                base = name.rsplit("_bucket", 1)[0]
                key = base if base in meta else name
                if key not in meta:
                    meta[key] = []
                    labeled[key] = []
                    order.append(key)
                labeled[key].append(sample)
        lines: list[str] = []
        for name in order:
            lines.extend(meta[name])
            lines.extend(labeled[name])
            if name in sums:
                value = sums[name]
                rendered = (
                    str(int(value)) if value == int(value) else repr(value)
                )
                lines.append(f"{name} {rendered}")
        text = "\n".join(lines)
        router_lines = [
            line
            for line in get_registry().to_prometheus().splitlines()
            if (
                line.split(" ", 3)[2].startswith("repro_fleet_")
                if line.startswith("# ") and len(line.split(" ", 3)) >= 3
                else line.startswith("repro_fleet_")
            )
        ]
        if router_lines:
            router_text = "\n".join(router_lines)
            text = f"{text}\n{router_text}" if text else router_text
        return 200, text.encode("utf-8"), None

    async def _handle_stats(self, request: HttpRequest, info: dict):
        bodies = await asyncio.gather(
            *(self._fetch(handle, "/stats") for handle in self._handles)
        )
        shards = {}
        for handle, body in zip(self._handles, bodies):
            shards[str(handle.shard_id)] = (
                json.loads(body) if body is not None else None
            )
        return (
            200,
            json_body({"fleet": self.fleet_status(), "shards": shards}),
            None,
        )

    async def _handle_fleet(self, request: HttpRequest, info: dict):
        return 200, json_body(self.fleet_status()), None

    async def _handle_fleet_trace(self, request: HttpRequest, info: dict):
        """Adopt one trace's worker spans into the router tracer."""
        values = parse_qs(urlsplit(request.target).query).get("trace")
        if not values or not values[0]:
            return 400, error_body("missing ?trace=<id> parameter"), None
        trace_id = values[0]
        bodies = await asyncio.gather(
            *(
                self._fetch(handle, f"/debug/spans?trace={trace_id}")
                for handle in self._handles
            )
        )
        tracer = get_tracer()
        parent = self._trace_roots.get(trace_id)
        adopted = 0
        for body in bodies:
            if body is None:
                continue
            spans = json.loads(body).get("spans", [])
            adopted += tracer.adopt(
                spans, trace_id=trace_id, parent_id=parent
            )
        return (
            200,
            json_body({"trace_id": trace_id, "adopted": adopted}),
            None,
        )

    def fleet_status(self) -> dict:
        """Supervision-tree snapshot served on ``/fleet``."""
        return {
            "workers": [handle.snapshot() for handle in self._handles],
            "draining": self._draining,
            "hedge": dict(
                self._hedge.snapshot(), enabled=self.fleet_config.hedge
            ),
            "dispatch": {
                "accepted": self.accepted_total,
                "answered": self.answered_total,
                "shed": self.shed_total,
                "redispatched": self.redispatch_total,
                "hedged": self.hedge_total,
            },
        }
