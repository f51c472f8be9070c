"""Fleet worker process: one shard of the sharded serving fleet.

``worker_main`` is the ``spawn`` entrypoint started by
:class:`repro.serving.fleet.Fleet`.  It attaches the published index
from shared memory (:func:`~repro.serving.shared_index.attach_index` —
no disk I/O, which is what makes respawn-after-crash cheap), runs a
:class:`FleetWorkerServer` on an ephemeral port, and speaks a tiny
control protocol over its pipe:

* ``("ready", port, attach_kind, generation)`` — sent once listening;
* ``("hb", seq, wall_time)`` — heartbeats every
  ``heartbeat_interval_s`` (droppable via the ``heartbeat`` fault
  site, which is how supervisor staleness detection is tested);
* ``("drain",)`` (inbound) — graceful drain request from the router.

Chaos hooks: the ``worker`` fault site fires inside request handling —
``crash`` kills the process with ``os._exit`` (no cleanup, exactly
like a segfault or OOM kill), ``hang`` stalls the answer past the
router's dispatch timeout.  Both draw deterministically from
``(shard, request)`` coordinates, so a re-dispatched request gets an
independent decision on its sibling shard.  Fault plans reach workers
through the inherited ``REPRO_FAULTS`` environment variable.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import time
import zlib

from repro.core.config import CampaignConfig, FleetConfig, ServingConfig
from repro.resilience.faults import maybe_inject
from repro.serving.front import Route
from repro.serving.server import QueryServer
from repro.serving.shared_index import attach_index, attach_kind

#: Exit code of an injected worker crash (distinguishes chaos kills
#: from real faults in supervisor logs and tests).
CRASH_EXIT_CODE = 23


class FleetWorkerServer(QueryServer):
    """A :class:`QueryServer` wired with the fleet's chaos hooks.

    Identical to the standalone server except that every work route
    (the routes the router forwards) first consults the ``worker``
    fault site with ``(shard, request)`` coordinates — the injection
    point the fleet chaos suite uses to kill or hang shards
    mid-request.
    """

    def __init__(self, *args, shard_id: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.shard_id = int(shard_id)

    def routes(self) -> list[Route]:
        return [
            route._replace(handler=self._with_faults(route.handler))
            if route.work
            else route
            for route in super().routes()
        ]

    def _with_faults(self, handler):
        async def handle(request, info):
            hang = self._maybe_fail(request)
            if hang is not None:
                await asyncio.sleep(hang)
            return await handler(request, info)

        return handle

    def _maybe_fail(self, request) -> float | None:
        """Consult the ``worker`` fault site; returns a hang duration
        (seconds) when the fired mode is ``hang``."""
        request_id = request.headers.get("x-request-id", "")
        fired = maybe_inject(
            "worker",
            shard=self.shard_id,
            request=zlib.crc32(request_id.encode("utf-8")),
        )
        if fired is None:
            return None
        if fired.mode == "crash":
            # A real crash: no drain, no flush, no goodbye on the pipe.
            os._exit(CRASH_EXIT_CODE)
        return float(fired.keep if fired.keep is not None else 30.0)


async def _heartbeat_loop(conn, shard_id: int, interval_s: float) -> None:
    """Send ``("hb", seq, wall)`` beats until the pipe dies."""
    seq = 0
    while True:
        await asyncio.sleep(interval_s)
        seq += 1
        fired = maybe_inject("heartbeat", shard=shard_id, beat=seq)
        if fired is not None and fired.mode == "drop":
            continue
        try:
            conn.send(("hb", seq, time.time()))
        except (OSError, BrokenPipeError, ValueError):
            return


async def _serve_shard(
    shard_id: int,
    generation: int,
    index,
    kind: str,
    serving_config: ServingConfig,
    fleet_config: FleetConfig,
    campaign_config: CampaignConfig | None,
    conn,
) -> None:
    server = FleetWorkerServer(
        index, serving_config, shard_id=shard_id, campaign=campaign_config
    )
    await server.start()
    conn.send(("ready", server.port, kind, generation))
    loop = asyncio.get_running_loop()
    heartbeat = loop.create_task(
        _heartbeat_loop(conn, shard_id, fleet_config.heartbeat_interval_s)
    )

    def _control_readable() -> None:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Router side gone: drain rather than serve an orphan.
            loop.remove_reader(conn.fileno())
            server.request_drain()
            return
        if message and message[0] == "drain":
            server.request_drain()

    loop.add_reader(conn.fileno(), _control_readable)
    try:
        await server.wait_drained()
    finally:
        heartbeat.cancel()
        try:
            loop.remove_reader(conn.fileno())
        except (OSError, ValueError):  # pragma: no cover - teardown
            pass


def worker_main(
    shard_id: int,
    generation: int,
    spec,
    serving_config: ServingConfig,
    fleet_config: FleetConfig,
    campaign_config: CampaignConfig | None,
    conn,
    *,
    obs_enabled: bool = True,
) -> None:
    """Process entrypoint of one fleet shard (spawn-safe, top-level).

    Attaches the shared index, serves it on an ephemeral port (with
    ``campaign_config`` tuning ``POST /campaign``), and reports
    readiness/heartbeats over ``conn``.  ``generation`` counts
    respawns of this shard; it is echoed in the ready message so the
    supervisor can discard stale messages from a predecessor process.
    """
    if obs_enabled:
        from repro import obs

        obs.enable()
    index = attach_index(spec)
    kind = attach_kind(spec)
    config = dataclasses.replace(serving_config, port=0)
    asyncio.run(
        _serve_shard(
            shard_id,
            generation,
            index,
            kind,
            config,
            fleet_config,
            campaign_config,
            conn,
        )
    )
