"""The one HTTP front end behind the query server and the fleet router.

:class:`HttpFront` owns what both front doors do the same way: the
listener and keep-alive connection loop; routing through a declared
table of :class:`Route` entries, with the 404/405 checks and the 503
draining shed of work routes applied once; the per-request span, the
``X-Trace-Id``/``X-Request-Id`` echo, the 400/429/500 mapping and the
request metrics, labelled by route pattern so paths cannot mint
unbounded series; jittered ``Retry-After`` hints; and the graceful
drain.  :func:`serve` runs either front end until it drains.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import logging
import math
import time
from typing import Awaitable, Callable, NamedTuple

from repro.core.config import ServingConfig
from repro.errors import InvalidDistributionError, QueryError, StreamError
from repro.obs import context as _ctx
from repro.obs import instruments as _obs
from repro.obs.logs import get_logger
from repro.obs.tracing import get_tracer
from repro.resilience.retry import RetryPolicy
from repro.serving.admission import SHED_DRAINING, AdmissionController
from repro.serving.batcher import QueueFullError
from repro.serving.protocol import (
    HttpRequest,
    ProtocolError,
    encode_response,
    error_body,
    read_request,
)

JSON = "application/json"
PROMETHEUS = "text/plain; version=0.0.4"
GET = ("GET",)
POST = ("POST",)

#: The one ``route`` label every path outside the route table shares.
UNMATCHED = "<unmatched>"

#: Handler errors that are the client's fault: answered 400.
_CLIENT_ERRORS = (
    ProtocolError,
    QueryError,
    InvalidDistributionError,
    StreamError,
)


class Route(NamedTuple):
    """One route-table entry.

    ``pattern`` is a path whose ``{name}`` segments match any one
    segment; it may appear in several entries with disjoint
    ``methods``.  ``handler(request, info)`` returns ``(status, body,
    extra headers or None)`` and may fill ``info`` for the front end's
    post-response accounting.  *Work* routes shed with 503 while
    draining.
    """

    pattern: str
    methods: tuple[str, ...]
    handler: Callable[[HttpRequest, dict], Awaitable[tuple]]
    work: bool = False
    content_type: str = JSON


class Shed(Exception):
    """Admission control refused the request (the argument is the shed
    reason): answered 429."""


class HttpFront:
    """Listener, connection loop, routing and drain shared by
    :class:`~repro.serving.server.QueryServer` and
    :class:`~repro.serving.fleet.Fleet`.

    Subclasses declare :meth:`routes`, implement ``start`` (binding
    through :meth:`_listen`), and may hook :meth:`_begin_drain`,
    :meth:`_shutdown` and :meth:`_finish_request`.  ``queue_depth``
    feeds admission control's queue-depth check.
    """

    #: Names the front end in drain messages and drain log events.
    noun = "server"
    #: Span name prefix, span category and logger name.
    layer = "serving"

    def __init__(self, config: ServingConfig, queue_depth=lambda: 0) -> None:
        self.config = config
        self.admission = AdmissionController(
            config.max_inflight,
            config.max_queue_depth,
            queue_depth=queue_depth,
        )
        self._log = get_logger(self.layer)
        # One name string for every request span (the tracer keeps a
        # reference per span, not a copy).
        self._request_span = f"{self.layer}.request"
        # Shed responses draw successive deterministic jitter values
        # from shared RetryPolicy math (multiplier 1.0 keeps the base
        # constant at retry_after_s), so concurrently shed clients get
        # spread retry hints instead of returning as one herd.
        self._retry_after_policy = RetryPolicy(
            max_attempts=0,
            base_delay=config.retry_after_s,
            multiplier=1.0,
            max_delay=config.retry_after_s,
            jitter=config.retry_jitter,
        )
        self._shed_counter = itertools.count()
        self._table: dict[str, list[Route]] = {}
        for route in self.routes():
            self._table.setdefault(route.pattern, []).append(route)
        self._server: asyncio.base_events.Server | None = None
        self._drain_task: asyncio.Task | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._active_http = 0
        self._draining = False
        self._drained = asyncio.Event()
        self.port: int | None = None

    def routes(self) -> list[Route]:
        """The route table (built once, at construction)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """Whether a graceful drain has been requested."""
        return self._draining

    async def _listen(self) -> None:
        """Bind the listener (once) on ``config.host:config.port``."""
        if self._server is not None:
            raise RuntimeError(f"{self.noun} already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent, callable from a signal
        handler): stop accepting, finish admitted work, then stop."""
        if self._draining:
            return
        self._draining = True
        self._log.event(f"{self.noun}.drain.begin")
        self._drain_task = asyncio.get_running_loop().create_task(
            self._drain()
        )

    async def _drain(self) -> None:
        # 1. Stop accepting new connections.
        if self._server is not None:
            self._server.close()
        self._begin_drain()
        # 2. Wait (bounded) until admission is idle and no request is
        #    in progress — admitted work, the writes delivering its
        #    answers, and first requests of accepted connections.
        grace_ends = time.monotonic() + self.config.drain_grace_s
        while (
            not (self.admission.idle and self._active_http == 0)
            and time.monotonic() < grace_ends
        ):
            await asyncio.sleep(0.005)
        # 3. Close surviving keep-alive connections; their responses
        #    were written in step 2, so only idle readers remain.
        for writer in list(self._connections):
            writer.close()
        # 4. Subclass teardown (batcher/executor, or the worker fleet).
        await self._shutdown(grace_ends)
        self._log.event(f"{self.noun}.drain.complete")
        self._drained.set()

    def _begin_drain(self) -> None:
        """Hook: runs as soon as the listener closes."""

    async def _shutdown(self, grace_ends: float) -> None:
        """Hook: release what the front end owns, once connections are
        closed; ``grace_ends`` is the drain deadline (monotonic)."""

    async def wait_drained(self) -> None:
        """Block until a requested drain completes."""
        await self._drained.wait()

    async def aclose(self) -> None:
        """Drain and wait — the programmatic equivalent of SIGTERM."""
        self.request_drain()
        await self.wait_drained()

    # ------------------------------------------------------------------
    # HTTP handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        # In progress from accept until the first response is written,
        # then again from each later request until its response is:
        # drain never closes a connection between reading a request
        # (or accepting it) and flushing the answer.
        self._active_http += 1
        counted = True
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(
                        encode_response(
                            400, error_body(str(exc)), keep_alive=False
                        )
                    )
                    with contextlib.suppress(ConnectionError):
                        await writer.drain()
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                if not counted:
                    self._active_http += 1
                    counted = True
                keep_alive = request.keep_alive and not self._draining
                writer.write(await self._route(request, keep_alive))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
                self._active_http -= 1
                counted = False
                if not keep_alive:
                    break
        finally:
            if counted:
                self._active_http -= 1
            self._connections.discard(writer)
            writer.close()

    def _match(self, path: str) -> tuple[str, list[Route]]:
        """``(label, entries)`` of the route-table pattern ``path``
        matches, or ``(UNMATCHED, [])``."""
        entries = self._table.get(path)
        if entries is None:
            parts = path.split("/")
            for pattern, candidates in self._table.items():
                segments = pattern.split("/")
                if len(segments) == len(parts) and all(
                    want == got or (want.startswith("{") and got)
                    for want, got in zip(segments, parts)
                ):
                    entries = candidates
                    break
            else:
                return UNMATCHED, []
        return entries[0].pattern, entries

    async def _route(self, request: HttpRequest, keep_alive: bool) -> bytes:
        started = time.monotonic()
        path = request.target.split("?", 1)[0]
        label, entries = self._match(path)
        context = _ctx.new_request_context(
            trace_id=request.headers.get("x-trace-id"),
            request_id=request.headers.get("x-request-id"),
        )
        tracer = get_tracer()
        # Manually managed span: it crosses awaits on the event loop,
        # where stack-based nesting would mis-parent interleaved tasks.
        span = tracer.open_span(
            self._request_span,
            category=self.layer,
            trace_id=context.trace_id,
            route=label,
        )
        content_type = JSON
        info: dict = {}
        with _ctx.bind(context.child_of(span)):
            try:
                route = next(
                    (e for e in entries if request.method in e.methods), None
                )
                if not entries:
                    status, body, extra = (
                        404,
                        error_body(f"no such route: {path}"),
                        None,
                    )
                elif route is None:
                    methods = sorted({m for e in entries for m in e.methods})
                    status, body, extra = (
                        405,
                        error_body(f"use {' or '.join(methods)}"),
                        None,
                    )
                elif route.work and self._draining:
                    status, body, extra = self._shed_draining()
                else:
                    content_type = route.content_type
                    status, body, extra = await route.handler(request, info)
            except _CLIENT_ERRORS as exc:
                status, body, extra = 400, error_body(str(exc)), None
            except Shed as exc:
                status, body, extra = (
                    429,
                    error_body(f"shed: {exc}"),
                    self._retry_after(),
                )
            except QueueFullError:
                status, body, extra = (
                    429,
                    error_body(f"{self.noun} is overloaded"),
                    self._retry_after(),
                )
            except Exception as exc:  # pragma: no cover - defensive
                status, body, extra = (
                    500,
                    error_body(f"internal error: {type(exc).__name__}: {exc}"),
                    None,
                )
                self._log.event(
                    "request.error",
                    level=logging.ERROR,
                    route=label,
                    error=f"{type(exc).__name__}: {exc}",
                )
        tracer.close_span(span)
        elapsed = time.monotonic() - started
        _obs.record_http_request(label, status, elapsed)
        self._finish_request(context, path, status, elapsed, info)
        headers = dict(extra) if extra else {}
        headers.setdefault("X-Trace-Id", context.trace_id)
        headers.setdefault("X-Request-Id", context.request_id)
        return encode_response(
            status,
            body,
            content_type=content_type,
            keep_alive=keep_alive,
            extra_headers=headers,
        )

    def _finish_request(
        self, context, path: str, status: int, elapsed: float, info: dict
    ) -> None:
        """Hook: post-response accounting of one request."""

    def _shed_draining(self) -> tuple:
        """The answer to a work request that arrives while draining."""
        self.admission.shed(SHED_DRAINING)
        return 503, error_body(f"{self.noun} is draining"), self._retry_after()

    @contextlib.contextmanager
    def _admitted(self, weight: int = 1):
        """Hold ``weight`` admission units for the block, or raise
        :class:`Shed` (answered 429) when admission control refuses."""
        reason = self.admission.try_admit(weight=weight)
        if reason is not None:
            raise Shed(reason)
        try:
            yield
        finally:
            self.admission.release(weight=weight)

    def _retry_after(self) -> dict[str, str]:
        # Retry-After takes whole seconds; round the jittered hint up
        # so sub-second values still tell clients to back off, and ship
        # the exact value on X-Retry-After-Ms for clients that can use
        # millisecond resolution.
        hint_s = self._retry_after_policy.delay(next(self._shed_counter))
        return {
            "Retry-After": str(max(1, math.ceil(hint_s))),
            "X-Retry-After-Ms": f"{hint_s * 1e3:.3f}",
        }


async def serve(
    front: HttpFront,
    *,
    install_signal_handlers: bool = True,
    ready=None,
) -> None:
    """Start ``front`` and run it until drained.

    Wires ``SIGTERM``/``SIGINT`` to a graceful drain when the loop
    supports it (main thread on POSIX).  ``ready`` is an optional
    callback invoked with the front end once it is listening — the CLI
    prints the bound address there.
    """
    await front.start()
    if install_signal_handlers:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, front.request_drain)
            except (NotImplementedError, ValueError):
                # Non-main-thread loops and non-POSIX platforms: rely
                # on programmatic drain instead.
                break
    if ready is not None:
        ready(front)
    await front.wait_drained()
