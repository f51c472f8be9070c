"""Request-scoped trace context and its propagation.

A :class:`RequestContext` is minted once per request at the serving
edge (or by the CLI) and identifies everything that happens on behalf
of that request: every tracing span recorded while the context is
active carries its ``trace_id``, every structured log line is stamped
with it, and the flight recorder keys its per-request records on it.

Propagation crosses three boundaries, none of which Python crosses for
free:

* **asyncio tasks** — the context lives in a :mod:`contextvars`
  variable, which the event loop copies into every task it spawns, so
  the handler -> micro-batcher hop needs no plumbing;
* **executor threads** — ``loop.run_in_executor`` does *not* copy
  context, so the serving layer wraps the executor callable with
  :func:`wrap` (capture here, re-bind there);
* **worker processes** — the parallel spread pool ships
  :func:`to_wire` dicts inside task payloads and stitches the
  worker-side chunk timings back into the parent trace via
  :meth:`repro.obs.tracing.Tracer.adopt`.

Root spans opened while a context is active adopt the context's
``parent_span_id``, which is how a span tree reassembles across
threads and processes: the serving request span (event loop) parents
the batch span, whose id rides into the executor thread, where the
``query`` span opens as *its* child, and so on into the pool workers.

Everything here is switch-independent: binding a context costs one
contextvar set whether or not observability is enabled, and reading it
on the span hot path happens only while recording (the enabled mode).
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from dataclasses import dataclass

#: The active request context of the current task/thread (or ``None``).
_CURRENT: contextvars.ContextVar["RequestContext | None"] = (
    contextvars.ContextVar("repro_request_context", default=None)
)


def new_trace_id() -> str:
    """A fresh 64-bit trace id as 16 lowercase hex characters."""
    return os.urandom(8).hex()


def new_request_id() -> str:
    """A fresh 48-bit request id as 12 lowercase hex characters."""
    return os.urandom(6).hex()


@dataclass(frozen=True)
class RequestContext:
    """Identity of one in-flight request.

    Attributes
    ----------
    trace_id:
        Correlates every span/log/flight record of the request; one
        trace id spans threads and worker processes.
    request_id:
        The externally quotable id (returned in the ``X-Request-Id``
        response header and shown by ``/debug/requests``).  Several
        requests coalesced onto one computation keep distinct request
        ids while the computation's spans carry the leader's trace id.
    parent_span_id:
        Span that new *root* spans should attach to while this context
        is active — the cross-thread/cross-process parent link.
    """

    trace_id: str
    request_id: str
    parent_span_id: int | None = None

    def child_of(self, span) -> "RequestContext":
        """This context re-parented under ``span`` (a
        :class:`~repro.obs.tracing.Span`); unchanged when the span was
        not recorded (observability off)."""
        span_id = getattr(span, "span_id", None)
        if span_id is None:
            return self
        return RequestContext(self.trace_id, self.request_id, span_id)

    def to_wire(self) -> dict:
        """A picklable/JSON-able dict for process-boundary transport."""
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "parent_span_id": self.parent_span_id,
        }

    @staticmethod
    def from_wire(payload: dict) -> "RequestContext":
        """Rebuild a context from :meth:`to_wire` output."""
        return RequestContext(
            trace_id=str(payload["trace_id"]),
            request_id=str(payload.get("request_id", "")),
            parent_span_id=payload.get("parent_span_id"),
        )


def new_request_context(
    trace_id: str | None = None,
    request_id: str | None = None,
    parent_span_id: int | None = None,
) -> RequestContext:
    """Mint a context, honoring caller-supplied ids (e.g. an incoming
    ``X-Trace-Id`` header) and generating the rest."""
    return RequestContext(
        trace_id=trace_id or new_trace_id(),
        request_id=request_id or new_request_id(),
        parent_span_id=parent_span_id,
    )


def current_context() -> RequestContext | None:
    """The active request context of this task/thread, if any."""
    return _CURRENT.get()


@contextlib.contextmanager
def bind(context: RequestContext | None):
    """Make ``context`` the active request context for the block.

    ``bind(None)`` is a no-op block, so call sites can write
    ``with bind(maybe_ctx):`` without branching.
    """
    if context is None:
        yield None
        return
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)


@contextlib.contextmanager
def bind_child_of(span):
    """Re-bind the current context (if any) parented under ``span``.

    Used around cross-thread handoffs: the caller opens a span, then
    binds the child context so spans opened on the *other* side of the
    handoff attach beneath it.
    """
    context = _CURRENT.get()
    if context is None:
        yield None
        return
    with bind(context.child_of(span)) as child:
        yield child


def wrap(fn, context: RequestContext | None = None):
    """A zero-argument callable running ``fn`` under ``context``.

    Captures the caller's current context when ``context`` is omitted —
    the executor-thread propagation shim: build the wrapper on the
    event loop, hand it to ``run_in_executor``, and the target thread
    sees the request context while it runs.
    """
    if context is None:
        context = _CURRENT.get()

    def bound():
        with bind(context):
            return fn()

    return bound
