"""Nestable tracing spans with Chrome ``trace_event`` export.

A :class:`Span` is a context manager timing one region of work with the
monotonic clock.  Spans nest: entering a span while another is open on
the same thread links the child to its parent, so exports reconstruct
the call tree (e.g. a ``query`` span with ``query.search`` /
``query.selection`` / ``query.aggregation`` children).

Two costs are deliberately separated:

* **timing** always happens — a span's :attr:`~Span.duration` is valid
  whether or not observability is on, which is how
  :class:`~repro.core.query.QueryTiming` stays a reliable public API;
* **recording** (buffering a :class:`SpanRecord`, assigning ids,
  maintaining the per-thread parent stack) only happens while the
  global switch (:func:`repro.obs.enable`) is on, so a disabled
  process pays two ``perf_counter`` calls and one small allocation per
  span — nothing else.

Finished spans are exported as plain JSON or as the Chrome
``trace_event`` format (load the file at ``chrome://tracing`` or
https://ui.perfetto.dev).

Spans are *request-aware*: while a :class:`repro.obs.context.RequestContext`
is bound, every recorded span is stamped with its ``trace_id``, and
root spans (no in-thread parent) attach to the context's
``parent_span_id`` — the mechanism that stitches one request's spans
across the event loop, executor threads, and (via :meth:`Tracer.adopt`)
pool worker processes into a single tree.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs._state import STATE
from repro.obs.context import current_context


@dataclass
class SpanRecord:
    """One finished span.

    ``start`` is seconds since the tracer epoch (the tracer's creation
    or last :meth:`Tracer.clear`), measured on the monotonic clock.
    Treat instances as read-only snapshots; the class stays unfrozen
    because frozen-dataclass construction is measurably slower on the
    recording hot path.
    """

    name: str
    category: str
    start: float
    duration: float
    span_id: int
    parent_id: int | None
    thread_id: int
    trace_id: str | None = None
    args: dict = field(default_factory=dict)


class Span:
    """A timed region; use as ``with tracer.span("name") as sp:``.

    After exit, :attr:`duration` holds the elapsed monotonic seconds.
    Exceptions are never swallowed: the span closes (and records, when
    enabled) and the exception propagates.
    """

    __slots__ = (
        "name",
        "category",
        "args",
        "start",
        "duration",
        "span_id",
        "parent_id",
        "thread_id",
        "trace_id",
        "_tracer",
        "_recording",
    )

    def __init__(self, tracer: "Tracer", name: str, category: str, args: dict):
        self.name = name
        self.category = category
        self.args = args
        self.start = 0.0
        self.duration: float | None = None
        self.span_id: int | None = None
        self.parent_id: int | None = None
        self.thread_id = 0
        self.trace_id: str | None = None
        self._tracer = tracer
        self._recording = False

    def __enter__(self) -> "Span":
        if STATE.enabled:
            self._recording = True
            self._tracer._enter(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        if self._recording:
            # Finished Span objects go straight into the buffer (they
            # are single-use), and SpanRecords are materialized lazily
            # at export time — this keeps the enabled-mode cost per span
            # to a stack pop and a ring append.
            self._recording = False
            tracer = self._tracer
            stack = getattr(tracer._local, "stack", None)
            # The closing span is normally the stack top; guard against
            # out-of-order exits (e.g. clear() or enable() mid-span).
            if stack:
                if stack[-1] is self:
                    stack.pop()
                elif self in stack:
                    while stack[-1] is not self:
                        stack.pop()
                    stack.pop()
            tracer._append(self)
        return False


class Tracer:
    """Keeps the newest finished spans in a bounded ring.

    Parameters
    ----------
    max_spans:
        Ring capacity; once full, each new span evicts the oldest one
        and counts it in :attr:`dropped`, so a long-running process
        keeps its recent traces without growing memory.
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self._max_spans = int(max_spans)
        self._lock = threading.Lock()
        self._records: deque[Span] = deque(maxlen=self._max_spans)
        self._dropped = 0
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    @property
    def epoch(self) -> float:
        """The ``time.perf_counter()`` stamp span starts are relative to.

        :meth:`spans` reports ``start`` relative to this epoch; exporters
        that need wall-clock stamps (the ``/debug/spans`` route feeding
        cross-process adoption) convert with
        ``time.time() - time.perf_counter() + tracer.epoch + start``.
        """
        return self._epoch

    # -- span lifecycle -------------------------------------------------
    def span(self, name: str, *, category: str = "repro", **args) -> Span:
        """A new (not yet entered) span bound to this tracer."""
        return Span(self, name, category, args)

    def open_span(
        self,
        name: str,
        *,
        category: str = "repro",
        trace_id: str | None = None,
        parent_id: int | None = None,
        **args,
    ) -> Span:
        """A manually managed span: started now, closed with
        :meth:`close_span`, never pushed on the per-thread stack.

        For regions that span ``await`` points on the event loop —
        stack-based nesting would mis-parent spans of interleaved
        tasks, so parentage is explicit here (``trace_id`` /
        ``parent_id``) and concurrent children link to it through a
        bound :class:`~repro.obs.context.RequestContext` instead of the
        stack.
        """
        span = Span(self, name, category, args)
        if STATE.enabled:
            span.span_id = next(self._ids)
            span.parent_id = parent_id
            span.trace_id = trace_id
            span.thread_id = threading.get_ident()
        span.start = time.perf_counter()
        return span

    def close_span(self, span: Span) -> None:
        """Finish a span from :meth:`open_span` and record it (when it
        was opened while recording was enabled)."""
        span.duration = time.perf_counter() - span.start
        if span.span_id is not None:
            self._append(span)

    def _append(self, span: Span) -> None:
        """Buffer one finished span, evicting the oldest when full."""
        with self._lock:
            if len(self._records) == self._max_spans:
                self._dropped += 1
            self._records.append(span)

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _enter(self, span: Span) -> None:
        stack = self._stack()
        span.span_id = next(self._ids)
        if stack:
            top = stack[-1]
            span.parent_id = top.span_id
            span.trace_id = top.trace_id
        else:
            # Root span on this thread: attach to the bound request
            # context (cross-thread/cross-process parent link).  This
            # contextvar read happens only while recording is enabled.
            context = current_context()
            if context is not None:
                span.parent_id = context.parent_span_id
                span.trace_id = context.trace_id
        span.thread_id = threading.get_ident()
        stack.append(span)

    # -- inspection -----------------------------------------------------
    def spans(self) -> list[SpanRecord]:
        """All buffered spans, in completion order."""
        return self._select(None, None)

    def find(self, name: str) -> list[SpanRecord]:
        """Buffered spans with this exact name."""
        return self._select("name", name)

    def find_trace(self, trace_id: str) -> list[SpanRecord]:
        """All spans stamped with this trace id, in completion order —
        one request's full tree, including adopted worker spans."""
        return self._select("trace_id", trace_id)

    def children_of(self, span_id: int) -> list[SpanRecord]:
        """Direct children of the given span, in completion order."""
        return self._select("parent_id", span_id)

    def _select(self, attr: str | None, value) -> list[SpanRecord]:
        """Records of the buffered spans whose ``attr`` equals
        ``value`` (every span when ``attr`` is ``None``); spans are
        filtered before any record is built."""
        with self._lock:
            finished = list(self._records)
            epoch = self._epoch
        if attr is not None:
            finished = [
                span for span in finished if getattr(span, attr) == value
            ]
        return [
            SpanRecord(
                span.name,
                span.category,
                span.start - epoch,
                span.duration or 0.0,
                span.span_id or 0,
                span.parent_id,
                span.thread_id,
                span.trace_id,
                span.args,
            )
            for span in finished
        ]

    def adopt(
        self,
        payload: list[dict],
        *,
        trace_id: str | None = None,
        parent_id: int | None = None,
    ) -> int:
        """Stitch remotely recorded spans into this tracer's buffer.

        ``payload`` entries are plain dicts shipped across a process
        boundary (see :func:`span_payload`): ``name``, ``wall_start``
        (``time.time()`` seconds), ``duration``, plus optional
        ``category``, ``args``, ``trace_id``, ``pid``, and
        ``local_id``/``local_parent`` for intra-payload nesting.
        Adopted spans get fresh ids from this tracer (remote per-process
        counters would collide); entries without a ``local_parent``
        attach to ``parent_id``.  Wall-clock starts are converted onto
        this process's monotonic timeline.  Returns the number of spans
        adopted (0 when observability is disabled).
        """
        if not STATE.enabled or not payload:
            return 0
        # mono = wall - (wall_now - mono_now): maps a remote wall-clock
        # stamp onto this process's perf_counter timeline.
        offset = time.time() - time.perf_counter()
        id_map: dict = {}
        for entry in payload:
            span = Span(
                self,
                str(entry["name"]),
                str(entry.get("category", "repro")),
                dict(entry.get("args", ())),
            )
            span.span_id = next(self._ids)
            local_id = entry.get("local_id")
            if local_id is not None:
                id_map[local_id] = span.span_id
            span.parent_id = id_map.get(entry.get("local_parent"), parent_id)
            span.trace_id = entry.get("trace_id", trace_id)
            span.thread_id = int(entry.get("pid", 0))
            span.start = float(entry["wall_start"]) - offset
            span.duration = float(entry["duration"])
            self._append(span)
        return len(payload)

    @property
    def dropped(self) -> int:
        """Spans evicted from the full ring since the last clear."""
        return self._dropped

    def clear(self) -> None:
        """Drop all records and restart the epoch."""
        with self._lock:
            self._records = deque(maxlen=self._max_spans)
            self._dropped = 0
            self._epoch = time.perf_counter()
            self._local = threading.local()

    # -- export ---------------------------------------------------------
    def to_json(self, *, indent: int | None = 2) -> str:
        """Plain-JSON dump of the recorded spans."""
        payload = [
            {
                "name": record.name,
                "category": record.category,
                "start": record.start,
                "duration": record.duration,
                "span_id": record.span_id,
                "parent_id": record.parent_id,
                "thread_id": record.thread_id,
                "trace_id": record.trace_id,
                "args": record.args,
            }
            for record in self.spans()
        ]
        return json.dumps(payload, indent=indent)

    def to_chrome_trace(self) -> dict:
        """The spans as a Chrome ``trace_event`` document.

        Complete (``"ph": "X"``) events with microsecond timestamps;
        span/parent ids ride along in ``args`` so the document
        round-trips via :meth:`from_chrome_trace`.
        """
        pid = os.getpid()
        events = []
        for record in self.spans():
            args = dict(record.args)
            args["span_id"] = record.span_id
            if record.parent_id is not None:
                args["parent_id"] = record.parent_id
            if record.trace_id is not None:
                args["trace_id"] = record.trace_id
            events.append(
                {
                    "name": record.name,
                    "cat": record.category or "repro",
                    "ph": "X",
                    "ts": record.start * 1e6,
                    "dur": record.duration * 1e6,
                    "pid": pid,
                    "tid": record.thread_id,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> int:
        """Write the Chrome trace document to ``path``; returns the
        number of exported spans."""
        document = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return len(document["traceEvents"])

    @staticmethod
    def from_chrome_trace(document: dict) -> list[SpanRecord]:
        """Reconstruct span records from a Chrome trace document
        produced by :meth:`to_chrome_trace`."""
        records = []
        for event in document.get("traceEvents", ()):
            if event.get("ph") != "X":
                continue
            args = dict(event.get("args", {}))
            span_id = int(args.pop("span_id", 0))
            parent_raw = args.pop("parent_id", None)
            trace_raw = args.pop("trace_id", None)
            records.append(
                SpanRecord(
                    name=event["name"],
                    category=event.get("cat", ""),
                    start=float(event["ts"]) / 1e6,
                    duration=float(event["dur"]) / 1e6,
                    span_id=span_id,
                    parent_id=None if parent_raw is None else int(parent_raw),
                    thread_id=int(event.get("tid", 0)),
                    trace_id=None if trace_raw is None else str(trace_raw),
                    args=args,
                )
            )
        return records


def span_payload(
    name: str,
    wall_start: float,
    duration: float,
    *,
    category: str = "repro",
    trace_id: str | None = None,
    **args,
) -> dict:
    """A wire-format span dict for :meth:`Tracer.adopt`.

    Built on the *remote* side of a process boundary (pool workers) from
    ``time.time()`` stamps — workers don't share the parent's monotonic
    epoch, so wall clock is the only usable cross-process timebase.
    """
    payload = {
        "name": name,
        "wall_start": float(wall_start),
        "duration": float(duration),
        "category": category,
        "pid": os.getpid(),
    }
    if trace_id is not None:
        payload["trace_id"] = trace_id
    if args:
        payload["args"] = args
    return payload


_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _GLOBAL_TRACER
