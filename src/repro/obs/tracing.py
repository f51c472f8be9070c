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
* **recording** (assigning ids, maintaining the per-thread parent
  stack, writing one ring row) only happens while the global switch
  (:func:`repro.obs.enable`) is on, so a disabled process pays two
  ``perf_counter`` calls and one small allocation per span — nothing
  else.

The :class:`Tracer` keeps finished spans as rows of typed columns, not
as objects: about 85 bytes per span of a served read (its trace-id
string included; names, categories and repeated args are shared), so a
full 100k-span ring holds about 8 MB.  :class:`SpanRecord` objects are
built only when the ring is read.

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

import json
import os
import struct
import threading
import time
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import ne
from threading import get_ident
from time import perf_counter

from repro.obs._state import STATE
from repro.obs.context import current_context


@dataclass
class SpanRecord:
    """One finished span.

    ``start`` is seconds since the tracer epoch (the tracer's creation
    or last :meth:`Tracer.clear`), measured on the monotonic clock.
    Instances are snapshots built when the tracer is read; ``args`` is
    a copy, so changing it changes nothing in the tracer.
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
    enabled) and the exception propagates.  The object is a transient
    handle: closing it stages one row for the tracer's ring, and the
    ring keeps no reference to it.
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
            tracer = self._tracer
            try:
                stack = tracer._local.stack
            except AttributeError:
                stack = tracer._local.stack = []
            self.span_id = next(tracer._ids)
            if stack:
                top = stack[-1]
                self.parent_id = top.span_id
                self.trace_id = top.trace_id
                self.thread_id = top.thread_id
            else:
                # Root span on this thread: attach to the bound request
                # context (cross-thread/cross-process parent link).
                context = current_context()
                if context is not None:
                    self.parent_id = context.parent_span_id
                    self.trace_id = context.trace_id
                self.thread_id = get_ident()
            stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = perf_counter() - self.start
        if self._recording:
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
            parent_id = self.parent_id
            pending = tracer._pending
            pending += (
                self.name,
                self.category,
                self.start,
                self.duration,
                self.span_id,
                _NO_PARENT if parent_id is None else parent_id,
                self.thread_id,
                self.trace_id,
                self.args,
            )
            if len(pending) >= _FLUSH_LENGTH:
                tracer._flush_pending()
        return False


#: ``parent_id`` column value of a span without a parent.
_NO_PARENT = -(2**63)

#: Exact value types whose equal values are the same value, so args
#: made only of them can share one interned dict (``True == 1`` and
#: ``0.0 == -0.0`` are why bools and floats are left out).
_PLAIN = frozenset((str, int, type(None)))

#: Distinct interned strings or args dicts kept before a table starts
#: over.
_INTERN_LIMIT = 4096

#: The args column's entry for a span without args (never mutated:
#: records get copies).
_NO_ARGS: dict = {}

#: Fields per ring row: one column each, in :class:`SpanRecord` order.
_ROW_WIDTH = 9

#: Finished spans staged per flush into the ring columns.
_FLUSH_ROWS = 256
_FLUSH_LENGTH = _FLUSH_ROWS * _ROW_WIDTH

#: Ring column each filtered lookup compares against.
_KEY_COLUMNS = {"name": 0, "trace_id": 7, "parent_id": 5}


def _typed(code: str, values: list) -> array:
    """``values`` as an :class:`array.array` of type ``code``.

    ``struct`` converts a list of Python numbers about three times
    faster than the array constructor does.
    """
    column = array(code)
    column.frombytes(struct.pack(f"{len(values)}{code}", *values))
    return column


class Tracer:
    """Keeps the newest finished spans in a bounded ring.

    The ring is a set of typed columns, one row per finished span:
    ``start``/``duration`` as float64, ``span_id``/``parent_id``/
    ``thread_id`` as int64, and references to the shared name,
    category and trace-id strings and to the span's args (one interned
    dict per distinct set of plain args, one empty dict for none).
    It grows as spans arrive; :class:`SpanRecord` objects are built
    only when the ring is read.

    Parameters
    ----------
    max_spans:
        Ring capacity; once full, each new span evicts the oldest one
        and counts it in :attr:`dropped`, so a long-running process
        keeps its recent traces in a bounded amount of memory.
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self._max_spans = int(max_spans)
        self._lock = threading.Lock()
        self._ids = count(1)
        self._reset()

    def _reset(self) -> None:
        # One column per SpanRecord field, in field order.
        self._columns = (
            [],  # name
            [],  # category
            array("d"),  # start (perf_counter seconds)
            array("d"),  # duration
            array("q"),  # span_id
            array("q"),  # parent_id (_NO_PARENT for None)
            array("q"),  # thread_id
            [],  # trace_id
            [],  # args (a shared dict or the span's own)
        )
        # Row the next span overwrites once the ring is full (the
        # oldest); 0 while the ring is growing.
        self._next = 0
        # Finished spans' fields, row after row, until the next flush.
        self._pending: list = []
        # Shared strings of adopted spans; shared args dicts, by their
        # items and the latest per name.
        self._strings: dict = {}
        self._interned: dict = {}
        self._latest: dict = {}
        self._dropped = 0
        self._epoch = perf_counter()
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
            span.thread_id = get_ident()
        span.start = perf_counter()
        return span

    def close_span(self, span: Span) -> None:
        """Finish a span from :meth:`open_span` and record it (when it
        was opened while recording was enabled)."""
        span.duration = perf_counter() - span.start
        if span.span_id is not None:
            parent_id = span.parent_id
            pending = self._pending
            pending += (
                span.name,
                span.category,
                span.start,
                span.duration,
                span.span_id,
                _NO_PARENT if parent_id is None else parent_id,
                span.thread_id,
                span.trace_id,
                span.args,
            )
            if len(pending) >= _FLUSH_LENGTH:
                self._flush_pending()

    def _flush_pending(self) -> None:
        """Flush the staged rows into the ring.

        A finished span is staged by extending a flat list with its
        row's :data:`_ROW_WIDTH` fields: one list operation, atomic
        under the interpreter lock, so no lock is taken until a flush,
        once per :data:`_FLUSH_ROWS` spans.
        """
        with self._lock:
            self._flush()

    def _flush(self) -> None:
        """Move the staged rows into the ring columns, oldest first,
        evicting the oldest rows once the ring is full.  Call with the
        lock held."""
        pending = self._pending
        length = len(pending)
        if not length:
            return
        # Spans finishing meanwhile extend the list behind the first
        # ``length`` fields, so slicing and deleting that prefix loses
        # none of them.
        staged = pending[:length]
        del pending[:length]
        size = length // _ROW_WIDTH
        (
            names,
            categories,
            starts,
            durations,
            span_ids,
            parents,
            threads,
            traces,
            args,
        ) = [staged[field::_ROW_WIDTH] for field in range(_ROW_WIDTH)]
        data = (
            names,
            categories,
            _typed("d", starts),
            _typed("d", durations),
            _typed("q", span_ids),
            _typed("q", parents),
            _typed("q", threads),
            traces,
            self._share_args(names, args),
        )
        columns = self._columns
        capacity = self._max_spans
        take = min(capacity - len(columns[0]), size)
        if take:
            for column, values in zip(columns, data):
                column.extend(values[:take] if take < size else values)
        if take == size:
            return
        # The ring is full: each further row overwrites the oldest, and
        # of this batch only its newest ``capacity`` rows can survive.
        self._dropped += size - take
        first = max(take, size - capacity)
        row = (self._next + first - take) % capacity
        while first < size:
            stop = min(size, first + capacity - row)
            end = row + stop - first
            for column, values in zip(columns, data):
                column[row:end] = values[first:stop]
            first = stop
            row = end % capacity
        self._next = row

    def _shared(self, text: str) -> str:
        """The first-seen string equal to ``text``."""
        strings = self._strings
        if len(strings) >= _INTERN_LIMIT:
            strings.clear()
        return strings.setdefault(text, text)

    def _share_args(self, names: list, batch: list) -> list:
        """The args column of a batch: the shared :data:`_NO_ARGS` for
        no args, one shared copy per distinct set of plain
        (:data:`_PLAIN`) values, other args as given."""
        latest = self._latest
        shared = list(map(latest.get, names))
        # Exact value types of the rows with args: most rows have none,
        # and skipping them halves the check.
        with_args = filter(None, batch)
        kinds = set(
            map(type, chain.from_iterable(map(dict.values, with_args)))
        )
        if kinds <= _PLAIN:
            # A span's args usually equal the latest shared args of its
            # name, and equal plain values are the same value: only the
            # rows that differ need a look-up.
            misses = list(compress(count(), map(ne, shared, batch)))
        else:
            misses = range(len(batch))
        interned = self._interned
        for row in misses:
            args = batch[row]
            if not args:
                hit = _NO_ARGS
            elif not _PLAIN.issuperset(map(type, args.values())):
                shared[row] = args
                continue
            else:
                key = tuple(args.items())
                hit = interned.get(key)
                if hit is None:
                    if len(interned) >= _INTERN_LIMIT:
                        interned.clear()
                    hit = interned[key] = dict(args)
            if len(latest) >= _INTERN_LIMIT:
                latest.clear()
            latest[names[row]] = hit
            shared[row] = hit
        return shared

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

    def _select(self, column: str | None, value) -> list[SpanRecord]:
        """Records of the buffered rows whose ``column`` equals
        ``value`` (every row when ``column`` is ``None``), in
        completion order; rows are filtered before any record is
        built."""
        with self._lock:
            self._flush()
            columns = self._columns
            full = len(columns[0]) == self._max_spans
            oldest = self._next if full else 0
            if column is None:
                # Copies in completion order (the oldest row first).
                rows = zip(*[c[oldest:] + c[:oldest] for c in columns])
            else:
                keys = columns[_KEY_COLUMNS[column]]
                hits = [row for row, key in enumerate(keys) if key == value]
                if oldest:
                    hits = [row for row in hits if row >= oldest] + [
                        row for row in hits if row < oldest
                    ]
                rows = [tuple([c[row] for c in columns]) for row in hits]
            epoch = self._epoch
        return [
            SpanRecord(
                name,
                category,
                start - epoch,
                duration,
                span_id,
                None if parent_id == _NO_PARENT else parent_id,
                thread_id,
                trace_id,
                dict(args),
            )
            for (
                name,
                category,
                start,
                duration,
                span_id,
                parent_id,
                thread_id,
                trace_id,
                args,
            ) in rows
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
        offset = time.time() - perf_counter()
        id_map: dict = {}
        for entry in payload:
            span_id = next(self._ids)
            local_id = entry.get("local_id")
            if local_id is not None:
                id_map[local_id] = span_id
            parent = id_map.get(entry.get("local_parent"), parent_id)
            self._pending.extend(
                (
                    # Unpickled strings: share one copy of each.
                    self._shared(str(entry["name"])),
                    self._shared(str(entry.get("category", "repro"))),
                    float(entry["wall_start"]) - offset,
                    float(entry["duration"]),
                    span_id,
                    _NO_PARENT if parent is None else parent,
                    int(entry.get("pid", 0)),
                    entry.get("trace_id", trace_id),
                    dict(entry.get("args", ())),
                )
            )
        self._flush_pending()
        return len(payload)

    @property
    def dropped(self) -> int:
        """Spans evicted from the full ring since the last clear."""
        with self._lock:
            self._flush()
            return self._dropped

    def clear(self) -> None:
        """Drop all records and restart the epoch."""
        with self._lock:
            self._reset()

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
