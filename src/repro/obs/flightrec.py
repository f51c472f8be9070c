"""Flight recorder: a bounded ring of per-request telemetry records.

Aggregate metrics answer "how is the service doing"; the flight
recorder answers "what happened to *this* request".  Every completed
request leaves one :class:`FlightRecord` — ids, the query fingerprint,
outcome flags (cache hit / coalesced / degraded / shed), per-phase
timings, which micro-batch it rode in — in a fixed-capacity ring
buffer, so the last N requests are always inspectable (via
``GET /debug/requests`` or :meth:`FlightRecorder.recent`) at a memory
cost that never grows.

Requests slower than a configurable threshold additionally capture
their **full span tree** from the tracer into a separate slow-query
ring (``GET /debug/slow``), which is how "why was this query slow"
gets answered after the fact without re-running anything.

Recording is gated on the global observability switch: a disabled
process pays one attribute check per request and keeps no state.
"""

from __future__ import annotations

import sys
import threading
import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.obs._state import STATE

#: Default ring capacity (requests kept for ``/debug/requests``).
DEFAULT_CAPACITY = 1024

#: Default slow-query ring capacity (span trees are heavier, keep fewer).
DEFAULT_SLOW_CAPACITY = 64

#: Default slow-query threshold in seconds.
DEFAULT_SLOW_THRESHOLD_S = 0.1


def gamma_fingerprint(gamma) -> str:
    """A short stable fingerprint of a topic distribution γ_q.

    CRC-32 over the distribution rounded to 6 decimals, rendered as 8
    hex characters — enough to spot "the same query again" in a debug
    listing without storing the full vector per record.
    """
    rounded = tuple(round(float(v), 6) for v in gamma)
    digest = zlib.crc32(repr(rounded).encode("utf-8")) & 0xFFFFFFFF
    return f"{digest:08x}"


@dataclass(slots=True)
class FlightRecord:
    """One request's flight-recorder entry.

    Slotted: the ring holds ``capacity`` of these (1024 by default), and
    a per-instance ``__dict__`` would cost more than the fields.

    ``timings`` maps phase names (e.g. ``search`` / ``selection`` /
    ``aggregation``) to seconds; ``status`` is the HTTP status code (or
    0 for CLI-originated requests).  ``spans`` is populated only on
    slow-ring entries: a list of span dicts (name, start, duration,
    span_id, parent_id) forming the request's full tree.  A record may
    carry the query's ``gamma`` instead of its ``fingerprint``: the
    fingerprint is then computed when the record is listed, not on the
    request path.
    """

    request_id: str
    trace_id: str
    route: str = ""
    fingerprint: str = ""
    k: int = 0
    strategy: str = ""
    status: int = 0
    duration_s: float = 0.0
    cache_hit: bool = False
    coalesced: bool = False
    degraded: bool = False
    shed: bool = False
    epsilon_match: bool = False
    num_neighbors_used: int = 0
    batch_id: int | None = None
    timings: dict = field(default_factory=dict)
    slow: bool = False
    spans: list = field(default_factory=list)
    gamma: object = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """A JSON-friendly dict (used by the debug routes)."""
        fingerprint = self.fingerprint
        if not fingerprint and self.gamma is not None:
            fingerprint = gamma_fingerprint(self.gamma)
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "route": self.route,
            "fingerprint": fingerprint,
            "k": self.k,
            "strategy": self.strategy,
            "status": self.status,
            "duration_ms": self.duration_s * 1e3,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "degraded": self.degraded,
            "shed": self.shed,
            "epsilon_match": self.epsilon_match,
            "num_neighbors_used": self.num_neighbors_used,
            "batch_id": self.batch_id,
            "timings_ms": {
                name: value * 1e3 for name, value in self.timings.items()
            },
            "slow": self.slow,
            "spans": list(self.spans),
        }


class FlightRecorder:
    """Fixed-capacity ring of :class:`FlightRecord` entries plus a
    separate slow-query ring with captured span trees.

    Parameters
    ----------
    capacity:
        How many recent requests to keep.
    slow_capacity:
        How many slow requests (with span trees) to keep.
    slow_threshold_s:
        Requests with ``duration_s`` above this are also copied into
        the slow ring and get their span tree captured.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        slow_capacity: int = DEFAULT_SLOW_CAPACITY,
        slow_threshold_s: float = DEFAULT_SLOW_THRESHOLD_S,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slow_capacity < 1:
            raise ValueError(
                f"slow_capacity must be >= 1, got {slow_capacity}"
            )
        if slow_threshold_s <= 0:
            raise ValueError(
                f"slow_threshold_s must be > 0, got {slow_threshold_s}"
            )
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=int(capacity))
        self._slow_ring: deque = deque(maxlen=int(slow_capacity))
        self.slow_threshold_s = float(slow_threshold_s)
        self._total = 0
        self._slow_total = 0

    def record(self, record: FlightRecord, tracer=None) -> bool:
        """Add one record; returns whether it was classified slow.

        No-op (returns ``False``) while observability is disabled.
        When ``tracer`` is given and the record crosses the slow
        threshold, the request's span tree is captured from it by
        trace id at record time.
        """
        if not STATE.enabled:
            return False
        slow = record.duration_s >= self.slow_threshold_s
        record.slow = slow
        if slow and tracer is not None and record.trace_id:
            record.spans = [
                {
                    "name": span.name,
                    "start_ms": span.start * 1e3,
                    "duration_ms": span.duration * 1e3,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                }
                for span in tracer.find_trace(record.trace_id)
            ]
        with self._lock:
            self._ring.append(record)
            self._total += 1
            if slow:
                self._slow_ring.append(record)
                self._slow_total += 1
        return slow

    def recent(self, n: int | None = None) -> list[FlightRecord]:
        """The most recent records, newest first."""
        with self._lock:
            records = list(self._ring)
        records.reverse()
        return records if n is None else records[: max(0, int(n))]

    def slow(self, n: int | None = None) -> list[FlightRecord]:
        """The most recent slow records (with span trees), newest first."""
        with self._lock:
            records = list(self._slow_ring)
        records.reverse()
        return records if n is None else records[: max(0, int(n))]

    def find(self, request_id: str) -> FlightRecord | None:
        """The record for ``request_id`` if still in the ring."""
        with self._lock:
            for record in reversed(self._ring):
                if record.request_id == request_id:
                    return record
        return None

    @property
    def total(self) -> int:
        """Requests recorded since creation/clear (including evicted)."""
        return self._total

    @property
    def slow_total(self) -> int:
        """Slow requests recorded since creation/clear."""
        return self._slow_total

    def __len__(self) -> int:
        return len(self._ring)

    def snapshot(self) -> dict:
        """Counts plus the recent rings as JSON-friendly dicts."""
        with self._lock:
            ring = list(self._ring)
            slow_ring = list(self._slow_ring)
            total = self._total
            slow_total = self._slow_total
        return {
            "total": total,
            "slow_total": slow_total,
            "capacity": self._ring.maxlen,
            "slow_capacity": self._slow_ring.maxlen,
            "slow_threshold_ms": self.slow_threshold_s * 1e3,
            "recent": [record.to_dict() for record in reversed(ring)],
            "slow": [record.to_dict() for record in reversed(slow_ring)],
        }

    def approx_memory_bytes(self) -> int:
        """Rough resident size of the rings (each slotted record with
        its timings and spans; a record in both rings counts once) —
        reported by the telemetry benchmark, not a precise accounting."""
        with self._lock:
            records = {id(r): r for r in (*self._ring, *self._slow_ring)}
        total = sys.getsizeof(self._ring) + sys.getsizeof(self._slow_ring)
        for record in records.values():
            total += sys.getsizeof(record)
            total += sys.getsizeof(record.timings)
            total += sys.getsizeof(record.spans)
            for span in record.spans:
                total += sys.getsizeof(span)
        return total

    def clear(self) -> None:
        """Drop all records and zero the counters."""
        with self._lock:
            self._ring.clear()
            self._slow_ring.clear()
            self._total = 0
            self._slow_total = 0


_GLOBAL_RECORDER = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-wide default flight recorder."""
    return _GLOBAL_RECORDER
