"""The evolving-graph delta model: edge deltas, batches, and the log.

A production social graph is never immutable: follows appear, unfollows
disappear, and influence strengths drift as interaction patterns change.
This module defines the append-only stream those changes arrive on:

* :class:`EdgeDelta` — one arc-level change (``add`` / ``remove`` /
  ``reweight`` with per-topic probabilities);
* :class:`DeltaBatch` — an ordered group of deltas applied atomically
  at one timestamp (the unit of sketch maintenance and subscription
  re-evaluation);
* :class:`DeltaLog` — an append-only sequence of batches with
  CRC-per-record, atomic-rename persistence built on the
  :mod:`repro.core.persistence` helpers;
* :func:`advance_graph` — a batch applied to a graph's CSR arrays,
  the way the maintainers advance their graph.

Batches also carry time forward: a maintainer configured with a decay
rate applies ``exp(-rate * elapsed)`` to every arc's strength before
the batch's deltas (exponential time-decay of edge strength, the model
of time-decaying social streams).  All validation errors raise
:class:`~repro.errors.StreamError` and application is transactional.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.persistence import atomic_write_bytes, crc_of_bytes
from repro.errors import CorruptArtifactError, StreamError
from repro.graph.topic_graph import TopicGraph
from repro.obs import instruments as _obs

#: Operations an :class:`EdgeDelta` may carry.
DELTA_OPS = ("add", "remove", "reweight")

#: First line of every persisted delta log (format marker + version).
_LOG_HEADER = {"format": "repro-delta-log", "version": 1}


@dataclass(frozen=True)
class EdgeDelta:
    """One arc-level change to the evolving topic graph.

    Attributes
    ----------
    op:
        ``"add"`` (arc must not exist), ``"remove"`` (arc must exist),
        or ``"reweight"`` (arc must exist; replaces its probabilities).
    tail / head:
        The directed arc ``(tail, head)`` being changed.
    probabilities:
        Per-topic influence probabilities for ``add``/``reweight``
        (length ``Z``, each in ``[0, 1]``); must be ``None`` for
        ``remove``.
    """

    op: str
    tail: int
    head: int
    probabilities: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.op not in DELTA_OPS:
            raise StreamError(
                f"unknown delta op {self.op!r}; expected one of {DELTA_OPS}"
            )
        object.__setattr__(self, "tail", int(self.tail))
        object.__setattr__(self, "head", int(self.head))
        if self.tail < 0 or self.head < 0:
            raise StreamError(
                f"arc endpoints must be nonnegative, got "
                f"({self.tail}, {self.head})"
            )
        if self.op == "remove":
            if self.probabilities is not None:
                raise StreamError(
                    "a remove delta must not carry probabilities"
                )
            return
        if self.probabilities is None:
            raise StreamError(f"an {self.op} delta needs probabilities")
        probs = tuple(float(p) for p in self.probabilities)
        if not probs:
            raise StreamError("delta probabilities must be non-empty")
        if any(not np.isfinite(p) or not 0.0 <= p <= 1.0 for p in probs):
            raise StreamError(
                f"delta probabilities must lie in [0, 1], got {probs}"
            )
        object.__setattr__(self, "probabilities", probs)

    def to_dict(self) -> dict:
        """JSON-native wire/log form of this delta."""
        payload = {"op": self.op, "tail": self.tail, "head": self.head}
        if self.probabilities is not None:
            payload["probabilities"] = list(self.probabilities)
        return payload

    @classmethod
    def from_dict(cls, payload) -> "EdgeDelta":
        """Parse the wire/log form back into an :class:`EdgeDelta`."""
        if not isinstance(payload, dict):
            raise StreamError("a delta must be a JSON object")
        unknown = set(payload) - {"op", "tail", "head", "probabilities"}
        if unknown:
            raise StreamError(f"unknown delta fields: {sorted(unknown)}")
        try:
            return cls(
                op=payload.get("op", ""),
                tail=payload.get("tail", -1),
                head=payload.get("head", -1),
                probabilities=payload.get("probabilities"),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, StreamError):
                raise
            raise StreamError(f"malformed delta {payload!r}: {exc}") from exc


@dataclass(frozen=True)
class DeltaBatch:
    """An ordered group of deltas applied atomically at one timestamp.

    Attributes
    ----------
    deltas:
        The edge changes, applied in order within the batch.
    timestamp:
        Stream time of the batch.  Timestamps must be nondecreasing
        along a stream; a maintainer with a decay rate converts the
        elapsed time since the previous batch into an exponential
        strength decay applied before these deltas.
    """

    deltas: tuple[EdgeDelta, ...] = ()
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        deltas = tuple(
            d if isinstance(d, EdgeDelta) else EdgeDelta.from_dict(d)
            for d in self.deltas
        )
        object.__setattr__(self, "deltas", deltas)
        ts = float(self.timestamp)
        if not np.isfinite(ts):
            raise StreamError(f"batch timestamp must be finite, got {ts}")
        object.__setattr__(self, "timestamp", ts)

    def __len__(self) -> int:
        return len(self.deltas)

    def touched_heads(self) -> set[int]:
        """Arc heads changed by this batch — the sketch invalidation key.

        An RR set must be resampled iff it contains the head of a
        changed arc: the reverse walk examines exactly the in-arcs of
        its members, so any other set replays bit-identically on the
        new graph (see ``docs/STREAMING.md``).
        """
        return {delta.head for delta in self.deltas}

    def to_dict(self) -> dict:
        """JSON-native wire/log form of this batch."""
        return {
            "timestamp": self.timestamp,
            "deltas": [delta.to_dict() for delta in self.deltas],
        }

    @classmethod
    def from_dict(cls, payload) -> "DeltaBatch":
        """Parse the wire/log form back into a :class:`DeltaBatch`."""
        if not isinstance(payload, dict):
            raise StreamError("a delta batch must be a JSON object")
        deltas = payload.get("deltas", [])
        if not isinstance(deltas, list):
            raise StreamError("'deltas' must be an array of delta objects")
        timestamp = payload.get("timestamp", 0.0)
        if isinstance(timestamp, bool) or not isinstance(
            timestamp, (int, float)
        ):
            raise StreamError("'timestamp' must be a number")
        return cls(
            deltas=tuple(EdgeDelta.from_dict(d) for d in deltas),
            timestamp=float(timestamp),
        )


class DeltaLog:
    """An append-only, integrity-checked sequence of delta batches.

    The durable form of the stream: synthetic workload generators
    produce one, the CLI replays one, and operators can archive the
    exact evolution a deployment saw.  Each persisted record embeds a
    CRC32 of its canonical JSON payload; :meth:`load` verifies every
    record and raises :class:`~repro.errors.CorruptArtifactError` on
    any mismatch or truncation, and :meth:`save` writes atomically via
    :func:`repro.core.persistence.atomic_write_bytes`.
    """

    def __init__(self, batches=()) -> None:
        self._batches: list[DeltaBatch] = []
        for batch in batches:
            self.append(batch)

    @property
    def batches(self) -> tuple[DeltaBatch, ...]:
        """The logged batches, in append order."""
        return tuple(self._batches)

    @property
    def num_deltas(self) -> int:
        """Total edge deltas across all batches."""
        return sum(len(batch) for batch in self._batches)

    def __len__(self) -> int:
        return len(self._batches)

    def __iter__(self):
        return iter(self._batches)

    def append(self, batch: DeltaBatch) -> None:
        """Append one batch; timestamps must be nondecreasing."""
        if not isinstance(batch, DeltaBatch):
            batch = DeltaBatch.from_dict(batch)
        if self._batches and batch.timestamp < self._batches[-1].timestamp:
            raise StreamError(
                f"batch timestamp {batch.timestamp} runs backwards "
                f"(log is at {self._batches[-1].timestamp})"
            )
        self._batches.append(batch)

    @staticmethod
    def _record_bytes(batch: DeltaBatch) -> bytes:
        payload = json.dumps(
            batch.to_dict(), sort_keys=True, separators=(",", ":")
        )
        record = {
            "crc": crc_of_bytes(payload.encode("utf-8")),
            "batch": json.loads(payload),
        }
        return json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def save(self, path) -> None:
        """Write the whole log to ``path`` atomically (JSONL + CRCs)."""
        lines = [
            json.dumps(_LOG_HEADER, sort_keys=True, separators=(",", ":"))
            .encode("utf-8")
        ]
        lines.extend(self._record_bytes(batch) for batch in self._batches)
        atomic_write_bytes(path, b"\n".join(lines) + b"\n")

    @classmethod
    def load(cls, path) -> "DeltaLog":
        """Load and verify a log written by :meth:`save`.

        Raises
        ------
        CorruptArtifactError
            When the file is unreadable, has no format header, or any
            record's payload fails its CRC32 — a damaged stream is
            never silently replayed.
        """
        source = Path(path)

        def corrupt(reason: str) -> CorruptArtifactError:
            _obs.record_corrupt_artifact("delta-log")
            return CorruptArtifactError(
                f"delta log {source} {reason}; the file is corrupt or "
                "truncated — restore it from a backup or regenerate the "
                "stream"
            )

        try:
            lines = source.read_bytes().splitlines()
        except OSError as exc:
            raise corrupt(f"cannot be read ({exc})") from exc
        if not lines:
            raise corrupt("is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise corrupt("has an unparseable header") from exc
        if not isinstance(header, dict) or header.get("format") != (
            _LOG_HEADER["format"]
        ):
            raise corrupt("has no delta-log format header")
        if int(header.get("version", 0)) > _LOG_HEADER["version"]:
            raise ValueError(
                f"unsupported delta log version {header.get('version')}"
            )
        log = cls()
        for lineno, raw in enumerate(lines[1:], start=2):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise corrupt(f"has an unparseable record (line {lineno})") from exc
            if not isinstance(record, dict) or "batch" not in record:
                raise corrupt(f"has a malformed record (line {lineno})")
            payload = json.dumps(
                record["batch"], sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            if crc_of_bytes(payload) != record.get("crc"):
                raise corrupt(
                    f"failed checksum verification (line {lineno})"
                )
            try:
                log.append(DeltaBatch.from_dict(record["batch"]))
            except StreamError as exc:
                raise corrupt(
                    f"decoded to an invalid batch (line {lineno}: {exc})"
                ) from exc
        return log

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaLog({len(self._batches)} batches, "
            f"{self.num_deltas} deltas)"
        )


def advance_graph(
    graph: TopicGraph, deltas, factor: float = 1.0
) -> TopicGraph:
    """The successor of ``graph`` under a decay ``factor`` and ``deltas``.

    Every arc's strength is multiplied by ``factor``, then ``deltas``
    are applied in order, straight on the CSR arrays.  The result equals
    :meth:`EdgeState.to_graph` after ``EdgeState.from_graph(graph)``,
    :meth:`EdgeState.decay` and one :meth:`EdgeState.apply_delta` per
    delta, bit for bit, and the same
    :class:`~repro.errors.StreamError` is raised at the same delta.

    Arcs are the keys ``tail * n + head``, increasing in CSR order.  The
    deltas are replayed onto a small overlay of the arcs they touch;
    then removed arcs leave by ``np.delete``, new arcs enter by
    ``np.insert`` at their ``searchsorted`` positions, and reweighted
    arcs get their row rewritten in a copy.  ``graph`` is never
    modified; it is returned as is when nothing changes.
    """
    if not 0.0 <= factor <= 1.0:
        raise StreamError(f"decay factor must lie in [0, 1], got {factor}")
    n, num_topics = graph.num_nodes, graph.num_topics
    keys = graph.arc_keys()
    probs = graph.probabilities
    in_order = bool(np.all(keys[1:] > keys[:-1]))
    if not in_order:
        # A hand-built CSR may hold unsorted rows or repeated arcs: order
        # them as ``from_arcs`` does, the last copy of an arc winning as
        # it does in the edge dictionary.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        last = np.append(keys[1:] != keys[:-1], True)
        keys = keys[last]
        probs = probs[order[last]]
    overlay: dict[int, np.ndarray | None] = {}
    for delta in deltas:
        arc = (delta.tail, delta.head)
        if not (0 <= delta.tail < n and 0 <= delta.head < n):
            raise StreamError(f"delta arc {arc} out of node range [0, {n})")
        if delta.tail == delta.head:
            raise StreamError(f"self-loop delta on node {delta.tail}")
        key = delta.tail * n + delta.head
        if key in overlay:
            present = overlay[key] is not None
        else:
            pos = int(np.searchsorted(keys, key))
            present = pos < keys.size and int(keys[pos]) == key
        if delta.op == "add":
            if present:
                raise StreamError(f"cannot add arc {arc}: already present")
        elif not present:
            raise StreamError(f"cannot {delta.op} arc {arc}: not present")
        if delta.op == "remove":
            overlay[key] = None
            continue
        row = np.asarray(delta.probabilities, dtype=np.float64)
        if row.size != num_topics:
            raise StreamError(
                f"delta for arc {arc} has {row.size} topics, graph "
                f"has {num_topics}"
            )
        overlay[key] = row
    if not overlay and factor == 1.0 and in_order:
        return graph
    if factor != 1.0:
        probs = probs * factor
    if overlay:
        changed, rows = zip(*sorted(overlay.items()))
        changed = np.array(changed, dtype=np.int64)
        pos = np.searchsorted(keys, changed)
        found = np.zeros(changed.size, dtype=bool)
        if keys.size:
            found = keys[np.minimum(pos, keys.size - 1)] == changed
        kept = np.fromiter(
            (row is not None for row in rows), dtype=bool, count=len(rows)
        )
        update = np.flatnonzero(found & kept)
        if update.size:
            if factor == 1.0:
                probs = probs.copy()
            probs[pos[update]] = [rows[i] for i in update]
        gone = pos[found & ~kept]
        if gone.size:
            keys = np.delete(keys, gone)
            probs = np.delete(probs, gone, axis=0)
        new = np.flatnonzero(~found & kept)
        if new.size:
            at = np.searchsorted(keys, changed[new])
            keys = np.insert(keys, at, changed[new])
            probs = np.insert(
                probs, at, np.stack([rows[i] for i in new]), axis=0
            )
    return TopicGraph._from_sorted_keys(n, keys, probs)


@dataclass
class EdgeState:
    """A mutable arc-dictionary view of a :class:`TopicGraph`.

    ``(tail, head) -> (Z,)`` probability vectors, cheap to mutate per
    delta and convertible back to the immutable CSR
    :class:`TopicGraph`.  The synthetic delta generator tracks its
    evolving edge set in one (its arc choices follow the dictionary's
    insertion order), and it is the reference :func:`advance_graph` is
    tested against; the maintainers apply batches with
    :func:`advance_graph`.
    """

    num_nodes: int
    num_topics: int
    edges: dict = field(default_factory=dict)

    @classmethod
    def from_graph(cls, graph: TopicGraph) -> "EdgeState":
        """Snapshot an immutable graph into a mutable edge dictionary."""
        edges = {}
        arcs = graph.arcs()
        probs = graph.probabilities
        for arc_id in range(graph.num_arcs):
            tail, head = int(arcs[arc_id, 0]), int(arcs[arc_id, 1])
            edges[(tail, head)] = probs[arc_id].copy()
        return cls(graph.num_nodes, graph.num_topics, edges)

    def copy(self) -> "EdgeState":
        """A shallow edge-dict copy (probability vectors are shared
        until :meth:`decay` replaces them)."""
        return EdgeState(self.num_nodes, self.num_topics, dict(self.edges))

    def decay(self, factor: float) -> None:
        """Multiply every arc's per-topic strength by ``factor``.

        Fresh vectors are written (never mutated in place) so a
        :meth:`copy` taken before the call stays intact, as a staged
        copy that may be discarded needs.
        """
        if not 0.0 <= factor <= 1.0:
            raise StreamError(
                f"decay factor must lie in [0, 1], got {factor}"
            )
        if factor == 1.0:
            return
        self.edges = {
            arc: probs * factor for arc, probs in self.edges.items()
        }

    def apply_delta(self, delta: EdgeDelta) -> None:
        """Apply one validated delta, raising :class:`StreamError` on
        any structural conflict with the current edge set."""
        arc = (delta.tail, delta.head)
        if not (
            0 <= delta.tail < self.num_nodes
            and 0 <= delta.head < self.num_nodes
        ):
            raise StreamError(
                f"delta arc {arc} out of node range [0, {self.num_nodes})"
            )
        if delta.tail == delta.head:
            raise StreamError(f"self-loop delta on node {delta.tail}")
        if delta.op == "add":
            if arc in self.edges:
                raise StreamError(f"cannot add arc {arc}: already present")
        elif arc not in self.edges:
            raise StreamError(
                f"cannot {delta.op} arc {arc}: not present"
            )
        if delta.op == "remove":
            del self.edges[arc]
            return
        probs = np.asarray(delta.probabilities, dtype=np.float64)
        if probs.size != self.num_topics:
            raise StreamError(
                f"delta for arc {arc} has {probs.size} topics, graph "
                f"has {self.num_topics}"
            )
        self.edges[arc] = probs

    def to_graph(self) -> TopicGraph:
        """Materialize the current edge set as an immutable
        :class:`TopicGraph` (same CSR ordering as ``from_arcs``)."""
        if not self.edges:
            arcs = np.empty((0, 2), dtype=np.int64)
            probs = np.empty((0, self.num_topics), dtype=np.float64)
            return TopicGraph.from_arcs(self.num_nodes, arcs, probs)
        # Dict order is fine: ``from_arcs`` lexsorts the (unique) arcs.
        m = len(self.edges)
        arcs = np.fromiter(
            itertools.chain.from_iterable(self.edges),
            dtype=np.int64,
            count=2 * m,
        ).reshape(m, 2)
        probs = np.concatenate(list(self.edges.values())).reshape(
            m, self.num_topics
        )
        return TopicGraph.from_arcs(self.num_nodes, arcs, probs)
