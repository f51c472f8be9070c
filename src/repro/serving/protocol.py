"""Minimal HTTP/1.1 codec and JSON wire format for the query service.

The server speaks just enough HTTP/1.1 for serving and load testing —
request-line + headers + ``Content-Length`` bodies, keep-alive
connections, no chunked transfer, no TLS — implemented directly on
``asyncio`` streams so the subsystem stays stdlib-only.  Both the
server (:mod:`repro.serving.server`) and the load generator
(:mod:`repro.serving.loadgen`) use this module, so the two ends of the
wire can never drift apart.

The JSON shapes are deliberately flat:

* ``POST /query`` body::

      {"gamma": [0.6, 0.2, 0.2], "k": 10,
       "strategy": "inflex", "deadline_ms": 50}

  (``strategy`` and ``deadline_ms`` optional.)

* answer (one per query)::

      {"seeds": [4, 17, ...], "strategy": "inflex",
       "algorithm": "inflex", "epsilon_match": false,
       "degraded": false, "reason": null,
       "num_neighbors_used": 3, "timing_ms": 1.92,
       "cache_hit": true, "coalesced": false}

* ``POST /query_batch`` body: ``{"queries": [<query>, ...]}`` with
  optional top-level ``k`` / ``strategy`` / ``deadline_ms`` defaults;
  answer: ``{"answers": [<answer-or-error>, ...]}`` in input order.

* ``POST /campaign`` body::

      {"items": [[0.6, 0.2, 0.2], [0.1, 0.8, 0.1]], "k": 10,
       "algorithm": "lazy", "epsilon": 0.2, "deadline_ms": 200}

  (``algorithm``, ``epsilon`` and ``deadline_ms`` optional) — answer::

      {"assignments": [[4, 17], [9, ...]], "gains": [[...], ...],
       "total_spread": 231.5, "algorithm": "lazy", "degraded": false,
       "oracle_sets": [2000, 2000], "num_seeds": 10}
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass, field

#: Reason phrases for the statuses the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on accepted request bodies (1 MiB — far above any
#: realistic query batch, small enough to bound a hostile client).
MAX_BODY_BYTES = 1 << 20

#: Upper bound on one header line (also bounds the request line).
MAX_LINE_BYTES = 16 * 1024


class ProtocolError(ValueError):
    """A malformed or unsupported HTTP message."""


@dataclass
class HttpRequest:
    """One parsed HTTP request (method, target, lowercased headers,
    raw body)."""

    method: str
    target: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should stay open after the response."""
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self):
        """The body decoded as JSON (raises :class:`ProtocolError`)."""
        if not self.body:
            raise ProtocolError("expected a JSON body")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from exc


async def _read_line(reader) -> bytes:
    line = await reader.readline()
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("header line too long")
    return line


async def read_request(reader) -> HttpRequest | None:
    """Parse one HTTP/1.1 request from ``reader``.

    Returns ``None`` on clean EOF before any bytes (the peer closed a
    keep-alive connection); raises :class:`ProtocolError` on malformed
    or unsupported input (the caller answers 400 and closes).
    """
    request_line = await _read_line(reader)
    if not request_line:
        return None
    try:
        method, target, version = (
            request_line.decode("latin-1").rstrip("\r\n").split(" ", 2)
        )
    except ValueError as exc:
        raise ProtocolError(f"malformed request line: {request_line!r}") from exc
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported HTTP version: {version!r}")
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            raise ProtocolError("connection closed mid-headers")
        if line in (b"\r\n", b"\n"):
            break
        decoded = line.decode("latin-1").rstrip("\r\n")
        name, sep, value = decoded.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {decoded!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ProtocolError("chunked transfer encoding is not supported")
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as exc:
            raise ProtocolError(
                f"invalid Content-Length: {length_text!r}"
            ) from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(f"unacceptable Content-Length: {length}")
        if length:
            body = await reader.readexactly(length)
    return HttpRequest(method.upper(), target, headers, body)


def encode_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one HTTP/1.1 response."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if extra_headers:
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_body(payload) -> bytes:
    """Compact JSON encoding used for all service bodies."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def error_body(message: str) -> bytes:
    """The uniform error payload: ``{"error": <message>}``."""
    return json_body({"error": message})


#: Typecode of packed seeds: C ``unsigned int``, 4 bytes on every
#: platform the service runs on, so any ``uint32`` node id fits.
_SEED_TYPECODE = "I"


@dataclass(slots=True)
class ServedAnswer:
    """One computed answer, packed to what the server reads of it.

    A record keeps the fields an answer's wire form and its flight
    record read, and nothing else.  The result cache holds thousands
    of these, so a record is packed: the seeds as one ``bytes`` of
    4-byte unsigned ints, the strategy, algorithm and reason as
    interned strings every record shares, the ``epsilon_match`` and
    ``degraded`` flags, the neighbor count and the three phase timings
    in seconds.  The server builds one per computed answer with
    :meth:`of` (on the executor thread) and renders every hit, miss
    and coalesced follower from it through :func:`answer_to_dict`.
    """

    packed_seeds: bytes
    strategy: str
    algorithm: str
    reason: str | None
    epsilon_match: bool
    degraded: bool
    num_neighbors_used: int
    search: float
    selection: float
    aggregation: float

    @classmethod
    def of(cls, answer) -> ServedAnswer:
        """Pack a :class:`~repro.core.query.TimAnswer`."""
        timing = answer.timing
        reason = answer.reason
        return cls(
            array(_SEED_TYPECODE, answer.seeds.nodes).tobytes(),
            sys.intern(answer.strategy),
            sys.intern(answer.seeds.algorithm),
            None if reason is None else sys.intern(reason),
            bool(answer.epsilon_match),
            bool(answer.degraded),
            answer.num_neighbors_used,
            timing.search,
            timing.selection,
            timing.aggregation,
        )

    @property
    def seeds(self) -> list[int]:
        """The seed node ids, in rank order."""
        return array(_SEED_TYPECODE, self.packed_seeds).tolist()

    @property
    def total(self) -> float:
        """Evaluation seconds, summed as ``QueryTiming.total`` sums."""
        return self.search + self.selection + self.aggregation


def answer_to_dict(
    answer, *, cache_hit: bool = False, coalesced: bool = False
) -> dict:
    """The wire form of a :class:`ServedAnswer`.

    A :class:`~repro.core.query.TimAnswer` is packed first, so every
    answer renders through this one path.

    ``algorithm`` names the producing path (e.g. ``"sketch"``,
    ``"inflex:degraded"``, ``"sketch:fallback"``) and ``reason`` is the
    machine-readable degradation cause (``"deadline"``/``"distance"``,
    ``None`` for full-quality answers).
    """
    if not isinstance(answer, ServedAnswer):
        answer = ServedAnswer.of(answer)
    return {
        "seeds": answer.seeds,
        "strategy": answer.strategy,
        "algorithm": answer.algorithm,
        "epsilon_match": answer.epsilon_match,
        "degraded": answer.degraded,
        "reason": answer.reason,
        "num_neighbors_used": answer.num_neighbors_used,
        "timing_ms": round(answer.total * 1000.0, 4),
        "cache_hit": bool(cache_hit),
        "coalesced": bool(coalesced),
    }


def parse_query_payload(
    payload,
    *,
    default_k: int | None = None,
    default_strategy: str = "inflex",
    default_deadline_ms: float | None = None,
) -> tuple[list[float], int, str, float | None]:
    """Validate one query object -> ``(gamma, k, strategy, deadline_ms)``.

    Raises :class:`ProtocolError` with a client-actionable message on
    any shape problem; numeric sanity beyond shape (normalization,
    dimension match) is left to the index, whose errors the server maps
    to 400 as well.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("query must be a JSON object")
    gamma = payload.get("gamma")
    if not isinstance(gamma, (list, tuple)) or not gamma:
        raise ProtocolError("'gamma' must be a non-empty array of numbers")
    try:
        gamma = [float(v) for v in gamma]
    except (TypeError, ValueError) as exc:
        raise ProtocolError("'gamma' must contain only numbers") from exc
    if any(v != v or v in (float("inf"), float("-inf")) for v in gamma):
        raise ProtocolError("'gamma' must contain only finite numbers")
    if any(v < 0 for v in gamma):
        raise ProtocolError("'gamma' components must be non-negative")
    total = sum(gamma)
    if total <= 0:
        raise ProtocolError("'gamma' components must have a positive sum")
    # Normalize: JSON round-trips and client-side rounding mean wire
    # gammas rarely sum to exactly 1; the intent is unambiguous.
    gamma = [v / total for v in gamma]
    k = payload.get("k", default_k)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ProtocolError("'k' must be a positive integer")
    strategy = payload.get("strategy", default_strategy)
    if not isinstance(strategy, str):
        raise ProtocolError("'strategy' must be a string")
    deadline_ms = payload.get("deadline_ms", default_deadline_ms)
    if deadline_ms is not None:
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError) as exc:
            raise ProtocolError("'deadline_ms' must be a number") from exc
        if deadline_ms <= 0:
            raise ProtocolError("'deadline_ms' must be positive")
    return gamma, k, strategy, deadline_ms


def parse_campaign_payload(
    payload,
    *,
    default_algorithm: str = "lazy",
    default_deadline_ms: float | None = None,
    max_items: int | None = None,
) -> tuple[list[list[float]], int, str, float | None, float | None]:
    """Validate one campaign request ->
    ``(items, k, algorithm, epsilon, deadline_ms)``.

    ``items`` is the list of per-item topic distributions (each
    normalized like a query gamma); ``k`` is the *global* seed budget
    shared across items.  Raises :class:`ProtocolError` with a
    client-actionable message on any shape problem.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("campaign must be a JSON object")
    raw_items = payload.get("items")
    if not isinstance(raw_items, (list, tuple)) or not raw_items:
        raise ProtocolError(
            "'items' must be a non-empty array of topic distributions"
        )
    if max_items is not None and len(raw_items) > max_items:
        raise ProtocolError(
            f"'items' may hold at most {max_items} distributions"
        )
    items: list[list[float]] = []
    for i, raw in enumerate(raw_items):
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ProtocolError(
                f"items[{i}] must be a non-empty array of numbers"
            )
        try:
            gamma = [float(v) for v in raw]
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"items[{i}] must contain only numbers"
            ) from exc
        if any(
            v != v or v in (float("inf"), float("-inf")) for v in gamma
        ):
            raise ProtocolError(
                f"items[{i}] must contain only finite numbers"
            )
        if any(v < 0 for v in gamma):
            raise ProtocolError(
                f"items[{i}] components must be non-negative"
            )
        total = sum(gamma)
        if total <= 0:
            raise ProtocolError(
                f"items[{i}] components must have a positive sum"
            )
        items.append([v / total for v in gamma])
    k = payload.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ProtocolError("'k' must be a positive integer")
    algorithm = payload.get("algorithm", default_algorithm)
    if algorithm not in ("lazy", "threshold"):
        raise ProtocolError(
            "'algorithm' must be 'lazy' or 'threshold'"
        )
    epsilon = payload.get("epsilon")
    if epsilon is not None:
        try:
            epsilon = float(epsilon)
        except (TypeError, ValueError) as exc:
            raise ProtocolError("'epsilon' must be a number") from exc
        if not 0.0 < epsilon < 1.0:
            raise ProtocolError("'epsilon' must lie in (0, 1)")
    deadline_ms = payload.get("deadline_ms", default_deadline_ms)
    if deadline_ms is not None:
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError) as exc:
            raise ProtocolError("'deadline_ms' must be a number") from exc
        if deadline_ms <= 0:
            raise ProtocolError("'deadline_ms' must be positive")
    return items, k, algorithm, epsilon, deadline_ms


# ----------------------------------------------------------------------
# Client side (used by the load generator and by tests)
# ----------------------------------------------------------------------
def encode_request(
    method: str,
    target: str,
    body: bytes = b"",
    *,
    host: str = "localhost",
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one HTTP/1.1 request.

    ``extra_headers`` ride along verbatim — the fleet router uses them
    to forward ``X-Trace-Id`` / ``X-Request-Id`` so a proxied request
    keeps one identity across processes.
    """
    lines = [
        f"{method} {target} HTTP/1.1",
        f"Host: {host}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if extra_headers:
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    if body:
        lines.append(f"Content-Type: {content_type}")
        lines.append(f"Content-Length: {len(body)}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


async def read_response(reader) -> tuple[int, dict[str, str], bytes]:
    """Parse one HTTP/1.1 response -> ``(status, headers, body)``."""
    status_line = await _read_line(reader)
    if not status_line:
        raise ProtocolError("connection closed before the status line")
    parts = status_line.decode("latin-1").rstrip("\r\n").split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ProtocolError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            raise ProtocolError("connection closed mid-headers")
        if line in (b"\r\n", b"\n"):
            break
        decoded = line.decode("latin-1").rstrip("\r\n")
        name, sep, value = decoded.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        length = int(length_text)
        if length:
            body = await reader.readexactly(length)
    return status, headers, body
