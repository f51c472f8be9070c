"""The benchmark's own HTTP/1.1 load generator.

It shares no code with the program's ``serving.protocol`` or
``serving.loadgen``, so a change to the server's codec cannot change how
the benchmark measures it.  Every request attempted is counted: a
transport error or any status other than 200 (429 and 503 included) is
a failure, and latency percentiles are taken over answered requests
only.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from common import median, percentile, valid_answer

HOST = "127.0.0.1"
TRANSPORT_ERRORS = (OSError, EOFError, asyncio.IncompleteReadError, ValueError)


class Connection:
    """One keep-alive connection issuing requests one at a time."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            HOST, self._port
        )

    async def request(self, method: str, path: str, payload=None):
        """Send one request -> ``(status, body bytes)``.

        A transport error closes the connection (the next request
        reconnects) and propagates to the caller, which counts it.
        """
        if self._writer is None:
            await self._open()
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            "Connection: keep-alive\r\n"
        )
        if body:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        try:
            self._writer.write(head.encode("latin-1") + b"\r\n" + body)
            await self._writer.drain()
            status_line = await self._reader.readline()
            if not status_line:
                raise EOFError("connection closed before the status line")
            status = int(status_line.split(b" ", 2)[1])
            length = 0
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if not line:
                    raise EOFError("connection closed mid-headers")
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            data = await self._reader.readexactly(length) if length else b""
        except TRANSPORT_ERRORS:
            await self.close()
            raise
        return status, data

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def fetch_json(port: int, method: str, path: str, payload=None):
    """One request on a fresh connection -> ``(status, decoded body)``."""
    conn = Connection(port)
    try:
        status, data = await conn.request(method, path, payload)
    finally:
        await conn.close()
    return status, json.loads(data) if data else None


@dataclass
class Tally:
    """Outcome counts and answered-request latencies of one phase."""

    attempted: int = 0
    answered: int = 0
    transport_errors: int = 0
    statuses: dict = field(default_factory=dict)
    invalid: int = 0
    degraded_deadline: int = 0
    #: Length of this slice of the window, in seconds.
    seconds: float = 0.0
    latencies_ms: list = field(default_factory=list)
    hit_ms: list = field(default_factory=list)
    miss_ms: list = field(default_factory=list)
    overhead_ms: list = field(default_factory=list)
    #: ``request number -> answer dict`` for the replay equality gate.
    answers: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.attempted - self.answered

    def record(self, number, strategy, status, data, elapsed_ms, k, n):
        self.attempted += 1
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status != 200:
            return
        answer = json.loads(data)
        if not valid_answer(answer, k, n, strategy):
            self.invalid += 1
            return
        self.answered += 1
        self.latencies_ms.append(elapsed_ms)
        if answer.get("degraded") and answer.get("reason") == "deadline":
            self.degraded_deadline += 1
        if answer.get("cache_hit"):
            self.hit_ms.append(elapsed_ms)
        else:
            self.miss_ms.append(elapsed_ms)
            self.overhead_ms.append(elapsed_ms - float(answer["timing_ms"]))
        if number is not None:
            self.answers[number] = answer

    @classmethod
    def merged(cls, parts) -> "Tally":
        """One tally holding every slice's counts and samples."""
        total = cls()
        for part in parts:
            total.attempted += part.attempted
            total.answered += part.answered
            total.transport_errors += part.transport_errors
            total.invalid += part.invalid
            total.degraded_deadline += part.degraded_deadline
            total.seconds += part.seconds
            for status, count in part.statuses.items():
                total.statuses[status] = total.statuses.get(status, 0) + count
            for name in ("latencies_ms", "hit_ms", "miss_ms", "overhead_ms"):
                getattr(total, name).extend(getattr(part, name))
            total.answers.update(part.answers)
        return total


def summarize(slices) -> dict:
    """Counts, and qps/p50/p99 over the whole window: every answered
    request of every slice (one tally each).  A 3-second slice of the
    cold workload holds about 600 answers, too few for a 99th
    percentile of its own."""
    total = Tally.merged(slices)
    lat = total.latencies_ms
    answered = total.answered

    def quantile(values, q):
        return percentile(values, q) if values else None

    return {
        "attempted": total.attempted,
        "answered": answered,
        "failed": total.failed,
        "transport_errors": total.transport_errors,
        "invalid_answers": total.invalid,
        "statuses": {str(k): v for k, v in sorted(total.statuses.items())},
        "qps": answered / total.seconds if total.seconds > 0 else 0.0,
        "p50_ms": quantile(lat, 50),
        "p99_ms": quantile(lat, 99),
        "latency_samples": len(lat),
        "slice_qps": [s.answered / s.seconds for s in slices],
        "failed_frac": total.failed / total.attempted
        if total.attempted
        else 0.0,
        "degraded_frac": total.degraded_deadline / answered
        if answered
        else 0.0,
        "hit_p50_ms": quantile(total.hit_ms, 50),
        "hit_samples": len(total.hit_ms),
        "miss_p50_ms": quantile(total.miss_ms, 50),
        "miss_samples": len(total.miss_ms),
        "overhead_p50_ms": median(total.overhead_ms)
        if total.overhead_ms
        else None,
    }


async def closed_loop(port, next_query, stop_at, tally, k, num_nodes):
    """One connection sending ``/query`` back to back until ``stop_at``.

    ``next_query()`` returns ``(number, gamma, strategy)``; the gamma is
    sent as drawn and the answer checked against ``strategy``.
    """
    conn = Connection(port)
    try:
        while time.perf_counter() < stop_at:
            number, gamma, strategy = next_query()
            payload = {
                "gamma": [float(v) for v in gamma],
                "k": k,
                "strategy": strategy,
            }
            started = time.perf_counter()
            try:
                status, data = await conn.request("POST", "/query", payload)
            except TRANSPORT_ERRORS:
                tally.attempted += 1
                tally.transport_errors += 1
                continue
            elapsed_ms = (time.perf_counter() - started) * 1e3
            tally.record(number, strategy, status, data, elapsed_ms, k, num_nodes)
    finally:
        await conn.close()


@dataclass
class WriteLog:
    """The scheduled writer's per-batch outcomes."""

    attempted: int = 0
    acknowledged: int = 0
    in_order: bool = True
    latencies_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    reports: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.acknowledged

    @classmethod
    def merged(cls, logs) -> "WriteLog":
        """One log holding every part's counts and samples."""
        total = cls()
        for log in logs:
            total.attempted += log.attempted
            total.acknowledged += log.acknowledged
            total.in_order = total.in_order and log.in_order
            total.latencies_ms.extend(log.latencies_ms)
            total.late_ms.extend(log.late_ms)
            total.reports.extend(log.reports)
        return total

    def summary(self) -> dict:
        lat = self.latencies_ms
        return {
            "attempted": self.attempted,
            "acknowledged": self.acknowledged,
            "in_order": self.in_order,
            "write_p50_ms": percentile(lat, 50) if lat else None,
            "write_p90_ms": percentile(lat, 90) if lat else None,
            "write_samples": len(lat),
            "generator_late_p50_ms": percentile(self.late_ms, 50)
            if self.late_ms
            else None,
            "generator_late_max_ms": max(self.late_ms) if self.late_ms else None,
        }


async def scheduled_writer(port, batch, due, log):
    """Send ``batch`` to ``/deltas`` at ``due``; latency runs from the
    due time to the acknowledgement, and how late the send left is
    recorded beside it.  ``log`` numbers one server's batches, which
    must be acknowledged in order."""
    conn = Connection(port)
    try:
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        log.late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
        log.attempted += 1
        try:
            status, data = await conn.request("POST", "/deltas", batch.to_dict())
        except TRANSPORT_ERRORS:
            log.in_order = False
            return
        acked = time.perf_counter()
        if status != 200:
            log.in_order = False
            return
        report = json.loads(data)["report"]
        if report.get("batch_id") != log.acknowledged:
            log.in_order = False
        log.acknowledged += 1
        log.latencies_ms.append((acked - due) * 1e3)
        log.reports.append(report)
    finally:
        await conn.close()
