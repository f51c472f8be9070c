"""Micro-batching of concurrent queries into ``query_batch`` calls.

Each admitted request becomes a :class:`BatchItem` on a bounded queue.
When the first item arrives at an idle batcher a batching *window*
opens — at most ``max_batch_size`` items or ``max_wait_s`` seconds,
whichever closes first — and the window's items go to an executor
thread that runs :meth:`~repro.core.index.InflexIndex.query_batch` off
the event loop.  The next window opens only once that batch finished,
so everything queued while the executor was busy leaves together even
with no window at all.

The default window is 0: a lone request dispatches on the next loop
turn, and a burst still coalesces behind a busy executor.  A positive
window only pays off when grouping amortizes compute, and
``query_batch`` costs about as much per query as a lone ``query``
(``batch_ms_per_query`` ≈ ``query_ms`` in the repo benchmark), so below
``max_batch_size`` concurrent clients a window never fills and every
dispatch would wait it out with the CPU idle.

Items in one window may carry different ``(k, strategy)`` pairs;
``query_batch`` takes one of each, so a window is partitioned into
per-``(k, strategy)`` groups, dispatched one after another.  Deadline
policy (applied by the ``run`` callable): a group shares the
*tightest* remaining member deadline, so one slow query can degrade
rather than hold co-batched requests past their budgets.

The hand-off costs the event loop two callbacks per group: the
executor thread posts the group's outcome back with one
``call_soon_threadsafe``, and that callback settles every waiter's
future and dispatches what comes next — no collector task, and no
``concurrent.futures.Future`` wrapped into an asyncio one.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs import context as _ctx
from repro.obs import instruments as _obs


class QueueFullError(RuntimeError):
    """The micro-batch queue is at capacity (admission should shed
    before this is ever raised)."""


@dataclass
class BatchItem:
    """One enqueued query awaiting batch dispatch.

    ``ctx`` carries the submitting request's
    :class:`~repro.obs.context.RequestContext` across the queue: the
    dispatch binds the *first* item's context (the batch leader), so
    executor-side spans stitch into the leader's trace while co-batched
    requests reference the shared ``batch_id`` (stamped at dispatch)
    from their flight records.  ``key`` is the result-cache key the
    submitter already computed, so the executor stores the answer
    under it without canonicalizing ``gamma`` a second time.
    """

    gamma: object
    k: int
    strategy: str
    deadline: object
    future: asyncio.Future = field(repr=False)
    enqueued_at: float = 0.0
    ctx: object = None
    batch_id: int | None = None
    key: bytes | None = None

    @property
    def group_key(self) -> tuple[int, str]:
        """Items sharing this key can ride the same ``query_batch``."""
        return (self.k, self.strategy)


@dataclass
class BatcherStats:
    """Dispatch statistics of one :class:`MicroBatcher` (JSON-friendly)."""

    batches_total: int = 0
    items_total: int = 0
    max_batch_size: int = 0

    def to_dict(self) -> dict:
        """The statistics as a plain dict."""
        return {
            "batches_total": self.batches_total,
            "items_total": self.items_total,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": (
                self.items_total / self.batches_total
                if self.batches_total
                else 0.0
            ),
        }


class MicroBatcher:
    """Bounded-queue micro-batcher feeding an executor thread.

    Parameters
    ----------
    run:
        Blocking callable ``run(items: list[BatchItem]) -> list`` run
        on the executor thread per dispatched group, under the batch
        leader's request context; its results are delivered to the
        items' futures in order, and an exception it raises to all of
        them.  All items of one call share a ``group_key``.
    max_batch_size / max_wait_s:
        The batching window (see module docstring).
    max_queue_depth:
        Hard bound on queued items; :meth:`submit` raises
        :class:`QueueFullError` beyond it.

    Every method runs on the event loop thread; only ``run`` runs on
    the executor.
    """

    def __init__(
        self,
        run,
        *,
        max_batch_size: int = 32,
        max_wait_s: float = 0.0,
        max_queue_depth: int = 512,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self._run = run
        self._max_batch_size = int(max_batch_size)
        self._max_wait_s = float(max_wait_s)
        self._max_queue_depth = int(max_queue_depth)
        self._pending: deque[BatchItem] = deque()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor = None
        #: The window's groups still to dispatch, while a batch is out.
        self._groups: deque[list[BatchItem]] | None = None
        self._waited = 0.0
        self._timer: asyncio.TimerHandle | None = None
        self._flush_soon = False
        self._stopping = False
        self._idle: asyncio.Future | None = None
        self.stats = BatcherStats()

    @property
    def depth(self) -> int:
        """Items currently waiting in the queue."""
        return len(self._pending)

    def start(self, executor) -> None:
        """Dispatch on the running loop to ``executor`` (a
        :class:`concurrent.futures.Executor`; one worker thread keeps
        batches in submit order with the executor's other work)."""
        self._loop = asyncio.get_running_loop()
        self._executor = executor
        self._stopping = False
        if self._pending:
            self._arm()

    def submit(self, item: BatchItem) -> None:
        """Enqueue one item (non-blocking; its future gets the answer)."""
        if self._stopping:
            raise QueueFullError("batcher is draining")
        if len(self._pending) >= self._max_queue_depth:
            raise QueueFullError(
                f"micro-batch queue is full ({self._max_queue_depth})"
            )
        item.enqueued_at = time.monotonic()
        self._pending.append(item)
        if self._loop is not None:
            self._arm()

    async def drain(self) -> None:
        """Dispatch every queued item, wait for the batch in flight,
        then stop.

        Every item submitted before the call is guaranteed a result
        (or an exception) on its future; later submits are refused.
        """
        self._stopping = True
        if self._loop is not None and self._pending:
            self._arm()  # no window while draining
        while self._loop is not None and (
            self._groups is not None or self._pending
        ):
            self._idle = self._loop.create_future()
            await self._idle
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    # Windows (event loop)
    # ------------------------------------------------------------------
    def _arm(self) -> None:
        """Make sure the queued items leave once the window closes."""
        if self._groups is not None or self._flush_soon:
            return
        if (
            self._max_wait_s <= 0
            or self._stopping
            or len(self._pending) >= self._max_batch_size
        ):
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            # Next loop turn: what is submitted in this one joins.
            self._flush_soon = True
            self._loop.call_soon(self._flush)
        elif self._timer is None:
            self._timer = self._loop.call_later(self._max_wait_s, self._flush)

    def _flush(self) -> None:
        """Close the window: dispatch its groups, one after another."""
        self._flush_soon = False
        self._timer = None
        if self._groups is not None or not self._pending:
            return
        batch = [
            self._pending.popleft()
            for _ in range(min(self._max_batch_size, len(self._pending)))
        ]
        self._waited = time.monotonic() - batch[0].enqueued_at
        # Partition by (k, strategy): query_batch takes one of each.
        groups: dict[tuple, list[BatchItem]] = {}
        for item in batch:
            groups.setdefault(item.group_key, []).append(item)
        self._groups = deque(groups.values())
        self._dispatch_next()

    def _dispatch_next(self) -> None:
        """Hand the next group to the executor, or end the batch."""
        if not self._groups:
            self._groups = None
            if self._pending:
                self._arm()
            elif self._idle is not None and not self._idle.done():
                self._idle.set_result(None)
            return
        group = self._groups.popleft()
        self.stats.batches_total += 1
        self.stats.items_total += len(group)
        self.stats.max_batch_size = max(
            self.stats.max_batch_size, len(group)
        )
        batch_id = self.stats.batches_total
        for item in group:
            item.batch_id = batch_id
        leader_ctx = group[0].ctx
        span = _obs.serving_batch_open(len(group), leader_ctx)
        # Executor-side spans open under the batch span, in the
        # leader's trace.
        context = None if leader_ctx is None else leader_ctx.child_of(span)
        loop = self._loop
        run = self._run

        def work() -> None:  # on the executor thread
            with _ctx.bind(context):
                try:
                    outcome = run(group)
                except Exception as exc:
                    outcome = exc
            loop.call_soon_threadsafe(self._finish, group, span, outcome)

        try:
            self._executor.submit(work)
        except RuntimeError as exc:  # the executor was shut down
            self._finish(group, span, exc)

    def _finish(self, group: list[BatchItem], span, outcome) -> None:
        """Settle one group's futures (event loop), then go on."""
        _obs.serving_batch_close(span, len(group), self._waited)
        if not isinstance(outcome, BaseException) and len(outcome) != len(
            group
        ):
            outcome = RuntimeError(
                f"batch executor returned {len(outcome)} results "
                f"for {len(group)} items"
            )
        if isinstance(outcome, BaseException):
            for item in group:
                if not item.future.done():
                    item.future.set_exception(outcome)
                    # Futures abandoned by cancelled waiters would warn
                    # "exception never retrieved" at GC; touching it
                    # here keeps shutdown logs clean.
                    item.future.exception()
        else:
            for item, result in zip(group, outcome):
                if not item.future.done():
                    item.future.set_result(result)
        self._dispatch_next()
