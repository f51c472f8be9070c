"""Micro-batching of concurrent queries into ``query_batch`` calls.

Each admitted request becomes a :class:`BatchItem` on a bounded asyncio
queue.  A single collector task opens a batching *window* when the
first item arrives — at most ``max_batch_size`` items or
``max_wait_s`` seconds, whichever closes first — then hands the batch
to an executor callable that runs
:meth:`~repro.core.index.InflexIndex.query_batch` off the event loop.
The collector only pulls the next batch once the previous dispatch
finished, so everything queued while the executor was busy leaves
together even with no window at all.

The default window is 0: a lone request dispatches at once, and a
burst still coalesces behind a busy executor.  A positive window only
pays off when grouping amortizes compute, and ``query_batch`` costs
about as much per query as a lone ``query`` (``batch_ms_per_query`` ≈
``query_ms`` in the repo benchmark), so below ``max_batch_size``
concurrent clients a window never fills and every dispatch would wait
it out with the CPU idle.

Items in one window may carry different ``(k, strategy)`` pairs;
``query_batch`` takes one of each, so the collector partitions the
window into per-``(k, strategy)`` groups and dispatches each group as
its own call.  Deadline policy: a group shares the *tightest* remaining
member deadline, so one slow query can degrade (PR 3's machinery)
rather than hold co-batched requests past their budgets.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.obs import context as _ctx
from repro.obs import instruments as _obs
from repro.resilience.deadline import Deadline


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
    deadline: Deadline | None
    future: asyncio.Future = field(repr=False)
    enqueued_at: float = 0.0
    ctx: object = None
    batch_id: int | None = None
    key: tuple | None = None

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
    """Bounded-queue micro-batcher feeding an executor callable.

    Parameters
    ----------
    execute:
        Async callable ``execute(items: list[BatchItem]) -> list`` run
        per dispatched group; its results are delivered to the items'
        futures in order.  All items of one call share a ``group_key``.
    max_batch_size / max_wait_s:
        The batching window (see module docstring).
    max_queue_depth:
        Hard bound on queued items; :meth:`submit` raises
        :class:`QueueFullError` beyond it.
    """

    def __init__(
        self,
        execute,
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
        self._execute = execute
        self._max_batch_size = int(max_batch_size)
        self._max_wait_s = float(max_wait_s)
        self._queue: asyncio.Queue[BatchItem] = asyncio.Queue(
            maxsize=max_queue_depth
        )
        self._task: asyncio.Task | None = None
        self._stopping = False
        self.stats = BatcherStats()

    @property
    def depth(self) -> int:
        """Items currently waiting in the queue."""
        return self._queue.qsize()

    def start(self) -> None:
        """Start the collector task on the running loop."""
        if self._task is None:
            self._stopping = False
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serving-batcher"
            )

    def submit(self, item: BatchItem) -> None:
        """Enqueue one item (non-blocking; its future gets the answer)."""
        if self._stopping:
            raise QueueFullError("batcher is draining")
        item.enqueued_at = time.monotonic()
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull as exc:
            raise QueueFullError(
                f"micro-batch queue is full ({self._queue.maxsize})"
            ) from exc

    async def drain(self) -> None:
        """Flush queued items, dispatch them, then stop the collector.

        Every item submitted before the call is guaranteed a result
        (or an exception) on its future; later submits are refused.
        """
        self._stopping = True
        await self._queue.join()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _collect_window(self) -> list[BatchItem]:
        """Block for the first item, then fill the window."""
        first = await self._queue.get()
        batch = [first]
        window_closes = time.monotonic() + self._max_wait_s
        while len(batch) < self._max_batch_size:
            remaining = window_closes - time.monotonic()
            if remaining <= 0:
                # Window elapsed: take whatever is already queued (free
                # coalescing), but wait no further.
                try:
                    batch.append(self._queue.get_nowait())
                    continue
                except asyncio.QueueEmpty:
                    break
            try:
                batch.append(
                    await asyncio.wait_for(self._queue.get(), remaining)
                )
            except asyncio.TimeoutError:
                break
        return batch

    async def _run(self) -> None:
        while True:
            batch = await self._collect_window()
            waited = time.monotonic() - batch[0].enqueued_at
            # Partition by (k, strategy): query_batch takes one of each.
            groups: dict[tuple, list[BatchItem]] = {}
            for item in batch:
                groups.setdefault(item.group_key, []).append(item)
            for group in groups.values():
                await self._dispatch(group, waited)
            for _ in batch:
                self._queue.task_done()

    async def _dispatch(self, group: list[BatchItem], waited: float) -> None:
        self.stats.batches_total += 1
        self.stats.items_total += len(group)
        self.stats.max_batch_size = max(
            self.stats.max_batch_size, len(group)
        )
        batch_id = self.stats.batches_total
        for item in group:
            item.batch_id = batch_id
        leader_ctx = group[0].ctx
        try:
            with _ctx.bind(leader_ctx):
                with _obs.serving_batch_span(len(group), waited) as span:
                    with _ctx.bind_child_of(span):
                        results = await self._execute(group)
            if len(results) != len(group):
                raise RuntimeError(
                    f"batch executor returned {len(results)} results "
                    f"for {len(group)} items"
                )
        except asyncio.CancelledError:
            for item in group:
                if not item.future.done():
                    item.future.cancel()
            raise
        except Exception as exc:
            for item in group:
                if not item.future.done():
                    item.future.set_exception(exc)
                    # Futures abandoned by cancelled waiters would warn
                    # "exception never retrieved" at GC; touching it
                    # here keeps shutdown logs clean.
                    item.future.exception()
        else:
            for item, result in zip(group, results):
                if not item.future.done():
                    item.future.set_result(result)
