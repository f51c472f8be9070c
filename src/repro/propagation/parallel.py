"""One process-pool fan-out for stream-keyed chunks of work.

Two kinds of offline work go to the process-wide worker pool: chunks of
Monte-Carlo cascades (:class:`ParallelMonteCarloSpread`, the CELF++
referee's oracle) and blocks of reverse-reachable sets
(:class:`repro.im.imm.RRSampler`, IMM seed lists and sketch banks).
Both are written as a list of :class:`Chunk` tasks for a module-level
kernel over arrays published once, and both go through the one
:meth:`PooledArrays.fan_out`, which owns everything between "chunk
tasks" and "their results, in order":

**Inline at one worker.**  ``workers=1`` calls the kernel in the
parent on the owner's own arrays: no pool, no shared memory.

**One graph serialization per owner.**  The arrays are published once
through ``multiprocessing.shared_memory`` (workers attach by name and
cache the attachment), falling back to plain pickling when shared
memory is unavailable.  Tasks then carry a few names plus the chunk's
own arguments.

**Determinism.**  Every kernel derives its random streams from its
chunk's arguments only — ``(call, sim)`` spawn keys for cascades,
``(request, block)`` spawn keys for RR sets — never from worker
identity or scheduling.  Results are therefore **bit-identical** for
any worker count, chunk layout and recovery path.

**Crash recovery.**  Because a chunk can be re-executed anywhere with
the same bytes, a broken pool (a dead worker) is discarded and rebuilt
and only the unfinished chunks are re-dispatched, with
:class:`~repro.resilience.RetryPolicy` backoff; after the retry budget
is spent the remaining chunks run inline in the parent (or
:class:`~repro.errors.PoolBrokenError` is raised when that fallback is
disabled).  Every recovery event lands on the ``repro_resilience_*``
metrics, and worker-side chunk spans are adopted into the dispatching
request's trace.  See ``docs/RESILIENCE.md``.

The worker pool itself is process-wide, keyed by worker count, created
lazily on first use and torn down atexit (or explicitly via
:func:`shutdown_pools`).  Owners are context managers; closing one
unlinks its shared-memory segments.  See ``docs/PARALLELISM.md`` for the
lifetime rules and for how this pool composes with the index-point pool
of :mod:`repro.core.offline`.
"""

from __future__ import annotations

import atexit
import itertools
import logging
import os
import time
import weakref
import zlib
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import PoolBrokenError
from repro.graph.topic_graph import TopicGraph
from repro.obs import instruments as _obs
from repro.obs._state import STATE
from repro.obs.context import current_context
from repro.obs.logs import get_logger
from repro.obs.tracing import get_tracer, span_payload
from repro.propagation.cascade import simulate_cascade
from repro.propagation.spread import SpreadEstimate
from repro.resilience.faults import (
    FaultPlan,
    InjectedFaultError,
    get_fault_plan,
)
from repro.resilience.retry import RetryPolicy
from repro.rng import as_seed_sequence
from repro.workers import (
    default_retry_attempts,
    default_sim_workers,
    resolve_workers,
)


# ----------------------------------------------------------------------
# Shared-memory graph payloads
# ----------------------------------------------------------------------

#: Parent-side counter making payload tokens unique within a process.
_TOKEN_COUNTER = itertools.count()

#: Tokens of payloads whose shared-memory segments are still linked.
#: Tests assert this drains to empty — a leaked segment is a bug.
_LIVE_PAYLOADS: dict[str, "_GraphPayload"] = {}

#: Worker-side cache of attached payloads, capped so a long-lived pool
#: serving many estimators does not accumulate attachments forever.
_WORKER_CACHE: OrderedDict = OrderedDict()
_WORKER_CACHE_MAX = 8


class _GraphPayload:
    """One publisher's arrays, published for worker processes.

    ``spec`` is what travels in every task: for shared memory it is
    ``("shm", token, [(name, dtype, shape), ...])`` — a few strings —
    and for the pickle fallback it is the arrays themselves.

    Although named for its original client (the CSR graph arrays of the
    simulation pool), the payload is array-agnostic; the serving fleet
    publishes whole indexes through the same mechanism (see
    :func:`publish_arrays` / :mod:`repro.serving.shared_index`), so
    segment lifecycle, leak tracking, and the worker-side attachment
    cache stay in one place.
    """

    def __init__(
        self, arrays: tuple[np.ndarray, ...], *, prefix: str = "repro-sim"
    ) -> None:
        self.token = f"{prefix}-{os.getpid()}-{next(_TOKEN_COUNTER)}"
        self._segments = []
        try:
            from multiprocessing import shared_memory

            entries = []
            for array in arrays:
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=segment.buf
                )
                view[...] = array
                entries.append(
                    (segment.name, array.dtype.str, array.shape)
                )
                self._segments.append(segment)
            self.spec = ("shm", self.token, entries)
        except (ImportError, OSError):
            # No usable shared memory (exotic platform or a full/absent
            # /dev/shm): ship the arrays by pickle.  Workers still cache
            # them by token, so the cost is once per task, not per chunk
            # retry.
            self._close_segments(unlink=True)
            self._segments = []
            self.spec = ("pickle", self.token, tuple(arrays))
        _LIVE_PAYLOADS[self.token] = self

    def _close_segments(self, *, unlink: bool) -> None:
        for segment in self._segments:
            try:
                segment.close()
                if unlink:
                    segment.unlink()
            except OSError:  # pragma: no cover - teardown best effort
                pass

    def release(self) -> None:
        """Unlink the shared segments and drop leak-tracking state."""
        self._close_segments(unlink=True)
        self._segments = []
        _LIVE_PAYLOADS.pop(self.token, None)


def active_payload_count() -> int:
    """Number of graph payloads whose segments are still linked.

    Exposed for the leak assertions of the differential test suite; a
    healthy process returns to 0 once every estimator is closed.
    """
    return len(_LIVE_PAYLOADS)


def publish_arrays(arrays, *, prefix: str = "repro-shared") -> _GraphPayload:
    """Publish ``arrays`` for other processes via shared memory.

    The general-purpose entry point to the payload machinery
    (:class:`PooledArrays` constructs :class:`_GraphPayload` directly):
    the returned payload's ``spec`` is a small picklable tuple that any
    process on the machine can resolve with :func:`attach_arrays`,
    attaching the segments zero-copy.  Falls back to pickling the
    arrays into the spec when shared memory is unavailable.  The
    caller owns the payload and must :meth:`~_GraphPayload.release`
    it (segments outlive every attaching process until then — which is
    exactly what lets a respawned fleet worker re-attach without any
    disk reload).
    """
    materialized = tuple(
        np.ascontiguousarray(np.asarray(array)) for array in arrays
    )
    return _GraphPayload(materialized, prefix=prefix)


def attach_arrays(spec) -> tuple[np.ndarray, ...]:
    """Resolve a payload ``spec`` into arrays (zero-copy when shared).

    Safe to call from any process; attachments are cached per payload
    token (see ``_WORKER_CACHE``), so repeated resolution of the same
    spec — every task of a pool worker, every request of a fleet
    worker — costs one dict lookup.
    """
    return _payload_arrays(spec)


def _payload_arrays(spec) -> tuple[np.ndarray, ...]:
    """Resolve a payload spec into arrays, caching attachments.

    Runs in worker processes and in fleet workers.  Shared-memory
    attachments are kept referenced by the cache entry so the mapping
    outlives the call.
    """
    kind, token, detail = spec
    cached = _WORKER_CACHE.get(token)
    if cached is not None:
        _WORKER_CACHE.move_to_end(token)
        return cached[0]
    if kind == "shm":
        from multiprocessing import shared_memory

        arrays = []
        segments = []
        for name, dtype, shape in detail:
            segment = shared_memory.SharedMemory(name=name)
            segments.append(segment)
            arrays.append(
                np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
            )
        entry = (tuple(arrays), tuple(segments))
    else:
        entry = (tuple(detail), ())
    _WORKER_CACHE[token] = entry
    while len(_WORKER_CACHE) > _WORKER_CACHE_MAX:
        _, (_, old_segments) = _WORKER_CACHE.popitem(last=False)
        for segment in old_segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
    return entry[0]


# ----------------------------------------------------------------------
# The process-wide worker pools
# ----------------------------------------------------------------------

_EXECUTORS: dict[int, ProcessPoolExecutor] = {}
_ATEXIT_REGISTERED = False


def _get_executor(workers: int) -> ProcessPoolExecutor:
    """The lazily-created process pool for ``workers`` processes.

    Pools are keyed by worker count and reused for the life of the
    process (every estimator with the same width shares one), so pool
    startup is paid once, not per estimate.
    """
    global _ATEXIT_REGISTERED
    executor = _EXECUTORS.get(workers)
    if executor is None:
        with _obs.sim_pool_span("start", workers):
            executor = ProcessPoolExecutor(max_workers=workers)
        _EXECUTORS[workers] = executor
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_pools)
            _ATEXIT_REGISTERED = True
    return executor


def _discard_executor(workers: int) -> None:
    """Drop the pool for ``workers`` without waiting (broken-pool path).

    The executor is removed from the registry first so a concurrent
    :func:`_get_executor` builds a fresh one; shutdown of the broken
    pool is best-effort — its workers may already be dead.
    """
    executor = _EXECUTORS.pop(workers, None)
    if executor is None:
        return
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - teardown best effort
        pass


def shutdown_pools() -> None:
    """Tear down every simulation pool and unlink leftover payloads.

    Registered atexit; safe to call explicitly (tests do) — the next
    estimate simply recreates its pool.  Payload release runs even when
    a pool's shutdown fails (e.g. its workers crashed mid-call), so a
    dead worker can never leak ``/dev/shm`` segments past teardown.
    """
    try:
        for workers, executor in list(_EXECUTORS.items()):
            try:
                with _obs.sim_pool_span("shutdown", workers):
                    executor.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - teardown best effort
                pass
            _EXECUTORS.pop(workers, None)
    finally:
        for payload in list(_LIVE_PAYLOADS.values()):
            payload.release()


def pool_widths() -> tuple[int, ...]:
    """Worker counts of the currently live pools (for tests/debugging)."""
    return tuple(sorted(_EXECUTORS))


# ----------------------------------------------------------------------
# The fan-out
# ----------------------------------------------------------------------


class Chunk(NamedTuple):
    """One task of a fan-out: a kernel's arguments plus where it sits.

    ``call`` and ``index`` are the chunk's coordinates at the ``chunk``
    fault site and on its span; ``stream`` (see :func:`stream_id`)
    names the random stream the chunk draws, so the fault site's rate
    decisions differ between chunks whose ``call`` and ``index``
    repeat.  ``args`` follow the arrays in the kernel call.  A kernel's
    result must depend on ``args`` alone — never on the process running
    it — for recovery to be bit-identical.
    """

    call: int
    index: int
    args: tuple
    stream: int


def stream_id(*identity) -> int:
    """A 32-bit CRC of a chunk's random-stream identity.

    ``identity`` is what seeds the chunk's stream: seed entropy, spawn
    key and the chunk's place in the stream.  The result is the
    chunk's :attr:`Chunk.stream`.
    """
    return zlib.crc32(repr(identity).encode())


def _run_chunk(task):
    """Worker entry point: apply the fault directive, run one chunk.

    ``task`` is ``(spec, kernel, chunk, fault, trace_id, name)``.
    ``fault`` is the directive the parent attached when the active
    :class:`FaultPlan` fired for this chunk's coordinates:
    ``("crash", _)`` kills the worker outright (exercising pool-rebuild
    recovery), ``("error", _)`` raises a retryable exception, and
    ``("sleep", seconds)`` stalls before computing.  The fault-free
    path pays one ``is None`` check.

    When ``trace_id`` is set (a request context was bound with
    observability on) the chunk is timed on the wall clock and a
    ``<name>.chunk`` :func:`~repro.obs.tracing.span_payload` rides home
    with the result for the parent tracer to adopt.
    """
    spec, kernel, chunk, fault, trace_id, name = task
    if fault is not None:
        mode, arg = fault
        if mode == "crash":
            os._exit(17)
        if mode == "error":
            raise InjectedFaultError(
                f"injected worker fault for chunk {chunk.index} of "
                f"call {chunk.call}"
            )
        if mode == "sleep":
            time.sleep(arg if arg is not None else 0.5)
    if trace_id is None:
        return kernel(_payload_arrays(spec), *chunk.args), None
    wall_start = time.time()
    tick = time.perf_counter()
    result = kernel(_payload_arrays(spec), *chunk.args)
    span = span_payload(
        f"{name}.chunk",
        wall_start,
        time.perf_counter() - tick,
        category="simpool",
        trace_id=trace_id,
        call=chunk.call,
        chunk=chunk.index,
    )
    return result, span


class PooledArrays:
    """Arrays published for the process pool, and the fan-out over them.

    Subclasses hand their kernels' arrays to ``__init__`` and describe
    each batch of work as :class:`Chunk` tasks for :meth:`fan_out`.
    The arrays reach shared memory lazily, on the first pooled
    dispatch; use the owner as a context manager (or call
    :meth:`close`) to unlink them.  The pool itself is process-wide
    and survives for the next owner.

    Parameters
    ----------
    arrays:
        The arrays every kernel call receives first (as a tuple).
    workers:
        Pool width: a positive int, ``"auto"`` (CPU count), or ``None``
        to follow the ``REPRO_SIM_WORKERS`` environment default.
    retry_policy:
        Recovery budget for broken pools and failed chunks; ``None``
        uses a short-backoff default whose attempt count follows the
        ``REPRO_SIM_RETRIES`` environment knob.
    allow_sequential_fallback:
        When the retry budget is exhausted, run the unfinished chunks
        inline in the parent (the default) instead of raising
        :class:`~repro.errors.PoolBrokenError`.
    fault_plan:
        Explicit :class:`~repro.resilience.FaultPlan` for chaos tests;
        ``None`` follows the process-wide plan (``REPRO_FAULTS``).
    """

    def __init__(
        self,
        arrays: tuple[np.ndarray, ...],
        workers=None,
        *,
        retry_policy: RetryPolicy | None = None,
        allow_sequential_fallback: bool = True,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if workers is None:
            self._workers = default_sim_workers()
        else:
            self._workers = resolve_workers(workers, name="workers")
        self._arrays = tuple(arrays)
        self._retry_policy = retry_policy
        self._allow_sequential_fallback = bool(allow_sequential_fallback)
        self._fault_plan = fault_plan
        self._payload: _GraphPayload | None = None
        self._finalizer = None
        self._closed = False

    @property
    def workers(self) -> int:
        """Resolved pool width (1 means fully inline)."""
        return self._workers

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink the shared-memory segments (idempotent)."""
        self._closed = True
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._payload = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_payload(self) -> _GraphPayload:
        if self._payload is None:
            payload = _GraphPayload(self._arrays)
            # The finalizer guards against owners dropped without
            # close(): the segments are unlinked when the object dies,
            # not when the interpreter exits.
            self._finalizer = weakref.finalize(
                self, _GraphPayload.release, payload
            )
            self._payload = payload
        return self._payload

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def fan_out(
        self, kernel: Callable, chunks: list[Chunk], *, name: str
    ) -> list:
        """``kernel(arrays, *chunk.args)`` for every chunk, in order.

        ``kernel`` must be a module-level function (workers unpickle it
        by reference).  At one worker the chunks run inline on the
        owner's arrays.  Otherwise they go to the shared pool in waves:
        a wave that breaks the pool discards it (the next wave starts a
        fresh one), failed chunks are re-dispatched after the retry
        policy's backoff, and once the budget is spent the rest run
        inline in the parent.  The pooled path is wrapped in a
        ``<name>.dispatch`` span that adopts the workers'
        ``<name>.chunk`` spans.
        """
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} is closed; create a new one"
            )
        if self._workers == 1:
            return [kernel(self._arrays, *chunk.args) for chunk in chunks]
        spec = self._ensure_payload().spec
        policy = self._retry_policy
        if policy is None:
            policy = RetryPolicy(
                max_attempts=default_retry_attempts(),
                base_delay=0.05,
                max_delay=1.0,
            )
        plan = (
            self._fault_plan
            if self._fault_plan is not None
            else get_fault_plan()
        )
        # Cross-process tracing: when a request context is bound (and
        # recording is on) the trace id travels inside every task, and
        # workers send span payloads back with their results.
        tracer = get_tracer()
        context = current_context() if STATE.enabled else None
        trace_id = context.trace_id if context is not None else None
        results: list = [None] * len(chunks)
        remote_spans: list[dict] = []

        def wave(pending: list[int], attempt: int) -> list[int]:
            """Submit ``pending`` once; returns the chunks that failed."""
            executor = _get_executor(self._workers)
            futures: dict = {}
            failed: list[int] = []
            broken = False
            try:
                for i in pending:
                    fault = None
                    if plan is not None:
                        fired = plan.fire(
                            "chunk",
                            call=chunks[i].call,
                            chunk=chunks[i].index,
                            attempt=attempt,
                            stream=chunks[i].stream,
                        )
                        if fired is not None:
                            fault = (fired.mode, fired.keep)
                    task = (spec, kernel, chunks[i], fault, trace_id, name)
                    futures[executor.submit(_run_chunk, task)] = i
            except (BrokenProcessPool, RuntimeError):
                # The pool died before accepting the whole wave; what
                # was not submitted fails over with the broken futures.
                broken = True
                failed.extend(pending[len(futures) :])
            for future, i in futures.items():
                try:
                    results[i], span = future.result()
                except BrokenProcessPool:
                    broken = True
                    failed.append(i)
                    continue
                except (OSError, InjectedFaultError):
                    # The worker survived: retry on the same pool.
                    failed.append(i)
                    continue
                if span is not None:
                    remote_spans.append(span)
            if broken:
                with _obs.pool_rebuild_span(self._workers):
                    _discard_executor(self._workers)
                get_logger("resilience").event(
                    "simpool.rebuild",
                    level=logging.WARNING,
                    workers=self._workers,
                    failed_chunks=len(failed),
                    attempt=attempt,
                )
            return failed

        with tracer.span(
            f"{name}.dispatch", category="simpool", chunks=len(chunks)
        ) as dispatch_span:
            pending = wave(list(range(len(chunks))), 0)
            attempt = 0
            while pending and attempt < policy.max_attempts:
                attempt += 1
                _obs.record_chunk_retries(len(pending))
                policy.sleep_before(attempt - 1)
                pending = wave(pending, attempt)
            if pending and not self._allow_sequential_fallback:
                raise PoolBrokenError(
                    f"process pool failed {attempt + 1} consecutive times "
                    f"with {len(pending)} chunks unrecovered; raise the "
                    "retry budget or enable sequential fallback"
                )
            if pending:
                # The degraded path of last resort: the same kernels on
                # the same arguments, in the parent, without faults.
                _obs.record_sequential_fallback()
            for i in pending:
                with tracer.span(
                    f"{name}.chunk",
                    category="simpool",
                    call=chunks[i].call,
                    chunk=chunks[i].index,
                    inline=True,
                ):
                    results[i] = kernel(self._arrays, *chunks[i].args)
        if remote_spans:
            tracer.adopt(
                remote_spans,
                trace_id=trace_id,
                parent_id=dispatch_span.span_id,
            )
        _obs.record_sim_chunks(len(chunks))
        return results


# ----------------------------------------------------------------------
# The Monte-Carlo estimator
# ----------------------------------------------------------------------


def _simulate_chunk(
    arrays, seeds, entropy, call_key: tuple[int, ...], lo: int, hi: int
) -> tuple[int, np.ndarray]:
    """Cascade sizes of simulations ``lo..hi-1`` of one estimate call,
    with the pid of the process that ran them.

    Each simulation rebuilds its own ``SeedSequence`` from the root
    entropy and the spawn key ``call_key + (i,)`` — the construction
    that makes results independent of chunking.
    """
    indptr, indices, probs = arrays
    counts = np.empty(hi - lo, dtype=np.float64)
    for i in range(lo, hi):
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=entropy, spawn_key=call_key + (i,)
            )
        )
        active = simulate_cascade(indptr, indices, probs, seeds, rng)
        counts[i - lo] = active.sum()
    return os.getpid(), counts


class ParallelMonteCarloSpread(PooledArrays):
    """Drop-in :class:`~repro.propagation.spread.SpreadEstimator` that
    chunks Monte-Carlo simulations over the process-wide pool.

    Parameters
    ----------
    graph / gamma:
        The topic graph and the item distribution (Eq. 1 instantiates
        the per-arc probabilities once, up front).
    num_simulations:
        Cascades per ``estimate`` call.
    seed:
        Root of the per-simulation stream derivation: the ``i``-th
        simulation of the ``t``-th ``estimate`` call uses the spawn key
        ``root_key + (t, i)``.  The same ``(seed, num_simulations)``
        pair yields bit-identical estimates for **any** worker count —
        including ``workers=1``, which runs inline with no pool at all.
    workers:
        Pool width: a positive int, ``"auto"`` (CPU count), or ``None``
        to follow the ``REPRO_SIM_WORKERS`` environment default.
    chunks_per_worker:
        Load-balancing granularity — each estimate call is split into
        about ``workers * chunks_per_worker`` chunks.  Has no effect on
        the results, only on scheduling.
    retry_policy / allow_sequential_fallback / fault_plan:
        Pool recovery, as in :class:`PooledArrays`.  Retried chunks are
        bit-identical to their first attempt, so recovery never changes
        results.

    Use as a context manager (or call :meth:`close`) to unlink the
    shared-memory graph segments when done.
    """

    def __init__(
        self,
        graph: TopicGraph,
        gamma,
        *,
        num_simulations: int = 200,
        seed=None,
        workers=None,
        chunks_per_worker: int = 4,
        retry_policy: RetryPolicy | None = None,
        allow_sequential_fallback: bool = True,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if num_simulations < 1:
            raise ValueError(
                f"num_simulations must be >= 1, got {num_simulations}"
            )
        if chunks_per_worker < 1:
            raise ValueError(
                f"chunks_per_worker must be >= 1, got {chunks_per_worker}"
            )
        super().__init__(
            (graph.indptr, graph.indices, graph.item_probabilities(gamma)),
            workers,
            retry_policy=retry_policy,
            allow_sequential_fallback=allow_sequential_fallback,
            fault_plan=fault_plan,
        )
        self._num_simulations = int(num_simulations)
        self._chunks_per_worker = int(chunks_per_worker)
        root = as_seed_sequence(seed)
        self._entropy = root.entropy
        self._base_key = tuple(root.spawn_key)
        self._calls = 0

    # ------------------------------------------------------------------
    @property
    def num_simulations(self) -> int:
        """Cascades simulated per estimate call."""
        return self._num_simulations

    @property
    def calls(self) -> int:
        """Estimate calls served so far (each consumes one stream key)."""
        return self._calls

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(self, seeds) -> float:
        """Mean spread of ``seeds`` over ``num_simulations`` cascades."""
        return self.estimate_with_error(seeds).mean

    def estimate_with_error(self, seeds) -> SpreadEstimate:
        """Full estimate including the per-run standard deviation."""
        [counts] = self._counts_batch([seeds])
        std = float(counts.std(ddof=1)) if counts.size > 1 else 0.0
        return SpreadEstimate(
            mean=float(counts.mean()),
            std=std,
            num_simulations=self._num_simulations,
        )

    def estimate_many(self, seed_sets) -> list[float]:
        """Mean spreads of several seed sets in one pool dispatch.

        Bit-identical to calling :meth:`estimate` on each seed set in
        order (each set consumes the next call key), but the pool sees
        the whole batch at once — the fast path for the initial
        marginal-gain sweeps of the greedy/CELF++ algorithms.
        """
        seed_sets = list(seed_sets)
        if not seed_sets:
            return []
        return [
            float(counts.mean())
            for counts in self._counts_batch(seed_sets)
        ]

    # ------------------------------------------------------------------
    def _counts_batch(self, seed_sets) -> list[np.ndarray]:
        """Per-simulation cascade sizes for each seed set, in order."""
        arrays = [
            np.asarray(seeds, dtype=np.int64) for seeds in seed_sets
        ]
        first_call = self._calls
        self._calls += len(arrays)
        if self._workers == 1:
            bounds = [(0, self._num_simulations)]
        else:
            bounds = self._chunk_bounds(len(arrays))
        chunks = [
            Chunk(
                call,
                chunk_id,
                (seeds, self._entropy, self._base_key + (call,), lo, hi),
                stream_id(self._entropy, self._base_key, call),
            )
            for call, seeds in enumerate(arrays, start=first_call)
            for chunk_id, (lo, hi) in enumerate(bounds)
        ]
        done = self.fan_out(_simulate_chunk, chunks, name="spread")
        if self._workers > 1:
            for pid, counts in done:
                _obs.record_worker_simulations(pid, counts.size)
        _obs.record_simulations(self._num_simulations * len(arrays))
        step = len(bounds)
        return [
            np.concatenate([counts for _, counts in done[row : row + step]])
            for row in range(0, len(done), step)
        ]

    def _chunk_bounds(self, num_calls: int) -> list[tuple[int, int]]:
        """Simulation ranges for one call, sized to fill the pool.

        With many calls in flight one chunk per call already saturates
        the workers; a lone call is split into ``workers *
        chunks_per_worker`` pieces so no process idles.
        """
        target_tasks = self._workers * self._chunks_per_worker
        chunks_per_call = max(
            1, -(-target_tasks // num_calls)
        )
        chunk = -(-self._num_simulations // chunks_per_call)
        bounds = []
        lo = 0
        while lo < self._num_simulations:
            hi = min(lo + chunk, self._num_simulations)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelMonteCarloSpread(workers={self._workers}, "
            f"num_simulations={self._num_simulations})"
        )
