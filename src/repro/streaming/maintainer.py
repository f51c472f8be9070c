"""Incremental maintenance of per-index-point RR-sketches.

The expensive state behind an INFLEX index is the RR-set collection of
each index point (the sketch its seed list is greedily selected from).
When the graph changes, rebuilding every sketch from scratch wastes
almost all of the work: an RR set walked on the old graph is still a
valid sample on the new one unless the change is *visible* to its walk.

**Streams.**  Every set belongs to a *block* with a stream of its own:
block ``b`` of point ``pid`` holds sets ``[b * B, (b + 1) * B)`` and
draws from ``SeedSequence(entropy, spawn_key=base + (pid, b))``
(``entropy`` and ``base`` are the ``seed``'s; ``base`` is empty for an
integer seed).  ``B`` is ``block_size``.  At the default 1 every set
has its own stream; with ``B > 1`` a block is walked as
:class:`~repro.im.imm.RRSampler` walks it (a stored
:class:`~repro.sketches.SketchBank`'s pools are such blocks).  Either
way a point's walked blocks go to the shared reverse BFS
:func:`repro.im.imm.sample_rr_block` in one call, each block drawing
from its own generator exactly what a lone walk would, and the
generators are seeded in bulk (:func:`repro.rng.keyed_generators`),
with no ``SeedSequence`` object per block.  Pools given at
construction are taken to be these walks and are adopted without
walking.

**State.**  Per point the maintainer keeps one CSR
:class:`~repro.im.imm.RRIndex`: the sets' sorted members concatenated
in set order, the set pointer and the roots, plus the inverted
node-to-set CSR (:meth:`~repro.im.imm.RRIndex.node_sets`) that serves
both greedy seed selection and invalidation.  A batch splices the
re-walked sets into a new CSR;
:meth:`IncrementalSketchMaintainer.pools` reads the triples out.

**Invalidation lemma.**  A block must be re-walked iff the head of a
changed arc is a member of one of its sets.  The reverse walk examines
exactly the in-arc slices of nodes it visits; for a node whose in-arcs
did not change, the slice's content, order (the reverse view sorts
stably by head over the ``(tail, head)``-lexsorted forward CSR, so each
slice is the arcs into that head ordered by tail), and item
probabilities are unchanged — so replaying the block on the new graph
consumes the generator identically and yields the same sets bit for
bit.  The root draws are also unchanged because the node count is
fixed.

**Why from the block's own stream.**  Re-walking the hit sets from
fresh randomness would bias the pool: kept sets are samples
*conditioned* on missing the changed heads, fresh ones are not, so the
share of sets holding a changed head ``h`` falls from ``p`` to
``p**2`` per batch.  Re-walking a hit block from the stream that drew
it keeps every block equal to its walk on the current graph.  The
price of ``B > 1`` is that one hit set costs its whole block, so
incremental retention shrinks with ``B``.

**Differential guarantee.**  Hence, after any delta sequence, the
maintainer is bit-identical to one built from scratch on the final
graph from the same streams — the property
``tests/test_streaming_properties.py`` checks for ``B = 1`` and
``tests/test_streaming_replay.py`` for the streaming engine (per-set
point pools, an adopted bank of sampler blocks) against the replay
oracle in ``tests/rr_reference.py``.

Application is transactional: all successor state is staged and only
committed once every delta validated and every affected sketch
resampled, so an injected fault or invalid delta leaves the maintainer
untouched.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import StreamError
from repro.im.imm import RRIndex, sample_rr_block
from repro.im.seed_list import SeedList
from repro.resilience.faults import InjectedFaultError, maybe_inject
from repro.rng import as_seed_sequence, keyed_generators
from repro.streaming.deltas import DeltaBatch, advance_graph
from repro.workers import resolve_workers


@dataclass(frozen=True)
class ApplyReport:
    """What one :meth:`IncrementalSketchMaintainer.apply_batch` did.

    Attributes
    ----------
    batch_id:
        Zero-based sequence number of the applied batch.
    timestamp:
        Stream time the maintainer advanced to.
    num_deltas:
        Edge deltas in the batch.
    deltas_by_op:
        Delta counts keyed by op (``add``/``remove``/``reweight``).
    rr_sets_resampled / rr_sets_retained:
        Across all index points, how many RR sets were re-walked (every
        set of an invalidated block) versus replayed bit-identically
        from the old state — the incremental win is
        ``retained / (resampled + retained)``.
    resampled_points:
        Index points whose sketch had at least one set resampled.
    changed_points:
        The subset of ``resampled_points`` whose *seed list* actually
        changed — the trigger set for subscription re-evaluation.
    decayed:
        Whether exponential time-decay rescaled every arc (which
        invalidates all sketches regardless of the deltas).
    """

    batch_id: int
    timestamp: float
    num_deltas: int
    deltas_by_op: dict
    rr_sets_resampled: int
    rr_sets_retained: int
    resampled_points: tuple[int, ...]
    changed_points: tuple[int, ...]
    decayed: bool

    def to_dict(self) -> dict:
        """JSON-native form for CLI reports and the serving API."""
        return {
            "batch_id": self.batch_id,
            "timestamp": self.timestamp,
            "num_deltas": self.num_deltas,
            "deltas_by_op": dict(self.deltas_by_op),
            "rr_sets_resampled": self.rr_sets_resampled,
            "rr_sets_retained": self.rr_sets_retained,
            "resampled_points": list(self.resampled_points),
            "changed_points": list(self.changed_points),
            "decayed": self.decayed,
        }


class IncrementalSketchMaintainer:
    """Keeps per-index-point RR sketches and seed lists current on an
    evolving graph.

    Parameters
    ----------
    graph:
        The initial :class:`~repro.graph.topic_graph.TopicGraph`.
    index_points:
        ``(h, Z)`` array of topic distributions — one sketch and seed
        list is maintained per row (typically an index's points).
    num_sets:
        RR sets per sketch.
    seed_list_length:
        Seeds selected per point by greedy max-coverage.
    seed:
        Root of the per-block RNG streams: an ``int`` or a
        ``SeedSequence`` whose spawn key prefixes every block's key.
        The differential guarantee holds between maintainers sharing
        it.
    block_size:
        Sets per RNG stream: block ``b`` (sets ``[b * block_size,
        (b + 1) * block_size)``) is walked from one generator, and
        re-walked as a whole when a batch invalidates any of its sets.
        The default 1 gives every set its own stream (what incremental
        maintenance wants; the streaming engine uses more only to
        adopt a stored sketch bank).
    pools:
        Optional initial sketches, adopted without walking after a
        shape check: for each point ``pid``, the ``(values, indptr,
        roots)`` triple of those blocks' walks, as
        ``RRSampler(graph, block_size=block_size).sample(
        index_points[pid], num_sets, seed=seed, request=pid)`` returns
        it (a stored :class:`~repro.sketches.SketchBank`'s pools are
        such triples).  Without them the maintainer walks every block.
    decay_rate:
        Exponential time-decay rate of edge strength: advancing the
        stream clock by ``dt`` multiplies every arc probability by
        ``exp(-decay_rate * dt)`` before a batch's deltas.  ``0.0``
        (default) disables decay.
    start_time:
        Initial stream clock; batch timestamps must be nondecreasing
        from here.
    workers:
        Threads used to refresh affected points concurrently (``int``,
        ``"auto"``, or a core fraction as accepted by
        :func:`repro.workers.resolve_workers`).
    fault_plan:
        Optional explicit :class:`~repro.resilience.FaultPlan`
        consulted at the ``delta-apply`` and ``resample`` sites.
    """

    def __init__(
        self,
        graph,
        index_points,
        *,
        num_sets: int = 1000,
        seed_list_length: int = 10,
        seed=0,
        block_size: int = 1,
        pools=None,
        decay_rate: float = 0.0,
        start_time: float = 0.0,
        workers=1,
        fault_plan=None,
    ) -> None:
        points = np.asarray(index_points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise StreamError(
                f"index_points must be a non-empty (h, Z) array, got "
                f"shape {points.shape}"
            )
        if points.shape[1] != graph.num_topics:
            raise StreamError(
                f"index points have {points.shape[1]} topics, graph has "
                f"{graph.num_topics}"
            )
        if num_sets < 1:
            raise StreamError(f"num_sets must be >= 1, got {num_sets}")
        if block_size < 1:
            raise StreamError(f"block_size must be >= 1, got {block_size}")
        if seed_list_length < 1:
            raise StreamError(
                f"seed_list_length must be >= 1, got {seed_list_length}"
            )
        if decay_rate < 0.0:
            raise StreamError(
                f"decay_rate must be >= 0, got {decay_rate}"
            )
        self._points = points
        self._num_sets = int(num_sets)
        self._seed_list_length = int(seed_list_length)
        root = as_seed_sequence(seed)
        self._entropy = root.entropy
        self._base_key = tuple(root.spawn_key)
        self._decay_rate = float(decay_rate)
        self._time = float(start_time)
        self._workers = resolve_workers(workers, name="workers")
        self._fault_plan = fault_plan
        self._graph = graph
        self._batches_applied = 0
        self._total_resampled = 0
        self._total_retained = 0
        self._block = int(block_size)
        self._num_blocks = -(-self._num_sets // self._block)
        n = graph.num_nodes
        if pools is None:
            empty = (
                np.empty(0, dtype=np.uint32),
                np.zeros(self._num_sets + 1, dtype=np.int64),
                np.zeros(self._num_sets, dtype=np.uint32),
            )
            every_block = list(range(self._num_blocks))
            pools = [
                self._rewalk(graph, pid, empty, every_block)
                for pid in range(points.shape[0])
            ]
        else:
            pools = _check_pools(pools, points.shape[0], self._num_sets, n)
        self._indexes = [RRIndex(*pool, n) for pool in pools]
        self._seed_lists = [
            self._select_seeds(index) for index in self._indexes
        ]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The current (post-delta) :class:`TopicGraph`."""
        return self._graph

    @property
    def index_points(self) -> np.ndarray:
        """The ``(h, Z)`` maintained topic distributions."""
        return self._points

    @property
    def num_points(self) -> int:
        """Number of maintained index points ``h``."""
        return int(self._points.shape[0])

    @property
    def seed_lists(self) -> tuple[SeedList, ...]:
        """Current per-point seed lists (greedy over the live sketches)."""
        return tuple(self._seed_lists)

    def pools(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-point sketches as packed ``(values, indptr, roots)``
        triples: sorted ``uint32`` members in set order, the ``int64``
        CSR pointer, and each set's ``uint32`` root.  These are the
        live arrays, not copies; batches replace them, never write
        into them."""
        return [index.csr() for index in self._indexes]

    @property
    def time(self) -> float:
        """The stream clock (timestamp of the last applied batch)."""
        return self._time

    @property
    def batches_applied(self) -> int:
        """Batches successfully applied since construction."""
        return self._batches_applied

    def stats(self) -> dict:
        """Lifetime counters for dashboards and the serving stats route."""
        total = self._total_resampled + self._total_retained
        return {
            "num_points": self.num_points,
            "num_sets": self._num_sets,
            "batches_applied": self._batches_applied,
            "rr_sets_resampled": self._total_resampled,
            "rr_sets_retained": self._total_retained,
            "retain_fraction": (
                self._total_retained / total if total else 1.0
            ),
            "time": self._time,
            "decay_rate": self._decay_rate,
        }

    # ------------------------------------------------------------------
    # Sampling internals
    # ------------------------------------------------------------------
    def _rewalk(self, graph, pid: int, pool, blocks):
        """``pool`` with ``blocks`` (ascending ids) re-walked over
        ``graph``, each from its own stream, as a new triple.

        The blocks walk together in one :func:`sample_rr_block` call,
        whatever ``block_size`` is; their generators are seeded fresh
        from ``(seed, pid, block)`` alone, so a block's sets never
        depend on how many times or in what order it was walked.
        """
        in_indptr, in_tails, in_arc_ids = graph.reverse_view
        in_probs = graph.item_probabilities(self._points[pid])[in_arc_ids]
        blocks = np.asarray(blocks, dtype=np.int64)
        firsts = blocks * self._block
        counts = np.minimum(self._block, self._num_sets - firsts)
        streams = keyed_generators(
            self._entropy,
            self._base_key,
            np.column_stack((np.full(blocks.size, pid), blocks)),
        )
        walked = sample_rr_block(
            in_indptr,
            in_tails,
            in_probs,
            graph.num_nodes,
            counts.tolist(),
            streams,
        )
        # Block b holds sets [firsts[b], firsts[b] + counts[b]).
        ends = np.cumsum(counts)
        sids = np.arange(walked[2].size) + np.repeat(
            firsts - ends + counts, counts
        )
        return _splice(pool, sids, walked)

    def _select_seeds(self, index: RRIndex) -> SeedList:
        return index.seed_list(self._seed_list_length, algorithm="ris")

    # ------------------------------------------------------------------
    # Batch application
    # ------------------------------------------------------------------
    def apply_batch(
        self, batch, *, fault_plan=None, graph=None
    ) -> ApplyReport:
        """Apply one :class:`DeltaBatch` transactionally.

        Advances the stream clock (applying exponential decay if
        configured), stages the successor graph with
        :func:`~repro.streaming.deltas.advance_graph`, re-walks exactly
        the blocks with a set that contains the head of a changed arc,
        and refreshes the seed lists of affected points.  On any
        :class:`~repro.errors.StreamError` or injected fault, no state
        changes.

        ``graph`` hands over a successor graph another maintainer
        already staged for this batch from the same graph and stream
        clock, as the streaming engine does for its sketch-bank
        maintainer; the batch is then not applied a second time.

        Returns
        -------
        ApplyReport
            Per-batch accounting, including which points' seed lists
            changed (the subscription re-evaluation trigger set).
        """
        if not isinstance(batch, DeltaBatch):
            batch = DeltaBatch.from_dict(batch)
        plan = fault_plan if fault_plan is not None else self._fault_plan
        if batch.timestamp < self._time:
            raise StreamError(
                f"batch timestamp {batch.timestamp} runs backwards "
                f"(stream clock is at {self._time})"
            )
        batch_id = self._batches_applied
        fired = maybe_inject("delta-apply", plan, batch=batch_id)
        if fired is not None:
            raise InjectedFaultError(
                f"injected failure applying delta batch {batch_id}"
            )
        factor = 1.0
        if self._decay_rate > 0.0 and batch.timestamp > self._time:
            factor = math.exp(
                -self._decay_rate * (batch.timestamp - self._time)
            )
        decayed = factor < 1.0
        if graph is None:
            new_graph = advance_graph(self._graph, batch.deltas, factor)
        else:
            new_graph = graph
        deltas_by_op: dict[str, int] = {}
        for delta in batch.deltas:
            deltas_by_op[delta.op] = deltas_by_op.get(delta.op, 0) + 1
        touched = batch.touched_heads()
        # Stage the per-point refresh; nothing is committed until every
        # affected point succeeded.
        invalid_by_point: dict[int, list[int]] = {}
        for pid in range(self.num_points):
            if decayed:
                # Decay rescales every arc probability, so every walk's
                # coin flips change: the whole sketch is stale.
                invalid = list(range(self._num_blocks))
            else:
                index = self._indexes[pid]
                hit = [index.node_sets(head) for head in touched]
                invalid = (
                    np.unique(
                        np.concatenate(hit) // self._block
                    ).tolist()
                    if hit
                    else []
                )
            if not invalid:
                continue
            # Fire fault hooks serially before any parallel work so an
            # injected failure is deterministic and pre-commit.
            fired = maybe_inject(
                "resample", plan, point=pid, batch=batch_id
            )
            if fired is not None:
                raise InjectedFaultError(
                    f"injected failure resampling point {pid} in batch "
                    f"{batch_id}"
                )
            invalid_by_point[pid] = invalid

        def refresh(pid: int):
            pool = self._rewalk(
                new_graph,
                pid,
                self._indexes[pid].csr(),
                invalid_by_point[pid],
            )
            return pid, RRIndex(*pool, new_graph.num_nodes)

        affected = list(invalid_by_point)
        if len(affected) > 1 and self._workers > 1:
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=min(self._workers, len(affected))
            ) as pool:
                staged = list(pool.map(refresh, affected))
        else:
            staged = [refresh(pid) for pid in affected]
        # Seed selection depends on the staged graph size only through
        # num_nodes (fixed), so run it after sampling, still pre-commit.
        new_seed_lists = {}
        changed = []
        for pid, index in staged:
            seed_list = self._select_seeds(index)
            new_seed_lists[pid] = seed_list
            if seed_list.nodes != self._seed_lists[pid].nodes:
                changed.append(pid)
        # ---- commit point: everything below is infallible ----
        self._graph = new_graph
        for pid, index in staged:
            self._indexes[pid] = index
            self._seed_lists[pid] = new_seed_lists[pid]
        resampled = sum(
            min(self._block, self._num_sets - block * self._block)
            for blocks in invalid_by_point.values()
            for block in blocks
        )
        retained = self.num_points * self._num_sets - resampled
        self._total_resampled += resampled
        self._total_retained += retained
        self._time = batch.timestamp
        self._batches_applied += 1
        return ApplyReport(
            batch_id=batch_id,
            timestamp=batch.timestamp,
            num_deltas=len(batch),
            deltas_by_op=deltas_by_op,
            rr_sets_resampled=resampled,
            rr_sets_retained=retained,
            resampled_points=tuple(affected),
            changed_points=tuple(changed),
            decayed=decayed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalSketchMaintainer({self.num_points} points, "
            f"{self._num_sets} sets each, {self._batches_applied} "
            f"batches applied)"
        )


def _splice(pool, sids, walked):
    """``pool`` with sets ``sids`` (ascending) replaced, in order, by
    the sets of the ``walked`` triple, as a new ``(values, indptr,
    roots)`` triple."""
    values, indptr, roots = pool
    walked_values, walked_indptr, walked_roots = walked
    num_sets = roots.size
    sizes = np.diff(indptr)
    new_sizes = sizes.copy()
    new_sizes[sids] = np.diff(walked_indptr)
    new_indptr = np.zeros_like(indptr)
    np.cumsum(new_sizes, out=new_indptr[1:])
    new_values = np.empty(int(new_indptr[-1]), dtype=np.uint32)
    # A member moves by the shift of its set's start.
    old_set = np.repeat(np.arange(num_sets), sizes)
    kept = np.ones(num_sets, dtype=bool)
    kept[sids] = False
    keep = kept[old_set]
    shift = new_indptr[:-1] - indptr[:-1]
    new_values[np.flatnonzero(keep) + shift[old_set[keep]]] = values[keep]
    walked_shift = new_indptr[sids] - walked_indptr[:-1]
    new_values[
        np.arange(walked_values.size)
        + np.repeat(walked_shift, np.diff(walked_indptr))
    ] = walked_values
    new_roots = roots.copy()
    new_roots[sids] = walked_roots
    return new_values, new_indptr, new_roots


def _check_pools(pools, num_points: int, num_sets: int, num_nodes: int):
    """Validate caller-supplied initial pools; return them typed."""
    pools = list(pools)
    if len(pools) != num_points:
        raise StreamError(
            f"{len(pools)} initial pools for {num_points} index points"
        )
    checked = []
    for pid, pool in enumerate(pools):
        values, indptr, roots = (np.asarray(array) for array in pool)
        problem = _pool_problem(values, indptr, roots, num_sets, num_nodes)
        if problem is not None:
            raise StreamError(f"initial pool {pid}: {problem}")
        checked.append(
            (
                values.astype(np.uint32, copy=False),
                indptr.astype(np.int64, copy=False),
                roots.astype(np.uint32, copy=False),
            )
        )
    return checked


def _pool_problem(values, indptr, roots, num_sets: int, num_nodes: int):
    """Why one ``(values, indptr, roots)`` triple is not a pool of
    ``num_sets`` RR sets over ``num_nodes`` nodes, or ``None``."""
    if any(a.dtype.kind not in "iu" for a in (values, indptr, roots)):
        return "arrays must hold integers"
    if values.ndim != 1 or indptr.shape != (num_sets + 1,):
        return f"expected {num_sets} sets in a 1-D CSR layout"
    if roots.shape != (num_sets,):
        return f"expected {num_sets} roots, got shape {roots.shape}"
    if indptr[0] != 0 or indptr[-1] != values.size:
        return "indptr must run from 0 to the member count"
    sizes = np.diff(indptr)
    if np.any(sizes < 1):
        return "every set must hold at least its root"
    for name, array in (("member", values), ("root", roots)):
        if array.min() < 0 or array.max() >= num_nodes:
            return f"{name} out of node range [0, {num_nodes})"
    # Sets in order with sorted members make the flat keys strictly
    # increasing; each root's key must then be among them.
    keys = np.repeat(
        np.arange(num_sets, dtype=np.int64) * num_nodes, sizes
    ) + values.astype(np.int64)
    if np.any(np.diff(keys) <= 0):
        return "members must be sorted and distinct within each set"
    root_keys = np.arange(num_sets, dtype=np.int64) * num_nodes + roots
    found = keys[np.minimum(np.searchsorted(keys, root_keys), keys.size - 1)]
    if np.any(found != root_keys):
        return "every set must contain its root"
    return None
