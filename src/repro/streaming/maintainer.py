"""Incremental maintenance of per-index-point RR-sketches.

The expensive state behind an INFLEX index is the RR-set collection of
each index point (the sketch its seed list is greedily selected from).
When the graph changes, rebuilding every sketch from scratch wastes
almost all of the work: an RR set walked on the old graph is still a
valid sample on the new one unless the change is *visible* to its walk.

**State.**  Per point the maintainer keeps each set's sorted member
array and root, and one :class:`~repro.im.imm.RRIndex` packed from
them.  The index serves both greedy seed selection and invalidation:
its inverted node-to-set CSR (:meth:`~repro.im.imm.RRIndex.node_sets`)
lists the sets a changed head invalidates.

**Invalidation lemma.**  An RR set must be resampled iff the head of a
changed arc is among its members.  The reverse walk examines exactly
the in-arc slices of nodes it visits; for a node whose in-arcs did not
change, the slice's content, order (the reverse view sorts stably by
head over the ``(tail, head)``-lexsorted forward CSR, so each slice is
the arcs into that head ordered by tail), and item probabilities are
unchanged — so replaying the walk on the new graph consumes the
generator identically and yields the same member set bit for bit.  The
root draw is also unchanged because the node count is fixed.

**Differential guarantee.**  Every set ``sid`` of point ``pid`` is
always walked alone (``count=1``) by the shared reverse BFS
:func:`repro.im.imm.sample_rr_block` from the dedicated stream
``SeedSequence(entropy=seed, spawn_key=(pid, sid))``, freshly
constructed on each (re)sample.  Combined with the lemma, the
maintainer's state after any delta sequence is *bit-identical* to a
from-scratch :class:`IncrementalSketchMaintainer` built on the final
graph with the same seed — the property
``tests/test_streaming_properties.py`` checks.

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
from repro.obs import instruments as _obs
from repro.resilience.faults import InjectedFaultError, maybe_inject
from repro.streaming.deltas import DeltaBatch, EdgeState
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
        Across all index points, how many RR sets were invalidated and
        resampled versus replayed bit-identically from the old state —
        the incremental win is ``retained / (resampled + retained)``.
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
        Root entropy of the per-set RNG streams; the differential
        guarantee holds between maintainers sharing this seed.
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
        seed: int = 0,
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
        self._seed = int(seed)
        self._decay_rate = float(decay_rate)
        self._time = float(start_time)
        self._workers = resolve_workers(workers, name="workers")
        self._fault_plan = fault_plan
        self._state = EdgeState.from_graph(graph)
        self._graph = graph
        self._batches_applied = 0
        self._total_resampled = 0
        self._total_retained = 0
        self._members: list[list[np.ndarray]] = []
        self._roots: list[np.ndarray] = []
        self._indexes: list[RRIndex] = []
        self._seed_lists: list[SeedList] = []
        all_sids = range(self._num_sets)
        for pid in range(points.shape[0]):
            members, roots = self._sample_sets(
                graph,
                pid,
                all_sids,
                [None] * self._num_sets,
                np.empty(self._num_sets, dtype=np.uint32),
            )
            index = self._pack(members, roots)
            self._members.append(members)
            self._roots.append(roots)
            self._indexes.append(index)
            self._seed_lists.append(self._select_seeds(index))

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
        CSR pointer, and each set's ``uint32`` root."""
        return [
            (np.concatenate(members), self._indptr(members), roots)
            for members, roots in zip(self._members, self._roots)
        ]

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
    def _rng_for(self, pid: int, sid: int) -> np.random.Generator:
        """The dedicated stream for set ``sid`` of point ``pid``.

        Freshly constructed on every (re)sample, so the bits a set is
        walked from depend only on ``(seed, pid, sid)`` — never on how
        many times or in what order sets were resampled.
        """
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self._seed, spawn_key=(pid, sid)
            )
        )

    def _in_view(self, graph, pid: int):
        """The point-specific in-adjacency view RR walks run over."""
        probs = graph.item_probabilities(self._points[pid])
        in_indptr, in_tails, in_arc_ids = graph.reverse_view
        return in_indptr, in_tails, probs[in_arc_ids]

    def _sample_sets(self, graph, pid, sids, members, roots):
        """Resample ``sids`` of point ``pid`` over ``graph`` into copies
        of ``members`` / ``roots`` (the retained sets)."""
        in_indptr, in_tails, in_probs = self._in_view(graph, pid)
        n = graph.num_nodes
        members = list(members)
        roots = roots.copy()
        for sid in sids:
            values, _, root = sample_rr_block(
                in_indptr, in_tails, in_probs, n, 1, self._rng_for(pid, sid)
            )
            members[sid] = values
            roots[sid] = root[0]
        return members, roots

    @staticmethod
    def _indptr(members) -> np.ndarray:
        indptr = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum([m.size for m in members], out=indptr[1:])
        return indptr

    def _pack(self, members, roots) -> RRIndex:
        """One point's sets as an :class:`RRIndex` (inverted CSR only)."""
        return RRIndex(
            np.concatenate(members),
            self._indptr(members),
            roots,
            self._graph.num_nodes,
            storage="csr",
        )

    def _select_seeds(self, index: RRIndex) -> SeedList:
        return index.seed_list(self._seed_list_length, algorithm="ris")

    # ------------------------------------------------------------------
    # Batch application
    # ------------------------------------------------------------------
    def apply_batch(self, batch, *, fault_plan=None) -> ApplyReport:
        """Apply one :class:`DeltaBatch` transactionally.

        Advances the stream clock (applying exponential decay if
        configured), replays the batch's deltas onto the edge set,
        resamples exactly the RR sets whose member set contains the
        head of a changed arc, and refreshes the seed lists of affected
        points.  On any :class:`~repro.errors.StreamError` or injected
        fault, no state changes.

        Returns
        -------
        ApplyReport
            Per-batch accounting, including which points' seed lists
            changed (the subscription re-evaluation trigger set).
        """
        if not isinstance(batch, DeltaBatch):
            batch = DeltaBatch.from_dict(batch)
        with _obs.stream_apply_span(self._batches_applied, len(batch)):
            report = self._apply_batch_inner(batch, fault_plan)
        _obs.record_stream_batch(report)
        return report

    def _apply_batch_inner(self, batch, fault_plan) -> ApplyReport:
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
        new_state = self._state.copy()
        decayed = False
        if self._decay_rate > 0.0 and batch.timestamp > self._time:
            factor = math.exp(
                -self._decay_rate * (batch.timestamp - self._time)
            )
            if factor < 1.0:
                new_state.decay(factor)
                decayed = True
        deltas_by_op: dict[str, int] = {}
        for delta in batch.deltas:
            new_state.apply_delta(delta)
            deltas_by_op[delta.op] = deltas_by_op.get(delta.op, 0) + 1
        new_graph = new_state.to_graph()
        touched = batch.touched_heads()
        # Stage the per-point refresh; nothing is committed until every
        # affected point succeeded.
        invalid_by_point: dict[int, list[int]] = {}
        for pid in range(self.num_points):
            if decayed:
                # Decay rescales every arc probability, so every walk's
                # coin flips change: the whole sketch is stale.
                invalid = list(range(self._num_sets))
            else:
                index = self._indexes[pid]
                hit = [index.node_sets(head) for head in touched]
                invalid = (
                    np.unique(np.concatenate(hit)).tolist() if hit else []
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
            members, roots = self._sample_sets(
                new_graph,
                pid,
                invalid_by_point[pid],
                self._members[pid],
                self._roots[pid],
            )
            return pid, members, roots, self._pack(members, roots)

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
        for pid, _, _, index in staged:
            seed_list = self._select_seeds(index)
            new_seed_lists[pid] = seed_list
            if seed_list.nodes != self._seed_lists[pid].nodes:
                changed.append(pid)
        # ---- commit point: everything below is infallible ----
        self._state = new_state
        self._graph = new_graph
        for pid, members, roots, index in staged:
            self._members[pid] = members
            self._roots[pid] = roots
            self._indexes[pid] = index
            self._seed_lists[pid] = new_seed_lists[pid]
        resampled = sum(len(v) for v in invalid_by_point.values())
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
