"""The streaming engine: one object tying deltas to live TIM answers.

:class:`StreamingEngine` wraps an :class:`~repro.core.InflexIndex` and
keeps it queryable while the underlying graph evolves:

* an :class:`~repro.streaming.maintainer.IncrementalSketchMaintainer`
  owns the per-index-point RR sketches and refreshes exactly the
  invalidated ones per delta batch;
* after each batch the engine swaps in a new index (same points, same
  bb-tree — deltas never move the point cloud — fresh seed lists);
* a :class:`~repro.streaming.subscriptions.SubscriptionRegistry`
  re-evaluates the standing queries whose neighbors changed and queues
  :class:`~repro.streaming.subscriptions.SeedSetUpdate` events.

Construction walks no set alone.  Every index point's pool keeps one
stream per set, as incremental maintenance needs (a hit set is
re-walked without touching its neighbours), but a point's sets walk
side by side in one call of the shared walker, from generators seeded
in bulk.  The engine re-derives every seed list from these pools, so
answers are consistent with the maintained state from the first query
on (the build-time lists come from IMM's own pools).
:meth:`StreamingEngine.stats` reports what this cost
(``setup_seconds``, ``sets_walked_at_setup``).

When the wrapped index carries a per-topic
:class:`~repro.sketches.SketchBank`, a second maintainer tracks the
``Z`` single-topic pools (index points = the identity matrix) through
the same delta stream, so ``strategy="sketch"`` answers and the
distance/deadline fallback upgrades stay fresh on hot-swaps too.  It
adopts the bank's arrays as they are, with zero walks: the bank served
at construction is the loaded bank, bit for bit.

**One graph.**  The index-point maintainer applies each batch to the
CSR arrays once; the sketch-bank maintainer is handed the graph it
staged, and the served index is re-pointed at it whenever it changes.
The engine keeps the wrapped index's points, configuration, Dirichlet
and bb-tree, not the index, so after the first batch the graph it was
loaded with is not held by the engine.

**Streams.**  Both maintainers re-walk an invalidated set from the
stream that first walked it (see :mod:`repro.streaming.maintainer` for
why a fresh stream would bias the pools).  For the bank that stream
belongs to a whole ``SketchBank.build`` block, keyed ``(topic,
block)`` under the bank seed, so a hit set costs its block.  The point
pools' streams are keyed ``(0, pid, sid)`` under the engine seed
(:func:`point_pool_root`), so the two families never share a stream,
even when the index and the bank share a seed as CLI builds do.

**Contract.**  After any batch sequence the engine's point pools and
seed lists are bit-identical to those of an engine built on the final
graph, and its bank to ``SketchBank.build`` on the final graph.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.index import InflexIndex
from repro.im.imm import _block_size
from repro.obs import instruments as _obs
from repro.obs.logs import get_logger
from repro.resilience.faults import FaultPlan
from repro.streaming.deltas import DeltaBatch
from repro.streaming.maintainer import ApplyReport, IncrementalSketchMaintainer
from repro.streaming.subscriptions import SubscriptionRegistry


def point_pool_root(seed) -> np.random.SeedSequence:
    """The root of the point pools' streams: set ``sid`` of point
    ``pid`` draws from key ``(0, pid, sid)`` under ``seed``, never a
    bank key ``(topic, block)``."""
    return np.random.SeedSequence(seed, spawn_key=(0,))


class StreamingEngine:
    """Keeps an INFLEX index live on an evolving graph.

    Parameters
    ----------
    index:
        The index to maintain; its points, configuration, and bb-tree
        are reused, its seed lists are re-derived from the maintained
        sketches.
    num_sets:
        RR sets per index-point sketch (default
        ``index.config.ris_num_sets``).
    seed:
        Root entropy of the point pools' RNG streams (default
        ``index.config.seed``).
    decay_rate / workers / fault_plan:
        Forwarded to the
        :class:`~repro.streaming.maintainer.IncrementalSketchMaintainer`.
    max_pending:
        Per-subscription update-queue bound.
    """

    def __init__(
        self,
        index: InflexIndex,
        *,
        num_sets: int | None = None,
        seed: int | None = None,
        decay_rate: float = 0.0,
        workers=1,
        fault_plan=None,
        max_pending: int = 256,
    ) -> None:
        started = time.perf_counter()
        config = index.config
        if num_sets is None:
            num_sets = config.ris_num_sets
        if seed is None:
            seed = config.seed
        self._maintainer = IncrementalSketchMaintainer(
            index.graph,
            index.index_points,
            num_sets=num_sets,
            seed_list_length=config.seed_list_length,
            seed=point_pool_root(seed),
            decay_rate=decay_rate,
            workers=workers,
            fault_plan=fault_plan,
        )
        self._registry = SubscriptionRegistry(max_pending=max_pending)
        self._points = index.index_points
        self._config = config
        self._dirichlet = index.dirichlet
        self._tree = index.tree
        self._sketch_maintainer = None
        self._bank = index.sketches
        if self._bank is not None:
            # One pool per topic: the identity rows are the e_z "index
            # points" of the composable bank.  The main maintainer runs
            # the batch first and fires any scripted faults pre-commit,
            # so this one is shielded (empty plan beats the env plan) —
            # either both maintainers advance or neither does.
            self._sketch_maintainer = IncrementalSketchMaintainer(
                index.graph,
                np.eye(index.graph.num_topics),
                num_sets=self._bank.num_sets,
                seed_list_length=1,
                seed=self._bank.config.seed,
                # SketchBank.build walks with the sampler's default block.
                block_size=_block_size(index.graph.num_nodes),
                pools=self._bank.pools(),
                decay_rate=decay_rate,
                workers=workers,
                fault_plan=FaultPlan(),
            )
        self._index = self._rebuild_index()
        # The point maintainer walked every set of every pool; the bank
        # maintainer adopted its pools without a walk.
        self._sets_walked_at_setup = self._maintainer.num_points * num_sets
        self._setup_seconds = time.perf_counter() - started

    def _rebuild_bank(self):
        """Pack the sketch maintainer's live pools into a fresh bank."""
        from repro.sketches import SketchBank

        maintainer = self._sketch_maintainer
        return SketchBank.from_pools(
            maintainer.pools(),
            maintainer.graph.num_nodes,
            self._bank.config,
        )

    def _rebuild_index(self) -> InflexIndex:
        """A fresh index over the maintainer's current seed lists.

        The point cloud and bb-tree are structural invariants of the
        stream (deltas change the graph, not the simplex geometry), so
        both are shared with the original index, points unchanged (not
        smoothed again); only the seed lists — and the graph reference —
        are new.
        """
        index = InflexIndex._restore(
            self._maintainer.graph,
            self._points,
            list(self._maintainer.seed_lists),
            self._config,
            dirichlet=self._dirichlet,
            tree=self._tree,
        )
        if self._bank is not None:
            index.attach_sketches(self._bank)
        return index

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def index(self) -> InflexIndex:
        """The current queryable index (replaced after each batch)."""
        return self._index

    @property
    def graph(self):
        """The current :class:`~repro.graph.topic_graph.TopicGraph`, the
        one object the maintainers and the served index share."""
        return self._maintainer.graph

    @property
    def maintainer(self) -> IncrementalSketchMaintainer:
        """The underlying sketch maintainer."""
        return self._maintainer

    @property
    def registry(self) -> SubscriptionRegistry:
        """The standing-query registry."""
        return self._registry

    # ------------------------------------------------------------------
    # Stream operations
    # ------------------------------------------------------------------
    def apply(self, batch) -> tuple[ApplyReport, tuple]:
        """Apply one delta batch end to end.

        Runs the transactional sketch maintenance, swaps in a new index
        when the graph changed, and re-evaluates the affected
        subscriptions.  Returns
        the maintainer's :class:`ApplyReport` and the emitted
        :class:`~repro.streaming.subscriptions.SeedSetUpdate` events.
        """
        if not isinstance(batch, DeltaBatch):
            batch = DeltaBatch.from_dict(batch)
        batch_id = self._maintainer.batches_applied
        with _obs.stream_apply_span(batch_id, len(batch)):
            report = self._maintainer.apply_batch(batch)
            if self._sketch_maintainer is not None:
                # The main maintainer validated the batch and committed,
                # so this (fault-shielded) apply cannot fail; the
                # per-topic pools advance to the same stream clock, on
                # the graph the main maintainer staged.
                sketch_report = self._sketch_maintainer.apply_batch(
                    batch, graph=self._maintainer.graph
                )
                if sketch_report.rr_sets_resampled or sketch_report.decayed:
                    self._bank = self._rebuild_bank()
                    _obs.record_sketch_refresh()
        # One batch counts once, with the index points' resample figures.
        _obs.record_stream_batch(report)
        # Any delta or decay makes a new graph, and only they can change
        # a seed list or the bank.
        if self._index.graph is not self.graph:
            self._index = self._rebuild_index()
        updates = self._registry.notify(
            report.batch_id, report.changed_points, self._index
        )
        get_logger("streaming").event(
            "stream.apply",
            batch_id=report.batch_id,
            deltas=report.num_deltas,
            changed_points=len(report.changed_points),
            rr_sets_resampled=report.rr_sets_resampled,
            updates=len(updates),
        )
        return report, updates

    def replay(self, log):
        """Apply every batch of a :class:`~repro.streaming.DeltaLog`.

        Yields ``(report, updates)`` pairs in stream order; stops (and
        leaves the last good state in place) on the first failing
        batch, letting the caller decide whether to resume.
        """
        for batch in log:
            yield self.apply(batch)

    def subscribe(self, gamma, k: int, *, strategy: str = "inflex"):
        """Register a standing query against the current index.

        Returns ``(Subscription, baseline SeedSetUpdate)``.
        """
        return self._registry.register(
            self._index, gamma, k, strategy=strategy
        )

    def poll(self, subscription_id: int):
        """Drain the queued updates of one subscription."""
        return self._registry.poll(subscription_id)

    def stats(self) -> dict:
        """Combined maintainer + registry counters (JSON-friendly), plus
        what construction cost: ``setup_seconds`` (wall clock) and
        ``sets_walked_at_setup``."""
        summary = {
            "setup_seconds": self._setup_seconds,
            "sets_walked_at_setup": self._sets_walked_at_setup,
            "maintainer": self._maintainer.stats(),
            "subscriptions": self._registry.stats(),
        }
        if self._sketch_maintainer is not None:
            summary["sketch_maintainer"] = self._sketch_maintainer.stats()
        return summary

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingEngine({self._maintainer!r}, "
            f"{len(self._registry)} subscriptions)"
        )
