"""Online maintenance of INFLEX on an evolving topic graph.

The paper's index is built once over a static graph; this subsystem
makes the whole stack work while the graph changes underneath it:

* :mod:`repro.streaming.deltas` — the append-only edge-delta model
  (:class:`EdgeDelta`, :class:`DeltaBatch`, the CRC-checked
  :class:`DeltaLog`, :func:`advance_graph`, which applies a batch to
  the CSR arrays of a graph, and the mutable :class:`EdgeState`
  dictionary it is checked against);
* :mod:`repro.streaming.maintainer` — incremental RR-sketch
  maintenance with a differential guarantee (incremental state is
  bit-identical to a from-scratch rebuild at the same RNG streams);
* :mod:`repro.streaming.subscriptions` — standing TIM queries
  re-evaluated only when their neighbors' seed lists change;
* :mod:`repro.streaming.engine` — the façade gluing those to a live
  :class:`~repro.core.InflexIndex` (used by the serving layer's
  ``/deltas`` and ``/subscriptions`` routes and the
  ``repro-inflex stream`` CLI).

See ``docs/STREAMING.md`` for the design and the invalidation lemma.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.streaming.deltas": (
            "DELTA_OPS",
            "DeltaBatch",
            "DeltaLog",
            "EdgeDelta",
            "EdgeState",
            "advance_graph",
        ),
        "repro.streaming.maintainer": (
            "ApplyReport",
            "IncrementalSketchMaintainer",
        ),
        "repro.streaming.subscriptions": (
            "SeedSetUpdate",
            "Subscription",
            "SubscriptionRegistry",
        ),
        "repro.streaming.engine": ("StreamingEngine",),
    },
)
