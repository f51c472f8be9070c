"""Concurrent query serving: the online front door of the reproduction.

The paper's whole point is *online* TIM answering — the INFLEX index
exists so ``Q(gamma_q, k)`` resolves in milliseconds at serving time.
This package turns the single-call library into a service built for
heavy concurrent traffic, composing the layers the earlier PRs laid
down:

* :mod:`repro.serving.front` — the one HTTP front end both servers
  share: listener, connection loop, route table (404/405/503 checks),
  request span and metrics, ``Retry-After`` hints, graceful drain, and
  :func:`~repro.serving.front.serve`, which runs either server until
  SIGTERM drains it;
* :mod:`repro.serving.server` — the stdlib-only asyncio query server
  (``/query``, ``/query_batch``, ``/campaign``, ``/healthz``,
  ``/metrics``, ``/stats``, debug and streaming routes);
* :mod:`repro.serving.batcher` — micro-batching of concurrent requests
  into :meth:`~repro.core.index.InflexIndex.query_batch` calls;
* :mod:`repro.serving.admission` — in-flight/queue-depth admission
  control with 429/503 + ``Retry-After`` load shedding;
* :mod:`repro.serving.singleflight` — coalescing of identical
  in-flight queries, fronting the TTL/LRU
  :class:`~repro.core.cache.CachedIndex`;
* :mod:`repro.serving.loadgen` — seeded closed-/open-loop load
  generation with latency/throughput/shed/cache reporting;
* :mod:`repro.serving.protocol` — the shared HTTP codec and JSON wire
  format;
* :mod:`repro.serving.fleet` — the supervised multi-process fleet:
  router, topic-affinity sharding, per-shard circuit breakers,
  heartbeat supervision with crash-safe respawn, re-dispatch, and
  tail-latency hedging (``serve --workers N``, ``docs/FLEET.md``);
* :mod:`repro.serving.worker` — the fleet worker entrypoint (one
  shard: shared-memory index attach + chaos hooks);
* :mod:`repro.serving.shared_index` — zero-copy publication of a
  served index over POSIX shared memory;
* :mod:`repro.serving.topview` — the ``repro-inflex top`` live
  terminal view over ``/metrics``.

Configuration lives in :class:`repro.core.config.ServingConfig`; the
CLI entry points are ``repro-inflex serve`` and ``repro-inflex
loadgen``.  See ``docs/SERVING.md``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serving.admission": (
            "AdmissionController",
            "AdmissionSnapshot",
        ),
        "repro.serving.batcher": (
            "BatcherStats",
            "BatchItem",
            "MicroBatcher",
            "QueueFullError",
        ),
        "repro.serving.fleet": ("Fleet", "WorkerHandle"),
        "repro.serving.front": ("serve",),
        "repro.serving.loadgen": (
            "LoadReport",
            "build_far_mix",
            "build_query_mix",
            "run_loadgen",
        ),
        "repro.serving.protocol": ("HttpRequest", "ProtocolError"),
        "repro.serving.server": ("QueryServer",),
        "repro.serving.shared_index": ("attach_index", "publish_index"),
        "repro.serving.singleflight": ("SingleFlight",),
        "repro.serving.worker": ("FleetWorkerServer", "worker_main"),
        "repro.serving.topview": (
            "MetricsSample",
            "parse_prometheus",
            "quantile_from_buckets",
            "render_top",
            "run_top",
        ),
    },
)
