"""Unified observability: metrics, tracing, request-scoped telemetry.

The paper's headline claim is millisecond TIM queries; this package is
how the repo *proves* such claims across whole workloads instead of
single timings — and, since the request-scoped layer, how a single
slow or degraded query gets explained after the fact.  The pieces:

* a process-wide :class:`~repro.obs.metrics.MetricsRegistry` of
  counters, gauges and streaming histograms (JSON snapshot +
  Prometheus text exposition) — see :func:`get_registry`;
* a :class:`~repro.obs.tracing.Tracer` of nestable spans exportable as
  JSON or Chrome ``trace_event`` documents — see :func:`get_tracer`;
* a :class:`~repro.obs.context.RequestContext` minted per request and
  propagated across tasks, threads, and pool worker processes, so one
  request's spans share one ``trace_id`` — see
  :func:`new_request_context` / :func:`bind`;
* a :class:`~repro.obs.flightrec.FlightRecorder` ring of per-request
  records with a slow-query log that captures full span trees — see
  :func:`get_flight_recorder`;
* an :class:`~repro.obs.slo.SLOMonitor` tracking latency/error/
  degradation objectives with burn rates over fast and slow windows;
* structured JSON event logging correlated by trace id — see
  :func:`~repro.obs.logs.get_logger`;
* a single global switch (:func:`enable` / :func:`disable`): while off
  (the default), every instrumentation site in the query/build hot
  paths short-circuits after one attribute check, so the overhead is
  not measurable (``benchmarks/bench_obs_overhead.py`` enforces this).

Typical use::

    from repro import obs

    obs.enable()
    with obs.bind(obs.new_request_context()):
        index.query(gamma, 10)
    print(obs.get_registry().to_json())
    obs.get_tracer().write_chrome_trace("trace.json")

The metric catalog lives in :mod:`repro.obs.instruments` and is
documented in ``docs/OBSERVABILITY.md``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.obs._state": ("STATE", "disable", "enable", "enabled"),
        "repro.obs.metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricFamily",
            "MetricsRegistry",
            "get_registry",
        ),
        "repro.obs.tracing": (
            "Span",
            "SpanRecord",
            "Tracer",
            "get_tracer",
            "span_payload",
        ),
        "repro.obs.context": (
            "RequestContext",
            "bind",
            "bind_child_of",
            "current_context",
            "new_request_context",
            "new_request_id",
            "new_trace_id",
            "wrap",
        ),
        "repro.obs": ("instruments",),
        "repro.obs.flightrec": (
            "FlightRecord",
            "FlightRecorder",
            "gamma_fingerprint",
            "get_flight_recorder",
        ),
        "repro.obs.slo": ("SLOConfig", "SLOMonitor"),
        "repro.obs.logs": (
            "EventLogger",
            "JsonFormatter",
            "RateLimitFilter",
            "configure_json_logging",
            "get_logger",
            "reset_logging",
        ),
    },
)
