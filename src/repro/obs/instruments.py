"""The repo's metric catalog and the recording helpers hot paths call.

Every instrumented subsystem funnels through the small functions below
rather than touching metric objects directly; each helper checks the
global switch first, so with observability disabled (the default) an
instrumentation site costs one function call and one attribute load.

The catalog (all registered on the process-wide registry at import
time) is documented in ``docs/OBSERVABILITY.md``; keep the two in sync.
"""

from __future__ import annotations

import contextlib

from repro.obs._state import STATE
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer

_REGISTRY = get_registry()

# -- query path ---------------------------------------------------------
QUERIES = _REGISTRY.counter(
    "repro_queries_total",
    "TIM queries answered, by strategy and outcome",
    labels=("strategy", "outcome"),
)
QUERY_PHASE_SECONDS = _REGISTRY.histogram(
    "repro_query_phase_seconds",
    "Per-phase query wall clock (phases: search/selection/aggregation/total)",
    labels=("phase",),
)
QUERY_NEIGHBORS_USED = _REGISTRY.histogram(
    "repro_query_neighbors_used",
    "Index seed lists entering the rank aggregation, per query",
)

# -- batch path ---------------------------------------------------------
QUERY_BATCHES = _REGISTRY.counter(
    "repro_query_batches_total",
    "query_batch invocations, by strategy",
    labels=("strategy",),
)
QUERY_BATCH_SIZE = _REGISTRY.histogram(
    "repro_query_batch_size", "Queries per query_batch call"
)
BATCH_LEAVES_VISITED = _REGISTRY.counter(
    "repro_batch_leaves_visited_total",
    "bb-tree leaves scanned across all queries of a batch",
)
BATCH_DIVERGENCE_COMPUTATIONS = _REGISTRY.counter(
    "repro_batch_divergence_computations_total",
    "Divergence evaluations across all queries of a batch",
)
BATCH_NODES_PRUNED = _REGISTRY.counter(
    "repro_batch_nodes_pruned_total",
    "Subtrees pruned across all queries of a batch",
)
BATCH_EPSILON_MATCHES = _REGISTRY.counter(
    "repro_batch_epsilon_matches_total",
    "Epsilon-exact answers across all queries of a batch",
)

# -- bb-tree search -----------------------------------------------------
SEARCHES = _REGISTRY.counter(
    "repro_search_total", "bb-tree searches, by kind", labels=("kind",)
)
SEARCH_LEAVES_VISITED = _REGISTRY.counter(
    "repro_search_leaves_visited_total",
    "Leaf populations scanned, by search kind",
    labels=("kind",),
)
SEARCH_DIVERGENCE_COMPUTATIONS = _REGISTRY.counter(
    "repro_search_divergence_computations_total",
    "Point-to-query divergence evaluations, by search kind",
    labels=("kind",),
)
SEARCH_NODES_PRUNED = _REGISTRY.counter(
    "repro_search_nodes_pruned_total",
    "Subtrees skipped by the Eq. 5 projection bound, by search kind",
    labels=("kind",),
)
SEARCH_EPSILON_MATCHES = _REGISTRY.counter(
    "repro_search_epsilon_matches_total",
    "Searches ended by the epsilon-exact shortcut, by search kind",
    labels=("kind",),
)
SEARCH_EARLY_STOPS = _REGISTRY.counter(
    "repro_search_early_stops_total",
    "Searches ended by the Anderson-Darling criterion, by search kind",
    labels=("kind",),
)

# -- result cache -------------------------------------------------------
CACHE_HITS = _REGISTRY.counter(
    "repro_cache_hits_total", "CachedIndex lookups served from cache"
)
CACHE_MISSES = _REGISTRY.counter(
    "repro_cache_misses_total", "CachedIndex lookups forwarded to the index"
)
CACHE_EVICTIONS = _REGISTRY.counter(
    "repro_cache_evictions_total", "CachedIndex LRU evictions"
)
CACHE_ENTRIES = _REGISTRY.gauge(
    "repro_cache_entries", "Current CachedIndex occupancy"
)
CACHE_EXPIRATIONS = _REGISTRY.counter(
    "repro_cache_expirations_total",
    "CachedIndex entries dropped because their TTL elapsed",
)

# -- query serving ------------------------------------------------------
SERVING_REQUESTS = _REGISTRY.counter(
    "repro_serving_requests_total",
    "HTTP requests answered by the query server, by route and status",
    labels=("route", "status"),
)
SERVING_REQUEST_SECONDS = _REGISTRY.histogram(
    "repro_serving_request_seconds",
    "Request wall clock from admission to response write, by route",
    labels=("route",),
)
SERVING_SHED = _REGISTRY.counter(
    "repro_serving_shed_total",
    "Requests rejected by admission control, by reason "
    "(inflight/queue/draining)",
    labels=("reason",),
)
SERVING_BATCH_SIZE = _REGISTRY.histogram(
    "repro_serving_batch_size", "Requests folded into one query_batch call"
)
SERVING_BATCH_WAIT_SECONDS = _REGISTRY.histogram(
    "repro_serving_batch_wait_seconds",
    "Batching-window wait from first enqueue to dispatch",
)
SERVING_COALESCED = _REGISTRY.counter(
    "repro_serving_singleflight_coalesced_total",
    "Requests that piggybacked on an identical in-flight computation",
)
SERVING_INFLIGHT = _REGISTRY.gauge(
    "repro_serving_inflight", "Currently admitted (queued + executing) requests"
)
SERVING_QUEUE_DEPTH = _REGISTRY.gauge(
    "repro_serving_queue_depth", "Requests waiting in the micro-batch queue"
)

# -- serving fleet (router process) ------------------------------------
FLEET_REQUESTS = _REGISTRY.counter(
    "repro_fleet_requests_total",
    "Requests dispatched by the fleet router, by shard and outcome "
    "(ok/error/timeout/redispatched)",
    labels=("shard", "outcome"),
)
FLEET_RESTARTS = _REGISTRY.counter(
    "repro_fleet_worker_restarts_total",
    "Worker processes respawned by the supervisor, by shard",
    labels=("shard",),
)
FLEET_REDISPATCHES = _REGISTRY.counter(
    "repro_fleet_redispatches_total",
    "Requests re-sent to a sibling shard after their shard failed",
)
FLEET_HEDGES = _REGISTRY.counter(
    "repro_fleet_hedges_total",
    "Hedged duplicate dispatches, by outcome (won/lost)",
    labels=("outcome",),
)
FLEET_BREAKER_STATE = _REGISTRY.gauge(
    "repro_fleet_breaker_state",
    "Per-shard circuit-breaker state (0=closed, 1=half-open, 2=open)",
    labels=("shard",),
)
FLEET_HEARTBEAT_AGE = _REGISTRY.gauge(
    "repro_fleet_heartbeat_age_seconds",
    "Seconds since each shard's last heartbeat, by shard",
    labels=("shard",),
)
FLEET_WORKERS = _REGISTRY.gauge(
    "repro_fleet_workers",
    "Worker processes currently in the ready state",
)

# -- streaming (evolving graph) ----------------------------------------
STREAM_BATCHES = _REGISTRY.counter(
    "repro_stream_batches_applied_total",
    "Delta batches applied by the streaming engine",
)
STREAM_DELTAS = _REGISTRY.counter(
    "repro_stream_deltas_applied_total",
    "Edge deltas applied, by op (add/remove/reweight)",
    labels=("op",),
)
STREAM_RR_RESAMPLED = _REGISTRY.counter(
    "repro_stream_rr_sets_resampled_total",
    "RR sets invalidated and resampled by delta application",
)
STREAM_RR_RETAINED = _REGISTRY.counter(
    "repro_stream_rr_sets_retained_total",
    "RR sets untouched by delta application (replay bit-identical)",
)
STREAM_SUBSCRIPTION_EVALS = _REGISTRY.counter(
    "repro_stream_subscription_evals_total",
    "Standing-subscription re-evaluations triggered by batches",
)
STREAM_UPDATES = _REGISTRY.counter(
    "repro_stream_updates_total",
    "SeedSetUpdate events emitted, by whether the seed set changed",
    labels=("changed",),
)
STREAM_SUBSCRIPTIONS = _REGISTRY.gauge(
    "repro_stream_subscriptions",
    "Standing TIM subscriptions currently registered",
)
STREAM_APPLY_SECONDS = _REGISTRY.histogram(
    "repro_stream_apply_seconds",
    "Wall clock of one delta-batch application (decay, deltas, "
    "resample, seed-list refresh)",
)

# -- offline construction ----------------------------------------------
BUILD_STAGE_SECONDS = _REGISTRY.histogram(
    "repro_build_stage_seconds",
    "Offline build stage durations, by stage",
    labels=("stage",),
)
IM_GAIN_EVALUATIONS = _REGISTRY.counter(
    "repro_im_gain_evaluations_total",
    "Spread-oracle (marginal gain) evaluations, by IM engine",
    labels=("engine",),
)
MC_SIMULATIONS = _REGISTRY.counter(
    "repro_mc_simulations_total", "Monte-Carlo cascade simulations run"
)
IMM_RR_SETS = _REGISTRY.counter(
    "repro_imm_rr_sets_sampled_total",
    "RR sets sampled by the IMM engine, by phase (estimate/select)",
    labels=("phase",),
)
IMM_BUILDS = _REGISTRY.counter(
    "repro_imm_builds_total", "IMM seed-list builds completed"
)
IMM_THETA = _REGISTRY.histogram(
    "repro_imm_theta_rr_sets",
    "Final RR-set budget (theta) per IMM seed-list build",
)

# -- campaign planner ---------------------------------------------------
CAMPAIGN_ALLOCATIONS = _REGISTRY.counter(
    "repro_campaign_allocations_total",
    "Campaign allocations completed, by algorithm "
    "(lazy/threshold/independent) and outcome (full/degraded)",
    labels=("algorithm", "outcome"),
)
CAMPAIGN_SEEDS = _REGISTRY.counter(
    "repro_campaign_seeds_total",
    "(node, item) seed pairs allocated across all campaigns",
)
CAMPAIGN_ORACLES = _REGISTRY.counter(
    "repro_campaign_oracles_total",
    "Per-item RR value oracles resolved, by source (sampled/cached)",
    labels=("source",),
)
CAMPAIGN_ITEMS = _REGISTRY.histogram(
    "repro_campaign_items",
    "Campaign items (B) per allocation request",
)
CAMPAIGN_ALLOCATE_SECONDS = _REGISTRY.histogram(
    "repro_campaign_allocate_seconds",
    "Wall clock of one campaign allocation (oracle sampling + greedy)",
)

# -- per-topic sketch bank ----------------------------------------------
SKETCH_COMPOSES = _REGISTRY.counter(
    "repro_sketch_composes_total",
    "Sketch compositions evaluated (strategy=sketch plus fallbacks)",
)
SKETCH_COMPOSE_SECONDS = _REGISTRY.histogram(
    "repro_sketch_compose_seconds",
    "Wall clock of one gamma-weighted sketch composition",
)
SKETCH_FALLBACKS = _REGISTRY.counter(
    "repro_sketch_fallbacks_total",
    "Degraded answers upgraded to composed sketches, by reason "
    "(distance/deadline)",
    labels=("reason",),
)
SKETCH_POOL_SETS = _REGISTRY.gauge(
    "repro_sketch_pool_sets",
    "Total RR sets held by the attached sketch bank (Z pools x S sets)",
)
SKETCH_REFRESHES = _REGISTRY.counter(
    "repro_sketch_refreshes_total",
    "Sketch-bank refreshes applied after streaming deltas",
)

# -- process pool (Monte-Carlo chunks, RR-set blocks) -------------------
SIM_CHUNKS = _REGISTRY.counter(
    "repro_sim_chunks_dispatched_total",
    "Chunks (Monte-Carlo simulations or RR-set blocks) dispatched to the "
    "process pool",
)
SIM_WORKER_SIMULATIONS = _REGISTRY.counter(
    "repro_sim_worker_simulations_total",
    "Simulations executed per pool worker, by worker pid",
    labels=("worker",),
)
SIM_POOL_EVENTS = _REGISTRY.counter(
    "repro_sim_pool_events_total",
    "Simulation pool lifecycle events, by event (start/shutdown)",
    labels=("event",),
)

# -- resilience ---------------------------------------------------------
RESILIENCE_POOL_REBUILDS = _REGISTRY.counter(
    "repro_resilience_pool_rebuilds_total",
    "Process pools discarded and rebuilt after a worker crash "
    "(MC chunks and RR blocks)",
)
RESILIENCE_CHUNK_RETRIES = _REGISTRY.counter(
    "repro_resilience_chunk_retries_total",
    "Process-pool chunks (MC or RR) re-dispatched after a failed wave",
)
RESILIENCE_SEQUENTIAL_FALLBACKS = _REGISTRY.counter(
    "repro_resilience_sequential_fallbacks_total",
    "Process-pool dispatches (MC or RR) that degraded to inline execution "
    "after retry exhaustion",
)
RESILIENCE_FAULTS_INJECTED = _REGISTRY.counter(
    "repro_resilience_faults_injected_total",
    "Faults fired by the active FaultPlan, by site and mode",
    labels=("site", "mode"),
)
RESILIENCE_QUARANTINES = _REGISTRY.counter(
    "repro_resilience_checkpoint_quarantines_total",
    "Corrupt builder checkpoints renamed aside and recomputed",
)
RESILIENCE_DEADLINE_EXPIRATIONS = _REGISTRY.counter(
    "repro_resilience_deadline_expirations_total",
    "Operations that returned degraded results on deadline expiry, by site",
    labels=("where",),
)
RESILIENCE_CORRUPT_ARTIFACTS = _REGISTRY.counter(
    "repro_resilience_corrupt_artifacts_total",
    "Persisted artifacts that failed an integrity check, by artifact",
    labels=("artifact",),
)

# -- request-scoped telemetry -------------------------------------------
SLO_REQUESTS = _REGISTRY.counter(
    "repro_slo_requests_total",
    "Requests judged against each SLO objective, by verdict (good/bad)",
    labels=("objective", "verdict"),
)
SLO_BURN_RATE = _REGISTRY.gauge(
    "repro_slo_burn_rate",
    "Error-budget burn rate per objective and window (1.0 = budget "
    "consumed exactly as fast as it accrues)",
    labels=("objective", "window"),
)
SLO_HEALTHY = _REGISTRY.gauge(
    "repro_slo_healthy",
    "1 while no SLO objective is breached in both windows, else 0",
)
FLIGHT_RECORDS = _REGISTRY.gauge(
    "repro_flight_records",
    "Requests currently held in the flight-recorder ring",
)
SERVING_SLOW_REQUESTS = _REGISTRY.counter(
    "repro_serving_slow_requests_total",
    "Requests over the slow-query threshold (span tree captured)",
)
LOG_RECORDS = _REGISTRY.counter(
    "repro_log_records_total",
    "Structured log records emitted, by level",
    labels=("level",),
)
LOG_SUPPRESSED = _REGISTRY.counter(
    "repro_log_suppressed_total",
    "Structured log records dropped by the rate limiter",
)


# ----------------------------------------------------------------------
# Recording helpers (each is a no-op while observability is disabled)
#
# Labeled children are resolved once and memoized in plain dicts:
# ``MetricFamily.labels`` validates label names on every call, which is
# the right contract for ad-hoc use but measurable on the query hot
# path.  The memoized children survive ``registry.reset()`` (reset
# zeroes values, it does not drop series).
# ----------------------------------------------------------------------
_PHASE_SEARCH = QUERY_PHASE_SECONDS.labels(phase="search")
_PHASE_SELECTION = QUERY_PHASE_SECONDS.labels(phase="selection")
_PHASE_AGGREGATION = QUERY_PHASE_SECONDS.labels(phase="aggregation")
_PHASE_TOTAL = QUERY_PHASE_SECONDS.labels(phase="total")

_QUERY_COUNTERS: dict = {}
_SEARCH_COUNTERS: dict = {}


def _search_counters(kind: str):
    counters = _SEARCH_COUNTERS.get(kind)
    if counters is None:
        counters = (
            SEARCHES.labels(kind=kind),
            SEARCH_LEAVES_VISITED.labels(kind=kind),
            SEARCH_DIVERGENCE_COMPUTATIONS.labels(kind=kind),
            SEARCH_NODES_PRUNED.labels(kind=kind),
            SEARCH_EPSILON_MATCHES.labels(kind=kind),
            SEARCH_EARLY_STOPS.labels(kind=kind),
        )
        _SEARCH_COUNTERS[kind] = counters
    return counters


def record_search(kind: str, stats) -> None:
    """Fold one search's :class:`~repro.bbtree.search.SearchStats` into
    the registry."""
    if not STATE.enabled:
        return
    searches, leaves, divergences, pruned, epsilon, early = (
        _search_counters(kind)
    )
    searches.inc()
    leaves.inc(stats.leaves_visited)
    divergences.inc(stats.divergence_computations)
    pruned.inc(stats.nodes_pruned)
    if stats.epsilon_match:
        epsilon.inc()
    if stats.stopped_early:
        early.inc()


def record_query(strategy: str, answer, *, batched: bool = False) -> None:
    """Fold one answered TIM query into the registry; ``batched``
    answers (rows of ``query_batch``) also add their search stats to
    the batch totals."""
    if not STATE.enabled:
        return
    if answer.degraded:
        outcome = "degraded"
    elif answer.epsilon_match:
        outcome = "epsilon_exact"
    else:
        outcome = "aggregated"
    key = (strategy, outcome)
    counter = _QUERY_COUNTERS.get(key)
    if counter is None:
        counter = QUERIES.labels(strategy=strategy, outcome=outcome)
        _QUERY_COUNTERS[key] = counter
    counter.inc()
    timing = answer.timing
    _PHASE_SEARCH.observe(timing.search)
    _PHASE_SELECTION.observe(timing.selection)
    _PHASE_AGGREGATION.observe(timing.aggregation)
    _PHASE_TOTAL.observe(timing.total)
    QUERY_NEIGHBORS_USED.observe(answer.num_neighbors_used)
    stats = answer.search_stats
    if batched and stats is not None:
        BATCH_LEAVES_VISITED.inc(stats.leaves_visited)
        BATCH_DIVERGENCE_COMPUTATIONS.inc(stats.divergence_computations)
        BATCH_NODES_PRUNED.inc(stats.nodes_pruned)
        BATCH_EPSILON_MATCHES.inc(int(stats.epsilon_match))


_BATCH_COUNTERS: dict = {}


def record_batch(strategy: str, size: int) -> None:
    """Count one ``query_batch`` call of ``size`` rows (their search
    stats arrive through :func:`record_query`)."""
    if not STATE.enabled:
        return
    counter = _BATCH_COUNTERS.get(strategy)
    if counter is None:
        counter = _BATCH_COUNTERS[strategy] = QUERY_BATCHES.labels(
            strategy=strategy
        )
    counter.inc()
    QUERY_BATCH_SIZE.observe(size)


def record_cache_hit(entries: int) -> None:
    """Count one CachedIndex hit and update the occupancy gauge."""
    if not STATE.enabled:
        return
    CACHE_HITS.inc()
    CACHE_ENTRIES.set(entries)


def record_cache_miss(entries: int) -> None:
    """Count one CachedIndex miss and update the occupancy gauge."""
    if not STATE.enabled:
        return
    CACHE_MISSES.inc()
    CACHE_ENTRIES.set(entries)


def record_cache_eviction(entries: int) -> None:
    """Count one CachedIndex LRU eviction and update the occupancy
    gauge."""
    if not STATE.enabled:
        return
    CACHE_EVICTIONS.inc()
    CACHE_ENTRIES.set(entries)


def record_cache_expiration(entries: int) -> None:
    """Count one CachedIndex TTL expiration and update the occupancy
    gauge."""
    if not STATE.enabled:
        return
    CACHE_EXPIRATIONS.inc()
    CACHE_ENTRIES.set(entries)


_SERVING_REQUEST_COUNTERS: dict = {}
_SERVING_ROUTE_HISTOGRAMS: dict = {}
_SERVING_SHED_COUNTERS: dict = {}


def record_http_request(route: str, status: int, seconds: float) -> None:
    """Fold one served HTTP request into the registry."""
    if not STATE.enabled:
        return
    key = (route, status)
    counter = _SERVING_REQUEST_COUNTERS.get(key)
    if counter is None:
        counter = SERVING_REQUESTS.labels(route=route, status=str(status))
        _SERVING_REQUEST_COUNTERS[key] = counter
    counter.inc()
    histogram = _SERVING_ROUTE_HISTOGRAMS.get(route)
    if histogram is None:
        histogram = SERVING_REQUEST_SECONDS.labels(route=route)
        _SERVING_ROUTE_HISTOGRAMS[route] = histogram
    histogram.observe(seconds)


def record_shed(reason: str) -> None:
    """Count one request rejected by admission control."""
    if not STATE.enabled:
        return
    counter = _SERVING_SHED_COUNTERS.get(reason)
    if counter is None:
        counter = SERVING_SHED.labels(reason=reason)
        _SERVING_SHED_COUNTERS[reason] = counter
    counter.inc()


def record_coalesced() -> None:
    """Count one request coalesced into an identical in-flight one."""
    if not STATE.enabled:
        return
    SERVING_COALESCED.inc()


_FLEET_REQUEST_COUNTERS: dict = {}
_FLEET_RESTART_COUNTERS: dict = {}
_FLEET_HEDGE_COUNTERS: dict = {}
_FLEET_BREAKER_GAUGES: dict = {}
_FLEET_HEARTBEAT_GAUGES: dict = {}
_BREAKER_STATE_CODES = {"closed": 0, "half-open": 1, "open": 2}


def record_fleet_dispatch(shard: int, outcome: str) -> None:
    """Count one router dispatch to ``shard`` with the given outcome."""
    if not STATE.enabled:
        return
    key = (shard, outcome)
    counter = _FLEET_REQUEST_COUNTERS.get(key)
    if counter is None:
        counter = FLEET_REQUESTS.labels(shard=str(shard), outcome=outcome)
        _FLEET_REQUEST_COUNTERS[key] = counter
    counter.inc()


def record_fleet_restart(shard: int) -> None:
    """Count one supervisor respawn of ``shard``."""
    if not STATE.enabled:
        return
    counter = _FLEET_RESTART_COUNTERS.get(shard)
    if counter is None:
        counter = FLEET_RESTARTS.labels(shard=str(shard))
        _FLEET_RESTART_COUNTERS[shard] = counter
    counter.inc()


def record_fleet_redispatch() -> None:
    """Count one request re-sent to a sibling shard."""
    if not STATE.enabled:
        return
    FLEET_REDISPATCHES.inc()


def record_fleet_hedge(outcome: str) -> None:
    """Count one hedged duplicate dispatch (``won``/``lost``)."""
    if not STATE.enabled:
        return
    counter = _FLEET_HEDGE_COUNTERS.get(outcome)
    if counter is None:
        counter = FLEET_HEDGES.labels(outcome=outcome)
        _FLEET_HEDGE_COUNTERS[outcome] = counter
    counter.inc()


def set_fleet_breaker_state(shard: int, state: str) -> None:
    """Publish one shard's breaker state (closed/half-open/open)."""
    if not STATE.enabled:
        return
    gauge = _FLEET_BREAKER_GAUGES.get(shard)
    if gauge is None:
        gauge = FLEET_BREAKER_STATE.labels(shard=str(shard))
        _FLEET_BREAKER_GAUGES[shard] = gauge
    gauge.set(_BREAKER_STATE_CODES.get(state, 2))


def set_fleet_heartbeat_age(shard: int, age_s: float) -> None:
    """Publish seconds since one shard's last heartbeat."""
    if not STATE.enabled:
        return
    gauge = _FLEET_HEARTBEAT_GAUGES.get(shard)
    if gauge is None:
        gauge = FLEET_HEARTBEAT_AGE.labels(shard=str(shard))
        _FLEET_HEARTBEAT_GAUGES[shard] = gauge
    gauge.set(max(0.0, age_s))


def set_fleet_workers(ready: int) -> None:
    """Publish the number of ready worker processes."""
    if not STATE.enabled:
        return
    FLEET_WORKERS.set(ready)


def set_serving_load(inflight: int, queue_depth: int) -> None:
    """Update the admission-control load gauges."""
    if not STATE.enabled:
        return
    SERVING_INFLIGHT.set(inflight)
    SERVING_QUEUE_DEPTH.set(queue_depth)


def serving_batch_open(size: int, context):
    """Open the span of one micro-batch dispatch.

    The dispatch crosses to the executor thread and back, so the span
    is managed by hand (closed by :func:`serving_batch_close`) and
    parented explicitly under ``context`` (the leader's
    :class:`~repro.obs.context.RequestContext`, or ``None``).
    """
    if context is None:
        return get_tracer().open_span(
            "serving.batch", category="serving", size=size
        )
    return get_tracer().open_span(
        "serving.batch",
        category="serving",
        trace_id=context.trace_id,
        parent_id=context.parent_span_id,
        size=size,
    )


def serving_batch_close(span, size: int, waited_s: float) -> None:
    """Close a :func:`serving_batch_open` span and fold the batch into
    the histograms.  ``waited_s`` is the batching-window wait (first
    enqueue to dispatch); the execution itself is timed by the span."""
    get_tracer().close_span(span)
    if STATE.enabled:
        SERVING_BATCH_SIZE.observe(size)
        SERVING_BATCH_WAIT_SECONDS.observe(waited_s)


def record_gain_evaluations(engine: str, count: int) -> None:
    """Add ``count`` spread-oracle evaluations for one IM engine run."""
    if not STATE.enabled or count <= 0:
        return
    IM_GAIN_EVALUATIONS.labels(engine=engine).inc(count)


_IMM_PHASE_COUNTERS: dict = {}


def record_imm_sampled(phase: str, count: int) -> None:
    """Add ``count`` RR sets sampled by one IMM phase
    (``estimate``/``select``)."""
    if not STATE.enabled or count <= 0:
        return
    counter = _IMM_PHASE_COUNTERS.get(phase)
    if counter is None:
        counter = IMM_RR_SETS.labels(phase=phase)
        _IMM_PHASE_COUNTERS[phase] = counter
    counter.inc(count)


def record_imm_build(theta: int) -> None:
    """Count one finished IMM build and record its final RR budget."""
    if not STATE.enabled:
        return
    IMM_BUILDS.inc()
    IMM_THETA.observe(theta)


_CAMPAIGN_ORACLE_COUNTERS: dict = {}


def record_campaign_oracle(source: str) -> None:
    """Count one value-oracle resolution (``sampled``/``cached``)."""
    if not STATE.enabled:
        return
    counter = _CAMPAIGN_ORACLE_COUNTERS.get(source)
    if counter is None:
        counter = CAMPAIGN_ORACLES.labels(source=source)
        _CAMPAIGN_ORACLE_COUNTERS[source] = counter
    counter.inc()


def record_campaign_allocation(
    algorithm: str, degraded: bool, num_seeds: int
) -> None:
    """Count one finished campaign allocation and its seed pairs."""
    if not STATE.enabled:
        return
    CAMPAIGN_ALLOCATIONS.labels(
        algorithm=algorithm,
        outcome="degraded" if degraded else "full",
    ).inc()
    if num_seeds > 0:
        CAMPAIGN_SEEDS.inc(num_seeds)


@contextlib.contextmanager
def campaign_allocate_span(algorithm: str, items: int, k: int):
    """Span + metrics around one campaign allocation."""
    with get_tracer().span(
        "campaign.allocate",
        category="campaign",
        algorithm=algorithm,
        items=items,
        k=k,
    ) as span:
        yield span
    if STATE.enabled:
        CAMPAIGN_ITEMS.observe(items)
        if span.duration is not None:
            CAMPAIGN_ALLOCATE_SECONDS.observe(span.duration)


_SKETCH_FALLBACK_COUNTERS: dict = {}


def record_sketch_compose(seconds: float | None) -> None:
    """Count one sketch composition and its wall clock."""
    if not STATE.enabled:
        return
    SKETCH_COMPOSES.inc()
    if seconds is not None:
        SKETCH_COMPOSE_SECONDS.observe(seconds)


def record_sketch_fallback(reason: str) -> None:
    """Count one sketch-upgraded degraded answer (by trigger reason)."""
    if not STATE.enabled:
        return
    counter = _SKETCH_FALLBACK_COUNTERS.get(reason)
    if counter is None:
        counter = SKETCH_FALLBACKS.labels(reason=reason)
        _SKETCH_FALLBACK_COUNTERS[reason] = counter
    counter.inc()


def set_sketch_pool(total_sets: int) -> None:
    """Publish the attached sketch bank's total RR-set count."""
    if not STATE.enabled:
        return
    SKETCH_POOL_SETS.set(total_sets)


def record_sketch_refresh() -> None:
    """Count one streaming-driven sketch-bank refresh."""
    if not STATE.enabled:
        return
    SKETCH_REFRESHES.inc()


def record_simulations(count: int) -> None:
    """Add ``count`` Monte-Carlo cascade simulations to the total."""
    if not STATE.enabled or count <= 0:
        return
    MC_SIMULATIONS.inc(count)


def record_sim_chunks(count: int) -> None:
    """Add ``count`` chunks dispatched to the process pool."""
    if not STATE.enabled or count <= 0:
        return
    SIM_CHUNKS.inc(count)


def record_worker_simulations(worker: int, count: int) -> None:
    """Attribute ``count`` simulations to one pool worker (by pid)."""
    if not STATE.enabled or count <= 0:
        return
    SIM_WORKER_SIMULATIONS.labels(worker=str(worker)).inc(count)


def record_chunk_retries(count: int) -> None:
    """Add ``count`` re-dispatched chunks to the resilience total."""
    if not STATE.enabled or count <= 0:
        return
    RESILIENCE_CHUNK_RETRIES.inc(count)


def record_sequential_fallback() -> None:
    """Count one degradation from pooled to inline execution."""
    if not STATE.enabled:
        return
    RESILIENCE_SEQUENTIAL_FALLBACKS.inc()


def record_fault_injected(site: str, mode: str) -> None:
    """Count one fault fired by the active :class:`FaultPlan`."""
    if not STATE.enabled:
        return
    RESILIENCE_FAULTS_INJECTED.labels(site=site, mode=mode).inc()


def record_checkpoint_quarantine() -> None:
    """Count one corrupt checkpoint quarantined by the builder."""
    if not STATE.enabled:
        return
    RESILIENCE_QUARANTINES.inc()


def record_deadline_expired(where: str) -> None:
    """Count one deadline expiry that produced a degraded result."""
    if not STATE.enabled:
        return
    RESILIENCE_DEADLINE_EXPIRATIONS.labels(where=where).inc()


def record_corrupt_artifact(artifact: str) -> None:
    """Count one artifact rejected by an integrity check."""
    if not STATE.enabled:
        return
    RESILIENCE_CORRUPT_ARTIFACTS.labels(artifact=artifact).inc()


@contextlib.contextmanager
def pool_rebuild_span(workers: int):
    """Span + counter around discarding and rebuilding a broken pool."""
    with get_tracer().span(
        "resilience.pool.rebuild", category="resilience", workers=workers
    ) as span:
        yield span
    if STATE.enabled:
        RESILIENCE_POOL_REBUILDS.inc()


@contextlib.contextmanager
def sim_pool_span(event: str, workers: int):
    """Span + event counter around pool startup/teardown.

    ``event`` is ``"start"`` or ``"shutdown"``; the span carries the
    pool width so traces show how wide each pool came up.
    """
    with get_tracer().span(
        f"simpool.{event}", category="simpool", workers=workers
    ) as span:
        yield span
    if STATE.enabled:
        SIM_POOL_EVENTS.labels(event=event).inc()


@contextlib.contextmanager
def stream_apply_span(batch_id: int, num_deltas: int):
    """Span + metrics around one delta-batch application.

    Wraps the whole transactional apply (decay, delta replay, RR-set
    resampling, seed-list refresh); the caller records the per-batch
    resample/retain counts separately via :func:`record_stream_batch`.
    """
    with get_tracer().span(
        "stream.apply",
        category="streaming",
        batch=batch_id,
        deltas=num_deltas,
    ) as span:
        yield span
    if STATE.enabled and span.duration is not None:
        STREAM_APPLY_SECONDS.observe(span.duration)


_STREAM_DELTA_COUNTERS: dict = {}


def record_stream_batch(report) -> None:
    """Fold one applied batch's :class:`~repro.streaming.ApplyReport`
    into the registry."""
    if not STATE.enabled:
        return
    STREAM_BATCHES.inc()
    for op, count in report.deltas_by_op.items():
        counter = _STREAM_DELTA_COUNTERS.get(op)
        if counter is None:
            counter = STREAM_DELTAS.labels(op=op)
            _STREAM_DELTA_COUNTERS[op] = counter
        counter.inc(count)
    STREAM_RR_RESAMPLED.inc(report.rr_sets_resampled)
    STREAM_RR_RETAINED.inc(report.rr_sets_retained)


_STREAM_UPDATE_COUNTERS: dict = {}


def record_stream_update(changed: bool) -> None:
    """Count one emitted SeedSetUpdate event."""
    if not STATE.enabled:
        return
    key = "yes" if changed else "no"
    counter = _STREAM_UPDATE_COUNTERS.get(key)
    if counter is None:
        counter = STREAM_UPDATES.labels(changed=key)
        _STREAM_UPDATE_COUNTERS[key] = counter
    counter.inc()


def record_subscription_evals(count: int) -> None:
    """Add ``count`` standing-subscription re-evaluations."""
    if not STATE.enabled or count <= 0:
        return
    STREAM_SUBSCRIPTION_EVALS.inc(count)


def set_stream_subscriptions(count: int) -> None:
    """Update the registered-subscriptions gauge."""
    if not STATE.enabled:
        return
    STREAM_SUBSCRIPTIONS.set(count)


@contextlib.contextmanager
def build_stage(stage: str):
    """Span + duration histogram around one offline build stage."""
    with get_tracer().span(f"build.{stage}", category="build") as span:
        yield span
    if STATE.enabled and span.duration is not None:
        BUILD_STAGE_SECONDS.labels(stage=stage).observe(span.duration)


_SLO_VERDICT_COUNTERS: dict = {}
_SLO_BURN_GAUGES: dict = {}
_LOG_LEVEL_COUNTERS: dict = {}


def record_slo_verdicts(verdicts: dict) -> None:
    """Fold one request's per-objective verdicts (``True`` = bad, as
    returned by :meth:`~repro.obs.slo.SLOMonitor.observe`) into the
    registry."""
    if not STATE.enabled:
        return
    for objective, bad in verdicts.items():
        key = (objective, "bad" if bad else "good")
        counter = _SLO_VERDICT_COUNTERS.get(key)
        if counter is None:
            counter = SLO_REQUESTS.labels(objective=key[0], verdict=key[1])
            _SLO_VERDICT_COUNTERS[key] = counter
        counter.inc()


def publish_slo_status(status: dict) -> None:
    """Push an :meth:`~repro.obs.slo.SLOMonitor.status` dict into the
    ``repro_slo_burn_rate`` / ``repro_slo_healthy`` gauges."""
    if not STATE.enabled:
        return
    for objective, detail in status["objectives"].items():
        for window in ("fast", "slow"):
            key = (objective, window)
            gauge = _SLO_BURN_GAUGES.get(key)
            if gauge is None:
                gauge = SLO_BURN_RATE.labels(
                    objective=objective, window=window
                )
                _SLO_BURN_GAUGES[key] = gauge
            gauge.set(detail[window]["burn_rate"])
    SLO_HEALTHY.set(1.0 if status["healthy"] else 0.0)


def record_flight(records: int, slow: bool) -> None:
    """Update the flight-recorder gauge (and the slow-request counter
    when the request crossed the slow threshold)."""
    if not STATE.enabled:
        return
    FLIGHT_RECORDS.set(records)
    if slow:
        SERVING_SLOW_REQUESTS.inc()


def record_log_event(level: str) -> None:
    """Count one emitted structured log record."""
    if not STATE.enabled:
        return
    counter = _LOG_LEVEL_COUNTERS.get(level)
    if counter is None:
        counter = LOG_RECORDS.labels(level=level)
        _LOG_LEVEL_COUNTERS[level] = counter
    counter.inc()


def record_log_suppressed(count: int) -> None:
    """Add ``count`` rate-limiter-dropped log records to the total."""
    if not STATE.enabled or count <= 0:
        return
    LOG_SUPPRESSED.inc(count)
