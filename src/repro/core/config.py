"""Configuration of the INFLEX index and its query pipeline.

Every knob of the paper has a field here, with the paper's value as the
documented reference point and a laptop-sized default where the paper's
value would make a pure-Python run impractical (DESIGN.md §2 records the
substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.workers import (
    default_sim_workers,
    resolve_worker_allocation,
    resolve_workers,
)

#: Influence-maximization engines available for seed-list precomputation.
IM_ENGINES = ("imm", "ris", "celf++", "celf++-mc")

#: Rank-aggregation methods available at query time.
AGGREGATORS = ("copeland", "borda", "mc4")

#: Allocation algorithms available to the campaign planner.
CAMPAIGN_ALGORITHMS = ("lazy", "threshold")


@dataclass(frozen=True)
class InflexConfig:
    """All tunables of INFLEX construction and query evaluation.

    Index construction
    ------------------
    num_index_points:
        ``h`` — number of index points (paper: 1000).
    num_dirichlet_samples:
        Samples drawn from the fitted Dirichlet before clustering
        (paper: 100k).
    seed_list_length:
        ``l`` — length of each precomputed seed list (paper: 50).
    im_engine:
        Seed-extraction algorithm: ``"imm"`` (default; martingale RIS
        with a ``(1 - 1/e - eps)`` guarantee — the paper-scale build
        engine), ``"ris"`` (the fixed-budget sampling engine), the
        paper's ``"celf++"`` driven by live-edge snapshots, or
        ``"celf++-mc"`` driven by fresh-randomness Monte-Carlo
        simulation (the paper's original formulation; the engine that
        benefits from ``simulation_workers``).
    ris_num_sets:
        RR sets per index point for the RIS engine (at least 2).
    num_snapshots:
        Live-edge snapshots for the ``celf++`` engine.
    num_simulations:
        Monte-Carlo cascades per spread evaluation for the
        ``celf++-mc`` engine.
    imm_epsilon:
        IMM's approximation slack in ``(0, 1)``: seed lists are
        ``(1 - 1/e - imm_epsilon)``-approximate and the RR budget
        grows as ``imm_epsilon**-2`` (see ``docs/INDEX_BUILDS.md``).
    imm_delta:
        IMM's failure probability in ``(0, 1)``; ``None`` uses the
        canonical ``1/num_nodes``.

    Parallelism
    -----------
    workers:
        Index-point pool width for seed-list precomputation (a positive
        int or ``"auto"`` for the CPU count).  Index points are
        independent; results are bit-identical to a sequential build.
    simulation_workers:
        Simulation pool width used *within* one spread estimate by the
        ``celf++-mc`` engine (int, ``"auto"``, or ``None`` to follow the
        ``REPRO_SIM_WORKERS`` environment default).  Also bit-identical
        for any width.  When both pools are enabled the allocation is
        resolved so their product stays within the CPU budget — see
        :meth:`worker_allocation` and ``docs/PARALLELISM.md``.
    leaf_size / max_branch / branching / gmeans_alpha:
        bb-tree shape controls (see :class:`repro.bbtree.BBTree`).

    Query evaluation
    ----------------
    epsilon:
        The epsilon-exact match threshold of Algorithm 1.
    ad_alpha:
        Significance level of the Anderson--Darling early-stop test.
        Note the direction: the search *stops* when normality is
        accepted, so a higher alpha makes stopping harder and the
        search more thorough.  The default 0.8 calibrates the mean
        number of visited leaves to the paper's reported 3.65 (our
        leaves are small — 16 points — so the test needs a high alpha
        to have any power).
    max_leaves:
        Leaf budget of the similarity search (paper: 5).
    knn:
        ``K`` used by the K-NN style strategies (paper: 10, found best).
    aggregator:
        ``"copeland"`` (paper's winner), ``"borda"`` or ``"mc4"``.
    weighted:
        Use importance weights (Eq. 9) in the aggregation.
    local_kemenization:
        Apply the Local Kemenization refinement after aggregation.
    selection_threshold:
        Gap threshold of the automatic neighbor selection (paper: 0.005).
    weight_bound_eps:
        Smoothing of the corner-to-corner ``KL_max`` bound in Eq. 9.

    Resilience
    ----------
    deadline_ms:
        Default per-query wall-clock budget in milliseconds (``None`` =
        unlimited).  A query that exceeds it returns a *degraded*
        answer — the nearest neighbor's precomputed list, flagged with
        ``TimAnswer.degraded`` — instead of blocking; see
        ``docs/RESILIENCE.md``.  Explicit ``deadline_ms`` arguments to
        :meth:`InflexIndex.query` override this default.

    Randomness
    ----------
    seed:
        Master seed for every stochastic stage of index construction.
    """

    num_index_points: int = 128
    num_dirichlet_samples: int = 20000
    seed_list_length: int = 50
    im_engine: str = "imm"
    ris_num_sets: int = 3000
    num_snapshots: int = 100
    num_simulations: int = 200
    imm_epsilon: float = 0.1
    imm_delta: float | None = None
    workers: int | str = 1
    simulation_workers: int | str | None = None
    leaf_size: int = 16
    max_branch: int = 8
    branching: object = "gmeans"
    gmeans_alpha: float = 0.0001

    epsilon: float = 1e-9
    ad_alpha: float = 0.8
    max_leaves: int = 5
    knn: int = 10
    aggregator: str = "copeland"
    weighted: bool = True
    local_kemenization: bool = True
    selection_threshold: float = 0.005
    weight_bound_eps: float = 0.05

    deadline_ms: float | None = None

    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.num_index_points < 2:
            raise ValueError(
                f"num_index_points must be >= 2, got {self.num_index_points}"
            )
        if self.num_dirichlet_samples < self.num_index_points:
            raise ValueError(
                "num_dirichlet_samples must be >= num_index_points "
                f"({self.num_dirichlet_samples} < {self.num_index_points})"
            )
        if self.seed_list_length < 1:
            raise ValueError(
                f"seed_list_length must be >= 1, got {self.seed_list_length}"
            )
        if self.im_engine not in IM_ENGINES:
            raise ValueError(
                f"im_engine must be one of {IM_ENGINES}, got {self.im_engine!r}"
            )
        if self.aggregator not in AGGREGATORS:
            raise ValueError(
                f"aggregator must be one of {AGGREGATORS}, "
                f"got {self.aggregator!r}"
            )
        if self.max_leaves < 1:
            raise ValueError(f"max_leaves must be >= 1, got {self.max_leaves}")
        if self.knn < 1:
            raise ValueError(f"knn must be >= 1, got {self.knn}")
        if not 0.0 < self.ad_alpha < 1.0:
            raise ValueError(
                f"ad_alpha must lie in (0, 1), got {self.ad_alpha}"
            )
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.selection_threshold <= 0:
            raise ValueError(
                f"selection_threshold must be positive, got "
                f"{self.selection_threshold}"
            )
        if self.num_simulations < 1:
            raise ValueError(
                f"num_simulations must be >= 1, got {self.num_simulations}"
            )
        if self.ris_num_sets < 2:
            raise ValueError(
                f"ris_num_sets must be >= 2, got {self.ris_num_sets}"
            )
        if not 0.0 < self.imm_epsilon < 1.0:
            raise ValueError(
                f"imm_epsilon must lie in (0, 1), got {self.imm_epsilon}"
            )
        if self.imm_delta is not None and not 0.0 < self.imm_delta < 1.0:
            raise ValueError(
                f"imm_delta must lie in (0, 1) or be None, "
                f"got {self.imm_delta}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive or None, got {self.deadline_ms}"
            )
        # Worker knobs are validated here, once, at parse time — the
        # single place every entry point (CLI, env, library) funnels
        # through — so a bad value fails fast instead of mid-build.
        resolve_workers(self.workers, name="workers")
        if self.simulation_workers is not None:
            resolve_workers(
                self.simulation_workers, name="simulation_workers"
            )

    @property
    def effective_workers(self) -> int:
        """``workers`` resolved to a concrete count (``"auto"`` = CPUs)."""
        return resolve_workers(self.workers, name="workers")

    @property
    def effective_simulation_workers(self) -> int:
        """``simulation_workers`` resolved to a concrete count.

        ``None`` follows the ``REPRO_SIM_WORKERS`` environment default.
        """
        if self.simulation_workers is None:
            return default_sim_workers()
        return resolve_workers(
            self.simulation_workers, name="simulation_workers"
        )

    def worker_allocation(self) -> tuple[int, int]:
        """The composed ``(index_workers, sim_workers)`` pool widths.

        Clamped so the two levels multiply to at most the CPU count
        when both are enabled (the outer level wins the budget).
        """
        return resolve_worker_allocation(
            self.effective_workers, self.effective_simulation_workers
        )


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the concurrent query service (:mod:`repro.serving`).

    Network
    -------
    host / port:
        Listen address.  ``port=0`` binds an ephemeral port (the server
        reports the actual one), which tests and benchmarks use.

    Micro-batching
    --------------
    max_batch_size:
        Upper bound on requests folded into one
        :meth:`~repro.core.index.InflexIndex.query_batch` call.
    max_batch_wait_us:
        Batching window in microseconds: once the first request of a
        batch arrives, the batcher waits at most this long for more
        before dispatching.  0 (the default) disables the wait: every
        request dispatches as soon as the executor is free, still
        coalescing whatever queued while it was busy.  A window only
        pays off when grouping amortizes compute, and it does not
        here: a ``query_batch`` costs about as much per query as a
        lone ``query`` (``batch_ms_per_query`` ≈ ``query_ms`` in the
        repo benchmark), so with fewer concurrent clients than
        ``max_batch_size`` a window never fills and each dispatch would
        wait it out with the CPU idle.

    Admission control
    -----------------
    max_inflight:
        Concurrent admitted requests (queued + executing).  Beyond it
        the server sheds with 429 rather than queueing unboundedly.
    max_queue_depth:
        Bound on requests waiting in the batcher queue; exceeding it
        also sheds with 429.
    retry_after_s:
        Base value of the ``Retry-After`` header on shed (429/503)
        responses, in seconds (rounded up to whole seconds on the
        wire, as the header requires).
    retry_jitter:
        Fraction of ``retry_after_s`` added as deterministic seeded
        jitter (:class:`~repro.resilience.retry.RetryPolicy` math), so
        shed clients don't retry in synchronized herds.  The exact
        jittered value rides on the ``X-Retry-After-Ms`` response
        header (``Retry-After`` itself has whole-second resolution).

    Deadlines
    ---------
    deadline_ms:
        Default per-request wall-clock budget, measured from admission;
        propagated into the index's ``deadline_ms`` machinery so an
        over-budget query returns a degraded answer (see
        ``docs/RESILIENCE.md``) instead of holding its batch hostage.
        Requests may override it per call; ``None`` = unlimited.

    Result cache
    ------------
    cache_entries / cache_decimals / cache_ttl_s:
        Passed through to :class:`~repro.core.cache.CachedIndex`
        (capacity, key rounding, optional entry TTL).

    Lifecycle
    ---------
    drain_grace_s:
        Upper bound on the graceful-drain wait (stop accepting, flush
        the batcher, answer in-flight requests) before the server gives
        up and closes remaining connections.

    Request-scoped telemetry
    ------------------------
    slow_ms:
        Requests slower than this are copied into the slow-query ring
        with their full span tree (``GET /debug/slow``).
    flight_records:
        Capacity of the flight-recorder ring (``GET /debug/requests``).
    slo_latency_ms / slo_target:
        The latency objective: ``slo_target`` of requests (e.g. 0.99)
        should finish within ``slo_latency_ms``.
    slo_error_target / slo_degraded_target:
        Good-fraction targets for the error (no 5xx) and degradation
        (full-quality answer) objectives.
    slo_fast_window_s / slo_window_s:
        The burn-rate windows: a fast window that reacts to incidents
        and the slow window that defines the objectives.
    """

    host: str = "127.0.0.1"
    port: int = 8171
    max_batch_size: int = 32
    max_batch_wait_us: int = 0
    max_inflight: int = 256
    max_queue_depth: int = 512
    retry_after_s: float = 0.05
    retry_jitter: float = 0.5
    deadline_ms: float | None = 250.0
    cache_entries: int = 4096
    cache_decimals: int = 3
    cache_ttl_s: float | None = None
    drain_grace_s: float = 10.0
    slow_ms: float = 100.0
    flight_records: int = 1024
    slo_latency_ms: float = 250.0
    slo_target: float = 0.99
    slo_error_target: float = 0.999
    slo_degraded_target: float = 0.99
    slo_fast_window_s: float = 60.0
    slo_window_s: float = 300.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_batch_wait_us < 0:
            raise ValueError(
                f"max_batch_wait_us must be >= 0, got {self.max_batch_wait_us}"
            )
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.retry_after_s < 0:
            raise ValueError(
                f"retry_after_s must be >= 0, got {self.retry_after_s}"
            )
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError(
                f"retry_jitter must lie in [0, 1], got {self.retry_jitter}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive or None, got {self.deadline_ms}"
            )
        if self.cache_entries < 1:
            raise ValueError(
                f"cache_entries must be >= 1, got {self.cache_entries}"
            )
        if self.cache_decimals < 1:
            raise ValueError(
                f"cache_decimals must be >= 1, got {self.cache_decimals}"
            )
        if self.cache_ttl_s is not None and self.cache_ttl_s <= 0:
            raise ValueError(
                f"cache_ttl_s must be positive or None, got {self.cache_ttl_s}"
            )
        if self.drain_grace_s <= 0:
            raise ValueError(
                f"drain_grace_s must be positive, got {self.drain_grace_s}"
            )
        if self.slow_ms <= 0:
            raise ValueError(f"slow_ms must be positive, got {self.slow_ms}")
        if self.flight_records < 1:
            raise ValueError(
                f"flight_records must be >= 1, got {self.flight_records}"
            )
        if self.slo_latency_ms <= 0:
            raise ValueError(
                f"slo_latency_ms must be positive, got {self.slo_latency_ms}"
            )
        for name in ("slo_target", "slo_error_target", "slo_degraded_target"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if not 0 < self.slo_fast_window_s <= self.slo_window_s:
            raise ValueError(
                "need 0 < slo_fast_window_s <= slo_window_s, got "
                f"{self.slo_fast_window_s} / {self.slo_window_s}"
            )

    @property
    def max_batch_wait_s(self) -> float:
        """The batching window in seconds (see ``max_batch_wait_us``)."""
        return self.max_batch_wait_us / 1e6


@dataclass(frozen=True)
class FleetConfig:
    """Tunables of the sharded serving fleet (:mod:`repro.serving.fleet`).

    Topology
    --------
    workers:
        Number of worker processes (shards).  Each worker runs a full
        :class:`~repro.serving.server.QueryServer` over the same
        shared-memory index and stays cache-hot on its affinity slice
        of the topic simplex.
    affinity_seed:
        Seed of the Dirichlet anchor draw that partitions the simplex
        into per-shard affinity regions (deterministic routing).

    Supervision
    -----------
    heartbeat_interval_s:
        How often each worker sends a heartbeat over its control pipe.
    heartbeat_timeout_s:
        Heartbeat staleness after which the supervisor declares a
        ready worker hung and recycles it (kill + respawn).
    probe_interval_s / probe_timeout_s:
        Cadence and deadline of the supervisor's HTTP ``/healthz``
        probes against ready workers (catches a worker whose event
        loop answers heartbeats but not requests).
    respawn_backoff_s:
        Minimum wall-clock gap between successive respawns of the same
        shard, so a crash-looping worker cannot spin the supervisor.
    max_respawns:
        Per-shard respawn budget; a shard that exhausts it is left
        down (its breaker stays open) rather than restarted forever.
        ``None`` = unlimited.

    Dispatch
    --------
    dispatch_timeout_s:
        Router-side deadline on one proxied worker call; an expired
        call counts as a shard failure and triggers re-dispatch.
    redispatch_attempts:
        How many *additional* sibling shards a request may be re-sent
        to after its first shard fails (at most once per shard).
    breaker_failures / breaker_cooloff_s:
        Per-shard :class:`~repro.resilience.CircuitBreaker` knobs:
        consecutive failures before the shard is shorted out, and the
        open-state cool-off before a half-open probe.

    Hedging
    -------
    hedge:
        Enable tail-latency hedging: when a dispatch exceeds the
        :class:`~repro.resilience.HedgePolicy` delay, duplicate it to
        the next-nearest healthy shard and answer with whichever
        returns first (queries are idempotent reads, so duplicates are
        safe).
    hedge_delay_ms:
        Fixed hedging delay; ``None`` derives it from the rolling p99
        (within ``HedgePolicy``'s default bounds).
    """

    workers: int = 2
    affinity_seed: int = 0
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 2.0
    probe_interval_s: float = 1.0
    probe_timeout_s: float = 1.0
    respawn_backoff_s: float = 0.05
    max_respawns: int | None = None
    dispatch_timeout_s: float = 5.0
    redispatch_attempts: int = 2
    breaker_failures: int = 3
    breaker_cooloff_s: float = 1.0
    hedge: bool = False
    hedge_delay_ms: float | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        for name in (
            "heartbeat_interval_s",
            "heartbeat_timeout_s",
            "probe_interval_s",
            "probe_timeout_s",
            "dispatch_timeout_s",
            "breaker_cooloff_s",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ValueError(
                "need heartbeat_timeout_s > heartbeat_interval_s, got "
                f"{self.heartbeat_timeout_s} / {self.heartbeat_interval_s}"
            )
        if self.respawn_backoff_s < 0:
            raise ValueError(
                f"respawn_backoff_s must be >= 0, got {self.respawn_backoff_s}"
            )
        if self.max_respawns is not None and self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0 or None, got {self.max_respawns}"
            )
        if self.redispatch_attempts < 0:
            raise ValueError(
                "redispatch_attempts must be >= 0, got "
                f"{self.redispatch_attempts}"
            )
        if self.breaker_failures < 1:
            raise ValueError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if self.hedge_delay_ms is not None and self.hedge_delay_ms <= 0:
            raise ValueError(
                "hedge_delay_ms must be positive or None, got "
                f"{self.hedge_delay_ms}"
            )


@dataclass(frozen=True)
class CampaignConfig:
    """Tunables of the campaign planner (:mod:`repro.campaign`).

    Oracle
    ------
    num_sets:
        RR sets sampled per item for the value oracle.  The planner
        reuses PR 7's :class:`~repro.im.imm.RRIndex`
        coverage recount; accuracy grows with the budget while cost is
        linear in it.
    oracle_cache_entries:
        Per-planner LRU capacity for sampled per-item oracles, keyed
        by the item's canonicalized topic distribution — repeated
        campaigns over a stable catalog skip resampling entirely.

    Allocation
    ----------
    algorithm:
        ``"lazy"`` (k-submodular lazy greedy with a per-(node, item)
        marginal-gain priority queue; 1/2-approximate under the
        partition matroid) or ``"threshold"`` (threshold greedy,
        ``(1/2 - epsilon)``-approximate, trading a little quality for
        a bounded number of full oracle sweeps).
    epsilon:
        Accuracy knob of the threshold algorithm in ``(0, 1)``: the
        acceptance threshold decays by ``(1 - epsilon)`` per sweep, so
        smaller values mean more sweeps and tighter allocations.
    max_items:
        Upper bound on campaign items accepted per request (B); guards
        the serving route against unbounded oracle sampling.

    Degradation
    -----------
    degraded_num_sets:
        Reduced per-item RR budget used once a request's deadline is
        in danger: oracles not yet sampled fall back to this budget,
        and an expired deadline downgrades the joint allocation to B
        independent per-item selections (flagged ``degraded``).

    Randomness
    ----------
    seed:
        Master seed of the per-item RR streams.  Streams are keyed by
        the item's distribution (not its position), so allocations are
        deterministic for any worker count and invariant under item
        permutation.
    """

    num_sets: int = 2000
    algorithm: str = "lazy"
    epsilon: float = 0.2
    max_items: int = 16
    oracle_cache_entries: int = 64
    degraded_num_sets: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sets < 2:
            raise ValueError(
                f"num_sets must be >= 2, got {self.num_sets}"
            )
        if self.algorithm not in CAMPAIGN_ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {CAMPAIGN_ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(
                f"epsilon must lie in (0, 1), got {self.epsilon}"
            )
        if self.max_items < 1:
            raise ValueError(
                f"max_items must be >= 1, got {self.max_items}"
            )
        if self.oracle_cache_entries < 1:
            raise ValueError(
                "oracle_cache_entries must be >= 1, got "
                f"{self.oracle_cache_entries}"
            )
        if self.degraded_num_sets < 2:
            raise ValueError(
                f"degraded_num_sets must be >= 2, got "
                f"{self.degraded_num_sets}"
            )


@dataclass(frozen=True)
class SketchConfig:
    """Tunables of the per-topic sketch bank (:mod:`repro.sketches`).

    Precomputation
    --------------
    num_sets:
        RR sets sampled per topic pool.  Pools are sampled under the
        single-topic item ``e_z`` with worker-count-invariant
        ``SeedSequence`` streams, so the bank is deterministic for any
        build parallelism.
    compose_sets:
        Default composition budget at query time — how many sets the
        ``gamma``-weighted mixture draws across the pools.  ``None``
        uses the full ``num_sets`` (which makes composing at a simplex
        vertex bit-identical to the vertex's own pool); smaller values
        trade accuracy for latency.

    Fallback
    --------
    fallback_divergence:
        KL-distance threshold of the degraded-answer upgrade: when a
        query's nearest index point is farther than this (or a
        deadline would force a nearest-neighbor fallback), the index
        answers from composed sketches instead, flagged
        ``algorithm="sketch:fallback"``.  ``None`` disables the
        distance trigger (the deadline trigger stays active whenever a
        bank is attached).

    Randomness
    ----------
    seed:
        Master seed of the per-topic RR streams (pool ``z`` draws from
        request ``z`` of this seed's stream family).
    """

    num_sets: int = 2000
    compose_sets: int | None = None
    fallback_divergence: float | None = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sets < 2:
            raise ValueError(
                f"num_sets must be >= 2, got {self.num_sets}"
            )
        if self.compose_sets is not None and not (
            1 <= self.compose_sets <= self.num_sets
        ):
            raise ValueError(
                "compose_sets must lie in [1, num_sets] or be None, got "
                f"{self.compose_sets}"
            )
        if (
            self.fallback_divergence is not None
            and self.fallback_divergence <= 0
        ):
            raise ValueError(
                "fallback_divergence must be positive or None, got "
                f"{self.fallback_divergence}"
            )

    @property
    def effective_compose_sets(self) -> int:
        """``compose_sets`` resolved (``None`` = the full pool)."""
        if self.compose_sets is None:
            return self.num_sets
        return self.compose_sets


#: Paper-faithful parameter set (expensive: hours of precomputation even
#: with the RIS engine at full scale — provided for completeness).
PAPER_CONFIG = InflexConfig(
    num_index_points=1000,
    num_dirichlet_samples=100000,
    seed_list_length=50,
    knn=10,
    max_leaves=5,
)
