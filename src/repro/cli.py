"""Command-line interface: generate, build, query, experiment.

Usage (after ``pip install -e .``)::

    repro-inflex generate --out data/ --nodes 1000 --topics 6 --items 300
    repro-inflex build    --data data/ --out data/index.npz --index-points 64
    repro-inflex query    --data data/ --index data/index.npz \
                          --gamma 0.6,0.2,0.05,0.05,0.05,0.05 --k 10
    repro-inflex query    --data data/ --index data/index.npz \
                          --item 3 --k 10 --profile
    repro-inflex obs      --data data/ --index data/index.npz --queries 64
    repro-inflex spread   --data data/ --item 3 --seeds 1,2,3 \
                          --sim-workers auto
    repro-inflex experiment fig6 --scale test
    repro-inflex campaign --data data/ --items 4 --k 20 \
                          --compare-independent
    repro-inflex autosize --data data/
    repro-inflex serve    --data data/ --index data/index.npz --port 8171
    repro-inflex loadgen  --port 8171 --duration 5 --out BENCH_serving.json
    repro-inflex top      --port 8171 --interval 2
    repro-inflex stream   --data data/ --index data/index.npz \
                          --batches 20 --batch-size 8 --out stream_report.json

``build``, ``experiment`` and ``spread`` accept ``--sim-workers`` (and
``build`` additionally ``--workers``) to parallelize Monte-Carlo spread
estimation; see ``docs/PARALLELISM.md``.

``query --profile`` / ``experiment --profile`` enable observability,
print a per-phase breakdown, and write a Chrome-loadable trace file;
``obs`` runs a query workload and dumps the metrics snapshot (JSON or
Prometheus text).  See ``docs/OBSERVABILITY.md``.

``query --deadline-ms`` bounds a query's wall clock (an expired query
degrades to the nearest neighbor's list), and ``build`` / ``spread``
accept ``--faults`` with a deterministic fault-plan spec (same grammar
as the ``REPRO_FAULTS`` environment variable) for chaos testing; see
``docs/RESILIENCE.md``.

``serve`` runs the concurrent HTTP query service (micro-batching,
admission control, result cache, graceful SIGTERM drain) and
``loadgen`` drives it with a seeded synthetic workload, reporting
latency quantiles, throughput, shed rate, and cache-hit rate; see
``docs/SERVING.md``.  ``serve --workers N`` (N > 1) runs the
supervised sharded fleet instead — a router process in front of N
worker processes attached to one shared-memory index copy, with
heartbeat supervision, crash-safe respawn, circuit breakers,
re-dispatch, and optional tail-latency hedging (``--hedge``); ``fleet``
renders a running router's ``/fleet`` status.  See ``docs/FLEET.md``.
``serve --stream`` additionally enables the evolving-graph routes
(``/deltas``, ``/subscriptions``).  ``serve``
also exposes the request-scoped telemetry surfaces —
``/debug/requests``, ``/debug/slow``, ``/debug/slo`` — tunable via
``--slow-ms`` / ``--flight-records`` / ``--slo-latency-ms`` /
``--slo-target``, with ``--log-json`` switching on structured JSON
logs; ``top`` renders a live terminal view over a running server's
``/metrics``.  See ``docs/OBSERVABILITY.md``.

``stream`` replays an edge-delta workload (generated or loaded from a
delta log) against a built index with incremental sketch maintenance,
reporting per-batch churn and latency tables; see
``docs/STREAMING.md``.

``campaign`` allocates one shared seed budget across several items at
once via k-submodular greedy over per-item RR-set oracles
(``--compare-independent`` also runs the per-item baseline and prints
the joint uplift); ``serve`` exposes the same planner on ``POST
/campaign`` and ``loadgen --campaign-mix`` blends campaign traffic
into the synthetic load.  See ``docs/CAMPAIGNS.md``.

All subcommands operate on a data directory holding ``graph.npz`` (the
topic graph) and ``catalog.npy`` (item topic distributions), plus an
optional ``log.txt`` propagation log.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

# Each command imports the modules only it uses, so a process loads
# just what its command runs.
from repro.core import IM_ENGINES, InflexConfig, ServingConfig
from repro.graph import load_graph

#: Query strategies accepted by ``query``, ``obs``, and ``loadgen``.
#: ``sketch`` needs a per-topic sketch bank (``build --sketches``)
#: loaded alongside the index.
_STRATEGY_CHOICES = (
    "inflex",
    "exact-knn",
    "approx-knn",
    "approx-knn-sel",
    "approx-ad",
    "sketch",
)


def _sketches_path_for(index_path) -> Path:
    """The default sketch-bank path next to an index file.

    ``index.npz`` -> ``index.sketches.npz`` — the colocation contract
    shared by ``build --sketches``, ``query``, and ``serve``.
    """
    path = Path(index_path)
    return path.with_name(path.stem + ".sketches.npz")


def _load_sketches_into(index, sketches_arg, index_path) -> bool:
    """Attach a sketch bank to ``index`` if one is given or colocated.

    An explicit ``--sketches`` path must exist (load errors propagate);
    otherwise the default colocated path is tried and silently skipped
    when absent.  Returns whether a bank was attached.
    """
    from repro.sketches import load_sketches

    if sketches_arg is not None:
        path = Path(sketches_arg)
    else:
        path = _sketches_path_for(index_path)
        if not path.exists():
            return False
    index.attach_sketches(load_sketches(path))
    return True


#: Experiment name -> module (resolved lazily to keep startup fast).
_EXPERIMENTS = (
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "table3",
    "significance",
    "workload_split",
    "latency",
    "scaling",
    "engine_equivalence",
)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import generate_flixster_like
    from repro.graph import save_graph

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = generate_flixster_like(
        num_nodes=args.nodes,
        num_topics=args.topics,
        num_items=args.items,
        topics_per_node=args.topics_per_node,
        base_strength=args.base_strength,
        with_log=args.with_log,
        seed=args.seed,
    )
    save_graph(data.graph, out / "graph.npz")
    np.save(out / "catalog.npy", data.item_topics)
    if data.log is not None:
        data.log.save(out / "log.txt")
    print(
        f"generated {data.graph} with a {data.num_items}-item catalog "
        f"into {out}/"
    )
    return 0


def _apply_faults(args: argparse.Namespace) -> None:
    """Install the ``--faults`` plan (if any) as the process-wide plan."""
    spec = getattr(args, "faults", None)
    if spec:
        from repro.resilience import parse_fault_plan, set_fault_plan

        set_fault_plan(parse_fault_plan(spec))


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core import InflexIndex, save_index

    _apply_faults(args)
    data_dir = Path(args.data)
    graph = load_graph(data_dir / "graph.npz")
    catalog = np.load(data_dir / "catalog.npy")
    config = InflexConfig(
        num_index_points=args.index_points,
        num_dirichlet_samples=args.dirichlet_samples,
        seed_list_length=args.seed_list_length,
        im_engine=args.engine,
        ris_num_sets=args.ris_sets,
        num_simulations=args.num_simulations,
        imm_epsilon=args.epsilon,
        imm_delta=args.delta,
        workers=args.workers,
        simulation_workers=args.sim_workers,
        seed=args.seed,
    )
    start = time.perf_counter()
    index = InflexIndex.build(
        graph,
        catalog,
        config,
        progress=lambda stage, done, total: print(
            f"  [{stage}] {done}/{total}", end="\r"
        ),
    )
    print()
    save_index(index, args.out)
    print(
        f"built {index} in {time.perf_counter() - start:.1f}s -> {args.out}"
    )
    if args.sketches:
        from repro.core import SketchConfig
        from repro.sketches import SketchBank, save_sketches

        sketch_config = SketchConfig(
            num_sets=args.sketch_sets,
            fallback_divergence=(
                args.sketch_fallback if args.sketch_fallback > 0 else None
            ),
            seed=args.seed,
        )
        start = time.perf_counter()
        bank = SketchBank.build(graph, sketch_config, workers=config.workers)
        sketches_out = (
            args.sketches_out
            if args.sketches_out
            else _sketches_path_for(args.out)
        )
        save_sketches(bank, sketches_out)
        print(
            f"built sketch bank ({bank.num_topics} topics x "
            f"{bank.num_sets} sets, {bank.nbytes / 1e6:.1f} MB) in "
            f"{time.perf_counter() - start:.1f}s -> {sketches_out}"
        )
    return 0


def _parse_gamma(text: str) -> np.ndarray:
    values = np.asarray([float(x) for x in text.split(",")])
    total = values.sum()
    if total <= 0:
        raise argparse.ArgumentTypeError(
            "gamma components must have a positive sum"
        )
    return values / total


def _start_profiling():
    from repro import obs

    obs.enable()
    obs.get_registry().reset()
    obs.get_tracer().clear()
    return obs


def _write_trace(obs_module, trace_out: str) -> None:
    count = obs_module.get_tracer().write_chrome_trace(trace_out)
    print(
        f"trace written to {trace_out} ({count} spans; load at "
        "chrome://tracing or ui.perfetto.dev)"
    )


def _print_answer_profile(answer) -> None:
    timing = answer.timing
    print("per-phase breakdown:")
    for phase, seconds in (
        ("search", timing.search),
        ("selection", timing.selection),
        ("aggregation", timing.aggregation),
        ("total", timing.total),
    ):
        print(f"  {phase:<12} {seconds * 1000:9.3f} ms")
    stats = answer.search_stats
    if stats is not None:
        flags = []
        if stats.epsilon_match:
            flags.append("epsilon-match")
        if stats.stopped_early:
            flags.append("early-stop")
        print(
            f"  search stats: leaves={stats.leaves_visited} "
            f"divergences={stats.divergence_computations} "
            f"pruned={stats.nodes_pruned}"
            + (f" ({', '.join(flags)})" if flags else "")
        )


def _print_phase_summary(obs_module) -> None:
    """Aggregate per-phase latency quantiles from the registry."""
    snapshot = obs_module.get_registry().snapshot()
    series = snapshot["repro_query_phase_seconds"]["series"]
    if not any(entry["value"]["count"] for entry in series):
        return
    print("query phase latencies (aggregate):")
    print(f"  {'phase':<12} {'count':>6} {'p50 ms':>9} {'p90 ms':>9} {'p99 ms':>9}")
    for entry in series:
        value = entry["value"]
        if not value["count"]:
            continue
        print(
            f"  {entry['labels']['phase']:<12} {value['count']:>6} "
            f"{value['p50'] * 1000:>9.3f} {value['p90'] * 1000:>9.3f} "
            f"{value['p99'] * 1000:>9.3f}"
        )


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core import load_index

    data_dir = Path(args.data)
    graph = load_graph(data_dir / "graph.npz")
    index = load_index(args.index, graph)
    _load_sketches_into(index, args.sketches, args.index)
    if args.gamma is not None:
        gamma = _parse_gamma(args.gamma)
    else:
        catalog = np.load(data_dir / "catalog.npy")
        gamma = catalog[args.item]
    obs_module = _start_profiling() if args.profile else None
    context = None
    if obs_module is not None:
        from repro.obs import context as _ctx

        context = _ctx.new_request_context()
        with _ctx.bind(context):
            answer = index.query(
                gamma,
                args.k,
                strategy=args.strategy,
                deadline_ms=args.deadline_ms,
            )
    else:
        answer = index.query(
            gamma,
            args.k,
            strategy=args.strategy,
            deadline_ms=args.deadline_ms,
        )
    print(f"query gamma: {np.round(gamma, 4)}")
    print(f"strategy: {answer.strategy}")
    print(f"seeds (ranked): {list(answer.seeds)}")
    notes = ""
    if answer.epsilon_match:
        notes = " (epsilon-exact hit)"
    elif answer.degraded:
        notes = (
            f" (DEGRADED: {answer.reason}; answered by "
            f"{answer.seeds.algorithm})"
        )
    print(
        f"evaluated in {answer.timing.total * 1000:.2f} ms using "
        f"{answer.num_neighbors_used} index lists" + notes
    )
    if obs_module is not None:
        print(f"trace id: {context.trace_id}")
        _print_answer_profile(answer)
        _write_trace(obs_module, args.trace_out)
    return 0


def _cmd_spread(args: argparse.Namespace) -> int:
    from repro.propagation import estimate_spread

    _apply_faults(args)
    data_dir = Path(args.data)
    graph = load_graph(data_dir / "graph.npz")
    if args.gamma is not None:
        gamma = _parse_gamma(args.gamma)
    else:
        catalog = np.load(data_dir / "catalog.npy")
        gamma = catalog[args.item]
    seeds = [int(x) for x in args.seeds.split(",")]
    if args.engine == "rr":
        from repro.im import sample_rr_index

        if args.num_sets < 2:
            raise SystemExit(
                f"--num-sets must be >= 2, got {args.num_sets}"
            )
        start = time.perf_counter()
        index = sample_rr_index(
            graph,
            gamma,
            args.num_sets,
            workers=args.sim_workers,
            seed=args.seed,
        )
        spread = index.spread_of(seeds)
        elapsed = time.perf_counter() - start
        print(f"seeds: {seeds}")
        print(f"spread: {spread:.3f} ({index.num_sets} RR sets)")
        print(f"estimated in {elapsed * 1000:.1f} ms")
        return 0
    start = time.perf_counter()
    estimate = estimate_spread(
        graph,
        gamma,
        seeds,
        num_simulations=args.num_simulations,
        seed=args.seed,
        workers=args.sim_workers,
    )
    elapsed = time.perf_counter() - start
    print(f"seeds: {seeds}")
    print(
        f"spread: {estimate.mean:.3f} +/- {estimate.standard_error:.3f} "
        f"(std {estimate.std:.3f}, {estimate.num_simulations} simulations)"
    )
    print(f"estimated in {elapsed * 1000:.1f} ms")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.campaign import CampaignPlanner
    from repro.core import CampaignConfig

    _apply_faults(args)
    data_dir = Path(args.data)
    graph = load_graph(data_dir / "graph.npz")
    catalog = np.load(data_dir / "catalog.npy")
    if args.item_ids:
        ids = [int(x) for x in args.item_ids.split(",")]
        for item_id in ids:
            if not 0 <= item_id < catalog.shape[0]:
                raise SystemExit(
                    f"--item-ids: {item_id} outside the "
                    f"{catalog.shape[0]}-item catalog"
                )
        gammas = [catalog[item_id] for item_id in ids]
        labels = [f"item {item_id}" for item_id in ids]
    else:
        rng = np.random.default_rng(args.seed)
        gammas = list(
            rng.dirichlet(
                np.full(catalog.shape[1], args.alpha), size=args.items
            )
        )
        labels = [f"draw {i}" for i in range(args.items)]
    config = CampaignConfig(
        num_sets=args.num_sets,
        algorithm=args.algorithm,
        epsilon=args.epsilon,
        max_items=max(len(gammas), 1),
        seed=args.seed,
    )
    with CampaignPlanner(graph, config, workers=args.workers) as planner:
        start = time.perf_counter()
        allocation = planner.allocate(gammas, args.k)
        joint_ms = (time.perf_counter() - start) * 1000.0
        print(
            f"campaign: {len(gammas)} items, total budget k={args.k}, "
            f"algorithm {allocation.algorithm} "
            f"({config.num_sets} RR sets/item)"
        )
        for label, nodes, gains in zip(
            labels, allocation.assignments, allocation.gains
        ):
            print(
                f"  {label:<10} seeds={list(nodes)} "
                f"gains={[round(g, 2) for g in gains]}"
            )
        print(
            f"total spread: {allocation.total_spread:.3f} "
            f"({joint_ms:.1f} ms)"
        )
        payload = {
            "labels": labels,
            "joint": allocation.to_dict(),
            "joint_ms": joint_ms,
        }
        if args.compare_independent:
            start = time.perf_counter()
            baseline = planner.allocate_independent(gammas, args.k)
            indep_ms = (time.perf_counter() - start) * 1000.0
            uplift = (
                allocation.total_spread / baseline.total_spread - 1.0
                if baseline.total_spread > 0
                else 0.0
            )
            print(
                f"independent baseline: {baseline.total_spread:.3f} "
                f"({indep_ms:.1f} ms); joint uplift {uplift * 100:+.2f}%"
            )
            payload["independent"] = baseline.to_dict()
            payload["independent_ms"] = indep_ms
            payload["uplift"] = uplift
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"report written to {args.out}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro import experiments

    modules = {
        "fig3": experiments.fig3_index_selection,
        "fig4": experiments.fig4_distance_correlation,
        "fig5": experiments.fig5_retrieval_recall,
        "fig6": experiments.fig6_accuracy,
        "fig7": experiments.fig7_runtime,
        "fig8": experiments.fig8_spread,
        "fig9": experiments.fig9_tradeoff,
        "table1": experiments.table1_aggregation,
        "table3": experiments.table3_spread_by_k,
        "significance": experiments.significance,
        "workload_split": experiments.workload_split,
        "latency": experiments.latency,
        "scaling": experiments.scaling,
        "engine_equivalence": experiments.engine_equivalence,
    }
    obs_module = _start_profiling() if args.profile else None
    context = experiments.get_context(args.scale)
    if args.sim_workers is not None:
        from repro.workers import resolve_workers

        context.sim_workers = resolve_workers(
            args.sim_workers, name="--sim-workers"
        )
    result = modules[args.name].run(context)
    print(result.render())
    if obs_module is not None:
        _print_phase_summary(obs_module)
        _write_trace(obs_module, args.trace_out)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.core import load_index

    obs_module = _start_profiling()
    data_dir = Path(args.data)
    graph = load_graph(data_dir / "graph.npz")
    index = load_index(args.index, graph)
    _load_sketches_into(index, args.sketches, args.index)
    catalog = np.load(data_dir / "catalog.npy")
    rows = catalog[np.arange(args.queries) % catalog.shape[0]]
    from repro.obs import context as _ctx

    with _ctx.bind(_ctx.new_request_context()):
        index.query_batch(rows, args.k, strategy=args.strategy)
    registry = obs_module.get_registry()
    text = (
        registry.to_json()
        if args.format == "json"
        else registry.to_prometheus()
    )
    if args.out:
        Path(args.out).write_text(text)
        print(f"metrics snapshot written to {args.out}")
    else:
        print(text)
    if args.trace_out:
        _write_trace(obs_module, args.trace_out)
    if args.reset:
        registry.reset()
        obs_module.get_tracer().clear()
        print("metrics registry and trace buffer reset")
    return 0


def _serving_config(args: argparse.Namespace) -> ServingConfig:
    """The :class:`ServingConfig` a parsed ``serve`` command line asks for."""
    return ServingConfig(
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        max_batch_wait_us=args.max_batch_wait_us,
        max_inflight=args.max_inflight,
        max_queue_depth=args.max_queue_depth,
        deadline_ms=args.deadline_ms,
        cache_entries=args.cache_entries,
        cache_ttl_s=args.cache_ttl,
        slow_ms=args.slow_ms,
        flight_records=args.flight_records,
        slo_latency_ms=args.slo_latency_ms,
        slo_target=args.slo_target,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core import load_index
    from repro.serving import QueryServer, serve

    data_dir = Path(args.data)
    graph = load_graph(data_dir / "graph.npz")
    index = load_index(args.index, graph)
    if _load_sketches_into(index, args.sketches, args.index):
        bank = index.sketches
        print(
            f"sketch bank attached: {bank.num_topics} topics x "
            f"{bank.num_sets} sets (strategy=sketch enabled)",
            flush=True,
        )
    if not args.no_obs:
        from repro import obs

        obs.enable()
    if args.log_json:
        from repro.obs.logs import configure_json_logging

        configure_json_logging()
    streaming = None
    if args.stream:
        from repro.streaming import StreamingEngine

        streaming = StreamingEngine(
            index,
            num_sets=args.stream_sets,
            decay_rate=args.decay_rate,
        )
        # The engine serves its own index; holding the loaded one here
        # would keep the loaded graph alive after the first batch.
        graph = index = None
    config = _serving_config(args)
    campaign = None
    if args.campaign_sets is not None:
        from repro.core import CampaignConfig

        campaign = CampaignConfig(num_sets=args.campaign_sets)

    def ready(front) -> None:
        print(
            f"serving {front.index} on {config.host}:{front.port} "
            f"(SIGTERM drains gracefully)",
            flush=True,
        )

    if args.workers > 1:
        if streaming is not None:
            print(
                "error: --stream requires a single worker "
                "(omit --workers)",
                file=sys.stderr,
            )
            return 2
        from repro.core import FleetConfig
        from repro.serving import Fleet

        fleet_config = FleetConfig(
            workers=args.workers,
            affinity_seed=args.affinity_seed,
            heartbeat_interval_s=args.heartbeat_interval,
            heartbeat_timeout_s=args.heartbeat_timeout,
            respawn_backoff_s=args.respawn_backoff,
            max_respawns=args.max_respawns,
            dispatch_timeout_s=args.dispatch_timeout,
            redispatch_attempts=args.redispatch_attempts,
            breaker_failures=args.breaker_failures,
            breaker_cooloff_s=args.breaker_cooloff,
            hedge=args.hedge,
            hedge_delay_ms=args.hedge_delay_ms,
        )
        front = Fleet(index, config, fleet_config, campaign=campaign)
    else:
        front = QueryServer(
            index, config, streaming=streaming, campaign=campaign
        )
    asyncio.run(serve(front, ready=ready))
    print("drained; all accepted requests answered", flush=True)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Render a running fleet router's ``/fleet`` status."""
    import json
    import urllib.request

    url = f"http://{args.host}:{args.port}/fleet"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            status = json.loads(resp.read().decode("utf-8"))
    except OSError as exc:
        print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=2))
        return 0
    dispatch = status.get("dispatch", {})
    print(
        f"fleet: draining={status.get('draining')} "
        f"accepted={dispatch.get('accepted')} "
        f"answered={dispatch.get('answered')} "
        f"shed={dispatch.get('shed')} "
        f"redispatched={dispatch.get('redispatched')} "
        f"hedged={dispatch.get('hedged')}"
    )
    hedge = status.get("hedge", {})
    if hedge.get("enabled"):
        print(f"hedge: {hedge}")
    header = f"{'shard':>5} {'state':>8} {'port':>6} {'gen':>4} {'restarts':>8} {'breaker':>10} {'hb_age_s':>9}"
    print(header)
    for worker in status.get("workers", []):
        age = worker.get("heartbeat_age_s")
        print(
            f"{worker.get('shard'):>5} {worker.get('state'):>8} "
            f"{str(worker.get('port')):>6} {worker.get('generation'):>4} "
            f"{worker.get('restarts'):>8} "
            f"{worker.get('breaker', {}).get('state'):>10} "
            f"{age if age is None else format(age, '.2f'):>9}"
        )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serving import run_loadgen

    index_points = None
    if args.far_mix > 0.0:
        if args.index is None:
            print(
                "error: --far-mix needs --index (the served index's "
                ".npz) to rank candidate queries by min-KL distance",
                file=sys.stderr,
            )
            return 2
        with np.load(args.index, allow_pickle=False) as data:
            index_points = np.array(data["index_points"])
    report = asyncio.run(
        run_loadgen(
            args.host,
            args.port,
            mode=args.mode,
            duration_s=args.duration,
            concurrency=args.concurrency,
            qps=args.qps,
            k=args.k,
            strategy=args.strategy,
            deadline_ms=args.deadline_ms,
            num_topics=args.topics,
            num_distinct=args.distinct,
            alpha=args.alpha,
            skew=args.skew,
            seed=args.seed,
            campaign_mix=args.campaign_mix,
            campaign_items=args.campaign_items,
            campaign_k=args.campaign_k,
            far_mix=args.far_mix,
            index_points=index_points,
        )
    )
    print(report.render())
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2))
        print(f"report written to {args.out}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serving.topview import run_top

    return run_top(
        args.host,
        args.port,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


def _cmd_stream(args: argparse.Namespace) -> int:
    import json

    from repro.core import load_index
    from repro.datasets import generate_delta_workload
    from repro.experiments.reporting import format_table
    from repro.streaming import DeltaLog, StreamingEngine

    _apply_faults(args)
    obs_module = _start_profiling()
    data_dir = Path(args.data)
    graph = load_graph(data_dir / "graph.npz")
    index = load_index(args.index, graph)
    # A colocated sketch bank is maintained too, as under serve --stream.
    _load_sketches_into(index, None, args.index)
    if args.log:
        log = DeltaLog.load(args.log)
        print(f"replaying {log!r} from {args.log}")
    else:
        log = generate_delta_workload(
            graph,
            args.batches,
            args.batch_size,
            time_step=args.time_step,
            seed=args.seed,
        )
        print(
            f"generated a synthetic stream: {len(log)} batches, "
            f"{log.num_deltas} deltas (seed {args.seed})"
        )
    if args.save_log:
        log.save(args.save_log)
        print(f"delta log saved to {args.save_log}")
    engine = StreamingEngine(
        index,
        num_sets=args.num_sets,
        seed=args.seed,
        decay_rate=args.decay_rate,
        workers=args.workers,
    )
    catalog = np.load(data_dir / "catalog.npy")
    for i in range(args.subscriptions):
        engine.subscribe(catalog[i % catalog.shape[0]], args.k)
    rows = []
    batch_records = []
    for batch in log:
        start = time.perf_counter()
        report, updates = engine.apply(batch)
        latency_ms = (time.perf_counter() - start) * 1000.0
        mean_tau = (
            float(np.mean([u.kendall_tau for u in updates]))
            if updates
            else 0.0
        )
        rows.append(
            (
                report.batch_id,
                report.num_deltas,
                report.rr_sets_resampled,
                report.rr_sets_retained,
                len(report.changed_points),
                len(updates),
                mean_tau,
                latency_ms,
            )
        )
        batch_records.append(
            {
                "report": report.to_dict(),
                "updates": [u.to_dict() for u in updates],
                "latency_ms": latency_ms,
            }
        )
    print(
        format_table(
            (
                "batch",
                "deltas",
                "resampled",
                "retained",
                "changed pts",
                "updates",
                "mean tau",
                "ms",
            ),
            rows,
            title="delta replay",
        )
    )
    stats = engine.stats()
    maintainer = stats["maintainer"]
    print(
        f"retained {maintainer['rr_sets_retained']} of "
        f"{maintainer['rr_sets_retained'] + maintainer['rr_sets_resampled']} "
        f"RR-set refreshes "
        f"({maintainer['retain_fraction'] * 100:.1f}% incremental win); "
        f"{stats['subscriptions']['updates_emitted']} subscription "
        "updates emitted"
    )
    snapshot = obs_module.get_registry().snapshot()

    def counter_total(name: str) -> float:
        family = snapshot.get(name)
        if not family:
            return 0.0
        return float(sum(s["value"] for s in family["series"]))

    metrics = {
        name: counter_total(name)
        for name in (
            "repro_stream_batches_applied_total",
            "repro_stream_deltas_applied_total",
            "repro_stream_rr_sets_resampled_total",
            "repro_stream_rr_sets_retained_total",
            "repro_stream_subscription_evals_total",
            "repro_stream_updates_total",
        )
    }
    if args.out:
        payload = {
            "batches": batch_records,
            "stats": stats,
            "metrics": metrics,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"report written to {args.out}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.graph import summarize_graph

    graph = load_graph(Path(args.data) / "graph.npz")
    print(summarize_graph(graph).render())
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro import experiments
    from repro.experiments.runner import run_all

    context = experiments.get_context(args.scale)
    run_all(
        context,
        args.out,
        only=args.only or None,
        progress=lambda name, done, total: print(
            f"  [{done}/{total}] {name}"
        ),
    )
    print(f"results written to {args.out}/")
    return 0


def _cmd_autosize(args: argparse.Namespace) -> int:
    from repro.core import auto_size_index

    catalog = np.load(Path(args.data) / "catalog.npy")
    result = auto_size_index(
        catalog,
        candidate_sizes=tuple(args.sizes),
        improvement_tolerance=args.tolerance,
        seed=args.seed,
    )
    print(result.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-inflex",
        description="INFLEX: online topic-aware influence maximization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--nodes", type=int, default=1000)
    gen.add_argument("--topics", type=int, default=6)
    gen.add_argument("--items", type=int, default=300)
    gen.add_argument("--topics-per-node", type=int, default=1)
    gen.add_argument("--base-strength", type=float, default=0.2)
    gen.add_argument("--with-log", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    build = sub.add_parser("build", help="build an INFLEX index")
    build.add_argument("--data", required=True, help="dataset directory")
    build.add_argument("--out", required=True, help="index output path")
    build.add_argument("--index-points", type=int, default=64)
    build.add_argument("--dirichlet-samples", type=int, default=8000)
    build.add_argument("--seed-list-length", type=int, default=30)
    build.add_argument(
        "--engine",
        default=InflexConfig.im_engine,
        choices=IM_ENGINES,
        help="seed-extraction engine: imm (the default, as in "
        "InflexConfig; martingale RIS with a (1-1/e-eps) guarantee), "
        "ris (fixed-budget sampling), celf++ "
        "on live-edge snapshots, or celf++-mc on the parallel "
        "Monte-Carlo spread oracle",
    )
    build.add_argument("--ris-sets", type=int, default=6000)
    build.add_argument(
        "--num-simulations",
        type=int,
        default=200,
        help="Monte-Carlo cascades per spread evaluation (celf++-mc)",
    )
    build.add_argument(
        "--epsilon",
        type=float,
        default=0.1,
        help="IMM approximation slack in (0, 1); the RR budget grows "
        "as epsilon^-2 (imm engine only)",
    )
    build.add_argument(
        "--delta",
        type=float,
        default=None,
        help="IMM failure probability in (0, 1); default 1/num_nodes "
        "(imm engine only)",
    )
    build.add_argument(
        "--workers",
        default="1",
        help="index-point pool width: a positive int or 'auto'",
    )
    build.add_argument(
        "--sim-workers",
        default=None,
        help="simulation pool width: int, 'auto', or unset to follow "
        "REPRO_SIM_WORKERS",
    )
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--sketches",
        action="store_true",
        help="also precompute the per-topic composable RR sketch bank "
        "(enables strategy=sketch and the distance-fallback upgrade; "
        "see docs/SKETCHES.md)",
    )
    build.add_argument(
        "--sketch-sets",
        type=int,
        default=2000,
        help="RR sets per topic pool in the sketch bank",
    )
    build.add_argument(
        "--sketch-fallback",
        type=float,
        default=1.0,
        help="KL-divergence threshold beyond which serving upgrades a "
        "degraded answer to a composed-sketch answer (<=0 disables)",
    )
    build.add_argument(
        "--sketches-out",
        default=None,
        help="sketch-bank output path (default: <out>.sketches.npz "
        "next to the index)",
    )
    build.add_argument(
        "--faults",
        default=None,
        help="deterministic fault-plan spec for chaos testing "
        "(REPRO_FAULTS grammar, e.g. 'chunk:mode=crash:rate=0.02')",
    )
    build.set_defaults(func=_cmd_build)

    spread = sub.add_parser(
        "spread", help="spread estimate of a seed set (MC or RR sets)"
    )
    spread.add_argument("--data", required=True, help="dataset directory")
    group = spread.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--gamma", help="comma-separated topic mix (normalized)"
    )
    group.add_argument(
        "--item", type=int, help="catalog item id to use as the item"
    )
    spread.add_argument(
        "--seeds", required=True, help="comma-separated seed node ids"
    )
    spread.add_argument(
        "--engine",
        default="mc",
        choices=("mc", "rr"),
        help="estimator: mc (forward Monte-Carlo cascades) or rr "
        "(reverse-reachable set coverage)",
    )
    spread.add_argument("--num-simulations", type=int, default=500)
    spread.add_argument(
        "--num-sets",
        type=int,
        default=5000,
        help="RR sets for --engine rr (at least 2)",
    )
    spread.add_argument(
        "--sim-workers",
        default=None,
        help="simulation pool width: int, 'auto', or unset to follow "
        "REPRO_SIM_WORKERS",
    )
    spread.add_argument("--seed", type=int, default=0)
    spread.add_argument(
        "--faults",
        default=None,
        help="deterministic fault-plan spec for chaos testing "
        "(REPRO_FAULTS grammar, e.g. 'chunk:mode=crash:rate=0.02')",
    )
    spread.set_defaults(func=_cmd_spread)

    campaign = sub.add_parser(
        "campaign",
        help="allocate one seed budget across several items "
        "(k-submodular greedy over RR-set oracles)",
    )
    campaign.add_argument(
        "--data", required=True, help="dataset directory"
    )
    group = campaign.add_mutually_exclusive_group()
    group.add_argument(
        "--items",
        type=int,
        default=3,
        help="number of campaign items drawn Dirichlet(alpha) "
        "from the catalog's topic space",
    )
    group.add_argument(
        "--item-ids",
        help="comma-separated catalog item ids to use as the campaign "
        "(instead of Dirichlet draws)",
    )
    campaign.add_argument(
        "--k", type=int, default=10, help="total seed budget"
    )
    campaign.add_argument(
        "--algorithm",
        default="lazy",
        choices=("lazy", "threshold"),
        help="lazy k-submodular greedy (1/2-approx) or threshold "
        "greedy (1/2 - epsilon, fewer oracle calls)",
    )
    campaign.add_argument(
        "--epsilon",
        type=float,
        default=0.2,
        help="threshold-greedy accuracy knob in (0, 1)",
    )
    campaign.add_argument(
        "--num-sets",
        type=int,
        default=2000,
        help="RR sets sampled per distinct item oracle (at least 2)",
    )
    campaign.add_argument(
        "--alpha",
        type=float,
        default=0.8,
        help="Dirichlet concentration for --items draws",
    )
    campaign.add_argument(
        "--workers",
        default=None,
        help="RR sampling pool width: int, 'auto', or unset to follow "
        "REPRO_SIM_WORKERS (allocations are worker-count invariant)",
    )
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument(
        "--compare-independent",
        action="store_true",
        help="also run B independent per-item allocations at the same "
        "total budget and print the joint uplift",
    )
    campaign.add_argument(
        "--out", help="write the JSON report here (e.g. campaign.json)"
    )
    campaign.add_argument(
        "--faults",
        default=None,
        help="deterministic fault-plan spec for chaos testing "
        "(REPRO_FAULTS grammar, e.g. 'chunk:mode=crash:rate=0.02')",
    )
    campaign.set_defaults(func=_cmd_campaign)

    query = sub.add_parser("query", help="answer a TIM query")
    query.add_argument("--data", required=True, help="dataset directory")
    query.add_argument("--index", required=True, help="index .npz path")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--gamma", help="comma-separated topic mix (normalized)"
    )
    group.add_argument(
        "--item", type=int, help="catalog item id to use as the query"
    )
    query.add_argument("--k", type=int, default=10)
    query.add_argument(
        "--strategy",
        default="inflex",
        choices=_STRATEGY_CHOICES,
    )
    query.add_argument(
        "--sketches",
        default=None,
        help="sketch-bank .npz for strategy=sketch and the distance "
        "fallback (default: <index>.sketches.npz when present)",
    )
    query.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="wall-clock budget for the query in milliseconds; on "
        "expiry the answer degrades to the nearest neighbor's list",
    )
    query.add_argument(
        "--profile",
        action="store_true",
        help="enable observability, print a per-phase breakdown, and "
        "write a Chrome trace file",
    )
    query.add_argument(
        "--trace-out",
        default="trace.json",
        help="Chrome trace output path used with --profile",
    )
    query.set_defaults(func=_cmd_query)

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", choices=_EXPERIMENTS)
    exp.add_argument(
        "--scale", default="test", choices=("test", "demo", "paper-shape")
    )
    exp.add_argument(
        "--profile",
        action="store_true",
        help="enable observability, print aggregate phase latencies, "
        "and write a Chrome trace file",
    )
    exp.add_argument(
        "--trace-out",
        default="trace.json",
        help="Chrome trace output path used with --profile",
    )
    exp.add_argument(
        "--sim-workers",
        default=None,
        help="simulation pool width for spread estimation: int, "
        "'auto', or unset to follow REPRO_SIM_WORKERS",
    )
    exp.set_defaults(func=_cmd_experiment)

    obs_cmd = sub.add_parser(
        "obs",
        help="run a query workload with observability on and dump the "
        "metrics snapshot",
    )
    obs_cmd.add_argument("--data", required=True, help="dataset directory")
    obs_cmd.add_argument("--index", required=True, help="index .npz path")
    obs_cmd.add_argument(
        "--queries",
        type=int,
        default=32,
        help="workload size (catalog items, cycled)",
    )
    obs_cmd.add_argument("--k", type=int, default=10)
    obs_cmd.add_argument(
        "--strategy",
        default="inflex",
        choices=_STRATEGY_CHOICES,
    )
    obs_cmd.add_argument(
        "--sketches",
        default=None,
        help="sketch-bank .npz for strategy=sketch "
        "(default: <index>.sketches.npz when present)",
    )
    obs_cmd.add_argument(
        "--format", default="json", choices=("json", "prometheus")
    )
    obs_cmd.add_argument(
        "--out", help="write the snapshot to this file instead of stdout"
    )
    obs_cmd.add_argument(
        "--trace-out", help="also write a Chrome trace file here"
    )
    obs_cmd.add_argument(
        "--reset",
        action="store_true",
        help="reset the registry and trace buffer after dumping",
    )
    obs_cmd.set_defaults(func=_cmd_obs)

    serve = sub.add_parser(
        "serve",
        help="run the concurrent HTTP query service over a built index",
    )
    # Flag defaults come from ServingConfig, the one place they live.
    serving = ServingConfig()
    serve.add_argument("--data", required=True, help="dataset directory")
    serve.add_argument("--index", required=True, help="index .npz path")
    serve.add_argument("--host", default=serving.host)
    serve.add_argument(
        "--port",
        type=int,
        default=serving.port,
        help="listen port (0 binds an ephemeral port and prints it)",
    )
    serve.add_argument(
        "--max-batch-size",
        type=int,
        default=serving.max_batch_size,
        help="max requests folded into one query_batch call",
    )
    serve.add_argument(
        "--max-batch-wait-us",
        type=int,
        default=serving.max_batch_wait_us,
        help="micro-batching window in microseconds (0: dispatch as "
        "soon as the executor is free)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=serving.max_inflight,
        help="admission budget: concurrent admitted requests",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=serving.max_queue_depth,
        help="batch-queue bound before shedding with 429",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=serving.deadline_ms,
        help="default per-request deadline (degraded answer on expiry)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=serving.cache_entries,
        help="result-cache LRU capacity",
    )
    serve.add_argument(
        "--cache-ttl",
        type=float,
        default=serving.cache_ttl_s,
        help="result-cache entry TTL in seconds (default: no expiry)",
    )
    serve.add_argument(
        "--no-obs",
        action="store_true",
        help="do not enable observability (empties /metrics)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=serving.slow_ms,
        help="slow-query threshold: requests over this latency are "
        "captured with their full span tree on /debug/slow",
    )
    serve.add_argument(
        "--flight-records",
        type=int,
        default=serving.flight_records,
        help="flight-recorder ring capacity (per-request records "
        "on /debug/requests)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log lines (trace-correlated) "
        "on stderr",
    )
    serve.add_argument(
        "--slo-latency-ms",
        type=float,
        default=serving.slo_latency_ms,
        help="SLO latency threshold: requests over this count "
        "against the latency objective",
    )
    serve.add_argument(
        "--slo-target",
        type=float,
        default=serving.slo_target,
        help="latency-objective target fraction in (0, 1)",
    )
    serve.add_argument(
        "--sketches",
        default=None,
        help="sketch-bank .npz enabling strategy=sketch and the "
        "distance-fallback upgrade (default: <index>.sketches.npz "
        "when present)",
    )
    serve.add_argument(
        "--campaign-sets",
        type=int,
        default=None,
        help="RR sets per campaign-oracle item for POST /campaign "
        "(default: the CampaignConfig default)",
    )
    serve.add_argument(
        "--stream",
        action="store_true",
        help="enable evolving-graph routes (/deltas and /subscriptions)",
    )
    serve.add_argument(
        "--stream-sets",
        type=int,
        default=None,
        help="RR sets per index-point sketch for --stream (default: "
        "the index's ris_num_sets)",
    )
    serve.add_argument(
        "--decay-rate",
        type=float,
        default=0.0,
        help="exponential time-decay rate of edge strength for --stream",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 runs the supervised sharded fleet "
        "(router + topic-affinity shards, see docs/FLEET.md)",
    )
    serve.add_argument(
        "--affinity-seed",
        type=int,
        default=0,
        help="seed for the Dirichlet topic-affinity anchors",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.25,
        help="worker heartbeat period in seconds",
    )
    serve.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=2.0,
        help="heartbeat staleness before a worker is recycled",
    )
    serve.add_argument(
        "--respawn-backoff",
        type=float,
        default=0.05,
        help="delay before respawning a dead worker",
    )
    serve.add_argument(
        "--max-respawns",
        type=int,
        default=None,
        help="per-shard respawn budget (default: unlimited)",
    )
    serve.add_argument(
        "--dispatch-timeout",
        type=float,
        default=5.0,
        help="per-attempt router->shard dispatch timeout in seconds",
    )
    serve.add_argument(
        "--redispatch-attempts",
        type=int,
        default=2,
        help="extra shards tried after the primary fails",
    )
    serve.add_argument(
        "--breaker-failures",
        type=int,
        default=3,
        help="consecutive failures before a shard's breaker opens",
    )
    serve.add_argument(
        "--breaker-cooloff",
        type=float,
        default=1.0,
        help="seconds an open breaker waits before a half-open probe",
    )
    serve.add_argument(
        "--hedge",
        action="store_true",
        help="send a backup request to a sibling shard when the "
        "primary exceeds the hedging delay",
    )
    serve.add_argument(
        "--hedge-delay-ms",
        type=float,
        default=None,
        help="fixed hedging delay in ms (default: p99-derived)",
    )
    serve.set_defaults(func=_cmd_serve)

    fleet_cmd = sub.add_parser(
        "fleet",
        help="show a running fleet router's worker/breaker status",
    )
    fleet_cmd.add_argument("--host", default="127.0.0.1")
    fleet_cmd.add_argument("--port", type=int, default=8171)
    fleet_cmd.add_argument(
        "--timeout", type=float, default=5.0, help="HTTP timeout in seconds"
    )
    fleet_cmd.add_argument(
        "--json", action="store_true", help="print the raw /fleet JSON"
    )
    fleet_cmd.set_defaults(func=_cmd_fleet)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running query server with a seeded synthetic load",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8171)
    loadgen.add_argument(
        "--mode",
        default="closed",
        choices=("closed", "open"),
        help="closed-loop (fixed concurrency) or open-loop (fixed QPS)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=5.0, help="run length in seconds"
    )
    loadgen.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="closed-loop workers / open-loop connection pool size",
    )
    loadgen.add_argument(
        "--qps", type=float, default=500.0, help="open-loop request rate"
    )
    loadgen.add_argument("--k", type=int, default=10)
    loadgen.add_argument(
        "--strategy",
        default="inflex",
        choices=_STRATEGY_CHOICES,
    )
    loadgen.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline sent with every query",
    )
    loadgen.add_argument(
        "--topics",
        type=int,
        default=None,
        help="query dimensionality (default: ask the server's /healthz)",
    )
    loadgen.add_argument(
        "--distinct",
        type=int,
        default=64,
        help="distinct Dirichlet-sampled queries in the mix",
    )
    loadgen.add_argument(
        "--alpha",
        type=float,
        default=0.8,
        help="Dirichlet concentration of the query mix",
    )
    loadgen.add_argument(
        "--skew",
        type=float,
        default=1.1,
        help="Zipf popularity skew (0 = uniform mix)",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--campaign-mix",
        type=float,
        default=0.0,
        help="fraction of requests in [0, 1] sent to POST /campaign "
        "instead of /query",
    )
    loadgen.add_argument(
        "--campaign-items",
        type=int,
        default=3,
        help="items per campaign request (pool windows)",
    )
    loadgen.add_argument(
        "--campaign-k",
        type=int,
        default=None,
        help="total campaign seed budget (default: --k)",
    )
    loadgen.add_argument(
        "--far-mix",
        type=float,
        default=0.0,
        help="fraction of requests in [0, 1] using queries far (by "
        "min-KL) from every index point — the regime where serving "
        "degrades to sketch fallbacks; needs --index",
    )
    loadgen.add_argument(
        "--index",
        default=None,
        help="the served index's .npz; its index points anchor the "
        "--far-mix distance ranking",
    )
    loadgen.add_argument(
        "--out", help="write the JSON report here (e.g. BENCH_serving.json)"
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    top = sub.add_parser(
        "top",
        help="live terminal view over a running server's /metrics",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8171)
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh period in seconds",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after N refreshes (0 = run until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append refreshes instead of redrawing in place",
    )
    top.set_defaults(func=_cmd_top)

    stream = sub.add_parser(
        "stream",
        help="replay an evolving-graph delta workload against an index",
    )
    stream.add_argument("--data", required=True, help="dataset directory")
    stream.add_argument("--index", required=True, help="index .npz path")
    stream.add_argument(
        "--log",
        default=None,
        help="delta log file to replay (default: generate a synthetic "
        "stream)",
    )
    stream.add_argument(
        "--batches", type=int, default=20, help="synthetic stream length"
    )
    stream.add_argument(
        "--batch-size", type=int, default=8, help="deltas per batch"
    )
    stream.add_argument(
        "--time-step",
        type=float,
        default=1.0,
        help="timestamp increment between synthetic batches",
    )
    stream.add_argument(
        "--num-sets",
        type=int,
        default=None,
        help="RR sets per index-point sketch (default: the index's "
        "ris_num_sets)",
    )
    stream.add_argument(
        "--subscriptions",
        type=int,
        default=4,
        help="standing queries registered from the catalog head",
    )
    stream.add_argument("--k", type=int, default=10)
    stream.add_argument(
        "--decay-rate",
        type=float,
        default=0.0,
        help="exponential time-decay rate of edge strength",
    )
    stream.add_argument(
        "--workers",
        default="1",
        help="sketch-refresh thread count: a positive int or 'auto'",
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--save-log", default=None, help="also save the replayed stream here"
    )
    stream.add_argument(
        "--out", help="write the JSON report here (e.g. stream_report.json)"
    )
    stream.add_argument(
        "--faults",
        default=None,
        help="deterministic fault-plan spec for chaos testing "
        "(REPRO_FAULTS grammar, e.g. 'delta-apply:mode=error')",
    )
    stream.set_defaults(func=_cmd_stream)

    summarize = sub.add_parser(
        "summarize", help="print structural statistics of a graph"
    )
    summarize.add_argument("--data", required=True, help="dataset directory")
    summarize.set_defaults(func=_cmd_summarize)

    run_all_cmd = sub.add_parser(
        "run-all", help="run the full experiment suite to a directory"
    )
    run_all_cmd.add_argument("--out", required=True)
    run_all_cmd.add_argument(
        "--scale", default="test", choices=("test", "demo", "paper-shape")
    )
    run_all_cmd.add_argument(
        "--only", nargs="*", help="restrict to these experiment names"
    )
    run_all_cmd.set_defaults(func=_cmd_run_all)

    auto = sub.add_parser("autosize", help="choose the index size h")
    auto.add_argument("--data", required=True, help="dataset directory")
    auto.add_argument(
        "--sizes", type=int, nargs="+", default=[16, 32, 64, 128]
    )
    auto.add_argument("--tolerance", type=float, default=0.1)
    auto.add_argument("--seed", type=int, default=0)
    auto.set_defaults(func=_cmd_autosize)
    return parser


def main(argv=None) -> int:
    """Entry point of the ``repro-inflex`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
