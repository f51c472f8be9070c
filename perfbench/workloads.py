"""The two workloads: set-up, measured window, quiet probe phase, gates.

``query-cold``
    ``serve`` with default flags; two closed-loop connections draw
    uniformly from 50k distinct gammas (far more than the 4096-entry
    result cache) with a seeded inflex/exact-knn/sketch mix.
``stream-mixed``
    ``serve --stream``; one closed-loop inflex reader draws 30% of its
    gammas by Zipf(1.1) from 64 hot ones that fit the cache and 70%
    from the cold pool, while one writer posts a delta batch to
    ``/deltas`` as each slice (about 3 seconds) starts.

Each run sets up ``SETUP_REPEATS`` times from scratch (dataset, CLI
build, server start, subscriptions, warm-up); each server then serves
an equal part of the measured window, slice by slice, and the last one
also answers the quiet probe phase.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import shutil
import time

import numpy as np

import client
import procs
from common import (
    BUILD,
    COLD_CONNECTIONS,
    DATASET,
    ESTIMATOR_SEED,
    ESTIMATOR_SETS,
    K,
    PROBE_STRATEGIES,
    REFEREE_EPSILON,
    REFEREE_SEED,
    REPLAY_QUERIES,
    SETUP_REPEATS,
    STREAM_LENGTH,
    STREAM_SETS,
    SUBSCRIPTIONS,
    Inputs,
    median,
    slices_per_server,
    valid_answer,
)


class GateFailure(Exception):
    """A correctness gate failed; the run records no numbers."""


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed, seconds, trace, work_dir) -> None:
        self.workload = workload
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.work = work_dir
        self.data_dir = work_dir / "data"
        self.index_path = work_dir / "index.npz"
        self.inputs = Inputs.from_seed(seed)
        self.problems: list[str] = []
        self.report: dict = {}
        self.attempted = 0
        self.failed = 0
        self.graph = None
        self.batches: list = []
        self.spans = None
        #: Numbers the read requests across every slice of the window.
        self._query_numbers = itertools.count()

    # ------------------------------------------------------------------
    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def execute(self) -> tuple[dict, dict]:
        """Run the workload -> ``(end-to-end metrics, per-layer metrics)``.

        Raises :class:`GateFailure` if any gate failed.
        """
        stream = self.workload == "stream-mixed"
        setups, builds, build_rss = [], [], []
        slices, logs, placements, setup_cpus = [], [], [], []
        per_server = slices_per_server(self.seconds)
        slice_s = self.seconds / SETUP_REPEATS / per_server
        shm_before = procs.shm_segments()
        server = None
        try:
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                    self.problems.extend(server.problems)
                    server = None
                # The set-up's processes (the benchmark, the CLI build and
                # the server it starts) inherit this placement.
                cpu, speeds = procs.fastest_cpu()
                setup_cpus.append({"cpu": cpu, "loop_ms": speeds})
                with procs.pinned(cpu):
                    setup_s, build_s, rss, server = self._setup_once(stream)
                setups.append(setup_s)
                builds.append(build_s)
                build_rss.append(rss)
                log = client.WriteLog()
                if stream and not self.batches:
                    self.batches = self.inputs.delta_batches(
                        self.graph, per_server
                    )
                for number in range(per_server):
                    # Server and load generator share the CPU that is
                    # fastest now, for this slice (see procs.pinned).
                    cpu, speeds = procs.fastest_cpu()
                    placements.append({"cpu": cpu, "loop_ms": speeds})
                    server.pin(cpu)
                    with procs.pinned(cpu):
                        if stream:
                            tally = self._stream_window(
                                server.port, slice_s, self.batches[number], log
                            )
                        else:
                            tally = self._cold_window(server.port, slice_s)
                    slices.append(tally)
                stats = asyncio.run(
                    client.fetch_json(server.port, "GET", "/stats")
                )[1]
                if stream:
                    logs.append(log)
                    self._check_writes(log, stats)
            self._check_build()
            probes = asyncio.run(self._probe(server.port))
            peak_rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
                self.problems.extend(server.problems)
            leaked = procs.shm_segments() - shm_before
            if leaked:
                self.problems.append(f"leaked shared memory: {sorted(leaked)}")
                procs.remove_segments(leaked)
        # The last server answered the probes, after all of its writes.
        spread_ratio = self._spread_ratio(probes, logs[-1] if logs else None)
        reads = client.Tally.merged(slices)
        writes = client.WriteLog.merged(logs) if stream else None
        read_summary = client.summarize(slices)
        self.attempted = reads.attempted + (writes.attempted if writes else 0)
        self.failed = reads.failed + (writes.failed if writes else 0)
        self.check(reads.invalid == 0, f"{reads.invalid} invalid answers")
        self.check(reads.answered > 0, "no request was answered")
        self.report.update(
            setup_samples_s=setups,
            # Not an end-to-end metric: its run-to-run spread on a
            # shared host came too close to the largest bound allowed.
            # setup_s, of which the build is most, carries the bound.
            build_s=median(builds),
            build_samples_s=builds,
            build_peak_rss_mb=max(build_rss),
            setup_cpus=setup_cpus,
            window_cpus=placements,
            reads=read_summary,
            writes=writes.summary() if writes else None,
            server_stats={
                "batcher": stats["batcher"],
                "cache": stats["cache"],
                "degraded_reasons": stats["degraded_reasons"],
            },
        )
        answered = reads.answered + (writes.acknowledged if writes else 0)
        end_to_end = {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss,
            "qps": read_summary["qps"],
            "p50_ms": read_summary["p50_ms"],
            "p99_ms": read_summary["p99_ms"],
            "answered_frac": answered / self.attempted,
            "undegraded_frac": 1.0 - read_summary["degraded_frac"],
            "answer_spread_ratio": spread_ratio,
        }
        layers = {}
        if self.trace:
            layers = self._traced_replay(reads, probes, read_summary, stats)
        if self.problems:
            raise GateFailure("; ".join(self.problems))
        return end_to_end, layers

    def _check_writes(self, log, stats) -> None:
        """Every batch of one server's part acknowledged in order, and
        that server's ``/stats`` counting them all as applied."""
        self.check(
            log.in_order and log.acknowledged == len(self.batches),
            f"deltas acknowledged {log.acknowledged}/{len(self.batches)}, "
            f"in order: {log.in_order}",
        )
        applied = stats["streaming"]["maintainer"]["batches_applied"]
        self.check(
            applied == log.acknowledged,
            f"/stats reports {applied} batches applied, "
            f"{log.acknowledged} acknowledged",
        )

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def _setup_once(self, stream: bool):
        """Dataset -> CLI build -> server ready -> warm.  Returns
        ``(setup_s, build_s, build peak RSS MB, running server)``."""
        from repro.datasets import generate_flixster_like
        from repro.graph import save_graph

        started = time.perf_counter()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.data_dir.mkdir(parents=True)
        data = generate_flixster_like(**DATASET, seed=self.inputs.dataset_seed)
        save_graph(data.graph, self.data_dir / "graph.npz")
        np.save(self.data_dir / "catalog.npy", data.item_topics)
        self.graph = data.graph
        build_s, build_rss = procs.run_timed(
            procs.cli(
                "build",
                "--data", self.data_dir,
                "--out", self.index_path,
                "--index-points", BUILD["index_points"],
                "--dirichlet-samples", BUILD["dirichlet_samples"],
                "--seed-list-length", BUILD["seed_list_length"],
                "--engine", BUILD["engine"],
                "--epsilon", BUILD["epsilon"],
                "--workers", 1,
                "--sim-workers", 1,
                "--sketches",
                "--sketch-sets", BUILD["sketch_sets"],
                "--seed", self.inputs.build_seed,
            ),
            cwd=self.work,
            log_path=self.work / "build.log",
            timeout_s=150,
        )
        argv = procs.cli(
            "serve", "--data", self.data_dir, "--index", self.index_path,
            "--port", 0,
        )
        if stream:
            argv += ["--stream", "--stream-sets", str(STREAM_SETS)]
        server = procs.Server(argv, self.work, self.work / "server.log")
        try:
            server.start()
            asyncio.run(self._warm(server.port, stream))
        except BaseException:
            server.stop()
            raise
        return time.perf_counter() - started, build_s, build_rss, server

    async def _warm(self, port: int, stream: bool) -> None:
        conn = client.Connection(port)
        try:
            if stream:
                for gamma in self.inputs.hot_set[:SUBSCRIPTIONS]:
                    status, _ = await conn.request(
                        "POST", "/subscriptions",
                        {"gamma": [float(v) for v in gamma], "k": K},
                    )
                    self.check(status == 200, f"subscribe returned {status}")
                warm = [(g, "inflex") for g in self.inputs.hot_set]
            else:
                warm = [
                    (g, s)
                    for g, s in zip(
                        self.inputs.warmup,
                        itertools.cycle(PROBE_STRATEGIES),
                    )
                ]
            for gamma, strategy in warm:
                status, _ = await conn.request(
                    "POST", "/query",
                    {"gamma": [float(v) for v in gamma], "k": K,
                     "strategy": strategy},
                )
                self.check(status == 200, f"warm-up query returned {status}")
        finally:
            await conn.close()

    def _check_build(self) -> None:
        """h points, length-l lists, and a bit-identical save/load trip."""
        from repro.core.persistence import load_index, save_index
        from repro.sketches import load_sketches, save_sketches

        from layers import same_index

        index = self.load_cli_index()
        self.check(
            index.num_index_points == BUILD["index_points"],
            f"index has {index.num_index_points} points",
        )
        self.check(
            all(
                len(s.nodes) == BUILD["seed_list_length"]
                for s in index.seed_lists
            ),
            "a seed list is not of length l",
        )
        trip = self.work / "roundtrip.npz"
        save_index(index, trip)
        save_sketches(index.sketches, self.work / "roundtrip.sketches.npz")
        again = load_index(trip, self.graph)
        again.attach_sketches(load_sketches(self.work / "roundtrip.sketches.npz"))
        # ``InflexIndex`` re-smooths its points on every construction, so
        # a save/load trip moves them by about one ulp; seed lists and
        # the bank must survive bit for bit.
        drift = float(np.abs(index.index_points - again.index_points).max())
        self.report["roundtrip_point_drift"] = drift
        self.check(
            same_index(index, again, points_atol=1e-12),
            "save/load round trip differs",
        )

    def load_cli_index(self):
        from repro.core.persistence import load_index
        from repro.sketches import load_sketches

        index = load_index(self.index_path, self.graph)
        index.attach_sketches(
            load_sketches(self.index_path.with_name("index.sketches.npz"))
        )
        return index

    # ------------------------------------------------------------------
    # Measured windows
    # ------------------------------------------------------------------
    # One slice of the window each; the request stream continues from
    # slice to slice and from server to server.
    def _cold_window(self, port: int, seconds: float) -> client.Tally:
        inputs = self.inputs
        counter = self._query_numbers

        def next_query():
            number = next(counter)
            j = number % STREAM_LENGTH
            keep = number if number < REPLAY_QUERIES else None
            return keep, inputs.cold_pool[inputs.cold_order[j]], \
                inputs.cold_strategies[j]

        async def window():
            tally = client.Tally(seconds=seconds)
            stop_at = time.perf_counter() + seconds
            await asyncio.gather(
                *(
                    client.closed_loop(
                        port, next_query, stop_at, tally, K,
                        DATASET["num_nodes"],
                    )
                    for _ in range(COLD_CONNECTIONS)
                )
            )
            return tally

        return asyncio.run(window())

    def _stream_window(self, port: int, seconds: float, batch, log):
        """Reads for ``seconds``, with ``batch`` written when the slice
        starts; ``log`` collects one server's writes across its slices."""
        inputs = self.inputs
        counter = self._query_numbers

        def next_query():
            j = next(counter) % STREAM_LENGTH
            if inputs.stream_hot[j]:
                gamma = inputs.hot_set[inputs.hot_order[j]]
            else:
                gamma = inputs.cold_pool[inputs.cold_order[j]]
            return None, gamma, "inflex"

        async def window():
            tally = client.Tally(seconds=seconds)
            started = time.perf_counter()
            await asyncio.gather(
                client.closed_loop(
                    port, next_query, started + seconds, tally, K,
                    DATASET["num_nodes"],
                ),
                client.scheduled_writer(port, batch, started, log),
            )
            return tally

        return asyncio.run(window())

    # ------------------------------------------------------------------
    # Quiet phase: answer quality
    # ------------------------------------------------------------------
    async def _probe(self, port: int) -> dict:
        """Send each probe gamma once per strategy, one at a time."""
        answers = {}
        conn = client.Connection(port)
        try:
            for i, gamma in enumerate(self.inputs.probes):
                for strategy in PROBE_STRATEGIES:
                    status, data = await conn.request(
                        "POST", "/query",
                        {"gamma": [float(v) for v in gamma], "k": K,
                         "strategy": strategy},
                    )
                    answer = json.loads(data) if status == 200 else None
                    self.check(
                        valid_answer(answer, K, DATASET["num_nodes"], strategy),
                        f"probe {i}/{strategy} failed with status {status}",
                    )
                    answers[(i, strategy)] = answer
        finally:
            await conn.close()
        return answers

    def _final_graph(self, writes):
        """The graph the server holds after the acknowledged batches."""
        if writes is None:
            return self.graph
        from repro.streaming import EdgeState

        state = EdgeState.from_graph(self.graph)
        for batch in self.batches[: writes.acknowledged]:
            for delta in batch.deltas:
                state.apply_delta(delta)
        return state.to_graph()

    def _spread_ratio(self, probes: dict, writes) -> float:
        """Mean of sigma(served seeds) / sigma(fresh IMM seeds) over the
        probes and strategies, both estimated on one fixed-seed RR
        sample per probe."""
        from repro.core.offline import offline_seed_list
        from repro.im.imm import RRIndex, RRSampler

        from layers import wire_gamma

        graph = self._final_graph(writes)
        ratios = []
        with RRSampler(graph, workers=1) as sampler:
            for i, gamma in enumerate(self.inputs.probes):
                gamma = wire_gamma(gamma)
                oracle = RRIndex(
                    *sampler.sample(gamma, ESTIMATOR_SETS, seed=ESTIMATOR_SEED),
                    graph.num_nodes,
                )
                fresh = offline_seed_list(
                    graph, gamma, K, engine="imm",
                    imm_epsilon=REFEREE_EPSILON, sim_workers=1,
                    seed=REFEREE_SEED, imm_sampler=sampler,
                )
                base = oracle.spread_of(list(fresh.nodes[:K]))
                for strategy in PROBE_STRATEGIES:
                    answer = probes.get((i, strategy))
                    if answer is not None:
                        ratios.append(oracle.spread_of(answer["seeds"]) / base)
        return float(np.mean(ratios)) if ratios else 0.0

    # ------------------------------------------------------------------
    # Traced replay (per-layer numbers; see layers.py)
    # ------------------------------------------------------------------
    def _traced_replay(self, reads, probes, read_summary, stats) -> dict:
        from layers import (
            Spans,
            replay_build,
            replay_queries,
            replay_stream,
            wire_gamma,
        )

        inputs = self.inputs
        stream = self.workload == "stream-mixed"
        self.spans = spans = Spans()
        layers = replay_build(
            spans, self.data_dir, self.load_cli_index(), self.work,
            self.problems,
        )
        index = self.load_cli_index()
        if stream:
            gammas = list(inputs.hot_set)
        else:
            gammas = [
                inputs.cold_pool[inputs.cold_order[i]]
                for i in range(REPLAY_QUERIES)
            ]
        metrics, answers = replay_queries(
            spans, index, [wire_gamma(g) for g in gammas], self.problems
        )
        layers.update(metrics)
        probe_gammas = [wire_gamma(g) for g in inputs.probes]
        if not stream:
            differ = sum(
                1
                for number, served in reads.answers.items()
                if served["reason"] != "deadline"
                and tuple(served["seeds"])
                != answers[(number, inputs.cold_strategies[number])]
            )
            self.check(differ == 0, f"{differ} served answers differ "
                       "from the traced replay")
            expected = {
                (i, s): tuple(index.query(g, K, strategy=s).seeds.nodes)
                for i, g in enumerate(probe_gammas)
                for s in PROBE_STRATEGIES
            }
        batches = self.batches or inputs.delta_batches(
            self.graph, slices_per_server(self.seconds)
        )
        metrics, after_stream = replay_stream(
            spans,
            self.load_cli_index(),
            batches,
            [wire_gamma(g) for g in inputs.hot_set[:SUBSCRIPTIONS]],
            probe_gammas,
        )
        layers.update(metrics)
        if stream:
            expected = after_stream
        differ = sum(
            1
            for key, served in probes.items()
            if served is not None
            and served["reason"] != "deadline"
            and tuple(served["seeds"]) != expected[key]
        )
        self.check(differ == 0, f"{differ} probe answers differ from the "
                   "traced replay")
        layers.update(
            {
                "serving.overhead_ms": read_summary["overhead_p50_ms"] or 0.0,
                "serving.batcher.mean_batch_size": stats["batcher"][
                    "mean_batch_size"
                ],
                "core.cache.hit_rate": stats["cache"]["hit_rate"],
                "serving.hit_p50_ms": read_summary["hit_p50_ms"] or 0.0,
                "serving.miss_p50_ms": read_summary["miss_p50_ms"] or 0.0,
            }
        )
        return layers
