"""Index-build engine benchmark -> ``BENCH_index_build.json``.

Builds the issue's h=200, eps=0.1 index with the IMM engine and
compares it against the engines it supersedes at matched accuracy:

* **imm** — the full 200-point build is timed end to end (one shared
  :class:`~repro.im.imm.RRSampler` per batch, as production builds
  run).
* **celf++-mc** — timed on a deterministic sample of index points and
  extrapolated to 200 (a full CELF++-MC build takes ~an hour, which is
  exactly the point of this benchmark).
* **ris** — the legacy sequential sampler, timed on the full 200
  points.

Accuracy is matched, not assumed: on the sampled points the seeds of
imm and celf++-mc are evaluated with one shared fresh-randomness
Monte-Carlo estimator and the mean spread ratio must stay within 2%.
Determinism is part of the acceptance bar too: the 200 imm seed lists
must be bit-identical for 1 and 4 sampling workers.

Acceptance bar from the issue: imm >= 5x faster than celf++-mc at
matched spread (within 2%), recorded in ``BENCH_index_build.json``.

``test_paper_scale_imm_build`` additionally records the ROADMAP's
outstanding follow-up from the imm-default flip: the full h=1000,
100k-Dirichlet-sample laptop build (Dirichlet MLE -> cloud sampling ->
Bregman K-means++ -> 1000 IMM seed lists -> bb-tree), end to end on
one core, merged into the same JSON under ``paper_scale``.

``test_paper_shape_imm_build`` records the build at the paper's shape
under ``paper_shape``: a Flixster-sized 30k-node graph with Z=10,
seed lists of length 50 at eps=0.2, h=1000 over 100k Dirichlet
samples, two index-point workers; seconds per stage, peak RSS of the
benchmark process and of its largest worker, and the CPU count.  Run
it alone with

    PYTHONPATH=src python -m pytest benchmarks/bench_index_build.py \
        -k paper_shape -q

``test_paper_scale_clustering_stage`` times the clustering stage of
that build alone: K-means++ seeding and a fixed number of Lloyd
iterations over the same 100k-sample cloud with h=1000.  It uses only
``kmeanspp_seeding`` and ``bregman_kmeans``, so the same file runs on
older commits; a ``baseline`` recorded that way is kept under
``paper_scale.clustering_stage`` and the speedup is computed against it.
Run it alone with

    PYTHONPATH=src python -m pytest benchmarks/bench_index_build.py \
        -k clustering_stage -q
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path

import numpy as np
from conftest import register_report

from repro.core.offline import offline_seed_list, offline_seed_lists_batch
from repro.graph import interest_topic_graph
from repro.propagation import estimate_spread
from repro.simplex.sampling import sample_uniform_simplex

NUM_NODES = 300
NUM_TOPICS = 4
NUM_POINTS = 200  # h from the issue's acceptance criteria
SEED_LIST_LENGTH = 10
IMM_EPSILON = 0.1
#: celf++-mc is timed on this many sampled points and extrapolated.
CELF_SAMPLE_POINTS = 5
CELF_SIMULATIONS = 200
RIS_NUM_SETS = 3000
EVAL_SIMULATIONS = 2000
#: Acceptance bars from the issue.
SPEEDUP_THRESHOLD = 5.0
SPREAD_MATCH_TOLERANCE = 0.02

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_index_build.json"


def _graph():
    return interest_topic_graph(
        NUM_NODES,
        NUM_TOPICS,
        topics_per_node=1,
        base_strength=0.2,
        seed=211,
    )


def _index_points():
    return sample_uniform_simplex(NUM_POINTS, NUM_TOPICS, seed=223)


def _item_seeds():
    return [1000 + i for i in range(NUM_POINTS)]


def test_imm_vs_celfpp_index_build(benchmark):
    graph = _graph()
    points = _index_points()
    item_seeds = _item_seeds()

    # Micro-op for pytest-benchmark: one IMM seed-list extraction.
    benchmark(
        lambda: offline_seed_list(
            graph,
            points[0],
            SEED_LIST_LENGTH,
            engine="imm",
            imm_epsilon=IMM_EPSILON,
            seed=item_seeds[0],
        )
    )

    # Full h=200 IMM build, timed end to end.
    start = time.perf_counter()
    imm_lists = offline_seed_lists_batch(
        graph,
        points,
        SEED_LIST_LENGTH,
        engine="imm",
        imm_epsilon=IMM_EPSILON,
        seeds=item_seeds,
        workers=1,
        sim_workers=1,
    )
    imm_seconds = time.perf_counter() - start

    # Determinism across sampling-pool widths: the same 200 lists must
    # come back bit-identical with 4 workers.
    start = time.perf_counter()
    imm_lists_wide = offline_seed_lists_batch(
        graph,
        points,
        SEED_LIST_LENGTH,
        engine="imm",
        imm_epsilon=IMM_EPSILON,
        seeds=item_seeds,
        workers=1,
        sim_workers=4,
    )
    imm_wide_seconds = time.perf_counter() - start
    workers_identical = imm_lists == imm_lists_wide
    assert workers_identical, "imm seed lists differ between 1 and 4 workers"

    # CELF++-MC on a deterministic sample of points, extrapolated.
    sample_ids = np.linspace(
        0, NUM_POINTS - 1, CELF_SAMPLE_POINTS
    ).astype(int)
    celf_lists = {}
    start = time.perf_counter()
    for i in sample_ids:
        celf_lists[int(i)] = offline_seed_list(
            graph,
            points[i],
            SEED_LIST_LENGTH,
            engine="celf++-mc",
            num_simulations=CELF_SIMULATIONS,
            seed=item_seeds[i],
        )
    celf_sampled_seconds = time.perf_counter() - start
    celf_per_point = celf_sampled_seconds / CELF_SAMPLE_POINTS
    celf_seconds_extrapolated = celf_per_point * NUM_POINTS

    # Legacy sequential RIS, full build, for the record.
    start = time.perf_counter()
    offline_seed_lists_batch(
        graph,
        points,
        SEED_LIST_LENGTH,
        engine="ris",
        ris_num_sets=RIS_NUM_SETS,
        seeds=item_seeds,
        workers=1,
    )
    ris_seconds = time.perf_counter() - start

    # Matched accuracy: shared-estimator spreads on the sampled points.
    ratios = []
    spreads = []
    for i, celf_list in celf_lists.items():
        imm_spread = estimate_spread(
            graph,
            points[i],
            list(imm_lists[i].nodes),
            num_simulations=EVAL_SIMULATIONS,
            seed=42,
        ).mean
        celf_spread = estimate_spread(
            graph,
            points[i],
            list(celf_list.nodes),
            num_simulations=EVAL_SIMULATIONS,
            seed=42,
        ).mean
        ratios.append(imm_spread / celf_spread)
        spreads.append(
            {
                "point": i,
                "imm_spread": round(imm_spread, 3),
                "celfpp_mc_spread": round(celf_spread, 3),
                "ratio": round(imm_spread / celf_spread, 4),
            }
        )
    mean_ratio = float(np.mean(ratios))
    speedup = celf_seconds_extrapolated / imm_seconds

    report = {
        "graph": {
            "num_nodes": NUM_NODES,
            "num_topics": NUM_TOPICS,
            "num_arcs": graph.num_arcs,
        },
        "config": {
            "num_index_points": NUM_POINTS,
            "seed_list_length": SEED_LIST_LENGTH,
            "imm_epsilon": IMM_EPSILON,
            "celfpp_mc_simulations": CELF_SIMULATIONS,
            "celfpp_mc_sampled_points": int(CELF_SAMPLE_POINTS),
            "ris_num_sets": RIS_NUM_SETS,
            "eval_simulations": EVAL_SIMULATIONS,
        },
        "timings_seconds": {
            "imm_full_build": round(imm_seconds, 3),
            "imm_full_build_4_workers": round(imm_wide_seconds, 3),
            "celfpp_mc_sampled": round(celf_sampled_seconds, 3),
            "celfpp_mc_extrapolated_full": round(
                celf_seconds_extrapolated, 3
            ),
            "ris_full_build": round(ris_seconds, 3),
        },
        "speedup_imm_vs_celfpp_mc": round(speedup, 1),
        "spread_match": {
            "mean_ratio": round(mean_ratio, 4),
            "tolerance": SPREAD_MATCH_TOLERANCE,
            "per_point": spreads,
        },
        "workers_identical_1_vs_4": workers_identical,
    }
    if OUT_PATH.exists():
        # Preserve the sections recorded by the companion tests (the
        # tests own disjoint keys of the same report).
        previous = json.loads(OUT_PATH.read_text())
        for key in ("paper_scale", "paper_shape"):
            if key in previous:
                report[key] = previous[key]
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        f"h={NUM_POINTS} eps={IMM_EPSILON} index build "
        f"(n={NUM_NODES}, l={SEED_LIST_LENGTH})",
        f"  imm full build:            {imm_seconds:8.1f} s",
        f"  celf++-mc (extrapolated):  {celf_seconds_extrapolated:8.1f} s",
        f"  ris full build:            {ris_seconds:8.1f} s",
        f"  speedup imm vs celf++-mc:  {speedup:8.1f} x "
        f"(bar: {SPEEDUP_THRESHOLD}x)",
        f"  spread ratio imm/celf++:   {mean_ratio:8.4f} "
        f"(bar: within {SPREAD_MATCH_TOLERANCE:.0%})",
        f"  1 vs 4 workers identical:  {workers_identical}",
    ]
    register_report("index build engines (BENCH_index_build.json)",
                    "\n".join(lines))

    assert speedup >= SPEEDUP_THRESHOLD, (
        f"imm speedup {speedup:.1f}x below the {SPEEDUP_THRESHOLD}x bar"
    )
    assert abs(mean_ratio - 1.0) <= SPREAD_MATCH_TOLERANCE, (
        f"imm/celf++-mc spread ratio {mean_ratio:.4f} outside "
        f"the {SPREAD_MATCH_TOLERANCE:.0%} matched-accuracy window"
    )


# ----------------------------------------------------------------------
# Paper-scale laptop build (ROADMAP follow-up from the imm-default flip)
# ----------------------------------------------------------------------
PAPER_NUM_NODES = 1000
PAPER_NUM_TOPICS = 4
PAPER_NUM_ITEMS = 200
PAPER_H = 1000
PAPER_DIRICHLET_SAMPLES = 100_000
PAPER_IMM_EPSILON = 0.2


def test_paper_scale_imm_build():
    """The h=1000, 100k-sample build, timed end to end on one core."""
    from repro.core import InflexConfig
    from repro.core.index import InflexIndex

    graph = interest_topic_graph(
        PAPER_NUM_NODES,
        PAPER_NUM_TOPICS,
        topics_per_node=1,
        base_strength=0.2,
        seed=401,
    )
    catalog = np.random.default_rng(409).dirichlet(
        np.full(PAPER_NUM_TOPICS, 0.7), size=PAPER_NUM_ITEMS
    )
    config = InflexConfig(
        num_index_points=PAPER_H,
        num_dirichlet_samples=PAPER_DIRICHLET_SAMPLES,
        seed_list_length=SEED_LIST_LENGTH,
        imm_epsilon=PAPER_IMM_EPSILON,
        seed=419,
    )
    progress, finish = _stage_timer()
    start = time.perf_counter()
    index = InflexIndex.build(graph, catalog, config, progress=progress)
    total_seconds = time.perf_counter() - start
    stage_seconds = finish()

    assert index.num_index_points == PAPER_H
    answer = index.query(
        np.full(PAPER_NUM_TOPICS, 1.0 / PAPER_NUM_TOPICS), 10
    )
    assert len(answer.seeds) == 10

    section = {
        "graph": {
            "num_nodes": PAPER_NUM_NODES,
            "num_topics": PAPER_NUM_TOPICS,
            "num_arcs": graph.num_arcs,
        },
        "config": {
            "num_index_points": PAPER_H,
            "num_dirichlet_samples": PAPER_DIRICHLET_SAMPLES,
            "seed_list_length": SEED_LIST_LENGTH,
            "imm_epsilon": PAPER_IMM_EPSILON,
            "engine": "imm",
            "workers": 1,
        },
        "timings_seconds": {
            "total": round(total_seconds, 1),
            "per_stage": {
                name: round(seconds, 1)
                for name, seconds in stage_seconds.items()
            },
            "per_seed_list": round(
                stage_seconds.get("seed-lists", total_seconds) / PAPER_H,
                3,
            ),
        },
        # The benchmark process's high-water mark (Linux reports KB);
        # run this test alone for it to be the build's.
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }
    report = (
        json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    )
    if "clustering_stage" in report.get("paper_scale", {}):
        # Owned by test_paper_scale_clustering_stage.
        section["clustering_stage"] = report["paper_scale"]["clustering_stage"]
    report["paper_scale"] = section
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    per_stage = ", ".join(
        f"{name}={seconds:.1f}s"
        for name, seconds in stage_seconds.items()
    )
    register_report(
        "paper-scale index build (BENCH_index_build.json)",
        (
            f"h={PAPER_H}, {PAPER_DIRICHLET_SAMPLES:,} Dirichlet samples, "
            f"n={PAPER_NUM_NODES}, eps={PAPER_IMM_EPSILON}, 1 worker\n"
            f"  total: {total_seconds:.1f} s ({per_stage})\n"
            f"  per seed list: "
            f"{section['timings_seconds']['per_seed_list'] * 1000:.0f} ms, "
            f"peak RSS {section['peak_rss_mb']:.0f} MB"
        ),
    )


def _stage_timer():
    """A build ``progress`` callback and the per-stage seconds it
    fills: a stage runs from its first report to the next stage's."""
    stage_seconds: dict[str, float] = {}
    marks: dict = {}

    def progress(stage, done, total):
        # First time a stage reports, close out the previous one.
        if stage not in stage_seconds and done in (0, 1):
            now = time.perf_counter()
            if "current" in marks:
                stage_seconds[marks["current"]] = now - marks["at"]
            marks["current"] = stage
            marks["at"] = now
            stage_seconds[stage] = 0.0

    def finish():
        if "current" in marks:
            stage_seconds[marks["current"]] = (
                time.perf_counter() - marks["at"]
            )
        return stage_seconds

    return progress, finish


# ----------------------------------------------------------------------
# The paper's shape: a Flixster-sized graph, Z=10, l=50
# ----------------------------------------------------------------------
SHAPE_NUM_NODES = 30_000
SHAPE_NUM_TOPICS = 10
SHAPE_NUM_ITEMS = 200
SHAPE_H = 1000
SHAPE_SEED_LIST_LENGTH = 50
SHAPE_WORKERS = 2


def test_paper_shape_imm_build():
    """h=1000 IMM seed lists of length 50 on a 30k-node, Z=10 graph."""
    from repro.core import InflexConfig
    from repro.core.index import InflexIndex

    graph = interest_topic_graph(
        SHAPE_NUM_NODES,
        SHAPE_NUM_TOPICS,
        topics_per_node=1,
        base_strength=0.2,
        seed=401,
    )
    catalog = np.random.default_rng(409).dirichlet(
        np.full(SHAPE_NUM_TOPICS, 0.7), size=SHAPE_NUM_ITEMS
    )
    config = InflexConfig(
        num_index_points=SHAPE_H,
        num_dirichlet_samples=PAPER_DIRICHLET_SAMPLES,
        seed_list_length=SHAPE_SEED_LIST_LENGTH,
        imm_epsilon=PAPER_IMM_EPSILON,
        workers=SHAPE_WORKERS,
        simulation_workers=1,
        seed=419,
    )
    progress, finish = _stage_timer()
    start = time.perf_counter()
    index = InflexIndex.build(graph, catalog, config, progress=progress)
    total_seconds = time.perf_counter() - start
    stage_seconds = finish()

    assert index.num_index_points == SHAPE_H
    answer = index.query(
        np.full(SHAPE_NUM_TOPICS, 1.0 / SHAPE_NUM_TOPICS), 10
    )
    assert len(answer.seeds) == 10

    def peak_mb(who) -> float:
        # Linux reports ``ru_maxrss`` in KB; for children it is the
        # largest one's.
        return round(resource.getrusage(who).ru_maxrss / 1024, 1)

    section = {
        "graph": {
            "num_nodes": SHAPE_NUM_NODES,
            "num_topics": SHAPE_NUM_TOPICS,
            "num_arcs": graph.num_arcs,
        },
        "config": {
            "num_index_points": SHAPE_H,
            "num_dirichlet_samples": PAPER_DIRICHLET_SAMPLES,
            "seed_list_length": SHAPE_SEED_LIST_LENGTH,
            "imm_epsilon": PAPER_IMM_EPSILON,
            "engine": "imm",
            "workers": SHAPE_WORKERS,
            "sim_workers": 1,
        },
        "cpus": len(os.sched_getaffinity(0)),
        "timings_seconds": {
            "total": round(total_seconds, 1),
            "per_stage": {
                name: round(seconds, 1)
                for name, seconds in stage_seconds.items()
            },
            "per_seed_list_wall": round(
                stage_seconds.get("seed-lists", total_seconds) / SHAPE_H,
                3,
            ),
        },
        # Run this test alone for these to be the build's.
        "peak_rss_mb": peak_mb(resource.RUSAGE_SELF),
        "peak_rss_mb_largest_worker": peak_mb(resource.RUSAGE_CHILDREN),
    }
    report = (
        json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    )
    report["paper_shape"] = section
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    per_stage = ", ".join(
        f"{name}={seconds:.1f}s"
        for name, seconds in stage_seconds.items()
    )
    register_report(
        "paper-shape index build (BENCH_index_build.json)",
        (
            f"h={SHAPE_H}, {PAPER_DIRICHLET_SAMPLES:,} Dirichlet samples, "
            f"n={SHAPE_NUM_NODES}, Z={SHAPE_NUM_TOPICS}, "
            f"l={SHAPE_SEED_LIST_LENGTH}, eps={PAPER_IMM_EPSILON}, "
            f"{SHAPE_WORKERS} workers on {section['cpus']} CPUs\n"
            f"  total: {total_seconds:.1f} s ({per_stage})\n"
            f"  peak RSS {section['peak_rss_mb']:.0f} MB, largest worker "
            f"{section['peak_rss_mb_largest_worker']:.0f} MB"
        ),
    )


#: Lloyd iterations timed by the clustering-stage benchmark (each is an
#: assignment pass plus a centroid update; the run closes with one more
#: assignment pass, which the per-iteration figure includes).
CLUSTERING_LLOYD_ITERATIONS = 2


def test_paper_scale_clustering_stage():
    """Seeding and a fixed number of Lloyd iterations at h=1000, n=100k."""
    from repro.clustering import bregman_kmeans, kmeanspp_seeding
    from repro.divergence import KLDivergence
    from repro.rng import resolve_rng
    from repro.simplex.dirichlet import fit_dirichlet_mle
    from repro.simplex.vectors import smooth

    # The cloud test_paper_scale_imm_build clusters, and the generator
    # state its clustering starts from.
    catalog = np.random.default_rng(409).dirichlet(
        np.full(PAPER_NUM_TOPICS, 0.7), size=PAPER_NUM_ITEMS
    )
    rng = resolve_rng(419)
    samples = fit_dirichlet_mle(smooth(catalog)).sample(
        PAPER_DIRICHLET_SAMPLES, seed=rng
    )
    state = rng.bit_generator.state
    divergence = KLDivergence()

    start = time.perf_counter()
    kmeanspp_seeding(samples, PAPER_H, divergence, seed=rng)
    seeding_seconds = time.perf_counter() - start

    rng.bit_generator.state = state
    start = time.perf_counter()
    result = bregman_kmeans(
        samples,
        PAPER_H,
        divergence,
        seed=rng,
        max_iter=CLUSTERING_LLOYD_ITERATIONS,
    )
    kmeans_seconds = time.perf_counter() - start
    assert result.iterations == CLUSTERING_LLOYD_ITERATIONS

    lloyd_seconds = kmeans_seconds - seeding_seconds
    per_iteration = lloyd_seconds / CLUSTERING_LLOYD_ITERATIONS
    section = {
        "config": {
            "num_index_points": PAPER_H,
            "num_dirichlet_samples": PAPER_DIRICHLET_SAMPLES,
            "num_topics": PAPER_NUM_TOPICS,
            "lloyd_iterations": CLUSTERING_LLOYD_ITERATIONS,
            "divergence": divergence.name,
        },
        "cpus": len(os.sched_getaffinity(0)),
        "seeding_seconds": round(seeding_seconds, 2),
        "lloyd_seconds": round(lloyd_seconds, 2),
        "lloyd_seconds_per_iteration": round(per_iteration, 3),
    }
    report = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    paper = report.setdefault("paper_scale", {})
    baseline = paper.get("clustering_stage", {}).get("baseline")
    lines = [
        f"h={PAPER_H}, {PAPER_DIRICHLET_SAMPLES:,} Dirichlet samples, "
        f"{CLUSTERING_LLOYD_ITERATIONS} Lloyd iterations, "
        f"{section['cpus']} CPUs",
        f"  seeding:             {seeding_seconds:8.2f} s",
        f"  Lloyd per iteration: {per_iteration:8.3f} s",
    ]
    if baseline is not None:
        section["baseline"] = baseline
        speedup = (
            baseline["lloyd_seconds_per_iteration"] / per_iteration
        )
        section["lloyd_speedup_vs_baseline"] = round(speedup, 1)
        lines.append(
            f"  vs baseline ({baseline['commit']}): {speedup:8.1f} x"
        )
    paper["clustering_stage"] = section
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    register_report(
        "paper-scale clustering stage (BENCH_index_build.json)",
        "\n".join(lines),
    )
