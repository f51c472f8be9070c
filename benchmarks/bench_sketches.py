"""Sketch-vs-retrieval crossover benchmark -> ``BENCH_sketches.json``.

The issue's acceptance bar: on a *far-from-index* query mix the
composed-sketch answer must close the quality gap — its spread gap (to
a fresh large-sample referee's own greedy answer) must be no larger
than the gap of the degraded nearest-neighbor answers INFLEX falls
back to today.  On a *near-index* mix full INFLEX retrieval is
expected to stay competitive; the two mixes together chart the
accuracy/latency crossover between the strategies.

Three answering paths run on the same index and the same query mixes:

* **inflex** — the paper's full pipeline (bb-tree search, weighting,
  rank aggregation);
* **inflex-degraded** — the nearest neighbor's precomputed list, i.e.
  what a far query or expired deadline degrades to without a bank;
* **sketch** — gamma-weighted composition over per-topic RR pools with
  greedy max coverage (no retrieval at all).

Quality is judged by a referee the strategies cannot influence: for
every query a fresh 4000-set RR index is sampled at gamma_q itself,
and each answer's seed set is scored by referee coverage against the
referee's own greedy selection.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from conftest import register_report

from repro.core import InflexConfig, InflexIndex, SketchConfig
from repro.graph import interest_topic_graph
from repro.im.imm import RRIndex, RRSampler
from repro.serving import build_far_mix
from repro.sketches import SketchBank

NUM_NODES = 400
NUM_TOPICS = 4
NUM_ITEMS = 60
NUM_INDEX_POINTS = 12
SEED_LIST_LENGTH = 10
SKETCH_SETS = 2000
K = 10
QUERIES_PER_MIX = 10
REFEREE_SETS = 4000

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sketches.json"


def _graph():
    return interest_topic_graph(
        NUM_NODES,
        NUM_TOPICS,
        topics_per_node=1,
        base_strength=0.2,
        seed=307,
    )


def _index(graph):
    rng = np.random.default_rng(311)
    catalog = rng.dirichlet(np.full(NUM_TOPICS, 0.7), size=NUM_ITEMS)
    config = InflexConfig(
        num_index_points=NUM_INDEX_POINTS,
        num_dirichlet_samples=2000,
        seed_list_length=SEED_LIST_LENGTH,
        knn=4,
        leaf_size=4,
        seed=313,
    )
    return InflexIndex.build(graph, catalog, config)


def _near_queries(index):
    """Queries drawn from the catalog-fitted Dirichlet: the workload
    the index points were clustered to cover."""
    return index.dirichlet.sample(QUERIES_PER_MIX, seed=317)


def _far_queries(index):
    gammas, min_kl = build_far_mix(
        NUM_TOPICS,
        index.index_points,
        num_distinct=QUERIES_PER_MIX,
        seed=331,
    )
    return gammas, min_kl


def _evaluate(index, bank, queries, sampler):
    """Per-query spread gaps and latencies of the three paths."""
    gaps = {"inflex": [], "inflex_degraded": [], "sketch": []}
    latencies = {"inflex": [], "inflex_degraded": [], "sketch": []}
    for i, gamma in enumerate(queries):
        referee = RRIndex(
            *sampler.sample(gamma, REFEREE_SETS, seed=337, request=100 + i),
            index.graph.num_nodes,
        )
        best_seeds, _ = referee.greedy_select(K)
        best = referee.spread_of(best_seeds)

        index.attach_sketches(None)
        start = time.perf_counter()
        full = index.query(gamma, K, strategy="inflex")
        latencies["inflex"].append(time.perf_counter() - start)

        start = time.perf_counter()
        degraded = index.query(gamma, K, deadline_ms=1e-7)
        latencies["inflex_degraded"].append(time.perf_counter() - start)
        assert degraded.degraded and degraded.reason == "deadline"

        index.attach_sketches(bank)
        start = time.perf_counter()
        sketch = index.query(gamma, K, strategy="sketch")
        latencies["sketch"].append(time.perf_counter() - start)

        for name, answer in (
            ("inflex", full),
            ("inflex_degraded", degraded),
            ("sketch", sketch),
        ):
            spread = referee.spread_of(list(answer.seeds))
            gaps[name].append(1.0 - spread / best)
    return gaps, latencies


def _summarize(gaps, latencies):
    return {
        name: {
            "mean_spread_gap": round(float(np.mean(gaps[name])), 4),
            "max_spread_gap": round(float(np.max(gaps[name])), 4),
            "median_latency_ms": round(
                float(np.median(latencies[name])) * 1000, 3
            ),
        }
        for name in gaps
    }


def test_sketch_accuracy_latency_crossover(benchmark):
    graph = _graph()
    index = _index(graph)
    bank = SketchBank.build(
        graph, SketchConfig(num_sets=SKETCH_SETS, seed=347)
    )

    # Worker invariance end to end: a 2-worker bank must produce the
    # same composed answers as the serial one.
    bank_wide = SketchBank.build(
        graph, SketchConfig(num_sets=SKETCH_SETS, seed=347), workers=2
    )
    workers_identical = all(
        np.array_equal(array, bank_wide.arrays()[name])
        for name, array in bank.arrays().items()
    )
    assert workers_identical, "sketch bank differs between 1 and 2 workers"

    near = _near_queries(index)
    far, far_min_kl = _far_queries(index)

    # Micro-op for pytest-benchmark: one composed sketch query.
    index.attach_sketches(bank)
    benchmark(lambda: index.query(near[0], K, strategy="sketch"))

    with RRSampler(graph) as sampler:
        near_gaps, near_lat = _evaluate(index, bank, near, sampler)
        far_gaps, far_lat = _evaluate(index, bank, far, sampler)

    near_summary = _summarize(near_gaps, near_lat)
    far_summary = _summarize(far_gaps, far_lat)
    sketch_far = far_summary["sketch"]["mean_spread_gap"]
    degraded_far = far_summary["inflex_degraded"]["mean_spread_gap"]

    report = {
        "graph": {
            "num_nodes": NUM_NODES,
            "num_topics": NUM_TOPICS,
            "num_arcs": graph.num_arcs,
        },
        "config": {
            "num_index_points": NUM_INDEX_POINTS,
            "seed_list_length": SEED_LIST_LENGTH,
            "sketch_sets_per_topic": SKETCH_SETS,
            "k": K,
            "queries_per_mix": QUERIES_PER_MIX,
            "referee_sets": REFEREE_SETS,
        },
        "near_mix": near_summary,
        "far_mix": far_summary,
        "far_min_kl": {
            "min": round(float(far_min_kl.min()), 4),
            "max": round(float(far_min_kl.max()), 4),
        },
        "far_gap_sketch_vs_inflex_degraded": {
            "sketch": sketch_far,
            "inflex_degraded": degraded_far,
            "sketch_no_worse": bool(sketch_far <= degraded_far),
        },
        "workers_identical_1_vs_2": workers_identical,
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        f"k={K}, {QUERIES_PER_MIX} queries/mix, "
        f"{SKETCH_SETS} sets/topic, referee={REFEREE_SETS} sets",
        "  near mix (mean gap / median ms):",
    ]
    for name in ("inflex", "inflex_degraded", "sketch"):
        lines.append(
            f"    {name:<16} {near_summary[name]['mean_spread_gap']:7.4f}"
            f" / {near_summary[name]['median_latency_ms']:8.3f} ms"
        )
    lines.append(
        f"  far mix (min-KL {report['far_min_kl']['min']}.."
        f"{report['far_min_kl']['max']}):"
    )
    for name in ("inflex", "inflex_degraded", "sketch"):
        lines.append(
            f"    {name:<16} {far_summary[name]['mean_spread_gap']:7.4f}"
            f" / {far_summary[name]['median_latency_ms']:8.3f} ms"
        )
    lines.append(
        f"  far-mix bar: sketch gap {sketch_far:.4f} <= "
        f"degraded gap {degraded_far:.4f}: "
        f"{sketch_far <= degraded_far}"
    )
    lines.append(f"  1 vs 2 workers identical: {workers_identical}")
    register_report(
        "sketch crossover (BENCH_sketches.json)", "\n".join(lines)
    )

    assert sketch_far <= degraded_far + 1e-9, (
        f"far-mix sketch spread gap {sketch_far:.4f} exceeds the "
        f"inflex degraded-answer gap {degraded_far:.4f}"
    )
