"""Streaming maintenance benchmark -> ``BENCH_streaming.json``.

Measures the economics of :mod:`repro.streaming` on a serving-sized
sparse graph: delta-apply throughput (deltas/second through the
incremental maintainer) and the incremental-vs-full-rebuild speedup at
several batch sizes.  The invalidation lemma predicts the win: a batch
touching ``b`` arc heads forces resampling only of the RR sets that
contain one of those heads — on a sparse 1000-node graph a single node
sits in a few percent of sets, so small batches retain the vast
majority of the sketch while a rebuild pays for every set again.

Acceptance bar from the issue: >= 5x speedup over a from-scratch
rebuild for the smallest batch size.  The comparison is apples to
apples because the differential guarantee makes both sides produce
bit-identical state (asserted on a sampled point).

It also records what construction costs: the from-scratch rebuild
(one stream per set, walked side by side) against adopting pools that
:class:`~repro.im.imm.RRSampler` block-walked (as
:class:`~repro.streaming.StreamingEngine` adopts a stored sketch bank),
with the block walks' own time beside it.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
from conftest import register_report

from repro.datasets import generate_delta_workload
from repro.graph import interest_topic_graph
from repro.im.imm import RRSampler, _block_size
from repro.simplex.sampling import sample_uniform_simplex
from repro.streaming import DeltaBatch, EdgeDelta, IncrementalSketchMaintainer

NUM_NODES = 1000
NUM_TOPICS = 4
NUM_POINTS = 4
NUM_SETS = 500
SEED_LIST_LENGTH = 10
BATCH_SIZES = (1, 4, 16)
BATCHES_PER_SIZE = 3
#: Acceptance bar from the issue: >= 5x vs rebuild at the smallest batch.
SPEEDUP_THRESHOLD = 5.0

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_streaming.json"


def _workload_graph():
    return interest_topic_graph(
        NUM_NODES, NUM_TOPICS, topics_per_node=1, base_strength=0.1, seed=131
    )


def _index_points():
    return sample_uniform_simplex(NUM_POINTS, NUM_TOPICS, seed=137)


def _fresh_maintainer(graph):
    return IncrementalSketchMaintainer(
        graph,
        _index_points(),
        num_sets=NUM_SETS,
        seed_list_length=SEED_LIST_LENGTH,
        seed=139,
    )


def test_streaming_incremental_speedup(benchmark):
    graph = _workload_graph()

    # Micro-op: one single-reweight batch through the maintainer (a
    # reweight of an existing arc is idempotently valid, so the
    # benchmark loop can replay it).
    micro = _fresh_maintainer(graph)
    arc = next(iter(micro.graph.arcs()))
    reweight = DeltaBatch(
        deltas=(
            EdgeDelta(
                "reweight", int(arc[0]), int(arc[1]), (0.2,) * NUM_TOPICS
            ),
        ),
        timestamp=0.0,
    )
    benchmark(micro.apply_batch, reweight)

    results = []
    all_rebuild_times = []
    for batch_size in BATCH_SIZES:
        maintainer = _fresh_maintainer(graph)
        log = generate_delta_workload(
            graph,
            num_batches=BATCHES_PER_SIZE,
            batch_size=batch_size,
            seed=1000 + batch_size,
        )
        apply_times, rebuild_times, retained = [], [], []
        for batch in log:
            start = time.perf_counter()
            report = maintainer.apply_batch(batch)
            apply_times.append(time.perf_counter() - start)
            retained.append(
                report.rr_sets_retained
                / (report.rr_sets_retained + report.rr_sets_resampled)
            )
            start = time.perf_counter()
            rebuilt = _fresh_maintainer(maintainer.graph)
            rebuild_times.append(time.perf_counter() - start)
        # Differential spot-check: the cheap path and the expensive
        # path agree bit-for-bit, so the timing comparison is fair.
        for inc, ref in zip(maintainer.pools()[0], rebuilt.pools()[0]):
            assert np.array_equal(inc, ref)
        all_rebuild_times.extend(rebuild_times)
        apply_s = statistics.median(apply_times)
        rebuild_s = statistics.median(rebuild_times)
        results.append(
            {
                "batch_size": batch_size,
                "apply_seconds": apply_s,
                "rebuild_seconds": rebuild_s,
                "speedup": rebuild_s / apply_s if apply_s else 0.0,
                "deltas_per_second": batch_size / apply_s if apply_s else 0.0,
                "retain_fraction": statistics.median(retained),
            }
        )

    walk_times, adopt_times = [], []
    for _ in range(BATCHES_PER_SIZE):
        start = time.perf_counter()
        with RRSampler(graph, workers=1) as sampler:
            pools = [
                sampler.sample(point, NUM_SETS, seed=139, request=pid)
                for pid, point in enumerate(_index_points())
            ]
        walk_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        IncrementalSketchMaintainer(
            graph,
            _index_points(),
            num_sets=NUM_SETS,
            seed_list_length=SEED_LIST_LENGTH,
            seed=139,
            block_size=_block_size(NUM_NODES),
            pools=pools,
        )
        adopt_times.append(time.perf_counter() - start)
    construction = {
        "rebuild_seconds": statistics.median(all_rebuild_times),
        "block_walk_seconds": statistics.median(walk_times),
        "from_pools_seconds": statistics.median(adopt_times),
    }

    payload = {
        "cpu_count": os.cpu_count(),
        "graph": {
            "num_nodes": NUM_NODES,
            "num_topics": NUM_TOPICS,
            "num_arcs": int(graph.num_arcs),
        },
        "sketch": {
            "num_points": NUM_POINTS,
            "num_sets": NUM_SETS,
            "seed_list_length": SEED_LIST_LENGTH,
        },
        "speedup_threshold": SPEEDUP_THRESHOLD,
        "results": results,
        "construction": construction,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2))

    lines = [
        f"graph: {NUM_NODES} nodes / {graph.num_arcs} arcs, "
        f"sketch: {NUM_POINTS} points x {NUM_SETS} RR sets",
        "batch | apply ms | rebuild ms | speedup | deltas/s | retained",
    ]
    for row in results:
        lines.append(
            f"{row['batch_size']:5d} | {row['apply_seconds'] * 1e3:8.1f} | "
            f"{row['rebuild_seconds'] * 1e3:10.1f} | "
            f"{row['speedup']:6.1f}x | {row['deltas_per_second']:8.1f} | "
            f"{row['retain_fraction']:7.1%}"
        )
    lines.append(
        "construction: rebuild "
        f"{construction['rebuild_seconds'] * 1e3:.1f} ms, block walks "
        f"{construction['block_walk_seconds'] * 1e3:.1f} ms + from pools "
        f"{construction['from_pools_seconds'] * 1e3:.1f} ms"
    )
    report = "\n".join(lines)
    register_report("Streaming incremental maintenance", report)
    print(report)

    smallest = results[0]
    assert smallest["speedup"] >= SPEEDUP_THRESHOLD, (
        f"expected >= {SPEEDUP_THRESHOLD}x over rebuild at batch size "
        f"{smallest['batch_size']}, measured {smallest['speedup']:.1f}x"
    )
