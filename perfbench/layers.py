"""The traced replay: per-layer numbers measured from outside each module.

Each span wraps one call into a module's public functions, replaying the
run's own seeded inputs in this process after the server has stopped:

* the CLI build, stage by stage (``fit_dirichlet_mle``,
  ``Dirichlet.sample``, ``bregman_kmeans``, ``offline_seed_lists_batch``,
  ``BBTree``, ``SketchBank.build``, ``save_index``/``load_index``), with
  the random streams ``InflexIndex.build`` uses, so the result must equal
  the index the CLI wrote;
* the query path, both whole (``InflexIndex.query``/``query_batch``) and
  taken apart (bb-tree search, ``importance_weights``/``select_neighbors``,
  ``aggregate_seed_lists``, ``SketchBank.compose_index`` + greedy), where
  the parts must reproduce the whole call's seeds;
* the wire codec (``parse_query_payload``, ``answer_to_dict`` +
  ``encode_response``) and ``CachedIndex.lookup``;
* ``StreamingEngine.apply`` on the run's delta batches.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from common import (
    COLD_MIX,
    K,
    REPLAY_BATCH,
    STREAM_SETS,
    median,
)

STRATEGIES = tuple(COLD_MIX)


class Spans:
    """An in-memory span recorder: name, start, end and parent span."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [
            (r["end"] - r["start"]) * 1e3
            for r in self.records
            if r["name"] == name and r["end"] is not None
        ]

    def median_ms(self, name: str) -> float:
        return median(self.durations_ms(name))

    def seconds(self, name: str) -> float:
        return sum(self.durations_ms(name)) / 1e3

    def write(self, path) -> None:
        """Chrome trace-event JSON (load in chrome://tracing/Perfetto)."""
        if not self.records:
            return
        origin = self.records[0]["start"]
        events = [
            {
                "name": r["name"],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (r["start"] - origin) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "args": {"id": r["id"], "parent": r["parent"]},
            }
            for r in self.records
            if r["end"] is not None
        ]
        path.write_text(json.dumps({"traceEvents": events}))


def replay_build(spans, data_dir, cli_index, tmp_dir, problems) -> dict:
    """Re-run the CLI build stage by stage; check it equals ``cli_index``."""
    from repro.bbtree.tree import BBTree
    from repro.clustering.kmeanspp import bregman_kmeans
    from repro.core.index import InflexIndex
    from repro.core.offline import offline_seed_lists_batch
    from repro.core.persistence import load_index, save_index
    from repro.divergence.kl import KLDivergence
    from repro.graph import load_graph
    from repro.rng import resolve_rng, spawn_rngs
    from repro.simplex.dirichlet import fit_dirichlet_mle
    from repro.simplex.vectors import as_distribution_matrix, smooth
    from repro.sketches import SketchBank, load_sketches, save_sketches

    config = cli_index.config
    graph = load_graph(data_dir / "graph.npz")
    catalog = smooth(as_distribution_matrix(np.load(data_dir / "catalog.npy")))
    rng = resolve_rng(config.seed)
    with spans.span("simplex.fit"):
        dirichlet = fit_dirichlet_mle(catalog)
    with spans.span("simplex.sample"):
        samples = dirichlet.sample(config.num_dirichlet_samples, seed=rng)
    with spans.span("clustering.kmeans"):
        clustering = bregman_kmeans(
            samples, config.num_index_points, KLDivergence(), seed=rng
        )
    points = smooth(np.maximum(clustering.centroids, 1e-12))
    item_seeds = [
        int(child.integers(0, 2**63 - 1))
        for child in spawn_rngs(rng, points.shape[0])
    ]
    with spans.span("im.seed_lists"):
        seed_lists = offline_seed_lists_batch(
            graph,
            points,
            config.seed_list_length,
            engine=config.im_engine,
            ris_num_sets=config.ris_num_sets,
            num_snapshots=config.num_snapshots,
            num_simulations=config.num_simulations,
            imm_epsilon=config.imm_epsilon,
            imm_delta=config.imm_delta,
            seeds=item_seeds,
            workers=config.effective_workers,
            sim_workers=config.effective_simulation_workers,
        )
    with spans.span("bbtree.build"):
        tree = BBTree(
            smooth(as_distribution_matrix(points)),
            divergence=KLDivergence(),
            leaf_size=config.leaf_size,
            max_branch=config.max_branch,
            branching=config.branching,
            ad_alpha=config.gmeans_alpha,
            seed=config.seed,
        )
    index = InflexIndex(
        graph, points, seed_lists, config, dirichlet=dirichlet, tree=tree
    )
    with spans.span("sketches.build"):
        bank = SketchBank.build(
            graph, cli_index.sketches.config, workers=config.workers
        )
    index_path = tmp_dir / "replay.npz"
    bank_path = tmp_dir / "replay.sketches.npz"
    with spans.span("persistence.save"):
        save_index(index, index_path)
        save_sketches(bank, bank_path)
    with spans.span("persistence.load"):
        loaded = load_index(index_path, graph)
        loaded.attach_sketches(load_sketches(bank_path))
    if not same_index(loaded, cli_index):
        problems.append("traced build replay differs from the CLI build")
    h = config.num_index_points
    return {
        "simplex.fit_s": spans.seconds("simplex.fit"),
        "simplex.sample_s": spans.seconds("simplex.sample"),
        "clustering.kmeans_s": spans.seconds("clustering.kmeans"),
        "clustering.iterations": clustering.iterations,
        "im.seed_lists_s": spans.seconds("im.seed_lists"),
        "im.per_list_ms": spans.seconds("im.seed_lists") * 1e3 / h,
        "bbtree.build_s": spans.seconds("bbtree.build"),
        "sketches.build_s": spans.seconds("sketches.build"),
        "persistence.save_s": spans.seconds("persistence.save"),
        "persistence.load_s": spans.seconds("persistence.load"),
    }


def same_index(a, b, *, points_atol: float = 0.0) -> bool:
    """Equal seed lists and sketch-bank arrays, bit for bit, and index
    points within ``points_atol`` (bit for bit by default)."""
    if a.index_points.shape != b.index_points.shape:
        return False
    if np.abs(a.index_points - b.index_points).max() > points_atol:
        return False
    if [s.nodes for s in a.seed_lists] != [s.nodes for s in b.seed_lists]:
        return False
    if (a.sketches is None) != (b.sketches is None):
        return False
    if a.sketches is None:
        return True
    left, right = a.sketches.arrays(), b.sketches.arrays()
    return left.keys() == right.keys() and all(
        np.array_equal(left[key], right[key]) for key in left
    )


def wire_gamma(gamma) -> list[float]:
    """The gamma the server computes from the benchmark's JSON body."""
    from repro.serving.protocol import parse_query_payload

    body = json.dumps({"gamma": [float(v) for v in gamma], "k": K})
    return parse_query_payload(json.loads(body))[0]


def _decomposed(index, gamma, strategy, spans, tally):
    """``InflexIndex.query`` taken apart at its module boundaries."""
    from repro.bbtree.search import exact_nearest_neighbors, inflex_search
    from repro.core.aggregation import aggregate_seed_lists
    from repro.core.query import TimQuery
    from repro.ranking.weights import importance_weights, select_neighbors
    from repro.simplex.vectors import smooth

    config = index.config
    bank = index.sketches
    gamma = TimQuery(np.asarray(gamma, dtype=np.float64), K).gamma
    if strategy == "sketch":
        return _compose(bank, gamma, spans)
    point = smooth(gamma)
    with spans.span(f"bbtree.search.{strategy}"):
        if strategy == "inflex":
            result = inflex_search(
                index.tree,
                point,
                epsilon=config.epsilon,
                ad_alpha=config.ad_alpha,
                max_leaves=config.max_leaves,
            )
        else:
            result = exact_nearest_neighbors(
                index.tree, point, min(config.knn, index.num_index_points)
            )
    if strategy == "inflex":
        tally["divergences"].append(result.stats.divergence_computations)
        tally["leaves"].append(result.stats.leaves_visited)
    tally["searches"] += 1
    if result.stats.epsilon_match:
        return tuple(index.seed_lists[int(result.indices[0])].top(K).nodes)
    if (
        bank is not None
        and bank.config.fallback_divergence is not None
        and float(result.divergences[0]) > bank.config.fallback_divergence
    ):
        tally["fallbacks"] += 1
        return _compose(bank, gamma, spans)
    with spans.span("ranking.select"):
        if strategy == "inflex":
            result = result.top(min(config.knn, len(result)))
        weights = importance_weights(
            result.divergences,
            index.graph.num_topics,
            bound_eps=config.weight_bound_eps,
        )
        keep = (
            select_neighbors(weights, threshold=config.selection_threshold)
            if strategy == "inflex"
            else len(result)
        )
    with spans.span("core.aggregation.aggregate"):
        lists = [index.seed_lists[int(i)] for i in result.indices[:keep]]
        kept = weights[:keep] if config.weighted else None
        if kept is not None and kept.sum() <= 0:
            kept = None
        seeds = aggregate_seed_lists(
            lists,
            K,
            aggregator=config.aggregator,
            weights=kept,
            apply_local_kemenization=config.local_kemenization,
        )
    tally["lists"].append(keep)
    return tuple(seeds.nodes)


def _compose(bank, gamma, spans):
    with spans.span("sketches.compose"):
        composed = bank.compose_index(gamma)
    with spans.span("sketches.select"):
        nodes, _gains = composed.greedy_select(min(K, composed.num_nodes))
    return tuple(nodes)


def replay_queries(spans, index, gammas, problems) -> tuple[dict, dict]:
    """Time the query path whole and in parts on ``gammas``.

    Returns ``(metrics, answers)`` with ``answers[(i, strategy)]`` the
    seeds ``InflexIndex.query`` gave for ``gammas[i]``.
    """
    from repro.core.cache import CachedIndex
    from repro.serving.protocol import (
        HttpRequest,
        answer_to_dict,
        encode_response,
        json_body,
        parse_query_payload,
    )

    tally = {"divergences": [], "leaves": [], "lists": [], "searches": 0,
             "fallbacks": 0}
    answers: dict = {}
    whole: dict = {s: [] for s in STRATEGIES}
    parts: list[float] = []
    mismatches = 0
    decode_us, encode_us = [], []
    cache = CachedIndex(index, max_entries=len(gammas) * len(STRATEGIES) + 1)
    keys = []
    for i, gamma in enumerate(gammas):
        for strategy in STRATEGIES:
            body = json.dumps(
                {"gamma": list(gamma), "k": K, "strategy": strategy}
            ).encode()
            started = time.perf_counter()
            parse_query_payload(HttpRequest("POST", "/query", {}, body).json())
            decode_us.append((time.perf_counter() - started) * 1e6)
            with spans.span(f"core.index.query.{strategy}") as record:
                answer = index.query(gamma, K, strategy=strategy)
            whole[strategy].append(record["end"] - record["start"])
            answers[(i, strategy)] = tuple(answer.seeds.nodes)
            started = time.perf_counter()
            encode_response(200, json_body(answer_to_dict(answer)))
            encode_us.append((time.perf_counter() - started) * 1e6)
            key = cache.canonical_key(gamma, K, strategy)
            cache.store(key, answer)
            keys.append(key)
            started = time.perf_counter()
            seeds = _decomposed(index, gamma, strategy, spans, tally)
            if strategy == "inflex":
                parts.append(time.perf_counter() - started)
            if seeds != answers[(i, strategy)]:
                mismatches += 1
    if mismatches:
        problems.append(
            f"{mismatches} decomposed queries differ from InflexIndex.query"
        )
    lookup_us = []
    for key in keys:
        started = time.perf_counter()
        hit = cache.lookup(key)
        lookup_us.append((time.perf_counter() - started) * 1e6)
        if hit is None:
            problems.append("cache lookup missed a stored key")
            break
    per_query_ms = []
    for start in range(0, len(gammas), REPLAY_BATCH):
        chunk = gammas[start : start + REPLAY_BATCH]
        with spans.span("core.index.query_batch") as record:
            batch = index.query_batch(chunk, K, strategy="inflex")
        per_query_ms.append((record["end"] - record["start"]) * 1e3 / len(chunk))
        for offset, answer in enumerate(batch):
            if tuple(answer.seeds.nodes) != answers[(start + offset, "inflex")]:
                problems.append("query_batch differs from query")
                break
    metrics = {
        f"core.index.query_ms.{s}": median(whole[s]) * 1e3 for s in STRATEGIES
    }
    metrics.update(
        {
            "core.index.batch_ms_per_query": median(per_query_ms),
            "bbtree.search_ms.inflex": spans.median_ms("bbtree.search.inflex"),
            "bbtree.search_ms.exact-knn": spans.median_ms(
                "bbtree.search.exact-knn"
            ),
            "bbtree.divergences_per_query": float(np.mean(tally["divergences"])),
            "bbtree.leaves_per_query": float(np.mean(tally["leaves"])),
            "ranking.select_ms": _median_or_zero(spans, "ranking.select"),
            "core.aggregation.aggregate_ms": _median_or_zero(
                spans, "core.aggregation.aggregate"
            ),
            "core.aggregation.lists_per_query": float(np.mean(tally["lists"]))
            if tally["lists"]
            else 0.0,
            "sketches.compose_ms": spans.median_ms("sketches.compose"),
            "sketches.select_ms": spans.median_ms("sketches.select"),
            "sketches.fallback_frac": tally["fallbacks"] / tally["searches"],
            "serving.protocol.decode_us": median(decode_us),
            "serving.protocol.encode_us": median(encode_us),
            "core.cache.lookup_us": median(lookup_us),
            # The parts re-enter each module through its own public
            # function and the benchmark's spans; the whole call runs
            # untraced.  Their ratio is the tracing overhead.
            "trace.overhead_ratio": median(parts) / median(whole["inflex"]),
        }
    )
    return metrics, answers


def _median_or_zero(spans, name) -> float:
    values = spans.durations_ms(name)
    return median(values) if values else 0.0


def replay_stream(spans, index, batches, subscriptions, probes) -> tuple:
    """``StreamingEngine.apply`` on the run's batches, as ``serve --stream``
    sets it up.  Returns ``(metrics, probe answers after the last batch)``."""
    from repro.streaming import StreamingEngine

    engine = StreamingEngine(index, num_sets=STREAM_SETS)
    for gamma in subscriptions:
        engine.subscribe(gamma, K, strategy="inflex")
    resampled = retained = changed = updates = 0
    for batch in batches:
        with spans.span("streaming.apply"):
            report, emitted = engine.apply(batch)
        resampled += report.rr_sets_resampled
        retained += report.rr_sets_retained
        changed += len(report.changed_points)
        updates += len(emitted)
    answers = {
        (i, strategy): tuple(
            engine.index.query(gamma, K, strategy=strategy).seeds.nodes
        )
        for i, gamma in enumerate(probes)
        for strategy in STRATEGIES
    }
    total = resampled + retained
    metrics = {
        "streaming.apply_ms": spans.median_ms("streaming.apply"),
        "streaming.rr_sets_resampled": resampled,
        "streaming.retain_frac": retained / total if total else 1.0,
        "streaming.changed_points": changed,
        "streaming.updates_emitted": updates,
    }
    return metrics, answers
