"""The INFLEX index: offline construction and online TIM query evaluation.

Construction (Section 3 of the paper):

1. fit a Dirichlet to the item catalog by maximum likelihood (Minka);
2. sample a large cloud from it and run Bregman K-means++; the ``h``
   centroids become the index points — a data-aware yet smooth coverage
   of the topic simplex;
3. for each index point, precompute a ranked seed list of length ``l``
   with a standard influence-maximization computation;
4. organize the index points in a Bregman ball tree under the
   right-sided KL divergence.

Query evaluation (Section 4): similarity search on the bb-tree
(Algorithm 1), importance weighting (Eq. 9), automatic neighbor
selection, and weighted rank aggregation with Local Kemenization.
Six strategies are exposed — the paper's five retrieval variants
(``inflex``, ``exact-knn``, ``approx-knn``, ``approx-knn-sel``,
``approx-ad``) plus ``sketch``, a second answering engine that skips
retrieval entirely: it composes precomputed per-topic RR sketch pools
for the query mixture and runs greedy max coverage over the
composition (:mod:`repro.sketches`, requires an attached bank).  A
bank, when attached, also upgrades the degraded-answer path of every
other strategy: far-from-index queries and expired deadlines answer
from composed sketches (``algorithm="sketch:fallback"``) instead of
the bare nearest-neighbor list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.bbtree.search import (
    SearchResult,
    exact_nearest_neighbors,
    inflex_search,
    leaf_limited_search,
)
from repro.bbtree.tree import BBTree
from repro.clustering.kmeanspp import bregman_kmeans
from repro.core.aggregation import aggregate_rankings
from repro.core.config import InflexConfig
from repro.core.query import QueryTiming, TimAnswer, TimQuery
from repro.divergence.kl import KLDivergence
from repro.errors import EmptyIndexError, QueryError
from repro.graph.topic_graph import TopicGraph
from repro.im.seed_list import SeedList
from repro.obs import instruments as _obs
from repro.obs.tracing import get_tracer
from repro.ranking.copeland import RankingTable
from repro.ranking.weights import importance_weights, select_neighbors
from repro.rng import resolve_rng, spawn_rngs
from repro.simplex.vectors import as_distribution_matrix, smooth

if TYPE_CHECKING:
    from repro.simplex.dirichlet import Dirichlet

#: Retrieval strategies answered from the index alone — the paper's
#: Section 5 variants.  These are what the figure experiments sweep.
RETRIEVAL_STRATEGIES = (
    "inflex",
    "exact-knn",
    "approx-knn",
    "approx-knn-sel",
    "approx-ad",
)

#: Strategy names accepted by :meth:`InflexIndex.query`.  ``"sketch"``
#: additionally needs an attached :class:`repro.sketches.SketchBank`.
STRATEGIES = RETRIEVAL_STRATEGIES + ("sketch",)


class InflexIndex:
    """Precomputed index answering TIM queries in milliseconds.

    Instances are built with :meth:`build` (the full pipeline) or
    assembled directly from explicit index points and seed lists (used
    by persistence and by tests).
    """

    def __init__(
        self,
        graph: TopicGraph,
        index_points: np.ndarray,
        seed_lists: list[SeedList],
        config: InflexConfig,
        *,
        dirichlet: Dirichlet | None = None,
        tree: BBTree | None = None,
    ) -> None:
        self._assemble(
            graph,
            smooth(as_distribution_matrix(index_points)),
            seed_lists,
            config,
            dirichlet,
            tree,
        )

    @classmethod
    def _restore(
        cls,
        graph: TopicGraph,
        index_points,
        seed_lists,
        config,
        *,
        dirichlet: Dirichlet | None = None,
        tree: BBTree | None = None,
    ) -> "InflexIndex":
        """An index over points that were already smoothed.

        Smoothing is not idempotent in floating point: a second pass
        moves a point by about an ulp.  Loading, streaming swaps and
        index maintenance go through here, so points smoothed once (at
        build time, or when first supplied) are kept exactly.
        """
        index = cls.__new__(cls)
        index._assemble(
            graph,
            np.array(as_distribution_matrix(index_points)),
            seed_lists,
            config,
            dirichlet,
            tree,
        )
        return index

    def _assemble(
        self,
        graph: TopicGraph,
        points: np.ndarray,
        seed_lists: list[SeedList],
        config: InflexConfig,
        dirichlet: Dirichlet | None,
        tree: BBTree | None,
    ) -> None:
        if points.shape[1] != graph.num_topics:
            raise ValueError(
                f"index points have {points.shape[1]} topics, graph has "
                f"{graph.num_topics}"
            )
        if len(seed_lists) != points.shape[0]:
            raise ValueError(
                f"{len(seed_lists)} seed lists for {points.shape[0]} "
                "index points"
            )
        if points.shape[0] == 0:
            raise EmptyIndexError("cannot build an index with no points")
        self._graph = graph
        self._points = points
        self._seed_lists = list(seed_lists)
        # The lists by matrix column: a query aggregates rows of it.
        self._rankings = RankingTable(self._seed_lists)
        self._config = config
        self._dirichlet = dirichlet
        self._divergence = KLDivergence()
        if tree is None:
            tree = BBTree(
                self._points,
                divergence=self._divergence,
                leaf_size=config.leaf_size,
                max_branch=config.max_branch,
                branching=config.branching,
                ad_alpha=config.gmeans_alpha,
                seed=config.seed,
            )
        self._tree = tree
        self._sketches = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: TopicGraph,
        catalog_items,
        config: InflexConfig | None = None,
        *,
        progress=None,
        workers=None,
    ) -> "InflexIndex":
        """Run the full offline pipeline and return a ready index.

        Parameters
        ----------
        graph:
            Topic graph with (learned or ground-truth) TIC parameters.
        catalog_items:
            Item catalog ``(num_items, Z)`` defining the query space.
        config:
            All tunables; defaults to :class:`InflexConfig()`.
        progress:
            Optional callable ``progress(stage: str, done: int,
            total: int)`` for long builds.
        workers:
            Process count for the seed-list precomputation (the
            dominant cost; items are independent, results are
            bit-identical to the serial run).  ``None`` follows
            ``config.workers``; the simulation pool width always comes
            from ``config.simulation_workers``.
        """
        # Build-only modules: a served index never needs them.
        from repro.core.offline import offline_seed_lists_batch
        from repro.simplex.dirichlet import fit_dirichlet_mle

        if config is None:
            config = InflexConfig()
        if workers is None:
            workers = config.effective_workers
        catalog = smooth(as_distribution_matrix(catalog_items))
        if catalog.shape[1] != graph.num_topics:
            raise ValueError(
                f"catalog has {catalog.shape[1]} topics, graph has "
                f"{graph.num_topics}"
            )
        rng = resolve_rng(config.seed)

        def report(stage: str, done: int, total: int) -> None:
            if progress is not None:
                progress(stage, done, total)

        # 1. Dirichlet MLE over the catalog.
        report("dirichlet", 0, 1)
        with _obs.build_stage("dirichlet"):
            dirichlet = fit_dirichlet_mle(catalog)
        # 2. Sample the cloud and cluster it.
        report("sampling", 0, 1)
        with _obs.build_stage("sampling"):
            samples = dirichlet.sample(
                config.num_dirichlet_samples, seed=rng
            )
        report("clustering", 0, 1)
        with _obs.build_stage("clustering"):
            divergence = KLDivergence()
            clustering = bregman_kmeans(
                samples, config.num_index_points, divergence, seed=rng
            )
            index_points = smooth(np.maximum(clustering.centroids, 1e-12))
        # 3. Precompute seed lists (the dominant cost; parallelizable).
        child_rngs = spawn_rngs(rng, index_points.shape[0])
        item_seeds = [
            int(child.integers(0, 2**63 - 1)) for child in child_rngs
        ]
        report("seed-lists", 0, len(item_seeds))
        with _obs.build_stage("seed-lists"):
            seed_lists = offline_seed_lists_batch(
                graph,
                index_points,
                config.seed_list_length,
                engine=config.im_engine,
                ris_num_sets=config.ris_num_sets,
                num_snapshots=config.num_snapshots,
                num_simulations=config.num_simulations,
                imm_epsilon=config.imm_epsilon,
                imm_delta=config.imm_delta,
                seeds=item_seeds,
                workers=workers,
                sim_workers=config.effective_simulation_workers,
                progress=lambda done, total: report(
                    "seed-lists", done, total
                ),
            )
        # 4. The bb-tree is created in __init__.
        report("tree", 0, 1)
        with _obs.build_stage("tree"):
            return cls(
                graph,
                index_points,
                seed_lists,
                config,
                dirichlet=dirichlet,
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TopicGraph:
        return self._graph

    @property
    def config(self) -> InflexConfig:
        return self._config

    @property
    def index_points(self) -> np.ndarray:
        """The ``(h, Z)`` matrix of indexed topic distributions."""
        return self._points

    @property
    def seed_lists(self) -> list[SeedList]:
        """Precomputed ranked seed lists, aligned with the index points."""
        return list(self._seed_lists)

    @property
    def tree(self) -> BBTree:
        return self._tree

    @property
    def dirichlet(self) -> Dirichlet | None:
        """The catalog-fitted Dirichlet (``None`` for assembled indexes)."""
        return self._dirichlet

    @property
    def num_index_points(self) -> int:
        return int(self._points.shape[0])

    @property
    def sketches(self):
        """The attached per-topic sketch bank (``None`` when absent)."""
        return self._sketches

    def attach_sketches(self, bank) -> None:
        """Attach a :class:`~repro.sketches.SketchBank` to this index.

        Enables ``strategy="sketch"`` and upgrades the degraded-answer
        path of every other strategy (distance and deadline fallbacks
        answer from composed sketches).  Pass ``None`` to detach.
        """
        if bank is not None:
            if bank.num_nodes != self._graph.num_nodes:
                raise ValueError(
                    f"sketch bank covers {bank.num_nodes} nodes, graph "
                    f"has {self._graph.num_nodes}"
                )
            if bank.num_topics != self._graph.num_topics:
                raise ValueError(
                    f"sketch bank has {bank.num_topics} topics, graph "
                    f"has {self._graph.num_topics}"
                )
            _obs.set_sketch_pool(bank.num_topics * bank.num_sets)
        self._sketches = bank

    # ------------------------------------------------------------------
    # Query evaluation
    # ------------------------------------------------------------------
    def query(
        self,
        gamma,
        k: int,
        *,
        strategy: str = "inflex",
        deadline_ms=None,
    ) -> TimAnswer:
        """Answer the TIM query ``Q(gamma, k)``.

        Parameters
        ----------
        gamma:
            Query item topic distribution.
        k:
            Requested seed-set size.
        strategy:
            One of :data:`STRATEGIES`; ``"inflex"`` is the paper's full
            pipeline, the others are its evaluated alternatives.
        deadline_ms:
            Wall-clock budget for this query: a number of milliseconds,
            an already-running :class:`repro.resilience.Deadline` (as
            shared by :meth:`query_batch`), or ``None`` to follow
            ``config.deadline_ms``.  On expiry the answer degrades to
            the nearest neighbor's precomputed list — flagged with
            ``TimAnswer.degraded`` — rather than blocking past the
            budget; see ``docs/RESILIENCE.md``.
        """
        from repro.resilience.deadline import resolve_deadline

        if deadline_ms is None:
            deadline_ms = self._config.deadline_ms
        deadline = resolve_deadline(deadline_ms)
        tim_query = TimQuery(np.asarray(gamma, dtype=np.float64), k)
        self._check_query(tim_query.num_topics, strategy)
        answer = self._evaluate(tim_query.gamma, k, strategy, deadline)
        _obs.record_query(strategy, answer)
        return answer

    def _check_query(self, num_topics: int, strategy: str) -> None:
        if num_topics != self._graph.num_topics:
            raise QueryError(
                f"query has {num_topics} topics, index has "
                f"{self._graph.num_topics}"
            )
        if strategy not in STRATEGIES:
            raise QueryError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )

    def _evaluate(
        self, gamma: np.ndarray, k: int, strategy: str, deadline
    ) -> TimAnswer:
        """Answer ``Q(gamma, k)`` for a validated ``gamma`` and
        ``strategy``; the caller records the answer's metrics."""
        if strategy == "sketch":
            return self._sketch_query(gamma, k)
        config = self._config
        query_point = smooth(gamma)
        tracer = get_tracer()

        with tracer.span("query", strategy=strategy, k=k):
            # Phase 1: similarity search -------------------------------
            with tracer.span("query.search") as search_span:
                result = self._search(query_point, strategy)
            if result.stats.epsilon_match:
                match_id = int(result.indices[0])
                return TimAnswer(
                    seeds=SeedList(
                        self._seed_lists[match_id].nodes[:k],
                        (),
                        algorithm=f"{strategy}:exact",
                    ),
                    strategy=strategy,
                    neighbor_ids=(match_id,),
                    neighbor_divergences=(float(result.divergences[0]),),
                    neighbor_weights=(1.0,),
                    search_stats=result.stats,
                    timing=QueryTiming(search=search_span.duration),
                    epsilon_match=True,
                )

            if deadline is not None and deadline.expired():
                return self._degraded_answer(
                    strategy,
                    gamma,
                    k,
                    result,
                    QueryTiming(search=search_span.duration),
                )

            bank = self._sketches
            if (
                bank is not None
                and bank.config.fallback_divergence is not None
                and float(result.divergences[0])
                > bank.config.fallback_divergence
            ):
                # Degraded-answer upgrade: the query landed farther from
                # every index point than the sketch fallback threshold —
                # rank aggregation over distant neighbors would be weak,
                # so answer from composed sketches instead.
                return self._sketch_fallback(
                    strategy,
                    gamma,
                    k,
                    result,
                    reason="distance",
                    timing=QueryTiming(search=search_span.duration),
                )

            # Phase 2: weights and automatic selection ------------------
            with tracer.span("query.selection") as selection_span:
                if strategy == "inflex":
                    # The AD-stopped search returns whole leaf
                    # populations; cap the aggregation candidates at the
                    # K-NN budget (nearest first) before the gap-rule
                    # selection — distant leaf co-residents would only
                    # dilute the consensus.
                    result = result.top(min(config.knn, len(result)))
                weights = importance_weights(
                    result.divergences,
                    self._graph.num_topics,
                    bound_eps=config.weight_bound_eps,
                )
                if strategy in ("inflex", "approx-knn-sel"):
                    keep = select_neighbors(
                        weights, threshold=config.selection_threshold
                    )
                else:
                    keep = len(result)
            kept_ids = result.indices[:keep]
            kept_weights = weights[:keep]

            if deadline is not None and deadline.expired():
                # Aggregation (pairwise Copeland + Local Kemenization)
                # dominates query cost; skip it once over budget.
                return self._degraded_answer(
                    strategy,
                    gamma,
                    k,
                    result,
                    QueryTiming(
                        search=search_span.duration,
                        selection=selection_span.duration,
                    ),
                )

            # Phase 3: rank aggregation ---------------------------------
            with tracer.span("query.aggregation") as aggregation_span:
                aggregation_weights = (
                    kept_weights if config.weighted else None
                )
                if (
                    aggregation_weights is not None
                    and aggregation_weights.sum() <= 0
                ):
                    # Every retrieved neighbor sits beyond the KL_max
                    # bound (a query far from all index points): fall
                    # back to unweighted aggregation rather than
                    # dividing by a zero total weight.
                    aggregation_weights = None
                ranked = aggregate_rankings(
                    self._rankings,
                    kept_ids,
                    k,
                    aggregator=config.aggregator,
                    weights=aggregation_weights,
                    apply_local_kemenization=config.local_kemenization,
                )
            return TimAnswer(
                seeds=SeedList(tuple(ranked), (), algorithm=strategy),
                strategy=strategy,
                neighbor_ids=tuple(kept_ids.tolist()),
                neighbor_divergences=tuple(result.divergences[:keep].tolist()),
                neighbor_weights=tuple(kept_weights.tolist()),
                search_stats=result.stats,
                timing=QueryTiming(
                    search=search_span.duration,
                    selection=selection_span.duration,
                    aggregation=aggregation_span.duration,
                ),
                epsilon_match=False,
            )

    def _degraded_answer(
        self,
        strategy: str,
        gamma: np.ndarray,
        k: int,
        result: SearchResult,
        timing: QueryTiming,
    ) -> TimAnswer:
        """Deadline-expired fast path.

        With a sketch bank attached the fallback composes a fresh
        answer for the query mixture (``algorithm="sketch:fallback"``)
        — strictly better than a canned list when the query is far
        from every index point.  Without one, the nearest neighbor's
        precomputed list as-is: skipping the selection/aggregation
        phases bounds the remaining work to one list slice, so an
        expired query returns promptly with an honest (if
        lower-quality) answer instead of blowing through its budget.
        """
        _obs.record_deadline_expired("query")
        if self._sketches is not None:
            return self._sketch_fallback(
                strategy, gamma, k, result, reason="deadline", timing=timing
            )
        nearest = int(result.indices[0])
        return TimAnswer(
            seeds=SeedList(
                self._seed_lists[nearest].nodes[:k],
                (),
                algorithm=f"{strategy}:degraded",
            ),
            strategy=strategy,
            neighbor_ids=(nearest,),
            neighbor_divergences=(float(result.divergences[0]),),
            neighbor_weights=(1.0,),
            search_stats=result.stats,
            timing=timing,
            epsilon_match=False,
            degraded=True,
            reason="deadline",
        )

    # ------------------------------------------------------------------
    # Sketch strategy (see repro.sketches and docs/SKETCHES.md)
    # ------------------------------------------------------------------
    def _require_sketches(self):
        if self._sketches is None:
            raise QueryError(
                'strategy "sketch" requires an attached sketch bank; '
                "build one with `build --sketches` and load it alongside "
                "the index"
            )
        return self._sketches

    def _sketch_seeds(
        self, gamma: np.ndarray, k: int, *, algorithm: str
    ) -> tuple[SeedList, QueryTiming]:
        """Compose the bank for ``gamma`` and greedy-select ``k`` seeds.

        The composition replaces the similarity search (its duration is
        reported as the ``search`` phase) and the greedy max
        coverage replaces selection; there is no aggregation phase.
        Marginal gains are scaled from covered-set units to expected
        spread (``n / num_sets``).
        """
        bank = self._require_sketches()
        tracer = get_tracer()
        with tracer.span("sketch.compose") as compose_span:
            composed = bank.compose_index(gamma)
        _obs.record_sketch_compose(compose_span.duration)
        with tracer.span("sketch.select") as select_span:
            seeds = composed.seed_list(
                min(k, composed.num_nodes), algorithm=algorithm
            )
        timing = QueryTiming(
            search=compose_span.duration, selection=select_span.duration
        )
        return seeds, timing

    def _sketch_query(self, gamma: np.ndarray, k: int) -> TimAnswer:
        """The ``strategy="sketch"`` path: no retrieval, no aggregation."""
        self._require_sketches()
        with get_tracer().span("query", strategy="sketch", k=k):
            seeds, timing = self._sketch_seeds(gamma, k, algorithm="sketch")
            return TimAnswer(seeds=seeds, strategy="sketch", timing=timing)

    def _sketch_fallback(
        self,
        strategy: str,
        gamma: np.ndarray,
        k: int,
        result: SearchResult,
        *,
        reason: str,
        timing: QueryTiming,
    ) -> TimAnswer:
        """Degraded-answer upgrade: compose sketches for the query.

        Used when a deadline expired or the nearest index point is
        beyond the bank's KL fallback threshold.  The retrieved nearest
        neighbor rides along for provenance (weight 0 — it did not
        contribute to the seeds).
        """
        _obs.record_sketch_fallback(reason)
        seeds, sketch_timing = self._sketch_seeds(
            gamma, k, algorithm="sketch:fallback"
        )
        return TimAnswer(
            seeds=seeds,
            strategy=strategy,
            neighbor_ids=(int(result.indices[0]),),
            neighbor_divergences=(float(result.divergences[0]),),
            neighbor_weights=(0.0,),
            search_stats=result.stats,
            timing=QueryTiming(
                search=timing.search + sketch_timing.search,
                selection=timing.selection + sketch_timing.selection,
                aggregation=timing.aggregation,
            ),
            epsilon_match=False,
            degraded=True,
            reason=reason,
        )

    def stats(self) -> dict:
        """Operator summary of the index.

        Returns a plain dict (JSON-friendly) with the index dimensions,
        tree shape, memory footprint and — when the index was built by
        the full pipeline — the fitted Dirichlet concentration.
        """
        summary = {
            "num_index_points": self.num_index_points,
            "seed_list_length": self._config.seed_list_length,
            "num_topics": self._graph.num_topics,
            "graph_nodes": self._graph.num_nodes,
            "graph_arcs": self._graph.num_arcs,
            "tree_leaves": self._tree.num_leaves(),
            "tree_depth": self._tree.depth(),
            "memory_bytes": self.memory_footprint(),
            "im_engine": self._config.im_engine,
            "aggregator": self._config.aggregator,
        }
        if self._dirichlet is not None:
            summary["dirichlet_alpha"] = [
                float(a) for a in self._dirichlet.alpha
            ]
            summary["dirichlet_concentration"] = float(
                self._dirichlet.concentration
            )
        if self._sketches is not None:
            summary["sketches"] = self._sketches.stats()
        return summary

    def query_batch(
        self,
        gammas,
        k: int,
        *,
        strategy: str = "inflex",
        deadline_ms=None,
    ) -> list[TimAnswer]:
        """Answer one TIM query per row of ``gammas``.

        Convenience wrapper for analytics workloads that score many
        candidate items at once (e.g. the what-if loop); answers are
        independent and returned in input order.  ``deadline_ms`` is a
        budget for the *whole batch*, shared by all rows: once it
        expires, every remaining query returns a degraded
        nearest-neighbor answer (still one answer per row — the batch
        never hangs and never comes back short).
        """
        from repro.resilience.deadline import resolve_deadline

        deadline = resolve_deadline(deadline_ms)
        rows = as_distribution_matrix(np.atleast_2d(np.asarray(gammas)))
        if k < 1:
            raise QueryError(f"query k must be >= 1, got {k}")
        self._check_query(rows.shape[1], strategy)
        answers = []
        with get_tracer().span(
            "query_batch", strategy=strategy, size=int(rows.shape[0])
        ):
            for row in rows:
                answer = self._evaluate(
                    row,
                    k,
                    strategy,
                    deadline
                    if deadline is not None
                    else resolve_deadline(self._config.deadline_ms),
                )
                _obs.record_query(strategy, answer, batched=True)
                answers.append(answer)
        _obs.record_batch(strategy, len(answers))
        return answers

    def memory_footprint(self) -> int:
        """Estimated in-memory cost of the precomputed index, in bytes.

        The paper's footnote 4 prices one preprocessed index item at
        ``(Z - 1) * sizeof(double) + l * sizeof(int)``: the topic
        distribution (one component is implied) plus the seed list.
        Returned value is that per-item cost times ``h``.
        """
        z = self._graph.num_topics
        per_item = (z - 1) * 8 + self._config.seed_list_length * 4
        return per_item * self.num_index_points

    # ------------------------------------------------------------------
    # Index maintenance (online analytics support)
    # ------------------------------------------------------------------
    def with_added_point(
        self, gamma, seed_list: SeedList | None = None
    ) -> "InflexIndex":
        """A new index with one additional index point.

        When a popular query region turns out to be poorly covered
        (large nearest-neighbor divergences), an operator can densify
        the index there without rebuilding from scratch.  The seed list
        is precomputed with the configured engine unless supplied.
        The bb-tree is rebuilt — construction over ``h`` points is
        negligible next to the seed precomputation.
        """
        point = smooth(
            as_distribution_matrix(
                np.asarray(gamma, dtype=np.float64)[np.newaxis, :]
            )
        )
        if seed_list is None:
            from repro.core.offline import offline_seed_list

            config = self._config
            seed_list = offline_seed_list(
                self._graph,
                point[0],
                config.seed_list_length,
                engine=config.im_engine,
                ris_num_sets=config.ris_num_sets,
                num_snapshots=config.num_snapshots,
                num_simulations=config.num_simulations,
                imm_epsilon=config.imm_epsilon,
                imm_delta=config.imm_delta,
                sim_workers=config.effective_simulation_workers,
                seed=config.seed,
            )
        updated = InflexIndex._restore(
            self._graph,
            np.vstack([self._points, point]),
            self._seed_lists + [seed_list],
            self._config,
            dirichlet=self._dirichlet,
        )
        updated.attach_sketches(self._sketches)
        return updated

    def with_added_points(
        self, gammas, seed_lists: list[SeedList] | None = None
    ) -> "InflexIndex":
        """A new index with a batch of additional index points.

        The batch form of :meth:`with_added_point`: seed lists for all
        new points are precomputed in one
        :func:`~repro.core.offline.offline_seed_lists_batch` call (so a
        densification pass pays the process-pool spin-up once, not per
        point) and the bb-tree is rebuilt once at the end instead of
        once per insertion.  Each point's seed list uses the configured
        engine with the index's own seed unless ``seed_lists`` supplies
        precomputed ones (one per row of ``gammas``, in order).
        """
        raw = np.atleast_2d(np.asarray(gammas, dtype=np.float64))
        if raw.shape[0] == 0:
            return self
        points = smooth(as_distribution_matrix(raw))
        num_new = points.shape[0]
        if seed_lists is None:
            from repro.core.offline import offline_seed_lists_batch

            config = self._config
            seed_lists = offline_seed_lists_batch(
                self._graph,
                points,
                config.seed_list_length,
                engine=config.im_engine,
                ris_num_sets=config.ris_num_sets,
                num_snapshots=config.num_snapshots,
                num_simulations=config.num_simulations,
                imm_epsilon=config.imm_epsilon,
                imm_delta=config.imm_delta,
                sim_workers=config.effective_simulation_workers,
                seeds=[config.seed] * num_new,
            )
        if len(seed_lists) != num_new:
            raise ValueError(
                f"{len(seed_lists)} seed lists for {num_new} new points"
            )
        updated = InflexIndex._restore(
            self._graph,
            np.vstack([self._points, points]),
            self._seed_lists + list(seed_lists),
            self._config,
            dirichlet=self._dirichlet,
        )
        updated.attach_sketches(self._sketches)
        return updated

    def without_point(self, index_point_id: int) -> "InflexIndex":
        """A new index with one index point removed.

        Raises when removal would leave an empty index.
        """
        if not 0 <= index_point_id < self.num_index_points:
            raise ValueError(
                f"index point id {index_point_id} out of range "
                f"[0, {self.num_index_points})"
            )
        if self.num_index_points <= 1:
            raise EmptyIndexError(
                "cannot remove the last index point"
            )
        keep = [
            i for i in range(self.num_index_points) if i != index_point_id
        ]
        updated = InflexIndex._restore(
            self._graph,
            self._points[keep],
            [self._seed_lists[i] for i in keep],
            self._config,
            dirichlet=self._dirichlet,
        )
        updated.attach_sketches(self._sketches)
        return updated

    def coverage_of(self, gamma) -> float:
        """KL divergence of the nearest index point to ``gamma``.

        The operator-facing health metric behind :meth:`with_added_point`:
        large values flag query regions the index covers poorly.
        """
        from repro.simplex.kl import kl_divergence_matrix

        query_point = smooth(
            as_distribution_matrix(
                np.asarray(gamma, dtype=np.float64)[np.newaxis, :]
            )
        )[0]
        return float(
            kl_divergence_matrix(self._points, query_point).min()
        )

    def _search(self, query_point: np.ndarray, strategy: str) -> SearchResult:
        config = self._config
        if strategy in ("inflex", "approx-ad"):
            return inflex_search(
                self._tree,
                query_point,
                epsilon=config.epsilon,
                ad_alpha=config.ad_alpha,
                max_leaves=config.max_leaves,
            )
        k = min(config.knn, self.num_index_points)
        if strategy == "exact-knn":
            return exact_nearest_neighbors(self._tree, query_point, k)
        # approx-knn and approx-knn-sel share the leaf-limited search.
        return leaf_limited_search(
            self._tree, query_point, k, max_leaves=config.max_leaves
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InflexIndex(h={self.num_index_points}, "
            f"l={self._config.seed_list_length}, "
            f"Z={self._graph.num_topics})"
        )
