"""Offline (from-scratch) influence maximization for TIM queries.

A TIM query can always be answered without an index by instantiating
the item-specific IC graph (Eq. 1) and running a standard influence
maximization — this is the paper's ``offline TIC`` ground truth, its
``offline IC`` topic-blind baseline (uniform topic mixture), and the
engine used to precompute every index point's seed list.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

from repro.graph.topic_graph import TopicGraph
from repro.im.imm import RRSampler, imm_seed_selection, walk_rr_index
from repro.im.seed_list import SeedList
from repro.propagation.parallel import ParallelMonteCarloSpread
from repro.rng import resolve_rng
from repro.simplex.vectors import uniform_distribution
from repro.workers import resolve_worker_allocation


def offline_seed_list(
    graph: TopicGraph,
    gamma,
    k: int,
    *,
    engine: str = "ris",
    ris_num_sets: int = 3000,
    num_snapshots: int = 100,
    num_simulations: int = 200,
    imm_epsilon: float = 0.1,
    imm_delta: float | None = None,
    sim_workers=None,
    seed=None,
    imm_sampler: RRSampler | None = None,
) -> SeedList:
    """Extract a ranked seed list for one item, from scratch.

    Parameters
    ----------
    graph:
        The topic graph.
    gamma:
        Item topic distribution (Eq. 1 instantiates the IC graph).
    k:
        Seed budget.
    engine:
        ``"imm"`` (martingale RIS with a ``(1 - 1/e - eps)`` guarantee;
        the paper-scale build engine), ``"ris"`` (fixed-budget reverse
        influence sampling: ``ris_num_sets`` sets walked one at a time
        from one generator), ``"celf++"`` (the paper's choice) on
        live-edge snapshots, or ``"celf++-mc"`` on fresh-randomness
        Monte-Carlo estimation.
    ris_num_sets / num_snapshots / num_simulations:
        Sampling budgets of the respective engines (``ris_num_sets``
        must be at least 2 for the ``ris`` engine).
    imm_epsilon / imm_delta:
        IMM's approximation slack in ``(0, 1)`` and failure probability
        (``None`` uses the canonical ``1/n``); the RR budget grows as
        ``imm_epsilon**-2``.  Only the ``imm`` engine reads them.
    sim_workers:
        Inner pool width for the engines that parallelize within one
        extraction — RR-set sampling for ``imm``, Monte-Carlo
        simulation for ``celf++-mc`` (int, ``"auto"`` or
        ``None`` for the ``REPRO_SIM_WORKERS`` default); the seed
        lists are bit-identical for any width.
    seed:
        Randomness control.
    imm_sampler:
        An existing :class:`~repro.im.imm.RRSampler` bound to
        ``graph``, reused across items so the shared-memory payload is
        published once per build rather than once per item.
    """
    rng = resolve_rng(seed)
    if engine == "ris":
        if ris_num_sets < 2:
            raise ValueError(
                f"ris_num_sets must be >= 2, got {ris_num_sets}"
            )
        index = walk_rr_index(graph, gamma, ris_num_sets, rng, block=1)
        return index.seed_list(k, algorithm="ris")
    if engine == "imm":
        return imm_seed_selection(
            graph,
            gamma,
            k,
            epsilon=imm_epsilon,
            delta=imm_delta,
            workers=sim_workers,
            seed=rng,
            sampler=imm_sampler,
        )
    # The CELF++ engines load their modules only when they run.
    from repro.im.celfpp import celfpp_seed_selection

    if engine == "celf++-mc":
        with ParallelMonteCarloSpread(
            graph,
            gamma,
            num_simulations=num_simulations,
            seed=rng,
            workers=sim_workers,
        ) as estimator:
            return celfpp_seed_selection(estimator, graph.num_nodes, k)
    if engine == "celf++":
        from repro.propagation.snapshots import SnapshotSpread

        estimator = SnapshotSpread(
            graph, gamma, num_snapshots=num_snapshots, seed=rng
        )
        return celfpp_seed_selection(estimator, graph.num_nodes, k)
    raise ValueError(
        f"unknown engine {engine!r}; expected 'imm', 'ris', 'celf++' "
        "or 'celf++-mc'"
    )


# ----------------------------------------------------------------------
# Parallel batch extraction (used by index construction)
# ----------------------------------------------------------------------
_WORKER_GRAPH: TopicGraph | None = None
_WORKER_SAMPLER: RRSampler | None = None


def _init_worker(graph: TopicGraph) -> None:
    """Give each worker process one shared copy of the graph."""
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph


def _seed_list_task(args) -> SeedList:
    (
        gamma,
        k,
        engine,
        ris_num_sets,
        num_snapshots,
        num_sims,
        imm_eps,
        imm_delta,
        sim_w,
        seed,
    ) = args
    assert _WORKER_GRAPH is not None
    global _WORKER_SAMPLER
    sampler = None
    if engine == "imm":
        # One reverse-view sampler per worker process, shared across
        # every item that worker extracts.
        if _WORKER_SAMPLER is None:
            _WORKER_SAMPLER = RRSampler(_WORKER_GRAPH, workers=sim_w)
        sampler = _WORKER_SAMPLER
    return offline_seed_list(
        _WORKER_GRAPH,
        gamma,
        k,
        engine=engine,
        ris_num_sets=ris_num_sets,
        num_snapshots=num_snapshots,
        num_simulations=num_sims,
        imm_epsilon=imm_eps,
        imm_delta=imm_delta,
        sim_workers=sim_w,
        seed=seed,
        imm_sampler=sampler,
    )


def offline_seed_lists_batch(
    graph: TopicGraph,
    gammas,
    k: int,
    *,
    engine: str = "ris",
    ris_num_sets: int = 3000,
    num_snapshots: int = 100,
    num_simulations: int = 200,
    imm_epsilon: float = 0.1,
    imm_delta: float | None = None,
    seeds=None,
    workers=1,
    sim_workers=None,
    progress=None,
) -> list[SeedList]:
    """Extract one seed list per row of ``gammas``.

    The per-item computations are independent, so with ``workers > 1``
    they run in a process pool; results are bit-identical to the serial
    run because each item gets its own pre-spawned RNG seed.

    Parameters
    ----------
    seeds:
        Optional per-item RNG seeds (ints); derived from a fresh
        ``SeedSequence`` when omitted.
    workers:
        Index-point pool width (int or ``"auto"``).
    sim_workers:
        Inner pool width within one extraction: IMM's RR-set sampling
        pool for ``imm`` and the Monte-Carlo simulation pool for
        ``celf++-mc``; the other engines ignore it.  The two levels
        are composed by :func:`repro.workers.resolve_worker_allocation`,
        which clamps the inner width so ``workers * sim_workers`` stays
        within the CPU budget instead of oversubscribing.
    progress:
        Optional callable ``progress(done, total)``.
    """
    import numpy as np

    from repro.rng import spawn_rngs

    workers, sim_workers = resolve_worker_allocation(workers, sim_workers)
    gamma_rows = [np.asarray(g, dtype=np.float64) for g in gammas]
    total = len(gamma_rows)
    if seeds is None:
        child_rngs = spawn_rngs(None, total)
        seeds = [int(rng.integers(0, 2**63 - 1)) for rng in child_rngs]
    seeds = list(seeds)
    if len(seeds) != total:
        raise ValueError(f"{len(seeds)} seeds for {total} items")
    tasks = [
        (
            gamma,
            k,
            engine,
            ris_num_sets,
            num_snapshots,
            num_simulations,
            imm_epsilon,
            imm_delta,
            sim_workers,
            seed,
        )
        for gamma, seed in zip(gamma_rows, seeds)
    ]
    results: list[SeedList] = []
    if workers == 1:
        # One sampler for the whole batch: its reverse CSR + (m, Z)
        # probability payload is published to shared memory once and
        # reused by every item.
        sampler_cm = (
            RRSampler(graph, workers=sim_workers)
            if engine == "imm"
            else nullcontext(None)
        )
        with sampler_cm as sampler:
            for done, task in enumerate(tasks, start=1):
                results.append(
                    offline_seed_list(
                        graph,
                        task[0],
                        k,
                        engine=engine,
                        ris_num_sets=ris_num_sets,
                        num_snapshots=num_snapshots,
                        num_simulations=num_simulations,
                        imm_epsilon=imm_epsilon,
                        imm_delta=imm_delta,
                        sim_workers=sim_workers,
                        seed=task[9],
                        imm_sampler=sampler,
                    )
                )
                if progress is not None:
                    progress(done, total)
        return results
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(graph,)
    ) as pool:
        for done, result in enumerate(
            pool.map(_seed_list_task, tasks), start=1
        ):
            results.append(result)
            if progress is not None:
                progress(done, total)
    return results


def offline_tic_seed_list(
    graph: TopicGraph, gamma, k: int, **kwargs
) -> SeedList:
    """The paper's ``offline TIC`` ground truth for a query item."""
    return offline_seed_list(graph, gamma, k, **kwargs)


def offline_ic_seed_list(graph: TopicGraph, k: int, **kwargs) -> SeedList:
    """The paper's topic-blind ``offline IC`` baseline.

    Runs the same computation with a *uniform* topic mixture — the best
    one can do while ignoring the item's topical identity.
    """
    return offline_seed_list(
        graph, uniform_distribution(graph.num_topics), k, **kwargs
    )
