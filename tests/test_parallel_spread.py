"""Differential tests for the parallel Monte-Carlo spread engine.

The engine's contract is *bit-identical* estimates for a given
``(seed, num_simulations)`` pair regardless of worker count or chunk
layout — every test here compares exact floats, never tolerances.  The
suite also covers the pool lifecycle: reuse across calls, shared-memory
leak accounting, and the single-point worker-knob validation.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.im.celfpp import celfpp_seed_selection
from repro.im.greedy import greedy_seed_selection
from repro.propagation import (
    ParallelMonteCarloSpread,
    active_payload_count,
    estimate_spread,
    shutdown_pools,
)
from repro.propagation import parallel as parallel_mod
from repro.resilience import get_fault_plan
from repro.workers import (
    cpu_count,
    default_sim_workers,
    resolve_worker_allocation,
    resolve_workers,
)

SEED_SETS = ([0, 5, 9], [1], [2, 3, 4, 17], [])


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    """Leave no pools or segments behind for other test modules."""
    yield
    shutdown_pools()


def _estimates(graph, gamma, **kwargs):
    with ParallelMonteCarloSpread(graph, gamma, **kwargs) as estimator:
        return [
            estimator.estimate_with_error(seeds) for seeds in SEED_SETS
        ]


class TestBitIdenticalDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_equals_sequential(self, small_graph, workers):
        gamma = np.full(4, 0.25)
        sequential = _estimates(
            small_graph, gamma, num_simulations=64, seed=42, workers=1
        )
        parallel = _estimates(
            small_graph,
            gamma,
            num_simulations=64,
            seed=42,
            workers=workers,
        )
        # Dataclass equality compares mean and std exactly — any drift
        # in stream derivation or chunk assembly fails here.
        assert parallel == sequential

    @pytest.mark.parametrize("chunks_per_worker", [1, 3, 7])
    def test_uneven_chunk_splits(self, small_graph, chunks_per_worker):
        """A prime simulation count over odd chunk sizes: the chunk
        boundaries must never touch the random streams."""
        gamma = np.full(4, 0.25)
        reference = _estimates(
            small_graph, gamma, num_simulations=37, seed=7, workers=1
        )
        chunked = _estimates(
            small_graph,
            gamma,
            num_simulations=37,
            seed=7,
            workers=3,
            chunks_per_worker=chunks_per_worker,
        )
        assert chunked == reference

    def test_estimate_many_matches_estimate_sequence(self, small_graph):
        gamma = np.full(4, 0.25)
        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=40, seed=3, workers=1
        ) as one_by_one:
            expected = [
                one_by_one.estimate(seeds) for seeds in SEED_SETS
            ]
        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=40, seed=3, workers=2
        ) as batched:
            assert batched.estimate_many(SEED_SETS) == expected

    def test_repeated_runs_identical(self, small_graph):
        gamma = np.full(4, 0.25)
        first = _estimates(
            small_graph, gamma, num_simulations=30, seed=11, workers=2
        )
        second = _estimates(
            small_graph, gamma, num_simulations=30, seed=11, workers=2
        )
        assert first == second

    def test_different_seeds_differ(self, small_graph):
        gamma = np.full(4, 0.25)
        a = _estimates(
            small_graph, gamma, num_simulations=30, seed=1, workers=2
        )
        b = _estimates(
            small_graph, gamma, num_simulations=30, seed=2, workers=2
        )
        assert a[0] != b[0]

    def test_estimate_spread_routes_through_parallel_engine(
        self, small_graph
    ):
        gamma = np.full(4, 0.25)
        routed = estimate_spread(
            small_graph,
            gamma,
            [0, 5, 9],
            num_simulations=48,
            seed=19,
            workers=2,
        )
        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=48, seed=19, workers=1
        ) as direct:
            assert routed == direct.estimate_with_error([0, 5, 9])

    def test_env_default_routes_parallel(self, small_graph, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_WORKERS", "2")
        assert default_sim_workers() == 2
        gamma = np.full(4, 0.25)
        via_env = estimate_spread(
            small_graph, gamma, [1, 2], num_simulations=24, seed=5
        )
        explicit = estimate_spread(
            small_graph, gamma, [1, 2], num_simulations=24, seed=5,
            workers=2,
        )
        assert via_env == explicit


class TestGreedyAlgorithmsOnParallelOracle:
    def test_celfpp_batched_equals_unbatched(self, small_graph):
        """The estimate_many fast path must consume the oracle's call
        sequence exactly like the plain loop would."""
        gamma = np.full(4, 0.25)
        candidates = range(0, 40)

        class _NoBatch:
            """Hide estimate_many so CELF++ takes the loop path."""

            def __init__(self, inner):
                self._inner = inner

            def estimate(self, seeds):
                return self._inner.estimate(seeds)

        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=25, seed=13, workers=1
        ) as plain:
            unbatched = celfpp_seed_selection(
                _NoBatch(plain), small_graph.num_nodes, 3,
                candidates=candidates,
            )
        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=25, seed=13, workers=2
        ) as pooled:
            batched = celfpp_seed_selection(
                pooled, small_graph.num_nodes, 3, candidates=candidates
            )
        assert batched.nodes == unbatched.nodes
        assert batched.marginal_gains == unbatched.marginal_gains

    def test_greedy_batched_equals_unbatched(self, small_graph):
        gamma = np.full(4, 0.25)
        candidates = range(0, 25)

        class _NoBatch:
            """Hide estimate_many so greedy takes the loop path."""

            def __init__(self, inner):
                self._inner = inner

            def estimate(self, seeds):
                return self._inner.estimate(seeds)

        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=20, seed=29, workers=1
        ) as plain:
            unbatched = greedy_seed_selection(
                _NoBatch(plain), small_graph.num_nodes, 3,
                candidates=candidates,
            )
        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=20, seed=29, workers=2
        ) as pooled:
            batched = greedy_seed_selection(
                pooled, small_graph.num_nodes, 3, candidates=candidates
            )
        assert batched.nodes == unbatched.nodes


class TestPoolLifecycle:
    def test_pool_reused_across_calls_and_estimators(self, small_graph):
        # Pool *identity* is only stable without fault injection: an
        # injected worker crash (e.g. the CI chaos job's REPRO_FAULTS
        # plan) legitimately rebuilds the pool mid-call.
        check_identity = get_fault_plan() is None
        gamma = np.full(4, 0.25)
        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=16, seed=0, workers=2
        ) as estimator:
            estimator.estimate([0])
            first_pool = parallel_mod._get_executor(2)
            estimator.estimate([1, 2])
            if check_identity:
                assert parallel_mod._get_executor(2) is first_pool
            assert estimator.calls == 2
        # A second estimator with the same width shares the pool.
        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=16, seed=1, workers=2
        ) as other:
            other.estimate([3])
            if check_identity:
                assert parallel_mod._get_executor(2) is first_pool
        assert 2 in parallel_mod.pool_widths()

    def test_payload_created_once_per_estimator(self, small_graph):
        gamma = np.full(4, 0.25)
        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=16, seed=0, workers=2
        ) as estimator:
            estimator.estimate([0])
            payload = estimator._payload
            assert payload is not None
            estimator.estimate([1])
            assert estimator._payload is payload

    def test_close_releases_shared_memory(self, small_graph):
        gamma = np.full(4, 0.25)
        before = active_payload_count()
        estimator = ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=16, seed=0, workers=2
        )
        estimator.estimate([0, 1])
        assert active_payload_count() == before + 1
        kind, _, detail = estimator._payload.spec
        estimator.close()
        assert active_payload_count() == before
        if kind == "shm" and Path("/dev/shm").is_dir():
            leaked = [
                name
                for name, _, _ in detail
                if (Path("/dev/shm") / name.lstrip("/")).exists()
            ]
            assert not leaked, f"leaked shared memory segments: {leaked}"

    def test_closed_estimator_rejects_dispatch(self, small_graph):
        gamma = np.full(4, 0.25)
        estimator = ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=8, seed=0, workers=2
        )
        estimator.close()
        with pytest.raises(RuntimeError):
            estimator.estimate([0])

    def test_shutdown_pools_is_idempotent_and_recoverable(
        self, small_graph
    ):
        gamma = np.full(4, 0.25)
        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=8, seed=0, workers=2
        ) as estimator:
            reference = estimator.estimate([0, 1])
        shutdown_pools()
        shutdown_pools()
        assert parallel_mod.pool_widths() == ()
        assert active_payload_count() == 0
        # The next estimate lazily recreates the pool, same results.
        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=8, seed=0, workers=2
        ) as estimator:
            assert estimator.estimate([0, 1]) == reference

    def test_atexit_hook_registered_after_first_pool(self, small_graph):
        gamma = np.full(4, 0.25)
        with ParallelMonteCarloSpread(
            small_graph, gamma, num_simulations=8, seed=0, workers=2
        ) as estimator:
            estimator.estimate([0])
        assert parallel_mod._ATEXIT_REGISTERED


class TestWorkerKnobValidation:
    def test_resolve_workers_accepts_int_auto_and_digits(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("4") == 4
        assert resolve_workers("auto") == cpu_count()
        assert resolve_workers(None) == 1

    @pytest.mark.parametrize("bad", [0, -2, "zero", 1.5, True, ""])
    def test_resolve_workers_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)

    def test_error_message_names_the_knob(self):
        with pytest.raises(ValueError, match="simulation_workers"):
            resolve_workers(0, name="simulation_workers")

    def test_allocation_clamps_inner_level(self):
        assert resolve_worker_allocation(4, 4, budget=8) == (4, 2)
        assert resolve_worker_allocation(4, 4, budget=2) == (4, 1)
        # A sequential outer level never clamps the simulation pool.
        assert resolve_worker_allocation(1, 6, budget=2) == (1, 6)
        assert resolve_worker_allocation(6, 1, budget=2) == (6, 1)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_WORKERS", raising=False)
        assert default_sim_workers() == 1
        monkeypatch.setenv("REPRO_SIM_WORKERS", "3")
        assert default_sim_workers() == 3
        monkeypatch.setenv("REPRO_SIM_WORKERS", "auto")
        assert default_sim_workers() == cpu_count()
        monkeypatch.setenv("REPRO_SIM_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_SIM_WORKERS"):
            default_sim_workers()

    def test_estimator_validation(self, small_graph):
        gamma = np.full(4, 0.25)
        with pytest.raises(ValueError):
            ParallelMonteCarloSpread(small_graph, gamma, num_simulations=0)
        with pytest.raises(ValueError):
            ParallelMonteCarloSpread(
                small_graph, gamma, chunks_per_worker=0
            )
        with pytest.raises(ValueError):
            ParallelMonteCarloSpread(small_graph, gamma, workers=0)
        auto = ParallelMonteCarloSpread(small_graph, gamma, workers="auto")
        assert auto.workers == cpu_count()
        auto.close()

    def test_config_validates_at_parse_time(self):
        from repro.core import InflexConfig

        with pytest.raises(ValueError, match="workers"):
            InflexConfig(workers=0)
        with pytest.raises(ValueError, match="simulation_workers"):
            InflexConfig(simulation_workers="sometimes")
        config = InflexConfig(workers="auto", simulation_workers=2)
        assert config.effective_workers == cpu_count()
        assert config.effective_simulation_workers == 2
        outer, inner = config.worker_allocation()
        assert outer >= 1 and inner >= 1


class TestOfflineMcEngines:
    def test_celfpp_mc_engine_parallel_matches_sequential(
        self, tiny_graph
    ):
        from repro.core.offline import offline_seed_list

        gamma = [0.6, 0.4]
        sequential = offline_seed_list(
            tiny_graph, gamma, 3, engine="celf++-mc",
            num_simulations=30, sim_workers=1, seed=17,
        )
        pooled = offline_seed_list(
            tiny_graph, gamma, 3, engine="celf++-mc",
            num_simulations=30, sim_workers=2, seed=17,
        )
        assert sequential.nodes == pooled.nodes
        assert sequential.marginal_gains == pooled.marginal_gains

    def test_greedy_mc_engine_parallel_matches_sequential(
        self, tiny_graph
    ):
        gamma = [0.6, 0.4]

        def greedy_mc(workers):
            with ParallelMonteCarloSpread(
                tiny_graph,
                gamma,
                num_simulations=30,
                seed=np.random.default_rng(23),
                workers=workers,
            ) as estimator:
                return greedy_seed_selection(
                    estimator, tiny_graph.num_nodes, 2
                )

        sequential = greedy_mc(1)
        pooled = greedy_mc(2)
        assert sequential.nodes == pooled.nodes


class TestObservability:
    def test_parallel_dispatch_records_metrics(self, small_graph):
        from repro import obs

        obs.enable()
        try:
            registry = obs.get_registry()
            registry.reset()
            gamma = np.full(4, 0.25)
            with ParallelMonteCarloSpread(
                small_graph, gamma, num_simulations=32, seed=0, workers=2
            ) as estimator:
                estimator.estimate([0, 1, 2])
            snapshot = registry.snapshot()
            chunks = snapshot["repro_sim_chunks_dispatched_total"]
            assert chunks["series"][0]["value"] >= 1
            per_worker = snapshot["repro_sim_worker_simulations_total"]
            total = sum(
                entry["value"] for entry in per_worker["series"]
            )
            assert total == 32
            sims = snapshot["repro_mc_simulations_total"]
            assert sims["series"][0]["value"] >= 32
        finally:
            obs.get_registry().reset()
            obs.disable()
