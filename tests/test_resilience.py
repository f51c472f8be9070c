"""Chaos suite for the fault-tolerant execution layer.

Every scenario here follows the same shape: script a failure with a
deterministic :class:`FaultPlan`, let the component recover, and assert
the *strong* postcondition — bit-identical spreads after a worker
crash, quarantine-and-recompute after checkpoint corruption, an intact
previous artifact after an interrupted save, a prompt degraded answer
after a blown deadline.  Detection alone is never the assertion.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core import InflexConfig, InflexIndex, load_index, save_index
from repro.core.builder import ResumableBuilder
from repro.errors import (
    CorruptArtifactError,
    DeadlineExceededError,
    PoolBrokenError,
    ReproError,
)
from repro.propagation import (
    ParallelMonteCarloSpread,
    active_payload_count,
    shutdown_pools,
)
from repro.propagation.spread import estimate_spread_sequential
from repro.resilience import (
    Deadline,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    RetryPolicy,
    fault_plan,
    get_fault_plan,
    parse_fault_plan,
    resolve_deadline,
    set_fault_plan,
)

GAMMA4 = np.full(4, 0.25)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    """Leave no pools or segments behind for other test modules."""
    yield
    shutdown_pools()


@pytest.fixture
def observability():
    """Enabled global metrics with clean state, restored afterwards."""
    obs.enable()
    obs.get_registry().reset()
    obs.get_tracer().clear()
    yield obs.get_registry()
    obs.disable()
    obs.get_registry().reset()
    obs.get_tracer().clear()


def _counter(registry, name: str) -> float:
    """Total of a counter across its label series (0.0 when unused)."""
    metric = registry.snapshot().get(name)
    if metric is None:
        return 0.0
    return float(
        sum(entry["value"] for entry in metric["series"])
    )


def _reference_estimates(graph, seed_sets, *, seed=42, sims=48):
    """Fault-free single-worker reference (shielded from env plans)."""
    with fault_plan(FaultPlan()):
        with ParallelMonteCarloSpread(
            graph, GAMMA4, num_simulations=sims, seed=seed, workers=1
        ) as estimator:
            return [
                estimator.estimate_with_error(s) for s in seed_sets
            ]


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.1, multiplier=2.0,
            max_delay=0.3, jitter=0.5, seed=7,
        )
        again = RetryPolicy(
            max_attempts=3, base_delay=0.1, multiplier=2.0,
            max_delay=0.3, jitter=0.5, seed=7,
        )
        for attempt in range(4):
            wait = policy.delay(attempt)
            assert wait == again.delay(attempt)
            backoff = min(0.3, 0.1 * 2.0**attempt)
            assert backoff <= wait <= backoff * 1.5

    def test_zero_jitter_is_pure_backoff(self):
        policy = RetryPolicy(base_delay=0.2, multiplier=2.0, jitter=0.0)
        assert policy.delay(0) == 0.2
        assert policy.delay(1) == 0.4

    def test_call_retries_transient_then_succeeds(self):
        sleeps = []
        policy = RetryPolicy(
            max_attempts=2,
            base_delay=0.01,
            retryable=(OSError,),
            sleep=sleeps.append,
        )
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3
        assert len(sleeps) == 2

    def test_call_exhausts_budget_and_reraises(self):
        policy = RetryPolicy(
            max_attempts=1, base_delay=0.0, retryable=(OSError,),
            sleep=lambda _: None,
        )
        calls = []

        def always_fails():
            calls.append(1)
            raise OSError("still broken")

        with pytest.raises(OSError):
            policy.call(always_fails)
        assert len(calls) == 2  # initial try + one retry

    def test_non_retryable_propagates_immediately(self):
        policy = RetryPolicy(max_attempts=5, retryable=(OSError,))
        calls = []

        def fails():
            calls.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            policy.call(fails)
        assert len(calls) == 1

    def test_is_retryable_classification(self):
        policy = RetryPolicy(retryable=(OSError, TimeoutError))
        assert policy.is_retryable(OSError())
        assert policy.is_retryable(TimeoutError())
        assert not policy.is_retryable(ValueError())

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_expires_on_fake_clock(self):
        now = [0.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        assert not deadline.expired()
        assert deadline.remaining() == 5.0
        now[0] = 4.0
        assert deadline.remaining() == pytest.approx(1.0)
        now[0] = 5.0
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_unlimited_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired()
        assert deadline.remaining() == float("inf")
        deadline.check("anything")  # never raises

    def test_check_raises_deadline_exceeded(self):
        deadline = Deadline(0.0)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("the query")
        assert "the query" in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, TimeoutError)

    def test_from_ms_and_resolve(self):
        assert Deadline.from_ms(None).seconds is None
        assert Deadline.from_ms(2500.0).seconds == 2.5
        assert resolve_deadline(None) is None
        existing = Deadline(1.0)
        assert resolve_deadline(existing) is existing
        assert resolve_deadline(500).seconds == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)
        with pytest.raises(ValueError):
            Deadline(float("nan"))


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_targeted_spec_fires_exactly_once(self):
        plan = FaultPlan(
            [FaultSpec(site="chunk", mode="crash", match={"call": 3})]
        )
        assert plan.fire("chunk", call=2, chunk=0) is None
        fired = plan.fire("chunk", call=3, chunk=0)
        assert fired is not None and fired.mode == "crash"
        # The once-by-default budget is spent.
        assert plan.fire("chunk", call=3, chunk=0) is None

    def test_rate_decisions_are_order_independent(self):
        coords = [{"call": c, "chunk": k} for c in range(20) for k in range(4)]

        def decisions(order):
            plan = FaultPlan(
                [FaultSpec(site="chunk", mode="error", rate=0.3, times=None)],
                seed=11,
            )
            return {
                tuple(sorted(c.items())): plan.fire("chunk", **c) is not None
                for c in order
            }

        forward = decisions(coords)
        backward = decisions(list(reversed(coords)))
        assert forward == backward
        assert any(forward.values()) and not all(forward.values())

    def test_parse_grammar_roundtrip(self):
        plan = parse_fault_plan(
            "chunk:mode=crash:call=3:chunk=1;"
            "checkpoint:mode=truncate:item=2:keep=20;"
            "chunk:mode=error:rate=0.02:seed=9"
        )
        assert len(plan.specs) == 3
        crash, truncate, rate = plan.specs
        assert crash.match == {"call": 3, "chunk": 1} and crash.times == 1
        assert truncate.keep == 20
        assert rate.rate == 0.02 and rate.times is None
        assert plan.seed == 9

    def test_parse_rejects_malformed_specs(self):
        with pytest.raises(ValueError):
            parse_fault_plan("chunk:crash")  # missing mode=
        with pytest.raises(ValueError):
            parse_fault_plan("nowhere:mode=crash")
        with pytest.raises(ValueError):
            parse_fault_plan("chunk:mode=bitflip")  # wrong site for mode
        with pytest.raises(ValueError):
            parse_fault_plan("chunk:mode=crash:call=x")

    def test_env_plan_and_context_manager(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "chunk:mode=error:rate=1.0")
        try:
            plan = get_fault_plan()
            assert plan is not None and plan.specs[0].mode == "error"
            with fault_plan(FaultPlan()) as shielded:
                assert get_fault_plan() is shielded
                assert shielded.fire("chunk", call=0, chunk=0) is None
            assert get_fault_plan() is plan
            explicit = FaultPlan([FaultSpec(site="chunk", mode="crash")])
            set_fault_plan(explicit)
            assert get_fault_plan() is explicit
        finally:
            set_fault_plan(None)

    def test_injected_fault_error_is_not_a_repro_error(self):
        assert not issubclass(InjectedFaultError, ReproError)


# ----------------------------------------------------------------------
# Pool crash recovery (the tentpole's acceptance scenario)
# ----------------------------------------------------------------------
class TestPoolCrashRecovery:
    def test_worker_crash_yields_bit_identical_spreads(
        self, small_graph, observability
    ):
        seed_sets = ([0, 5, 9], [1], [2, 3, 4])
        reference = _reference_estimates(small_graph, seed_sets)
        plan = FaultPlan(
            [FaultSpec(site="chunk", mode="crash", match={"call": 0, "chunk": 1})]
        )
        with ParallelMonteCarloSpread(
            small_graph,
            GAMMA4,
            num_simulations=48,
            seed=42,
            workers=2,
            fault_plan=plan,
        ) as estimator:
            recovered = [
                estimator.estimate_with_error(s) for s in seed_sets
            ]
        assert [e.mean for e in recovered] == [e.mean for e in reference]
        assert [e.std for e in recovered] == [e.std for e in reference]
        assert plan.specs[0].fired == 1
        assert _counter(
            observability, "repro_resilience_pool_rebuilds_total"
        ) >= 1
        assert _counter(
            observability, "repro_resilience_chunk_retries_total"
        ) >= 1
        assert _counter(
            observability, "repro_resilience_faults_injected_total"
        ) >= 1

    def test_rate_plan_fires_on_some_chunks_of_a_build(
        self, tmp_path, monkeypatch, capsys
    ):
        """A rate plan decides per chunk stream, not per repeating
        ``(call, chunk)`` pair: across a CI-shaped build under
        ``rate=0.05`` it crashes some chunks but not all, and the index
        bytes stay those of a clean build."""
        from repro.cli import main
        from repro.resilience import parse_fault_plan

        main(
            [
                "generate", "--out", str(tmp_path / "data"), "--nodes",
                "150", "--topics", "3", "--items", "40", "--seed", "3",
            ]
        )
        monkeypatch.setenv("REPRO_SIM_WORKERS", "2")

        def build(out: Path, plan: FaultPlan) -> None:
            with fault_plan(plan):
                main(
                    [
                        "build", "--data", str(tmp_path / "data"),
                        "--out", str(out / "index.npz"),
                        "--index-points", "6", "--dirichlet-samples", "400",
                        "--seed-list-length", "6", "--engine", "imm",
                        "--epsilon", "0.3", "--seed", "4", "--sketches",
                        "--sketch-sets", "200",
                    ]
                )

        build(tmp_path / "clean", FaultPlan())
        fired = calls = 0
        for seed in range(4):
            plan = parse_fault_plan(f"chunk:mode=crash:rate=0.05:seed={seed}")
            decide = plan.fire
            coordinates = []

            def counting(site, **coords):
                if site == "chunk":
                    coordinates.append(coords)
                return decide(site, **coords)

            plan.fire = counting
            out = tmp_path / f"crash-{seed}"
            build(out, plan)
            first_tries = [c for c in coordinates if c["attempt"] == 0]
            assert len({c["stream"] for c in first_tries}) > len(
                {(c["call"], c["chunk"]) for c in first_tries}
            )
            fired += plan.specs[0].fired
            calls += len(coordinates)
            for name in ("index.npz", "index.sketches.npz"):
                assert (out / name).read_bytes() == (
                    tmp_path / "clean" / name
                ).read_bytes()
        capsys.readouterr()
        assert 0 < fired < calls

    def test_worker_error_retries_on_same_pool(self, small_graph):
        plan = FaultPlan(
            [FaultSpec(site="chunk", mode="error", match={"call": 0, "chunk": 0})]
        )
        reference = _reference_estimates(small_graph, ([0, 1],))
        with ParallelMonteCarloSpread(
            small_graph,
            GAMMA4,
            num_simulations=48,
            seed=42,
            workers=2,
            fault_plan=plan,
        ) as estimator:
            recovered = estimator.estimate_with_error([0, 1])
        assert recovered.mean == reference[0].mean
        assert plan.specs[0].fired == 1

    @pytest.mark.parametrize("mode", ["crash", "error"])
    def test_rr_sampler_recovers_bit_identically(self, small_graph, mode):
        """Chunk faults on the RR sampling pool fall back inline.

        The campaign planner's value oracle rides this path, so chaos
        runs with ``chunk`` faults must leave RR streams — and hence
        allocations — bit-identical to a healthy run.
        """
        from repro.im.imm import RRSampler

        with RRSampler(small_graph, workers=2) as sampler:
            clean = sampler.sample(GAMMA4, 1200, seed=9, request=2)
        plan = FaultPlan([FaultSpec(site="chunk", mode=mode, times=2)])
        with fault_plan(plan):
            with RRSampler(small_graph, workers=2) as sampler:
                recovered = sampler.sample(GAMMA4, 1200, seed=9, request=2)
        assert plan.specs[0].fired >= 1
        assert all(
            np.array_equal(a, b) for a, b in zip(clean, recovered)
        )

    def test_rr_persistent_crashes_degrade_to_sequential(
        self, small_graph, observability
    ):
        # RR chunk 0 crashes on every attempt: the sampler's dispatch
        # retries, runs out of budget and finishes inline, with the
        # same sets as a clean inline run.
        from repro.im.imm import RRSampler

        with fault_plan(FaultPlan()):
            with RRSampler(small_graph, workers=1) as sampler:
                clean = sampler.sample(GAMMA4, 1200, seed=9, request=2)
        plan = FaultPlan(
            [FaultSpec(site="chunk", mode="crash", match={"chunk": 0}, times=None)]
        )
        with fault_plan(plan):
            with RRSampler(small_graph, workers=2) as sampler:
                recovered = sampler.sample(GAMMA4, 1200, seed=9, request=2)
        assert all(
            np.array_equal(a, b) for a, b in zip(clean, recovered)
        )
        assert plan.specs[0].fired >= 2
        assert _counter(
            observability, "repro_resilience_pool_rebuilds_total"
        ) >= 1
        assert _counter(
            observability, "repro_resilience_chunk_retries_total"
        ) >= 1
        assert _counter(
            observability, "repro_resilience_sequential_fallbacks_total"
        ) >= 1

    def test_persistent_crashes_degrade_to_sequential(
        self, small_graph, observability
    ):
        # chunk 0 crashes on *every* attempt: the retry budget runs out
        # and the dispatcher must fall back inline — still bit-identical.
        plan = FaultPlan(
            [FaultSpec(site="chunk", mode="crash", match={"chunk": 0}, times=None)]
        )
        reference = _reference_estimates(small_graph, ([0, 5],))
        with ParallelMonteCarloSpread(
            small_graph,
            GAMMA4,
            num_simulations=48,
            seed=42,
            workers=2,
            fault_plan=plan,
            retry_policy=RetryPolicy(
                max_attempts=1, base_delay=0.0, jitter=0.0,
                retryable=(Exception,), sleep=lambda _: None,
            ),
        ) as estimator:
            degraded = estimator.estimate_with_error([0, 5])
        assert degraded.mean == reference[0].mean
        assert degraded.std == reference[0].std
        assert _counter(
            observability, "repro_resilience_sequential_fallbacks_total"
        ) >= 1

    def test_fallback_disabled_raises_pool_broken(self, small_graph):
        plan = FaultPlan(
            [FaultSpec(site="chunk", mode="crash", match={"chunk": 0}, times=None)]
        )
        with ParallelMonteCarloSpread(
            small_graph,
            GAMMA4,
            num_simulations=24,
            seed=0,
            workers=2,
            fault_plan=plan,
            allow_sequential_fallback=False,
            retry_policy=RetryPolicy(
                max_attempts=1, base_delay=0.0, jitter=0.0,
                retryable=(Exception,), sleep=lambda _: None,
            ),
        ) as estimator:
            with pytest.raises(PoolBrokenError) as excinfo:
                estimator.estimate([0])
        assert isinstance(excinfo.value, ReproError)

    def test_shutdown_after_crash_releases_all_payloads(self, small_graph):
        # Regression: shutdown_pools() used to leave shared-memory
        # payloads registered when a pool's workers had died mid-call.
        plan = FaultPlan(
            [FaultSpec(site="chunk", mode="crash", match={"call": 0, "chunk": 0})]
        )
        estimator = ParallelMonteCarloSpread(
            small_graph,
            GAMMA4,
            num_simulations=24,
            seed=3,
            workers=2,
            fault_plan=plan,
        )
        estimator.estimate([0, 1])
        assert active_payload_count() >= 1
        shutdown_pools()
        assert active_payload_count() == 0
        estimator.close()


# ----------------------------------------------------------------------
# Corruption-safe persistence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_saved_index(small_graph, tmp_path_factory):
    config = InflexConfig(
        num_index_points=4,
        num_dirichlet_samples=500,
        seed_list_length=4,
        ris_num_sets=300,
        seed=7,
    )
    items = np.random.default_rng(5).dirichlet(np.ones(4), size=12)
    index = InflexIndex.build(small_graph, items, config)
    path = tmp_path_factory.mktemp("artifacts") / "index.npz"
    save_index(index, path)
    return index, path


class TestPersistenceIntegrity:
    def test_round_trip_is_exact(self, small_graph, small_saved_index):
        index, path = small_saved_index
        loaded = load_index(path, small_graph)
        assert [s.nodes for s in loaded.seed_lists] == [
            s.nodes for s in index.seed_lists
        ]
        assert np.array_equal(loaded.index_points, index.index_points)

    def test_no_tmp_remnant_after_save(self, small_saved_index):
        _, path = small_saved_index
        assert not list(path.parent.glob("*.tmp-*"))

    def test_bit_flip_raises_corrupt_artifact(
        self, small_graph, small_saved_index, tmp_path
    ):
        # Flip one bit of the stored seed matrix but rebuild the archive
        # so the *zip-level* CRCs stay valid — only the embedded
        # integrity manifest can catch this class of corruption.
        import zipfile

        _, path = small_saved_index
        with zipfile.ZipFile(path) as archive:
            members = {
                name: archive.read(name) for name in archive.namelist()
            }
        raw = bytearray(members["seed_matrix.npy"])
        raw[-1] ^= 0x01
        members["seed_matrix.npy"] = bytes(raw)
        damaged = tmp_path / "damaged.npz"
        with zipfile.ZipFile(
            damaged, "w", zipfile.ZIP_DEFLATED
        ) as archive:
            for name, blob in members.items():
                archive.writestr(name, blob)
        with pytest.raises(CorruptArtifactError) as excinfo:
            load_index(damaged, small_graph)
        assert "checksum" in str(excinfo.value)

    def test_truncation_raises_corrupt_artifact(
        self, small_graph, small_saved_index, tmp_path
    ):
        _, path = small_saved_index
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(path.read_bytes()[:120])
        with pytest.raises(CorruptArtifactError) as excinfo:
            load_index(truncated, small_graph)
        assert "truncated.npz" in str(excinfo.value)

    @pytest.mark.skipif(
        not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd"
    )
    def test_truncated_artifacts_leave_no_descriptor_open(
        self, small_graph, small_saved_index, tmp_path
    ):
        """Each loader closes the file it opened when the archive turns
        out truncated, while the exception (and its traceback) is still
        alive."""
        from repro.core import SketchConfig
        from repro.graph import load_graph, save_graph
        from repro.sketches import SketchBank, load_sketches, save_sketches

        _, index_path = small_saved_index
        graph_path = tmp_path / "graph.npz"
        save_graph(small_graph, graph_path)
        bank_path = tmp_path / "bank.npz"
        save_sketches(
            SketchBank.build(small_graph, SketchConfig(num_sets=20, seed=3)),
            bank_path,
        )
        loaders = [
            (index_path, lambda path: load_index(path, small_graph)),
            (bank_path, load_sketches),
            (graph_path, load_graph),
        ]
        for source, load in loaders:
            truncated = tmp_path / f"truncated-{source.name}"
            truncated.write_bytes(source.read_bytes()[:120])
            before = len(list(Path("/proc/self/fd").iterdir()))
            with pytest.raises(Exception) as excinfo:
                load(truncated)
            assert len(list(Path("/proc/self/fd").iterdir())) == before, (
                f"{source.name}: {excinfo.value!r}"
            )

    def test_garbage_file_raises_corrupt_artifact(
        self, small_graph, tmp_path
    ):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CorruptArtifactError):
            load_index(garbage, small_graph)

    def test_interrupted_save_keeps_previous_artifact(
        self, small_graph, small_saved_index, tmp_path
    ):
        index, path = small_saved_index
        target = tmp_path / "index.npz"
        save_index(index, target)
        before = target.read_bytes()
        crash = FaultPlan([FaultSpec(site="save-index", mode="crash")])
        with pytest.raises(InjectedFaultError):
            save_index(index, target, fault_plan=crash)
        assert target.read_bytes() == before
        # The surviving artifact still loads cleanly.
        load_index(target, small_graph)

    def test_injected_bitflip_is_caught_by_checksums(
        self, small_graph, small_saved_index, observability
    ):
        _, path = small_saved_index
        flip = FaultPlan([FaultSpec(site="index-load", mode="bitflip")])
        with pytest.raises(CorruptArtifactError) as excinfo:
            load_index(path, small_graph, fault_plan=flip)
        assert "seed_matrix" in str(excinfo.value)
        assert _counter(
            observability, "repro_resilience_corrupt_artifacts_total"
        ) >= 1

    # -- durability: atomic means nothing without fsync -----------------
    def test_atomic_write_fsyncs_file_and_directory(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.core.persistence import atomic_write_bytes

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        atomic_write_bytes(tmp_path / "artifact.bin", b"payload")
        # Once for the temporary file, once for the parent directory —
        # without the latter a power cut can roll the rename back.
        assert len(synced) >= 2
        assert (tmp_path / "artifact.bin").read_bytes() == b"payload"

    def test_save_index_fsyncs_before_and_after_the_rename(
        self, small_saved_index, tmp_path, monkeypatch
    ):
        import os

        index, _ = small_saved_index
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os,
            "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1],
        )
        save_index(index, tmp_path / "index.npz")
        assert "replace" in events
        rename_at = events.index("replace")
        # Data hits the platter before the rename publishes it, and the
        # directory entry is flushed after.
        assert "fsync" in events[:rename_at]
        assert "fsync" in events[rename_at + 1 :]

    def test_every_tmp_rename_write_path_fsyncs(self):
        # Contract over the whole tree: any module that stages a write
        # through a ``.tmp`` file and renames it into place must also
        # fsync (directly or via atomic_write_bytes/atomic_write_text).
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            if ".tmp" not in text or "os.replace(" not in text:
                continue
            if "fsync" not in text and "atomic_write" not in text:
                offenders.append(str(path.relative_to(src)))
        assert not offenders, (
            f"tmp+rename writers without fsync durability: {offenders}"
        )


# ----------------------------------------------------------------------
# Builder quarantine and state-file protection
# ----------------------------------------------------------------------
@pytest.fixture
def builder_setup(small_graph):
    config = InflexConfig(
        num_index_points=3,
        num_dirichlet_samples=400,
        seed_list_length=3,
        ris_num_sets=200,
        seed=7,
    )
    items = np.random.default_rng(5).dirichlet(np.ones(4), size=10)
    return config, items


class TestBuilderResilience:
    def test_corrupt_state_file_raises_with_remedy(
        self, small_graph, builder_setup, tmp_path
    ):
        config, items = builder_setup
        builder = ResumableBuilder(small_graph, items, config, tmp_path)
        builder.run()
        state = tmp_path / "builder_state.json"
        state.write_text(state.read_text()[:25])  # torn write
        fresh = ResumableBuilder(small_graph, items, config, tmp_path)
        with pytest.raises(CorruptArtifactError) as excinfo:
            fresh.run()
        message = str(excinfo.value)
        assert "builder_state.json" in message
        assert "restore" in message and "delete" in message

    def test_corrupt_checkpoint_is_quarantined_and_recomputed(
        self, small_graph, builder_setup, tmp_path, observability
    ):
        config, items = builder_setup
        reference = ResumableBuilder(
            small_graph, items, config, tmp_path
        ).run()
        checkpoint = tmp_path / "seeds_00001.json"
        payload = json.loads(checkpoint.read_text())
        payload["body"]["nodes"][0] = 999999  # silent corruption
        checkpoint.write_text(json.dumps(payload))  # stale CRC now
        rebuilt = ResumableBuilder(
            small_graph, items, config, tmp_path
        ).run()
        assert (tmp_path / "seeds_00001.json.corrupt").exists()
        assert [s.nodes for s in rebuilt.seed_lists] == [
            s.nodes for s in reference.seed_lists
        ]
        assert _counter(
            observability,
            "repro_resilience_checkpoint_quarantines_total",
        ) >= 1

    def test_truncate_fault_hook_recovers_bit_identically(
        self, small_graph, builder_setup, tmp_path
    ):
        config, items = builder_setup
        reference = ResumableBuilder(
            small_graph, items, config, tmp_path / "clean"
        ).run()
        plan = FaultPlan(
            [FaultSpec(site="checkpoint", mode="truncate", match={"item": 1})]
        )
        chaotic = ResumableBuilder(
            small_graph, items, config, tmp_path / "chaos", fault_plan=plan
        ).run()
        assert (tmp_path / "chaos" / "seeds_00001.json.corrupt").exists()
        assert [s.nodes for s in chaotic.seed_lists] == [
            s.nodes for s in reference.seed_lists
        ]

    def test_legacy_unchecksummed_checkpoint_still_resumes(
        self, small_graph, builder_setup, tmp_path
    ):
        config, items = builder_setup
        reference = ResumableBuilder(
            small_graph, items, config, tmp_path
        ).run()
        checkpoint = tmp_path / "seeds_00000.json"
        body = json.loads(checkpoint.read_text())["body"]
        checkpoint.write_text(json.dumps(body))  # strip the envelope
        resumed = ResumableBuilder(
            small_graph, items, config, tmp_path
        ).run()
        assert [s.nodes for s in resumed.seed_lists] == [
            s.nodes for s in reference.seed_lists
        ]


# ----------------------------------------------------------------------
# Deadlines on the query and spread paths
# ----------------------------------------------------------------------
class TestDeadlineDegradation:
    def test_expired_query_returns_degraded_answer(self, small_index):
        gamma = np.full(4, 0.25)
        normal = small_index.query(gamma, 5)
        assert not normal.degraded
        degraded = small_index.query(gamma, 5, deadline_ms=1e-9)
        assert degraded.degraded
        assert degraded.seeds.algorithm.endswith(":degraded")
        assert len(tuple(degraded.seeds)) == len(tuple(normal.seeds))
        assert degraded.num_neighbors_used == 1

    def test_expired_query_is_prompt_not_hung(self, small_index):
        gamma = np.full(4, 0.25)
        start = time.perf_counter()
        answer = small_index.query(gamma, 5, deadline_ms=1e-9)
        elapsed = time.perf_counter() - start
        assert answer.degraded
        assert elapsed < 5.0  # bounded work, never hangs

    def test_batch_shares_one_deadline_and_never_comes_back_short(
        self, small_index
    ):
        rows = np.random.default_rng(0).dirichlet(np.ones(4), size=6)
        answers = small_index.query_batch(rows, 5, deadline_ms=1e-9)
        assert len(answers) == 6
        assert all(a.degraded for a in answers)
        assert all(len(tuple(a.seeds)) > 0 for a in answers)

    def test_config_default_deadline_applies(self, small_index):
        config = InflexConfig(
            num_index_points=small_index.config.num_index_points,
            seed_list_length=small_index.config.seed_list_length,
            deadline_ms=1e-9,
            seed=small_index.config.seed,
        )
        bounded = InflexIndex(
            small_index.graph,
            small_index.index_points,
            small_index.seed_lists,
            config,
        )
        assert bounded.query(np.full(4, 0.25), 5).degraded
        # An explicit argument overrides the config default.
        assert not bounded.query(
            np.full(4, 0.25), 5, deadline_ms=60000
        ).degraded

    def test_sequential_spread_returns_partial_on_deadline(
        self, small_graph
    ):
        estimate = estimate_spread_sequential(
            small_graph,
            GAMMA4,
            [0, 1],
            relative_halfwidth=0.0001,  # unreachable precision
            batch_size=50,
            max_simulations=10**6,
            seed=0,
            deadline=0.2,
        )
        assert estimate.degraded
        assert estimate.num_simulations >= 50  # at least one batch ran
        assert estimate.mean > 0

    def test_no_deadline_never_degrades(self, small_graph):
        estimate = estimate_spread_sequential(
            small_graph, GAMMA4, [0], seed=0
        )
        assert not estimate.degraded
