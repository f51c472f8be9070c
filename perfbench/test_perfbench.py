"""Self-tests of the benchmark.

Run from the checkout root::

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke tests run each workload for two seconds, traced, through the
real command, so they take about a minute each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from common import DATASET, METRIC_NAME, ROOT, Inputs, ensure_src_on_path

ensure_src_on_path()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs_equal(a: Inputs, b: Inputs) -> bool:
    return (
        a.dataset_seed == b.dataset_seed
        and a.build_seed == b.build_seed
        and a.delta_seed == b.delta_seed
        and a.cold_strategies == b.cold_strategies
        and all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in (
                "cold_pool", "cold_order", "warmup", "hot_set",
                "hot_order", "stream_hot", "probes",
            )
        )
    )


def test_same_seed_same_inputs():
    assert _inputs_equal(Inputs.from_seed(7), Inputs.from_seed(7))
    assert not _inputs_equal(Inputs.from_seed(7), Inputs.from_seed(8))


def test_same_seed_same_delta_batches():
    from repro.datasets import generate_flixster_like

    inputs = Inputs.from_seed(7)
    graph = generate_flixster_like(**DATASET, seed=inputs.dataset_seed).graph
    first = [b.to_dict() for b in inputs.delta_batches(graph, 5)]
    again = [b.to_dict() for b in Inputs.from_seed(7).delta_batches(graph, 5)]
    other = [b.to_dict() for b in Inputs.from_seed(8).delta_batches(graph, 5)]
    assert first == again
    assert first != other


def test_strategy_mix_follows_its_shares():
    strategies = Inputs.from_seed(3).cold_strategies
    share = strategies.count("inflex") / len(strategies)
    assert abs(share - 0.5) < 0.01


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_every_gate(workload):
    done = _run(ROOT, "--workload", workload, "--seed", 5, "--seconds", 2,
                "--trace", 1)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(report["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert report["gate_failure"] is None
    assert not list((ROOT / ".perfbench").glob("work-*"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(tmp_path, "--workload", "query-cold", "--seed", 1,
                "--seconds", 1, "--trace", 0, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
