"""Benchmark entry point.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload query-cold --seed 1 --seconds 10 --trace 0

Runs one workload at one seed, checks the program's outputs, and prints
two JSON lines: a report (run metadata, sample counts, every raw
figure), then the result, whose ``metrics`` are the ``end_to_end``
metrics of ``BENCHMARK.json`` (``--trace 0``) or its ``per_layer``
metrics (``--trace 1``).  The report and, for traced runs, the span
trace are also written under ``.perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

from common import OUT_DIR, ROOT, SRC, WORKLOADS, ensure_src_on_path


def _stop_on_signal(signum, _frame):
    # Unwind through every ``finally``, so servers are drained.
    raise SystemExit(128 + signum)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
        # query-cold draws from far more gammas than the result cache
        # holds; stream-mixed warms it with a hot set that fits it, the
        # source of 30% of its reads.
        "result_cache": "cold" if args.workload == "query-cold" else "warm",
        "bytecode_cache": "warm"
        if (SRC / "repro" / "__pycache__").is_dir()
        else "cold",
    }


def declared_metrics(trace: bool) -> dict:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ensure_src_on_path()
    units = declared_metrics(bool(args.trace))
    signal.signal(signal.SIGTERM, _stop_on_signal)
    signal.signal(signal.SIGINT, _stop_on_signal)

    from workloads import GateFailure, Run

    meta = metadata(args)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, args.trace, work)
    started = time.perf_counter()
    try:
        end_to_end, layers = run.execute()
        failure = None
    except GateFailure as exc:
        end_to_end, layers, failure = {}, {}, str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["loadavg_end"] = list(os.getloadavg())
    meta["wall_s"] = time.perf_counter() - started
    measured = layers if args.trace else end_to_end
    if failure is None and set(measured) != set(units):
        failure = (
            "metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(units) - set(measured))}, extra "
            f"{sorted(set(measured) - set(units))}"
        )
    metrics = (
        {}
        if failure
        else {
            name: {"value": float(measured[name]), "unit": unit}
            for name, unit in units.items()
        }
    )
    report = {
        "metadata": meta,
        "gate_failure": failure,
        "end_to_end": end_to_end,
        "per_layer": layers,
        **run.report,
    }
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if run.spans is not None:
        run.spans.write(results / f"{stem}-spans.json")
    result = {
        "correct": failure is None,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
