"""Import-time guard for the build and serve entry points.

``scipy.stats`` costs most of a second and tens of MB to import, and
``repro.experiments`` pulls in every figure and table; the CLI and the
server need neither until an experiment, a t-test or an explanation
asks.  Neither serving nor building needs scipy at all:
``scipy.special`` alone is about 25 MB of resident memory, and the
Dirichlet fit runs on scipy-identical ports of digamma and trigamma.
Each check runs in a fresh interpreter, since this test session has
long since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DEFERRED = ("scipy.stats", "repro.experiments")


def run_fresh(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_and_serving_imports_defer_heavy_modules():
    report = run_fresh(
        "import json, sys\n"
        "import repro.cli, repro.serving\n"
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))\n"
    )
    assert report == []


def test_serve_path_loads_no_scipy(tmp_path):
    """Neither importing the serve entry points nor answering an
    inflex, exact-knn and sketch query on a loaded index with a bank
    imports any scipy module (the Dirichlet fit and the experiments
    still may)."""
    from repro.core import InflexConfig, InflexIndex, SketchConfig
    from repro.core.persistence import save_index
    from repro.datasets import generate_flixster_like
    from repro.graph import save_graph
    from repro.sketches import SketchBank, save_sketches

    data = generate_flixster_like(
        num_nodes=80, num_topics=3, num_items=20, seed=7
    )
    config = InflexConfig(
        num_index_points=6,
        num_dirichlet_samples=200,
        seed_list_length=4,
        ris_num_sets=100,
        seed=3,
    )
    index = InflexIndex.build(data.graph, data.item_topics, config)
    save_graph(data.graph, tmp_path / "graph.npz")
    save_index(index, tmp_path / "index.npz")
    save_sketches(
        SketchBank.build(data.graph, SketchConfig(num_sets=60, seed=3)),
        tmp_path / "index.sketches.npz",
    )
    report = run_fresh(
        f"""
import json, sys
import repro.cli, repro.serving, repro.streaming
after_import = [m for m in sys.modules if m.startswith("scipy")]
from repro.core.persistence import load_index
from repro.graph import load_graph
from repro.sketches import load_sketches
graph = load_graph({str(tmp_path / "graph.npz")!r})
index = load_index({str(tmp_path / "index.npz")!r}, graph)
index.attach_sketches(load_sketches({str(tmp_path / "index.sketches.npz")!r}))
answers = [
    len(index.query([0.5, 0.3, 0.2], 3, strategy=s).seeds)
    for s in ("inflex", "exact-knn", "sketch")
]
print(json.dumps({{
    "after_import": after_import,
    "after_queries": [m for m in sys.modules if m.startswith("scipy")],
    "answers": answers,
}}))
"""
    )
    assert report == {
        "after_import": [],
        "after_queries": [],
        "answers": [3, 3, 3],
    }


def test_deferred_imports_work_on_first_call():
    report = run_fresh(
        """
import json, sys
import numpy as np
import repro.cli, repro.serving
from repro.core import InflexConfig, InflexIndex, explain_answer
from repro.graph import TopicGraph
from repro.im import SeedList
from repro.stats import paired_t_test

test = paired_t_test([1.0, 2.0, 3.5, 4.0], [1.0, 1.5, 3.0, 3.0])
graph = TopicGraph.from_arcs(
    4, np.array([(0, 1), (1, 2), (2, 3)]), np.full((3, 2), 0.5)
)
index = InflexIndex(
    graph,
    np.array([[0.9, 0.1], [0.1, 0.9]]),
    [SeedList((0, 1, 2)), SeedList((2, 3, 0))],
    InflexConfig(seed_list_length=3),
)
answer = index.query(np.array([0.6, 0.4]), 2, strategy="exact-knn")
text = explain_answer(index, answer).render()
print(json.dumps({
    "p_value": test.p_value,
    "rendered": text,
    "loaded": [
        m for m in ("scipy.stats", "repro.experiments") if m in sys.modules
    ],
}))
"""
    )
    assert 0.0 < report["p_value"] < 1.0
    assert report["rendered"].startswith("Answer provenance")
    assert report["loaded"] == list(DEFERRED)


def test_cli_build_loads_no_scipy(tmp_path, capsys):
    """A CLI ``build`` (Dirichlet fit, sampling, clustering, IMM seed
    lists, bb-tree, save) imports no scipy module."""
    from repro.cli import main

    main(
        [
            "generate", "--out", str(tmp_path / "data"), "--nodes", "80",
            "--topics", "3", "--items", "20", "--seed", "7",
        ]
    )
    capsys.readouterr()
    report = run_fresh(
        f"""
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main([
        "build", "--data", {str(tmp_path / "data")!r},
        "--out", {str(tmp_path / "index.npz")!r},
        "--index-points", "6", "--dirichlet-samples", "200",
        "--seed-list-length", "4", "--ris-sets", "100", "--seed", "3",
    ])
print(json.dumps([m for m in sys.modules if m.startswith("scipy")]))
"""
    )
    assert report == []
    assert (tmp_path / "index.npz").is_file()
