"""Import-time guard for the build and serve entry points.

``scipy.stats`` costs most of a second and tens of MB to import, and
``repro.experiments`` pulls in every figure and table; the CLI and the
server need neither until an experiment, a t-test or an explanation
asks.  Neither serving nor building needs scipy at all:
``scipy.special`` alone is about 25 MB of resident memory, and the
Dirichlet fit runs on scipy-identical ports of digamma and trigamma.
The packages export their names lazily and the CLI imports per
command, so a ``build`` loads nothing of serving, learning or
campaigns, a single-process ``serve`` nothing of the fleet, and a
server has loaded every module its requests need before it reports
ready.  Each check runs in a fresh interpreter, since this test
session has long since imported all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _saved_index(tmp_path):
    """A small graph, index and sketch bank saved under ``tmp_path``
    (as ``graph.npz``, ``index.npz``, ``index.sketches.npz``)."""
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
    return data.graph, index


def test_serve_path_loads_no_scipy(tmp_path):
    """Neither importing the serve entry points nor answering an
    inflex, exact-knn and sketch query on a loaded index with a bank
    imports any scipy module (the Dirichlet fit and the experiments
    still may)."""
    _saved_index(tmp_path)
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


#: Packages a ``build`` never needs: each command imports only its own
#: modules, and the packages export their names lazily.
NOT_BUILD = ("repro.serving", "repro.learning", "repro.campaign", "asyncio")

#: Modules only the multi-process fleet and the ``loadgen`` / ``top``
#: commands use.
NOT_SERVE = (
    "repro.serving.fleet",
    "repro.serving.loadgen",
    "repro.serving.topview",
    "repro.serving.worker",
)


def test_cli_build_loads_no_scipy(tmp_path, capsys):
    """A CLI ``build`` (Dirichlet fit, sampling, clustering, IMM seed
    lists, bb-tree, save, sketch bank) imports no scipy module, and
    nothing of serving, learning, campaigns or asyncio."""
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
        "--seed-list-length", "4", "--epsilon", "0.5", "--seed", "3",
        "--sketches", "--sketch-sets", "60",
    ])
print(json.dumps({{
    "scipy": [m for m in sys.modules if m.startswith("scipy")],
    "unneeded": [m for m in {NOT_BUILD!r} if m in sys.modules],
}}))
"""
    )
    assert report == {"scipy": [], "unneeded": []}
    assert (tmp_path / "index.npz").is_file()
    assert (tmp_path / "index.sketches.npz").is_file()


#: Runs ``serve`` in this interpreter's main thread while a client
#: thread waits for the ready line, sends the requests and SIGTERMs the
#: server; prints the ``repro`` modules loaded at the ready line and
#: those the requests loaded after it.
SERVE_PROBE = """
import http.client, io, json, os, re, signal, sys, threading
from repro.cli import main

argv, requests = {argv!r}, {requests!r}
seen, ready, port, errors = {{}}, threading.Event(), [], []


def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")


class Watch(io.TextIOBase):
    def write(self, text):
        found = re.search(r" on [^ ]*:(\\d+) [(]SIGTERM", text)
        if found and not ready.is_set():
            seen["ready"] = loaded()
            port.append(int(found.group(1)))
            ready.set()
        return len(text)


def client():
    try:
        if not ready.wait(60):
            raise RuntimeError("no ready line")
        conn = http.client.HTTPConnection("127.0.0.1", port[0], timeout=30)
        for path, payload in requests:
            conn.request("POST", path, json.dumps(payload))
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"{{path}} answered {{response.status}}")
        seen["answered"] = loaded()
    except BaseException as exc:
        errors.append(repr(exc))
    finally:
        os.kill(os.getpid(), signal.SIGTERM)


threading.Thread(target=client, daemon=True).start()
sys.stdout = Watch()
main(argv)
sys.stdout = sys.__stdout__
print(json.dumps({{
    "errors": errors,
    "fleet": [m for m in {not_serve!r} if m in seen["ready"]],
    "after_ready": sorted(set(seen["answered"]) - set(seen["ready"])),
}}))
"""


@pytest.mark.parametrize("stream", [False, True], ids=["serve", "stream"])
def test_serve_loads_everything_before_ready(tmp_path, stream):
    """Single-process ``serve`` loads none of the fleet's modules, and
    every module its requests need (``inflex``, ``exact-knn`` and
    ``sketch`` queries; a ``/deltas`` batch under ``--stream``) is
    loaded before the ready line, so no import lands on a request."""
    graph, _ = _saved_index(tmp_path)
    argv = [
        "serve", "--data", str(tmp_path), "--index",
        str(tmp_path / "index.npz"), "--port", "0",
    ]
    requests = [
        ("/query", {"gamma": [0.5, 0.3, 0.2], "k": 3, "strategy": name})
        for name in ("inflex", "exact-knn", "sketch")
    ]
    if stream:
        argv += ["--stream", "--stream-sets", "40"]
        tail, head = (int(v) for v in graph.arcs()[0])
        requests.append(
            (
                "/deltas",
                {
                    "timestamp": 1.0,
                    "deltas": [{"op": "remove", "tail": tail, "head": head}],
                },
            )
        )
    report = run_fresh(
        SERVE_PROBE.format(
            argv=argv, requests=requests, not_serve=NOT_SERVE
        )
    )
    assert report == {"errors": [], "fleet": [], "after_ready": []}
