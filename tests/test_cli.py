"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import _serving_config, build_parser, main
from repro.core import InflexConfig, ServingConfig


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A tiny generated dataset directory."""
    path = tmp_path_factory.mktemp("cli-data")
    code = main(
        [
            "generate",
            "--out",
            str(path),
            "--nodes",
            "120",
            "--topics",
            "3",
            "--items",
            "40",
            "--seed",
            "1",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def index_path(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-index") / "index.npz"
    code = main(
        [
            "build",
            "--data",
            str(data_dir),
            "--out",
            str(out),
            "--index-points",
            "8",
            "--dirichlet-samples",
            "400",
            "--seed-list-length",
            "6",
            "--ris-sets",
            "400",
            "--seed",
            "2",
        ]
    )
    assert code == 0
    return out


class TestGenerate:
    def test_artifacts_exist(self, data_dir):
        assert (data_dir / "graph.npz").exists()
        assert (data_dir / "catalog.npy").exists()
        catalog = np.load(data_dir / "catalog.npy")
        assert catalog.shape == (40, 3)

    def test_with_log(self, tmp_path):
        code = main(
            [
                "generate",
                "--out",
                str(tmp_path),
                "--nodes",
                "60",
                "--topics",
                "2",
                "--items",
                "10",
                "--with-log",
            ]
        )
        assert code == 0
        assert (tmp_path / "log.txt").exists()


class TestBuildAndQuery:
    def test_query_by_gamma(self, data_dir, index_path, capsys):
        code = main(
            [
                "query",
                "--data",
                str(data_dir),
                "--index",
                str(index_path),
                "--gamma",
                "0.6,0.3,0.1",
                "--k",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seeds (ranked):" in out
        assert "ms" in out

    def test_query_by_item(self, data_dir, index_path, capsys):
        code = main(
            [
                "query",
                "--data",
                str(data_dir),
                "--index",
                str(index_path),
                "--item",
                "3",
                "--k",
                "3",
                "--strategy",
                "approx-knn",
            ]
        )
        assert code == 0
        assert "approx-knn" in capsys.readouterr().out

    def test_gamma_normalized(self, data_dir, index_path, capsys):
        code = main(
            [
                "query",
                "--data",
                str(data_dir),
                "--index",
                str(index_path),
                "--gamma",
                "6,3,1",  # unnormalized: CLI normalizes
                "--k",
                "2",
            ]
        )
        assert code == 0


class TestBuildDefaults:
    def test_default_engine_writes_the_imm_bytes(self, data_dir, tmp_path):
        """``build`` without ``--engine`` builds what ``InflexConfig``
        builds by default: the bytes of ``build --engine imm``."""
        argv = [
            "build", "--data", str(data_dir), "--index-points", "6",
            "--dirichlet-samples", "300", "--seed-list-length", "5",
            "--epsilon", "0.3", "--seed", "5",
        ]
        default, imm = tmp_path / "default.npz", tmp_path / "imm.npz"
        assert main(argv + ["--out", str(default)]) == 0
        assert main(argv + ["--out", str(imm), "--engine", "imm"]) == 0
        assert default.read_bytes() == imm.read_bytes()
        parsed = build_parser().parse_args(
            ["build", "--data", "d", "--out", "o"]
        )
        assert parsed.engine == InflexConfig().im_engine == "imm"


class TestObservabilityCommands:
    @pytest.fixture(autouse=True)
    def _restore_obs_state(self):
        """--profile / obs enable the global switch; restore defaults."""
        from repro import obs

        yield
        obs.disable()
        obs.get_registry().reset()
        obs.get_tracer().clear()

    def test_query_profile_writes_breakdown_and_trace(
        self, data_dir, index_path, tmp_path, capsys
    ):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "query",
                "--data",
                str(data_dir),
                "--index",
                str(index_path),
                "--item",
                "3",
                "--k",
                "3",
                "--profile",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-phase breakdown:" in out
        assert "search" in out and "aggregation" in out
        assert trace_path.exists()
        document = json.loads(trace_path.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert "query" in names
        assert "query.search" in names

    def test_obs_dumps_json_snapshot(
        self, data_dir, index_path, tmp_path, capsys
    ):
        import json

        out_path = tmp_path / "snap.json"
        code = main(
            [
                "obs",
                "--data",
                str(data_dir),
                "--index",
                str(index_path),
                "--queries",
                "6",
                "--k",
                "3",
                "--out",
                str(out_path),
                "--reset",
            ]
        )
        assert code == 0
        snapshot = json.loads(out_path.read_text())
        totals = sum(
            entry["value"]
            for entry in snapshot["repro_queries_total"]["series"]
        )
        assert totals == 6.0
        assert (
            snapshot["repro_query_batches_total"]["series"][0]["value"]
            == 1.0
        )

    def test_obs_prometheus_to_stdout(self, data_dir, index_path, capsys):
        code = main(
            [
                "obs",
                "--data",
                str(data_dir),
                "--index",
                str(index_path),
                "--queries",
                "2",
                "--k",
                "2",
                "--format",
                "prometheus",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in out
        assert "repro_query_phase_seconds" in out


class TestExperimentCommand:
    def test_runs_fig4(self, capsys):
        code = main(["experiment", "fig4", "--scale", "test"])
        assert code == 0
        assert "Pearson" in capsys.readouterr().out


class TestAutosizeCommand:
    def test_runs(self, data_dir, capsys):
        code = main(
            [
                "autosize",
                "--data",
                str(data_dir),
                "--sizes",
                "4",
                "8",
            ]
        )
        assert code == 0
        assert "Auto-sizing" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_requires_gamma_or_item(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--data", "x", "--index", "y"]
            )

    def test_serve_defaults_come_from_serving_config(self):
        args = build_parser().parse_args(
            ["serve", "--data", "x", "--index", "y"]
        )
        assert _serving_config(args) == ServingConfig()


class TestServeStream:
    def test_loaded_graph_released_after_first_batch(
        self, data_dir, index_path, monkeypatch, capsys
    ):
        """``serve --stream`` holds only the engine's graph once a batch
        has replaced the one it loaded."""
        import asyncio
        import gc
        import weakref

        import repro.serving
        from repro.datasets import generate_delta_workload
        from repro.graph import load_graph
        from tests.test_streaming import _request

        batch = generate_delta_workload(
            load_graph(data_dir / "graph.npz"),
            num_batches=1,
            batch_size=3,
            seed=5,
        ).batches[0]
        released = []

        async def serve_one_batch(front, ready=None):
            await front.start()
            try:
                ready(front)
                loaded = weakref.ref(front.streaming.graph)
                status, _ = await _request(
                    front.config.host, front.port, "POST", "/deltas",
                    batch.to_dict(),
                )
                assert status == 200
                gc.collect()
                released.append(loaded() is None)
            finally:
                await front.aclose()

        monkeypatch.setattr(repro.serving, "serve", serve_one_batch)
        code = main(
            [
                "serve", "--data", str(data_dir), "--index", str(index_path),
                "--port", "0", "--no-obs", "--stream", "--stream-sets", "40",
            ]
        )
        assert code == 0
        assert released == [True]
        assert "serving InflexIndex(" in capsys.readouterr().out
