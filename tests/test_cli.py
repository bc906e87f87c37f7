"""Tests for the ``python -m repro`` command-line interface (in-process)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.api import MalformedQueryError, Query
from repro.cli import _parse_lengths, load_dataset, main
from repro.graph.io import write_lg
from repro.graph.labeled_graph import build_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from check_trace_schema import check_trace_file  # noqa: E402


@pytest.fixture
def lg_file(tmp_path):
    """A small LG dataset with two injected a-b-c-d chains."""
    graph = build_graph(
        {
            0: "a", 1: "b", 2: "c", 3: "d",
            10: "a", 11: "b", 12: "c", 13: "d",
            20: "x", 21: "y",
        },
        [(0, 1), (1, 2), (2, 3), (10, 11), (11, 12), (12, 13), (20, 21), (3, 20)],
    )
    path = tmp_path / "data.lg"
    write_lg(graph, path)
    return path


class TestHelpers:
    def test_parse_lengths(self):
        assert _parse_lengths("4,6") == [4, 6]
        assert _parse_lengths("3-5") == [3, 4, 5]
        assert _parse_lengths("5,3-4,5") == [3, 4, 5]
        with pytest.raises(ValueError):
            _parse_lengths(",")

    def test_load_dataset_demo(self):
        (graph,) = load_dataset("demo")
        assert graph.num_vertices() > 0

    def test_load_dataset_bad_spec(self):
        with pytest.raises(ValueError):
            load_dataset("/nonexistent/path.lg")

    def test_load_dataset_synthetic(self):
        (graph,) = load_dataset("synthetic:1:0.1:3")
        assert graph.num_vertices() >= 60


class TestIndexCommands:
    def test_build_then_info(self, lg_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert (
            main(
                [
                    "index", "build",
                    "--data", str(lg_file),
                    "--store", str(store),
                    "--lengths", "2,3",
                    "--min-support", "2",
                    "--json",
                ]
            )
            == 0
        )
        built = json.loads(capsys.readouterr().out)
        assert set(built["lengths"]) == {"2", "3"}
        assert built["lengths"]["3"] >= 1  # the a-b-c-d chain occurs twice

        assert main(["index", "info", "--store", str(store), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 2
        assert all(entry["constraint_id"] == "skinny" for entry in entries)

    def test_info_empty_store(self, tmp_path, capsys):
        assert main(["index", "info", "--store", str(tmp_path / "empty")]) == 0
        assert "empty index store" in capsys.readouterr().out


class TestIndexQueryAndBackends:
    def _build(self, lg_file, store, backend):
        assert (
            main(
                [
                    "index", "build",
                    "--data", str(lg_file),
                    "--store", str(store),
                    "--backend", backend,
                    "--lengths", "2,3",
                    "--min-support", "2",
                    "--json",
                ]
            )
            == 0
        )

    def test_sqlite_build_info_query(self, lg_file, tmp_path, capsys):
        store = tmp_path / "store"
        self._build(lg_file, store, "sqlite")
        capsys.readouterr()
        assert (store / "patterns.sqlite").exists()

        assert main(["index", "info", "--store", str(store), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 2

        assert (
            main(
                [
                    "index", "query",
                    "--store", str(store),
                    "--labels-contain", "b",
                    "--labels-contain", "c",
                    "--order-by=-support",
                    "--json",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows, "expected at least one b-and-c pattern"
        assert all({"b", "c"} <= set(row["labels"]) for row in rows)
        supports = [row["support"] for row in rows]
        assert supports == sorted(supports, reverse=True)

    def test_query_identical_across_backends(self, lg_file, tmp_path, capsys):
        outputs = {}
        for backend in ("jsonl", "sqlite"):
            store = tmp_path / backend
            self._build(lg_file, store, backend)
            capsys.readouterr()
            assert (
                main(
                    [
                        "index", "query",
                        "--store", str(store),
                        "--min-support", "2",
                        "--order-by", "size",
                        "--json",
                        "--include-patterns",
                    ]
                )
                == 0
            )
            outputs[backend] = capsys.readouterr().out
        assert outputs["jsonl"] == outputs["sqlite"]

    def test_backend_from_environment(self, lg_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqlite")
        store = tmp_path / "env-store"
        assert (
            main(
                [
                    "mine",
                    "--data", str(lg_file),
                    "--store", str(store),
                    "-l", "3", "-d", "1",
                    "--min-support", "2",
                    "--json",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (store / "patterns.sqlite").exists()

    def test_query_limit_and_table_output(self, lg_file, tmp_path, capsys):
        store = tmp_path / "store"
        self._build(lg_file, store, "sqlite")
        capsys.readouterr()
        assert (
            main(
                ["index", "query", "--store", str(store), "--limit", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 match(es)" in out and "SqlitePatternStore" in out

    def test_query_bad_filter_exits_one(self, lg_file, tmp_path, capsys):
        store = tmp_path / "store"
        self._build(lg_file, store, "sqlite")
        capsys.readouterr()
        assert (
            main(["index", "query", "--store", str(store), "--limit", "-3"]) == 1
        )
        assert "limit" in capsys.readouterr().err


class TestMineCommand:
    def test_mine_warm_after_build(self, lg_file, tmp_path, capsys):
        store = tmp_path / "store"
        main(
            [
                "index", "build",
                "--data", str(lg_file),
                "--store", str(store),
                "--lengths", "3",
                "--min-support", "2",
            ]
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "mine",
                    "--data", str(lg_file),
                    "--store", str(store),
                    "-l", "3",
                    "-d", "1",
                    "--min-support", "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["served_from_store"] is True
        assert payload["stats"]["num_minimal_patterns"] >= 1
        assert payload["patterns"], "expected at least one mined pattern"
        assert all(p["support"] >= 2 for p in payload["patterns"])

    def test_mine_persists_to_fresh_store(self, lg_file, tmp_path, capsys):
        # Regression: an empty DiskPatternStore is falsy; `mine --store` must
        # still use (and warm) it rather than falling back to memory.
        store = tmp_path / "fresh-store"
        assert (
            main(
                [
                    "mine",
                    "--data", str(lg_file),
                    "--store", str(store),
                    "-l", "3",
                    "-d", "0",
                    "--min-support", "2",
                ]
            )
            == 0
        )
        assert "cold" in capsys.readouterr().out
        # Backend-agnostic persistence check: jsonl entry files or the
        # sqlite database, whichever REPRO_STORE_BACKEND selected.
        from repro.index import detect_store_backend

        assert detect_store_backend(store) is not None, "Stage-1 entry was not persisted"
        assert (
            main(
                [
                    "mine",
                    "--data", str(lg_file),
                    "--store", str(store),
                    "-l", "3",
                    "-d", "0",
                    "--min-support", "2",
                ]
            )
            == 0
        )
        assert "warm index" in capsys.readouterr().out

    def test_mine_without_store(self, lg_file, capsys):
        assert (
            main(
                ["mine", "--data", str(lg_file), "-l", "3", "-d", "0", "--min-support", "2"]
            )
            == 0
        )
        assert "cold" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "arguments",
        [
            ["-l", "3", "-d", "1"],
            ["--constraint", "path", "--param", "length=3"],
            ["--constraint", "diam-le", "--param", "k=2"],
        ],
        ids=["skinny", "path", "diam-le"],
    )
    def test_mine_cold_path_every_constraint(self, lg_file, capsys, arguments):
        """Without a prebuilt store, Stage 1 runs inline — and says so.

        Mirrors the CI cold-path smoke: ``served_from_store`` must be false
        for all three registered constraints when no ``--store`` is given.
        """
        assert (
            main(
                ["mine", "--data", str(lg_file), "--min-support", "2", "--json"]
                + arguments
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["served_from_store"] is False
        assert payload["stats"]["result_cache_hit"] is False


class TestServeBatch:
    def test_batch_responses(self, lg_file, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text(
            json.dumps(
                [
                    {"constraint": "skinny", "params": {"length": 3, "delta": 1},
                     "min_support": 2},
                    {"constraint": "skinny", "params": {"length": 3, "delta": 1},
                     "min_support": 2, "top_k": 1},
                ]
            ),
            encoding="utf-8",
        )
        output = tmp_path / "responses.json"
        assert (
            main(
                [
                    "serve-batch",
                    "--data", str(lg_file),
                    "--requests", str(requests),
                    "--output", str(output),
                ]
            )
            == 0
        )
        results = json.loads(output.read_text(encoding="utf-8"))
        assert len(results) == 2
        assert results[1]["num_patterns"] <= 1
        assert "patterns" not in results[0]

    def test_legacy_payload_rejected(self, lg_file, tmp_path, capsys):
        # serve-batch takes Query envelopes only; the pre-envelope
        # {"length", "delta"} shape is a typed MalformedQueryError.
        legacy = {"length": 3, "delta": 1, "min_support": 2}
        with pytest.raises(MalformedQueryError, match="'constraint' field"):
            Query.from_dict(legacy)
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([legacy]), encoding="utf-8")
        assert (
            main(["serve-batch", "--data", str(lg_file), "--requests", str(requests)])
            == 1
        )
        assert "missing the 'constraint' field" in capsys.readouterr().err

    def test_batch_rejects_non_list(self, lg_file, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text("{}", encoding="utf-8")
        assert (
            main(
                ["serve-batch", "--data", str(lg_file), "--requests", str(requests)]
            )
            == 1
        )
        assert "error" in capsys.readouterr().err


class TestConstraintDispatch:
    def test_constraints_listing(self, capsys):
        assert main(["constraints"]) == 0
        out = capsys.readouterr().out
        for constraint_id in ("skinny", "path", "diam-le"):
            assert constraint_id in out

    def test_constraints_listing_json(self, capsys):
        assert main(["constraints", "--json"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert {spec["constraint_id"] for spec in specs} >= {"skinny", "path", "diam-le"}

    def test_mine_path_constraint(self, lg_file, capsys):
        assert (
            main(
                [
                    "mine",
                    "--data", str(lg_file),
                    "--constraint", "path",
                    "--param", "length=3",
                    "--min-support", "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["patterns"]
        assert all(p["num_edges"] == 3 for p in payload["patterns"])
        assert payload["stats"]["request"]["constraint"] == "path"

    def test_mine_diam_constraint_shares_store_with_skinny(self, lg_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert (
            main(
                [
                    "mine",
                    "--data", str(lg_file),
                    "--store", str(store),
                    "-l", "3", "-d", "1",
                    "--min-support", "2",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "mine",
                    "--data", str(lg_file),
                    "--store", str(store),
                    "--constraint", "diam-le",
                    "--param", "k=2",
                    "--min-support", "2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["index", "info", "--store", str(store), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {entry["constraint_id"] for entry in entries} == {"skinny", "diam-le"}

    def test_index_build_path_constraint(self, lg_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert (
            main(
                [
                    "index", "build",
                    "--data", str(lg_file),
                    "--store", str(store),
                    "--constraint", "path",
                    "--lengths", "3",
                    "--min-support", "2",
                    "--json",
                ]
            )
            == 0
        )
        built = json.loads(capsys.readouterr().out)
        assert built["constraint"] == "path"
        assert built["lengths"]["3"] >= 1
        # A follow-up mine over the same store is served warm.
        assert (
            main(
                [
                    "mine",
                    "--data", str(lg_file),
                    "--store", str(store),
                    "--constraint", "path",
                    "--param", "length=3",
                    "--min-support", "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["served_from_store"] is True

    def test_serve_batch_accepts_query_envelopes(self, lg_file, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text(
            json.dumps(
                [
                    {"constraint": "path", "params": {"length": 3}, "min_support": 2},
                    {"constraint": "diam-le", "params": {"k": 2}, "min_support": 2},
                    {"constraint": "skinny", "params": {"length": 3, "delta": 1},
                     "min_support": 2},
                ]
            ),
            encoding="utf-8",
        )
        assert (
            main(["serve-batch", "--data", str(lg_file), "--requests", str(requests)])
            == 0
        )
        results = json.loads(capsys.readouterr().out)
        assert len(results) == 3
        assert all(result["num_patterns"] >= 1 for result in results)
        assert results[1]["stats"]["request"]["constraint"] == "diam-le"
        assert results[2]["stats"]["request"]["constraint"] == "skinny"


class TestTelemetryFlags:
    def mine_arguments(self, lg_file):
        return [
            "mine",
            "--data", str(lg_file),
            "-l", "3",
            "-d", "1",
            "--min-support", "2",
        ]

    def test_mine_stats_table(self, lg_file, capsys):
        assert main(self.mine_arguments(lg_file) + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "query statistics:" in out
        assert "overhead seconds" in out
        assert "stage 2 seconds" in out
        # Stage-2 fast-path counters appear with underscores humanised.
        assert "canonical incremental hits" in out

    def test_trace_out_writes_valid_jsonl(self, lg_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(self.mine_arguments(lg_file) + ["--trace-out", str(trace)]) == 0
        required = ["stage1", "stage2.level", "stage2.phase.canonical", "store"]
        assert check_trace_file(trace, required) == []
        rows = [
            json.loads(line)
            for line in trace.read_text(encoding="utf-8").splitlines()
        ]
        assert rows[0]["type"] == "event"
        assert rows[0]["event"] == "mine"
        assert any(row.get("name") == "query" for row in rows)

    def test_emit_metrics_snapshot_loads(self, lg_file, tmp_path, capsys):
        from repro.obs import MetricsRegistry

        metrics = tmp_path / "metrics.json"
        assert main(self.mine_arguments(lg_file) + ["--emit-metrics", str(metrics)]) == 0
        payload = json.loads(metrics.read_text(encoding="utf-8"))
        registry = MetricsRegistry.from_snapshot(payload)
        assert registry.counter(
            "repro_queries_total", labels={"constraint": "skinny"}
        ).value == 1
        assert registry.histogram(
            "repro_query_seconds", labels={"constraint": "skinny"}
        ).count == 1

    def test_serve_batch_trace_covers_all_queries(self, lg_file, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text(
            json.dumps(
                [
                    {"constraint": "skinny", "params": {"length": 3, "delta": 1},
                     "min_support": 2},
                    {"constraint": "path", "params": {"length": 3}, "min_support": 2},
                ]
            ),
            encoding="utf-8",
        )
        trace = tmp_path / "batch.jsonl"
        assert (
            main(
                [
                    "serve-batch",
                    "--data", str(lg_file),
                    "--requests", str(requests),
                    "--trace-out", str(trace),
                ]
            )
            == 0
        )
        assert check_trace_file(trace, ["service.batch", "query"]) == []
        rows = [
            json.loads(line)
            for line in trace.read_text(encoding="utf-8").splitlines()
        ]
        queries = [row for row in rows if row.get("name") == "query"]
        assert len(queries) == 2
        batch = next(row for row in rows if row.get("name") == "service.batch")
        assert all(row["parent_id"] == batch["span_id"] for row in queries)

    def test_stats_verb_table_prom_json(self, lg_file, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        main(self.mine_arguments(lg_file) + ["--emit-metrics", str(metrics)])
        capsys.readouterr()

        assert main(["stats", str(metrics)]) == 0
        table = capsys.readouterr().out
        assert "counters:" in table
        assert 'repro_queries_total{constraint="skinny"}' in table
        assert "p50=" in table and "p99=" in table

        assert main(["stats", str(metrics), "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in prom
        for line in prom.strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            assert name_part
            float(value)

        assert main(["stats", str(metrics), "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert {"counters", "gauges", "histograms"} <= set(snapshot)

    def test_stats_verb_empty_registry(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry

        metrics = tmp_path / "empty.json"
        metrics.write_text(
            json.dumps(MetricsRegistry().snapshot()), encoding="utf-8"
        )
        assert main(["stats", str(metrics)]) == 0
        assert "no metrics recorded" in capsys.readouterr().out


class TestErrors:
    def test_bad_data_spec_returns_one(self, capsys):
        assert main(["mine", "--data", "nope.lg", "-l", "2", "-d", "0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_constraint(self, lg_file, capsys):
        assert (
            main(
                ["mine", "--data", str(lg_file), "--constraint", "bogus", "-l", "2", "-d", "0"]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "unknown constraint id 'bogus'" in err
        assert "skinny" in err  # the error names the registered ids

    def test_missing_parameter(self, lg_file, capsys):
        assert (
            main(["mine", "--data", str(lg_file), "--constraint", "diam-le"]) == 1
        )
        assert "missing required parameter 'k'" in capsys.readouterr().err

    def test_unexpected_parameter(self, lg_file, capsys):
        assert (
            main(
                [
                    "mine",
                    "--data", str(lg_file),
                    "--constraint", "path",
                    "--param", "length=3",
                    "-d", "1",
                ]
            )
            == 1
        )
        assert "unexpected parameter" in capsys.readouterr().err

    def test_wrong_parameter_type(self, lg_file, capsys):
        assert (
            main(
                [
                    "mine",
                    "--data", str(lg_file),
                    "--constraint", "diam-le",
                    "--param", "k=two",
                ]
            )
            == 1
        )
        assert "must be an integer" in capsys.readouterr().err

    def test_malformed_param_flag(self, lg_file, capsys):
        assert (
            main(
                ["mine", "--data", str(lg_file), "--constraint", "diam-le", "--param", "k2"]
            )
            == 1
        )
        assert "name=value" in capsys.readouterr().err

    def test_serve_batch_unknown_constraint(self, lg_file, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text(
            json.dumps([{"constraint": "bogus", "params": {}}]), encoding="utf-8"
        )
        assert (
            main(["serve-batch", "--data", str(lg_file), "--requests", str(requests)])
            == 1
        )
        assert "unknown constraint id 'bogus'" in capsys.readouterr().err

    def test_serve_batch_malformed_payload(self, lg_file, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([{"lengths": [3]}]), encoding="utf-8")
        assert (
            main(["serve-batch", "--data", str(lg_file), "--requests", str(requests)])
            == 1
        )
        assert "missing the 'constraint' field" in capsys.readouterr().err

    def test_index_build_lengths_required_for_length_indexed(self, lg_file, tmp_path, capsys):
        assert (
            main(
                [
                    "index", "build",
                    "--data", str(lg_file),
                    "--store", str(tmp_path / "s"),
                    "--constraint", "path",
                ]
            )
            == 1
        )
        assert "--lengths" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_speaks_ndjson_over_tcp(self, lg_file):
        """`repro serve` end to end: spawn, scrape the port, query, shutdown."""
        import asyncio
        import os
        import subprocess

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--data",
                str(lg_file),
                "--port",
                "0",
                "--workers",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            listening = json.loads(process.stdout.readline())
            assert listening["event"] == "listening"
            assert listening["pid"] == process.pid

            async def talk():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", listening["port"]
                )
                try:
                    responses = {}

                    async def request(payload):
                        writer.write((json.dumps(payload) + "\n").encode())
                        await writer.drain()
                        line = await asyncio.wait_for(reader.readline(), timeout=30)
                        response = json.loads(line)
                        responses[response["id"]] = response

                    await request({"op": "ping", "id": 1})
                    await request(
                        {
                            "op": "query",
                            "id": 2,
                            "query": {
                                "constraint": "skinny",
                                "params": {"length": 3, "delta": 1},
                                "min_support": 2,
                            },
                        }
                    )
                    await request({"op": "shutdown", "id": 3})
                    return responses
                finally:
                    writer.close()

            responses = asyncio.run(talk())
            assert responses[1]["op"] == "ping" and responses[1]["ok"]
            assert responses[2]["ok"] is True
            assert responses[2]["num_patterns"] == 1  # the repeated a-b-c-d chain
            assert responses[3] == {"id": 3, "ok": True, "op": "shutdown"}
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
