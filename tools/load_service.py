#!/usr/bin/env python
"""Concurrent client driver for the ``repro serve`` mining service.

Spawns a ``repro serve`` subprocess, opens many concurrent NDJSON client
connections, drives a mixed skinny/path/diam-le workload (closed loop: each
client waits for its answer before sending the next query), applies an edge
delta through a separate control connection mid-load, and then verifies
every successful answer byte-for-byte against a direct single-user
:class:`repro.api.MiningEngine` run at the generation the service reports
having served it from.

The summary (printed as JSON, optionally written with ``--json-out``)
carries throughput, latency percentiles, per-constraint breakdowns, error
counts by code and the wrong-answer count — the inputs of the
``BENCH_service.json`` gate (see ``benchmarks/test_service_latency.py``).

Stdlib only.  Typical runs::

    python tools/load_service.py                       # 200 clients
    python tools/load_service.py --clients 40 --requests-per-client 3
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: The mixed workload: six distinct queries across all three built-in
#: constraints (distinct cache keys, so the service serves both cold
#: computations and result-cache hits).
WORKLOAD: List[Tuple[str, Dict[str, object]]] = [
    ("skinny", {"constraint": "skinny", "params": {"length": 3, "delta": 1}, "min_support": 2}),
    ("skinny", {"constraint": "skinny", "params": {"length": 3, "delta": 1}, "min_support": 3}),
    ("path", {"constraint": "path", "params": {"length": 2}, "min_support": 2}),
    ("path", {"constraint": "path", "params": {"length": 3}, "min_support": 2}),
    ("diam-le", {"constraint": "diam-le", "params": {"k": 2}, "min_support": 3}),
    ("diam-le", {"constraint": "diam-le", "params": {"k": 2}, "min_support": 4}),
]


def percentile(sorted_values: List[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = int(round(quantile * (len(sorted_values) - 1)))
    return sorted_values[min(rank, len(sorted_values) - 1)]


def delta_operations(data: str) -> List[Dict[str, object]]:
    """A deterministic one-edge delta valid for this dataset."""
    from repro.cli import load_dataset

    graphs = load_dataset(data)
    u, v = min(edge.endpoints() for edge in graphs[0].edges())
    return [{"op": "remove", "u": u, "v": v}]


# --------------------------------------------------------------------- #
# server subprocess
# --------------------------------------------------------------------- #
def spawn_server(args: argparse.Namespace) -> Tuple[subprocess.Popen, Dict[str, object]]:
    """Start ``repro serve`` and scrape its 'listening' event for the port."""
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--data",
        args.data,
        "--port",
        "0",
        "--workers",
        str(args.workers),
        "--max-queue",
        str(args.max_queue),
    ]
    if args.budget_ms is not None:
        command += ["--budget-ms", str(args.budget_ms)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=str(REPO_ROOT),
        text=True,
    )
    line = process.stdout.readline()
    if not line:
        stderr = process.stderr.read()
        raise RuntimeError(f"repro serve failed to start:\n{stderr}")
    event = json.loads(line)
    if event.get("event") != "listening":
        raise RuntimeError(f"unexpected first server event: {event!r}")
    return process, event


def stop_server(process: subprocess.Popen, port: int) -> None:
    async def _shutdown() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b'{"op":"shutdown"}\n')
        await writer.drain()
        await reader.readline()
        writer.close()
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await writer.wait_closed()

    with contextlib.suppress(OSError, asyncio.TimeoutError):
        asyncio.run(asyncio.wait_for(_shutdown(), timeout=5.0))
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.terminate()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


# --------------------------------------------------------------------- #
# the load itself
# --------------------------------------------------------------------- #
async def _drive(
    port: int, args: argparse.Namespace, delta_ops: List[Dict[str, object]]
) -> Tuple[List[Dict[str, object]], Optional[Dict[str, object]], float]:
    """All client loops plus the mid-load delta controller, concurrently."""
    records: List[Dict[str, object]] = []
    total = args.clients * args.requests_per_client
    threshold = (
        max(1, int(total * args.delta_at)) if 0.0 < args.delta_at <= 1.0 else None
    )
    trigger = asyncio.Event()
    completed = 0

    async def client_loop(client_index: int) -> None:
        nonlocal completed
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for sequence in range(args.requests_per_client):
                mix_index = (client_index + sequence) % len(WORKLOAD)
                name, query = WORKLOAD[mix_index]
                request = {
                    "op": "query",
                    "id": f"{client_index}-{sequence}",
                    "query": query,
                }
                started = time.monotonic()
                writer.write((json.dumps(request) + "\n").encode("utf-8"))
                await writer.drain()
                line = await reader.readline()
                latency = time.monotonic() - started
                if not line:
                    raise RuntimeError("server closed the connection mid-load")
                records.append(
                    {
                        "constraint": name,
                        "mix_index": mix_index,
                        "latency": latency,
                        "response": json.loads(line),
                    }
                )
                completed += 1
                if threshold is not None and completed >= threshold:
                    trigger.set()
        finally:
            writer.close()
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await writer.wait_closed()

    async def delta_controller() -> Optional[Dict[str, object]]:
        if threshold is None:
            return None
        await trigger.wait()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            started = time.monotonic()
            writer.write(
                (
                    json.dumps({"op": "apply_delta", "id": "delta", "delta": delta_ops})
                    + "\n"
                ).encode("utf-8")
            )
            await writer.drain()
            response = json.loads(await reader.readline())
            return {
                "ok": response.get("ok", False),
                "generation": response.get("generation"),
                "seconds": time.monotonic() - started,
                "applied_after_requests": completed,
            }
        finally:
            writer.close()
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await writer.wait_closed()

    started = time.monotonic()
    results = await asyncio.gather(
        delta_controller(), *(client_loop(index) for index in range(args.clients))
    )
    wall_seconds = time.monotonic() - started
    return records, results[0], wall_seconds


# --------------------------------------------------------------------- #
# correctness verification
# --------------------------------------------------------------------- #
def canonical_patterns(patterns: object) -> str:
    return json.dumps(patterns, sort_keys=True, separators=(",", ":"))


def verify_answers(
    records: List[Dict[str, object]],
    data: str,
    delta_ops: List[Dict[str, object]],
) -> Tuple[int, Dict[str, int]]:
    """Compare every OK answer against a direct engine at its generation.

    Returns ``(wrong_answers, served_by_generation)``.  'Byte-identical'
    means the canonical JSON of the response's pattern summaries equals the
    canonical JSON of ``MiningEngine.run``'s — same patterns, same supports,
    same order.
    """
    from repro.api import MiningEngine, Query
    from repro.cli import load_dataset
    from repro.obs.metrics import MetricsRegistry
    from repro.server.protocol import parse_delta

    ok_records = [r for r in records if r["response"].get("ok")]
    by_generation: Dict[int, List[Dict[str, object]]] = {}
    for record in ok_records:
        generation = record["response"]["stats"]["snapshot_generation"]
        by_generation.setdefault(generation, []).append(record)

    wrong = 0
    served = {}
    for generation, generation_records in sorted(by_generation.items()):
        engine = MiningEngine(load_dataset(data), metrics=MetricsRegistry())
        for _ in range(generation):
            engine.apply_delta(parse_delta(delta_ops))
        references = {}
        for mix_index in sorted({r["mix_index"] for r in generation_records}):
            result = engine.run(Query.from_dict(WORKLOAD[mix_index][1]))
            references[mix_index] = canonical_patterns(
                result.to_dict(include_patterns=True)["patterns"]
            )
        for record in generation_records:
            actual = canonical_patterns(record["response"].get("patterns"))
            if actual != references[record["mix_index"]]:
                wrong += 1
        served[str(generation)] = len(generation_records)
    return wrong, served


# --------------------------------------------------------------------- #
# orchestration
# --------------------------------------------------------------------- #
def summarise(
    args: argparse.Namespace,
    records: List[Dict[str, object]],
    delta_report: Optional[Dict[str, object]],
    wall_seconds: float,
    wrong_answers: int,
    served: Dict[str, int],
) -> Dict[str, object]:
    latencies = sorted(record["latency"] for record in records)
    errors: Dict[str, int] = {}
    cache_hits = 0
    for record in records:
        response = record["response"]
        if response.get("ok"):
            if response["stats"].get("result_cache_hit"):
                cache_hits += 1
        else:
            code = response.get("error", {}).get("code", "unknown")
            errors[code] = errors.get(code, 0) + 1

    per_constraint: Dict[str, Dict[str, object]] = {}
    for name in sorted({record["constraint"] for record in records}):
        subset = sorted(
            record["latency"] for record in records if record["constraint"] == name
        )
        per_constraint[name] = {
            "count": len(subset),
            "p50_ms": round(percentile(subset, 0.50) * 1000.0, 3),
            "p99_ms": round(percentile(subset, 0.99) * 1000.0, 3),
        }

    return {
        "scenario": {
            "data": args.data,
            "clients": args.clients,
            "requests_per_client": args.requests_per_client,
            "workers": args.workers,
            "workload": [query for _name, query in WORKLOAD],
            "delta_at": args.delta_at,
        },
        "requests": len(records),
        "wall_seconds": round(wall_seconds, 4),
        "throughput_rps": round(len(records) / wall_seconds, 2) if wall_seconds else 0.0,
        "latency_ms": {
            "mean": round(sum(latencies) / len(latencies) * 1000.0, 3)
            if latencies
            else 0.0,
            "p50": round(percentile(latencies, 0.50) * 1000.0, 3),
            "p95": round(percentile(latencies, 0.95) * 1000.0, 3),
            "p99": round(percentile(latencies, 0.99) * 1000.0, 3),
            "max": round((latencies[-1] if latencies else 0.0) * 1000.0, 3),
        },
        "per_constraint": per_constraint,
        "errors": errors,
        "error_count": sum(errors.values()),
        "wrong_answers": wrong_answers,
        "served_by_generation": served,
        "result_cache_hits": cache_hits,
        "delta": delta_report,
    }


def run_load(args: argparse.Namespace) -> Dict[str, object]:
    """Spawn the service, drive the load, verify, and summarise."""
    delta_ops = delta_operations(args.data)
    process, event = spawn_server(args)
    port = event["port"]
    try:
        records, delta_report, wall_seconds = asyncio.run(
            _drive(port, args, delta_ops)
        )
    finally:
        stop_server(process, port)
    wrong_answers, served = verify_answers(records, args.data, delta_ops)
    return summarise(args, records, delta_report, wall_seconds, wrong_answers, served)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--data", default="demo", help="dataset spec (see repro --help)")
    parser.add_argument("--clients", type=int, default=200, help="concurrent connections")
    parser.add_argument(
        "--requests-per-client", type=int, default=5, help="queries per connection"
    )
    parser.add_argument("--workers", type=int, default=4, help="server worker threads")
    parser.add_argument(
        "--max-queue", type=int, default=2048, help="server admission queue bound"
    )
    parser.add_argument(
        "--budget-ms", type=int, default=None, help="server default per-query deadline"
    )
    parser.add_argument(
        "--delta-at",
        type=float,
        default=0.4,
        help="apply the edge delta after this fraction of requests (0 disables)",
    )
    parser.add_argument("--json-out", type=Path, default=None, help="write summary here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    summary = run_load(args)
    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if args.json_out is not None:
        args.json_out.write_text(text + "\n", encoding="utf-8")
    if summary["wrong_answers"]:
        print(
            f"FAIL: {summary['wrong_answers']} wrong answer(s)", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
