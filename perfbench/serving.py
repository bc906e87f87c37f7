"""The serve-updates workload: ``repro serve`` under a closed loop with deltas.

The traffic is the repo's own service mix, ``WORKLOAD`` of
``tools/load_service.py`` (the traffic of the ``BENCH_service`` gate): six
queries over all three constraints with equal weights, each client cycling
through them.  Two client connections each send their next request only
after the previous answer arrived (no think time).  Requests come in epochs
of 96, 48 per connection; at the barrier between epochs one connection
sends an ``apply_delta`` that removes, and next time re-adds, one edge of a
planted copy.  Epoch ``e`` is therefore always served at generation ``e``,
and every run serves the same requests from the same generations.  The
result cache is keyed by generation, so in every epoch the first request of
each query misses (its Stage-1 entry repaired, or for ``diam-le``
invalidated, by the delta) and the repeats hit.  Each connection asks for
its own ``top_k``, so its cache keys are its own and which requests hit
does not depend on timing.

After the server has shut down, every answer is checked against a direct
``MiningEngine.run`` on the data of the generation it reports (as
``tools/load_service.py`` does).
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.api import MiningEngine, Query
from repro.graph.io import read_lg
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.server.protocol import parse_delta

import common
from mining import levelgrow_layer

SHAPE = "demo"
#: ``tools/load_service.py`` ``WORKLOAD``, as (constraint, params, σ).
MIX: Tuple[Tuple[str, dict, int], ...] = (
    ("skinny", {"length": 3, "delta": 1}, 2),
    ("skinny", {"length": 3, "delta": 1}, 3),
    ("path", {"length": 2}, 2),
    ("path", {"length": 3}, 2),
    ("diam-le", {"k": 2}, 3),
    ("diam-le", {"k": 2}, 4),
)
#: Per connection and epoch each query of the mix is asked this many times.
#: The first round misses and the rest hit: 84 hits in 96 requests (88%),
#: near the 259 in 300 (86%) the ``BENCH_service`` gate recorded with the
#: same mix.
ROUNDS = 8
#: Each connection's ``top_k``.  Both exceed every answer's size, so every
#: answer is complete, as in ``tools/load_service.py``; they differ, so the
#: two connections never share a result-cache key.
TOP_K = (10_000, 10_001)
#: At least this many epochs (96 requests each), so the p99 has ten
#: samples beyond it.
MIN_EPOCHS = 11
WARM_TOP_K = 1
WORKERS = 2
#: Server starts per run: one start takes under a second, so report a median.
SETUPS = 5


def epoch_schedule(connection: int) -> List[int]:
    """One connection's fixed order of mix indices, repeated in every epoch.

    Like a ``tools/load_service.py`` client, connection ``c`` cycles the
    mix starting at index ``c``.
    """
    return [(connection + sequence) % len(MIX) for sequence in range(ROUNDS * len(MIX))]


def request_query(base: int, top_k: int) -> dict:
    constraint, params, min_support = MIX[base]
    return {"constraint": constraint, "params": params, "min_support": min_support, "top_k": top_k}


class Server:
    """One ``repro serve`` subprocess, started and warmed up."""

    def __init__(self, lg_path: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(common.ROOT / "src")
        started = time.perf_counter()
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--data", lg_path, "--port", "0",
                "--workers", str(WORKERS), "--cache-ttl", "3600",
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=str(common.ROOT),
            env=env,
        )
        try:
            self.port = json.loads(self.process.stdout.readline())["port"]
        except (ValueError, KeyError):
            self.process.kill()
            self._close()
            raise RuntimeError("repro serve did not start; see " + log_path)
        try:
            asyncio.run(self._warm())
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    async def _warm(self) -> None:
        """Fill the Stage-1 index with every key the loop uses."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port, limit=1 << 24)
        try:
            for base in range(len(MIX)):
                request = {"op": "query", "id": f"warm-{base}", "query": request_query(base, WARM_TOP_K)}
                writer.write(json.dumps(request).encode() + b"\n")
                response = json.loads(await reader.readline())
                if not response.get("ok"):
                    raise RuntimeError(f"warm-up query failed: {response}")
        finally:
            writer.close()
            await writer.wait_closed()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Ask the server to shut down; kill it if it does not exit in time."""
        try:
            if self.process.poll() is None:
                try:
                    asyncio.run(asyncio.wait_for(self._shutdown(), timeout=10))
                except (OSError, asyncio.TimeoutError):
                    pass
                try:
                    self.process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.process.kill()
        finally:
            self._close()

    def _close(self) -> None:
        self.process.wait()
        self.process.stdout.close()
        self._log.close()

    async def _shutdown(self) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        writer.write(b'{"op": "shutdown"}\n')
        await reader.readline()
        writer.close()


async def closed_loop(port: int, delta_edge: List[int], seconds: float, trace: bool) -> dict:
    """Drive epochs until ``seconds`` have passed (and at least ``MIN_EPOCHS``)."""
    connections = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 24) for _ in range(2)
    ]
    tracers = [Tracer() for _ in connections]
    schedules = [epoch_schedule(c) for c in range(len(connections))]
    requests: List[dict] = []
    deltas: List[dict] = []

    async def send(connection: int, payload: dict) -> Tuple[float, bytes]:
        reader, writer = connections[connection]
        started = time.perf_counter()
        writer.write(json.dumps(payload).encode() + b"\n")
        line = await reader.readline()
        return time.perf_counter() - started, line

    async def run_connection(connection: int, epoch: int, traced: bool) -> None:
        tracer = tracers[connection]
        top_k = TOP_K[connection]
        for position, base in enumerate(schedules[connection]):
            payload = {"op": "query", "id": f"{epoch}-{connection}-{position}", "query": request_query(base, top_k)}
            if traced:
                with tracer.span("client.request", id=payload["id"]):
                    latency, line = await send(connection, payload)
            else:
                latency, line = await send(connection, payload)
            requests.append(
                {"epoch": epoch, "base": base, "top_k": top_k, "latency": latency, "line": line, "traced": traced}
            )

    started = time.perf_counter()
    epoch = 0
    while True:
        # Traced and untraced epochs alternate in pairs, so both halves
        # cover both generations' data.
        traced = trace and (epoch // 2) % 2 == 0
        await asyncio.gather(*(run_connection(c, epoch, traced) for c in range(len(connections))))
        epoch += 1
        if epoch >= MIN_EPOCHS and time.perf_counter() - started >= seconds:
            break
        op = "remove" if epoch % 2 else "add"
        payload = {"op": "apply_delta", "id": f"delta-{epoch}", "delta": [{"op": op, "u": delta_edge[0], "v": delta_edge[1]}]}
        latency, line = await send(epoch % 2, payload)
        deltas.append({"epoch": epoch, "latency": latency, "line": line})
    wall = time.perf_counter() - started
    _latency, stats_line = await send(0, {"op": "stats", "id": "stats"})
    for _reader, writer in connections:
        writer.close()
        await writer.wait_closed()
    return {"requests": requests, "deltas": deltas, "wall": wall, "stats": stats_line, "tracers": tracers}


def _canonical(patterns) -> str:
    return json.dumps(patterns, sort_keys=True, separators=(",", ":"))


def verify(lg_path: str, delta_edge: List[int], requests: List[dict], deltas: List[dict]) -> List[str]:
    """Check each answer against a direct engine run on its generation's data."""
    problems: List[str] = []
    removal = parse_delta([{"op": "remove", "u": delta_edge[0], "v": delta_edge[1]}])
    # Even generations hold the original edge set, odd ones lack the edge.
    references = []
    for parity in (0, 1):
        engine = MiningEngine(read_lg(lg_path), metrics=MetricsRegistry())
        if parity:
            engine.apply_delta(removal)
        references.append(engine)
    for delta in deltas:
        response = delta["response"]
        expected = references[delta["epoch"] % 2].fingerprint
        if not response.get("ok") or response.get("fingerprint") != expected:
            problems.append(f"delta before epoch {delta['epoch']}: {response.get('error') or 'fingerprint differs'}")
    answers: Dict[tuple, str] = {}
    for request in requests:
        response = request["response"]
        if not response.get("ok"):
            problems.append(f"request {response.get('id')}: {response.get('error')}")
            continue
        generation = response["stats"]["snapshot_generation"]
        if generation != request["epoch"]:
            problems.append(f"request {response.get('id')}: served at generation {generation}")
            continue
        key = (generation % 2, request["base"], request["top_k"])
        if key not in answers:
            result = references[key[0]].run(Query.from_dict(request_query(request["base"], request["top_k"])))
            answers[key] = _canonical(result.to_dict(include_patterns=True)["patterns"])
        if _canonical(response.get("patterns")) != answers[key]:
            problems.append(f"request {response.get('id')}: answer differs from a direct run")
    return problems


def run(workload: str, lg_path: str, seed: int, meta: dict, seconds: float, trace: bool) -> dict:
    log_path = str(common.WORK / f"{workload}.server.log")
    setups: List[float] = []
    server: Optional[Server] = None
    # The client, and by inheritance the server, share one CPU: the
    # workers are threads under one interpreter lock, so the server runs
    # Python on one CPU anyway, and on a 2-vCPU VM the cross-CPU wake-ups
    # of every request hand-off made throughput of an earlier, miss-heavy
    # mix vary 43-57 req/s between runs, against 68-72 req/s pinned.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        for start in range(SETUPS):
            server = Server(lg_path, log_path)
            setups.append(server.setup_s)
            if start < SETUPS - 1:
                server.stop()
        loop = asyncio.run(closed_loop(server.port, meta["delta_edge"], seconds, trace))
        peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    requests, deltas = loop["requests"], loop["deltas"]
    for item in requests + deltas:
        item["response"] = json.loads(item.pop("line"))
    problems = verify(lg_path, meta["delta_edge"], requests, deltas)
    for problem in problems:
        print("CHECK FAILED:", problem, file=sys.stderr)

    ok = [r for r in requests if r["response"].get("ok")]
    misses = [r for r in ok if not r["response"]["stats"]["result_cache_hit"]]
    latencies = [r["latency"] for r in requests]
    outcome = {
        "attempted": len(requests) + len(deltas),
        "failed": len(problems),
        "end_to_end": {
            "setup_s": (common.median(setups), len(setups)),
            "query_p50_ms": (common.median(latencies) * 1000.0, len(latencies)),
            "miss_p50_ms": (common.median(r["latency"] for r in misses) * 1000.0, len(misses)),
            "throughput_rps": (len(requests) / loop["wall"], len(requests)),
            "peak_rss_mb": (peak_rss, 1),
        },
        "extra": {"delta_p50_ms": (common.median(d["latency"] for d in deltas) * 1000.0, len(deltas))},
    }
    p99 = common.tail_percentile(latencies, 0.99)
    if p99 is not None:
        outcome["extra"]["query_p99_ms"] = (p99 * 1000.0, len(latencies))
    if trace:
        outcome["per_layer"] = per_layer(requests, ok, misses, deltas, json.loads(loop["stats"]))
        outcome["trace_records"] = trace_records(loop["tracers"], requests)
    return outcome


def counter_totals(stats_response: dict, name: str, by_label: Optional[str] = None) -> Dict[str, float]:
    """A counter from the stats op, summed per value of ``by_label`` (or in total under ``""``)."""
    totals: Dict[str, float] = {}
    for series in stats_response["metrics"]["counters"]:
        if series["name"] == name:
            key = dict(series["labels"])[by_label] if by_label else ""
            totals[key] = totals.get(key, 0.0) + series["value"]
    return totals


def per_layer(requests, ok, misses, deltas, stats_response: dict) -> Dict[str, Tuple[float, int]]:
    """Per-miss means from response stats; counters of the server's life from the stats op.

    Layers that run inside the server but report nothing through the
    protocol (``diamle.*``, ``canonical.dfs_s``, ``paths.*``,
    ``diammine.mine_s/ladder_s/merge_s``, ``csr.*``, ``io.read_lg_s``,
    ``index.get_s``, ``index.put_s``) are left at 0 with 0 samples.
    """
    n = len(misses)
    outcomes = counter_totals(stats_response, "repro_service_requests_total", "outcome")
    # Engine runs the worker pool made, the warm-up queries included.
    dispatched = sum(v for k, v in outcomes.items() if k in ("ok", "error", "deadline"))
    store_hits = counter_totals(stats_response, "repro_store_hits_total").get("", 0.0)
    store_misses = counter_totals(stats_response, "repro_store_misses_total").get("", 0.0)
    stats = [r["response"]["stats"] for r in misses]
    hits = [r for r in ok if r["response"]["stats"]["result_cache_hit"]]
    reports = [d["response"].get("report", {}) for d in deltas]
    traced = [r["latency"] for r in requests if r["traced"]]
    untraced = [r["latency"] for r in requests if not r["traced"]]
    values: Dict[str, Tuple[float, int]] = {
        "engine.queries": (float(n), n),
        "engine.stage1_s": (common.mean(s["stage_one_seconds"] for s in stats), n),
        "engine.stage2_s": (common.mean(s["stage_two_seconds"] for s in stats), n),
        "engine.overhead_s": (common.mean(s["overhead_seconds"] for s in stats), n),
        "diammine.minimal_patterns": (common.mean(s["num_minimal_patterns"] for s in stats), n),
        # Stage-1 store lookups per engine run; every lookup that misses
        # mines and puts the entry.
        "index.gets": (common.ratio(store_hits + store_misses, dispatched), int(dispatched)),
        "index.hit_ratio": (common.ratio(store_hits, store_hits + store_misses), int(store_hits + store_misses)),
        "index.puts": (common.ratio(store_misses, dispatched), int(dispatched)),
        "index.repaired": (common.mean(r.get("entries_repaired", 0) for r in reports), len(reports)),
        "index.invalidated": (common.mean(r.get("entries_invalidated", 0) for r in reports), len(reports)),
        "server.dispatched": (dispatched, int(dispatched)),
        "server.queue_wait_p50_ms": (common.median(s["queue_seconds"] for s in stats) * 1000.0, n),
        "server.queue_wait_s": (sum(s["queue_seconds"] for s in stats), n),
        "server.worker_busy_s": (sum(s["total_seconds"] for s in stats), n),
        "server.result_cache_hit_ratio": (common.ratio(len(hits), len(ok)), len(ok)),
        "server.hit_p50_ms": (common.median(r["latency"] for r in hits) * 1000.0, len(hits)),
        "server.request_overhead_p50_ms": (
            common.median(
                r["latency"] - r["response"]["stats"]["queue_seconds"] - r["response"]["stats"]["total_seconds"]
                for r in ok
            ) * 1000.0,
            len(ok),
        ),
        "server.failed": (sum(v for k, v in outcomes.items() if k not in ("ok", "cache_hit")), len(requests)),
        # At least MIN_EPOCHS epochs make 1,056 requests, so the p99 always
        # has ten samples beyond it here.
        "server.query_p99_ms": (common.tail_percentile([r["latency"] for r in requests], 0.99) * 1000.0, len(requests)),
        "server.delta_p50_ms": (common.median(d["latency"] for d in deltas) * 1000.0, len(deltas)),
        "obs.trace_overhead": (common.ratio(common.median(traced), common.median(untraced)), len(traced)),
    }
    values.update(
        levelgrow_layer([s["level_statistics"] for s in stats], [s["stage_two_seconds"] for s in stats])
    )
    return values


def trace_records(tracers, requests) -> List[dict]:
    """Client request spans, each split into the layers its response reports.

    The server runs in another process, so its queue and engine times come
    from the response ``stats``; the span's self time is what neither
    covers (connection, serialisation and the event loop).
    """
    stats_by_id = {r["response"].get("id"): r["response"].get("stats") or {} for r in requests}
    records: List[dict] = []
    for tracer in tracers:
        for tree in tracer.drain():
            request_id = tree["attrs"]["id"]
            stats = stats_by_id.get(request_id, {})
            parts = {
                "server.queue": stats.get("queue_seconds", 0.0),
                "engine.stage1": stats.get("stage_one_seconds", 0.0),
                "engine.stage2": stats.get("stage_two_seconds", 0.0),
                "engine.overhead": stats.get("overhead_seconds", 0.0),
            }
            span = tree["span_id"]
            records.append(
                {"query": request_id, "span": span, "parent": None, "name": tree["name"],
                 "seconds": tree["seconds"], "self_seconds": tree["seconds"] - sum(parts.values())}
            )
            records.extend(
                {"query": request_id, "span": f"{span}.{name}", "parent": span, "name": name,
                 "seconds": seconds, "self_seconds": seconds}
                for name, seconds in parts.items()
            )
    return records
