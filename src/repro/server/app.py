"""The mining service itself: asyncio front end over snapshots and workers.

:class:`MiningServer` ties the serving tier together:

* an asyncio TCP listener speaking the NDJSON protocol of
  :mod:`repro.server.protocol`, with per-connection pipelining (each query
  runs as its own asyncio task; responses carry the request ``id``);
* the :class:`~repro.server.admission.AdmissionController` (bounded queue,
  per-constraint fairness, load shed) feeding the
  :class:`~repro.server.workers.WorkerPool`;
* per-query deadlines (``budget_ms``): the event loop stops waiting when
  the budget elapses and answers with a typed ``deadline_exceeded`` error;
  the worker discards the abandoned computation and moves on;
* the generation-keyed :class:`~repro.server.cache.TTLResultCache`;
* ``apply_delta`` through the :class:`~repro.server.snapshots.SnapshotManager`
  (runs in the default executor; queries keep flowing against the old
  generation until the new one is published whole);
* telemetry through :mod:`repro.obs` — ``service.request`` /
  ``service.queue`` / ``service.worker`` span trees and the
  ``repro_service_*`` metric family (queue depth, in-flight, latency
  histograms, shed/deadline/abandon counters), merged with every worker
  thread's private registry on ``stats``.

Threading contract: everything on ``self`` except the snapshot manager and
worker pool is event-loop confined.  Workers communicate back exclusively
via ``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.api.engine import MiningEngine
from repro.api.errors import MalformedQueryError, QueryError, error_code
from repro.api.query import Query, QueryStats, Result, ResultError
from repro.core.levelgrow import DiameterDescriptorCache
from repro.graph.labeled_graph import LabeledGraph
from repro.index.store import MemoryPatternStore, PatternStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.server.admission import AdmissionController
from repro.server.cache import TTLResultCache
from repro.server.protocol import (
    MAX_LINE_BYTES,
    DeadlineExceeded,
    ServiceUnavailable,
    encode_response,
    parse_budget_ms,
    parse_delta,
    parse_request,
)
from repro.server.snapshots import SnapshotManager
from repro.server.workers import Outcome, WorkerPool, WorkerTask


class MiningServer:
    """A long-lived concurrent mining service over one dataset.

    Parameters
    ----------
    graphs:
        The data graph or graph database to serve (generation 0).
    store:
        Stage-1 index backend for generation 0 (defaults to in-memory).
        Deltas never write to it: each new generation layers a
        copy-on-write view on top.
    host / port:
        Listen address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    workers:
        Worker-thread count (also the total in-flight limit).
    max_queue / per_constraint:
        Admission policy (see :class:`AdmissionController`).
    default_budget_ms:
        Deadline applied to queries that do not send ``budget_ms``;
        ``None`` means no default deadline.
    cache_size / cache_ttl_seconds:
        The TTL'd result cache bounds.
    tracer / metrics:
        Event-loop-side telemetry sinks; both default to private no-op /
        fresh instances so a server never contends with other components.
    """

    def __init__(
        self,
        graphs: Union[LabeledGraph, Sequence[LabeledGraph]],
        store: Optional[PatternStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        max_queue: int = 256,
        per_constraint: Optional[int] = None,
        default_budget_ms: Optional[int] = None,
        cache_size: int = 1024,
        cache_ttl_seconds: float = 30.0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._host = host
        self._requested_port = port
        self._default_budget_ms = default_budget_ms
        self._descriptor_cache = DiameterDescriptorCache()
        self._maintenance_metrics = MetricsRegistry()
        self._snapshots = SnapshotManager(
            graphs, store if store is not None else MemoryPatternStore(), self._make_engine
        )
        self._pool = WorkerPool(workers)
        self._admission = AdmissionController(
            max_queue=max_queue, max_inflight=workers, per_constraint=per_constraint
        )
        self._cache = TTLResultCache(
            max_entries=cache_size, ttl_seconds=cache_ttl_seconds
        )
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self.port: Optional[int] = None

    def _make_engine(
        self, graphs: List[LabeledGraph], store: PatternStore
    ) -> MiningEngine:
        return MiningEngine(
            graphs,
            store=store,
            descriptor_cache=self._descriptor_cache,
            metrics=self._maintenance_metrics,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        return self._snapshots.generation

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    async def start(self) -> None:
        """Bind the listener and start the worker threads."""
        self._pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._requested_port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._gauge("repro_service_snapshot_generation").set(self.generation)

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` or a ``shutdown`` op arrives."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self._shutdown_now()

    async def stop(self) -> None:
        """Request an orderly shutdown (idempotent)."""
        self._shutdown.set()
        if self._server is not None:
            await self._shutdown_now()

    async def _shutdown_now(self) -> None:
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        await server.wait_closed()
        # Queued-but-undispatched tasks get a clean unavailable answer.
        for task in self._admission.drain_pending():
            if not task.future.done():
                task.future.set_result(
                    Outcome(
                        result=None,
                        error=ServiceUnavailable("server shutting down").to_result_error(),
                        queue_seconds=0.0,
                        exec_seconds=0.0,
                        generation=task.snapshot.generation,
                    )
                )
        await asyncio.get_running_loop().run_in_executor(None, self._pool.stop)

    # ------------------------------------------------------------------ #
    # telemetry helpers (event-loop thread only)
    # ------------------------------------------------------------------ #
    _METRIC_HELP = {
        "repro_service_requests_total": "Requests received by the mining service",
        "repro_service_request_seconds": "End-to-end service request latency",
        "repro_service_queue_seconds": "Time queries spent in the admission queue",
        "repro_service_queue_depth": "Queries waiting in the admission queue",
        "repro_service_inflight": "Queries currently executing on workers",
        "repro_service_connections": "Open client connections",
        "repro_service_sheds_total": "Requests shed by admission control",
        "repro_service_deadline_exceeded_total": "Requests past their budget_ms",
        "repro_service_abandoned_total": "Worker computations discarded after a timeout",
        "repro_service_result_cache_hits_total": "Service result-cache hits",
        "repro_service_result_cache_misses_total": "Service result-cache misses",
        "repro_service_deltas_total": "apply_delta operations served",
        "repro_service_snapshot_generation": "Current published snapshot generation",
    }

    def _counter(self, name: str, **labels: object):
        return self._metrics.counter(name, self._METRIC_HELP.get(name, ""), labels or None)

    def _gauge(self, name: str):
        return self._metrics.gauge(name, self._METRIC_HELP.get(name, ""))

    def _histogram(self, name: str, **labels: object):
        return self._metrics.histogram(
            name, self._METRIC_HELP.get(name, ""), labels or None
        )

    def _update_load_gauges(self) -> None:
        self._gauge("repro_service_queue_depth").set(self._admission.queue_depth)
        self._gauge("repro_service_inflight").set(self._admission.inflight)

    def _observe_request(
        self,
        constraint_id: str,
        outcome: str,
        seconds: float,
        queue_seconds: float = 0.0,
        worker_seconds: float = 0.0,
    ) -> None:
        self._counter(
            "repro_service_requests_total", constraint=constraint_id, outcome=outcome
        ).inc()
        self._histogram(
            "repro_service_request_seconds", constraint=constraint_id
        ).observe(seconds)
        if queue_seconds or worker_seconds:
            self._histogram("repro_service_queue_seconds").observe(queue_seconds)
        if self._tracer.enabled:
            children = []
            if queue_seconds:
                children.append({"name": "service.queue", "seconds": queue_seconds})
            if worker_seconds:
                children.append({"name": "service.worker", "seconds": worker_seconds})
            self._tracer.record(
                "service.request",
                seconds,
                children=children,
                constraint=constraint_id,
                outcome=outcome,
            )

    # ------------------------------------------------------------------ #
    # dispatch plumbing (event-loop thread only)
    # ------------------------------------------------------------------ #
    def _pump(self) -> None:
        for task in self._admission.dispatchable():
            self._pool.submit(task)
        self._update_load_gauges()

    def _task_done(self, task: WorkerTask, outcome: Outcome) -> None:
        self._admission.finished(task.constraint_id)
        if task.abandoned:
            self._counter("repro_service_abandoned_total").inc()
        self._pump()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._gauge("repro_service_connections").inc()
        write_lock = asyncio.Lock()
        inflight_responses: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionResetError):
                    break  # over-long line or peer vanished: drop the connection
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    payload = parse_request(line)
                except MalformedQueryError as error:
                    await self._respond_error(
                        writer, write_lock, None, ResultError(error_code(error), str(error))
                    )
                    continue
                op = payload.get("op", "query")
                if op == "query":
                    # Pipelined: each query is its own task; the response
                    # carries the request id.
                    response_task = asyncio.ensure_future(
                        self._handle_query(payload, writer, write_lock)
                    )
                    inflight_responses.add(response_task)
                    response_task.add_done_callback(inflight_responses.discard)
                elif op == "apply_delta":
                    await self._handle_apply_delta(payload, writer, write_lock)
                elif op == "stats":
                    await self._handle_stats(payload, writer, write_lock)
                elif op == "ping":
                    await self._send(
                        writer,
                        write_lock,
                        {
                            "id": payload.get("id"),
                            "ok": True,
                            "op": "ping",
                            "generation": self.generation,
                        },
                    )
                elif op == "shutdown":
                    await self._send(
                        writer,
                        write_lock,
                        {"id": payload.get("id"), "ok": True, "op": "shutdown"},
                    )
                    self._shutdown.set()
                    break
        finally:
            for response_task in list(inflight_responses):
                response_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._gauge("repro_service_connections").inc(-1.0)

    async def _send(self, writer, write_lock, payload: Dict[str, object]) -> None:
        data = encode_response(payload)
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to deliver

    async def _respond_error(
        self,
        writer,
        write_lock,
        request_id,
        error: ResultError,
        stats: Optional[QueryStats] = None,
    ) -> None:
        body = Result.failed(error, stats=stats).to_dict()
        body.update({"id": request_id, "ok": False})
        await self._send(writer, write_lock, body)

    # ------------------------------------------------------------------ #
    # ops
    # ------------------------------------------------------------------ #
    async def _handle_query(self, payload, writer, write_lock) -> None:
        request_id = payload.get("id")
        started = time.monotonic()
        try:
            query = Query.from_dict(payload.get("query"))
            budget_ms = parse_budget_ms(payload)
        except QueryError as error:
            self._observe_request("<invalid>", "invalid", time.monotonic() - started)
            await self._respond_error(
                writer, write_lock, request_id, ResultError(error_code(error), str(error))
            )
            return
        if budget_ms is None:
            budget_ms = self._default_budget_ms
        include_patterns = bool(payload.get("include_patterns", True))
        snapshot = self._snapshots.current

        cache_key = query.cache_key()
        cached = self._cache.get(snapshot.generation, cache_key)
        if cached is not None:
            self._counter("repro_service_result_cache_hits_total").inc()
            measured = time.monotonic() - started
            stats = QueryStats(
                request_key=cache_key,
                total_seconds=measured,
                overhead_seconds=measured,
                result_cache_hit=True,
                num_patterns=cached["num_patterns"],
                budget_ms=budget_ms,
                queue_seconds=0.0,
                snapshot_generation=snapshot.generation,
            )
            response: Dict[str, object] = {
                "id": request_id,
                "ok": True,
                "stats": stats.to_dict(),
                "num_patterns": cached["num_patterns"],
            }
            if include_patterns:
                response["patterns"] = cached["patterns"]
            self._observe_request(query.constraint_id, "cache_hit", measured)
            await self._send(writer, write_lock, response)
            return
        self._counter("repro_service_result_cache_misses_total").inc()

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Outcome]" = loop.create_future()
        deadline = (
            started + budget_ms / 1000.0 if budget_ms is not None else None
        )
        task = WorkerTask(query, snapshot, future, loop, deadline=deadline)
        task.on_done = self._task_done
        try:
            self._admission.offer(task)
        except ServiceUnavailable as error:
            self._counter("repro_service_sheds_total").inc()
            self._observe_request(
                query.constraint_id, "shed", time.monotonic() - started
            )
            await self._respond_error(
                writer, write_lock, request_id, error.to_result_error()
            )
            return
        self._pump()

        try:
            if deadline is None:
                outcome = await future
            else:
                outcome = await asyncio.wait_for(
                    future, timeout=max(0.0, deadline - time.monotonic())
                )
        except asyncio.TimeoutError:
            task.abandoned = True
            self._counter("repro_service_deadline_exceeded_total").inc()
            elapsed = time.monotonic() - started
            self._observe_request(query.constraint_id, "deadline", elapsed)
            error = DeadlineExceeded(
                "budget of %d ms exhausted after %.0f ms" % (budget_ms, elapsed * 1000.0)
            ).to_result_error()
            await self._respond_error(writer, write_lock, request_id, error)
            return

        elapsed = time.monotonic() - started
        if not outcome.ok:
            label = (
                "deadline" if outcome.error.code == "deadline_exceeded" else "error"
            )
            self._observe_request(
                query.constraint_id,
                label,
                elapsed,
                queue_seconds=outcome.queue_seconds,
                worker_seconds=outcome.exec_seconds,
            )
            await self._respond_error(
                writer, write_lock, request_id, outcome.error
            )
            return

        result = outcome.result
        stats = result.stats
        stats.budget_ms = budget_ms
        stats.queue_seconds = outcome.queue_seconds
        stats.snapshot_generation = outcome.generation
        patterns_payload = result.to_dict(include_patterns=True).get("patterns", [])
        self._cache.put(
            outcome.generation,
            cache_key,
            {"num_patterns": len(result.patterns), "patterns": patterns_payload},
        )
        response = {
            "id": request_id,
            "ok": True,
            "stats": stats.to_dict(),
            "num_patterns": len(result.patterns),
        }
        if include_patterns:
            response["patterns"] = patterns_payload
        self._observe_request(
            query.constraint_id,
            "ok",
            elapsed,
            queue_seconds=outcome.queue_seconds,
            worker_seconds=outcome.exec_seconds,
        )
        await self._send(writer, write_lock, response)

    async def _handle_apply_delta(self, payload, writer, write_lock) -> None:
        request_id = payload.get("id")
        try:
            deltas = parse_delta(payload.get("delta"))
        except MalformedQueryError as error:
            await self._respond_error(
                writer, write_lock, request_id, ResultError(error_code(error), str(error))
            )
            return
        loop = asyncio.get_running_loop()
        try:
            snapshot, report = await loop.run_in_executor(
                None, self._snapshots.apply_delta, deltas
            )
        except (ValueError, KeyError) as error:
            await self._respond_error(
                writer, write_lock, request_id, ResultError("invalid_delta", str(error))
            )
            return
        self._cache.purge_generations_before(snapshot.generation)
        self._counter("repro_service_deltas_total").inc()
        self._gauge("repro_service_snapshot_generation").set(snapshot.generation)
        await self._send(
            writer,
            write_lock,
            {
                "id": request_id,
                "ok": True,
                "op": "apply_delta",
                "generation": snapshot.generation,
                "fingerprint": snapshot.fingerprint,
                "report": dataclasses.asdict(report),
            },
        )

    async def _handle_stats(self, payload, writer, write_lock) -> None:
        merged = MetricsRegistry()
        merged.absorb(self._metrics.snapshot())
        merged.absorb(self._maintenance_metrics.snapshot())
        for snapshot in self._pool.metrics_snapshots():
            merged.absorb(snapshot)
        await self._send(
            writer,
            write_lock,
            {
                "id": payload.get("id"),
                "ok": True,
                "op": "stats",
                "metrics": merged.snapshot(),
                "server": {
                    "generation": self.generation,
                    "queue_depth": self._admission.queue_depth,
                    "inflight": self._admission.inflight,
                    "workers": self._pool.size,
                    "shed_total": self._admission.shed_total,
                    "result_cache_entries": len(self._cache),
                    "result_cache_hits": self._cache.hits,
                    "result_cache_misses": self._cache.misses,
                },
            },
        )
