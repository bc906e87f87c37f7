"""The service's execution layer: engine-per-thread workers.

Each worker thread owns private forks of the snapshot engines (result and
context caches, stats log and metrics registry are per-thread; the graphs,
store view and descriptor cache are shared read-only), so no engine state
is ever touched from two threads.  A task carries the :class:`Snapshot` it
was admitted against — workers serve it from exactly that generation even
if a newer one has been published since.

Deadline semantics: a task whose budget elapsed while queued is answered
with ``deadline_exceeded`` without running; a task abandoned mid-run (the
event loop timed out waiting) finishes its computation but the outcome is
discarded — workers are never killed, they always return to the queue.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api.engine import MiningEngine
from repro.api.errors import QueryError, error_code
from repro.api.query import Query, Result, ResultError
from repro.obs.metrics import MetricsRegistry
from repro.server.protocol import DEADLINE_EXCEEDED, INTERNAL_ERROR
from repro.server.snapshots import Snapshot

_STOP = object()


class WorkerTask:
    """One admitted query travelling from the event loop to a worker."""

    __slots__ = (
        "query",
        "snapshot",
        "future",
        "loop",
        "enqueued_at",
        "deadline",
        "abandoned",
        "on_done",
    )

    def __init__(self, query: Query, snapshot: Snapshot, future, loop, deadline=None):
        self.query = query
        self.snapshot = snapshot
        self.future = future
        self.loop = loop
        self.enqueued_at = time.monotonic()
        self.deadline: Optional[float] = deadline  # time.monotonic() instant
        self.abandoned = False
        # Invoked on the event-loop thread after every dispatched task —
        # delivered or abandoned alike — so admission accounting never leaks.
        self.on_done = None

    @property
    def constraint_id(self) -> str:
        return self.query.constraint_id


@dataclass
class Outcome:
    """What a worker hands back: a result or a typed error, plus timings."""

    result: Optional[Result]
    error: Optional[ResultError]
    queue_seconds: float
    exec_seconds: float
    generation: int

    @property
    def ok(self) -> bool:
        return self.error is None


class WorkerPool:
    """Fixed thread pool executing :class:`WorkerTask` s against snapshots."""

    def __init__(self, size: int = 4) -> None:
        if size < 1:
            raise ValueError("worker pool size must be at least 1")
        self.size = size
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._registries: List[MetricsRegistry] = []
        self.abandoned_total = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        for index in range(self.size):
            registry = MetricsRegistry()
            self._registries.append(registry)
            thread = threading.Thread(
                target=self._worker_main,
                args=(registry,),
                name="repro-serve-worker-%d" % index,
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 5.0) -> None:
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def submit(self, task: WorkerTask) -> None:
        self._queue.put(task)

    def metrics_snapshots(self) -> List[Dict[str, object]]:
        """Best-effort snapshots of every worker's private registry."""
        return [registry.snapshot() for registry in self._registries]

    # ------------------------------------------------------------------ #
    # worker thread body
    # ------------------------------------------------------------------ #
    def _worker_main(self, registry: MetricsRegistry) -> None:
        engines: Dict[int, MiningEngine] = {}
        while True:
            task = self._queue.get()
            if task is _STOP:
                return
            outcome = self._execute(task, registry, engines)
            self._resolve(task, outcome)

    def _engine_for(
        self,
        task: WorkerTask,
        registry: MetricsRegistry,
        engines: Dict[int, MiningEngine],
    ) -> MiningEngine:
        generation = task.snapshot.generation
        engine = engines.get(generation)
        if engine is None:
            engine = task.snapshot.engine.fork(metrics=registry)
            engines[generation] = engine
            # In-flight traffic spans at most the generations around a
            # publish; anything older is unreachable.
            while len(engines) > 2:
                del engines[min(engines)]
        return engine

    def _execute(
        self,
        task: WorkerTask,
        registry: MetricsRegistry,
        engines: Dict[int, MiningEngine],
    ) -> Outcome:
        picked_up = time.monotonic()
        queue_seconds = picked_up - task.enqueued_at
        generation = task.snapshot.generation

        def errored(error: ResultError) -> Outcome:
            return Outcome(
                result=None,
                error=error,
                queue_seconds=queue_seconds,
                exec_seconds=time.monotonic() - picked_up,
                generation=generation,
            )

        if task.abandoned or (task.deadline is not None and picked_up >= task.deadline):
            return errored(
                ResultError(
                    DEADLINE_EXCEEDED,
                    "budget exhausted while queued (%.0f ms in queue)"
                    % (queue_seconds * 1000.0),
                )
            )
        try:
            result = self._engine_for(task, registry, engines).run(task.query)
        except QueryError as error:
            return errored(ResultError(error_code(error), str(error)))
        except Exception as error:  # noqa: BLE001 - a worker must never die
            return errored(
                ResultError(INTERNAL_ERROR, "%s: %s" % (type(error).__name__, error))
            )
        return Outcome(
            result=result,
            error=None,
            queue_seconds=queue_seconds,
            exec_seconds=time.monotonic() - picked_up,
            generation=generation,
        )

    def _resolve(self, task: WorkerTask, outcome: Outcome) -> None:
        if task.abandoned:
            self.abandoned_total += 1

        def deliver() -> None:
            # An abandoned task's future was cancelled by the waiter; the
            # done() guard makes the result drop on the floor while the
            # on_done hook still releases the admission slot.
            if not task.future.done():
                task.future.set_result(outcome)
            if task.on_done is not None:
                task.on_done(task, outcome)

        try:
            task.loop.call_soon_threadsafe(deliver)
        except RuntimeError:
            # The event loop closed mid-shutdown; nothing to deliver to.
            pass
