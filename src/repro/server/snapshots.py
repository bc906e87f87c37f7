"""Snapshot isolation: immutable (graphs, store view, engine) generations.

The serving tier never mutates live data structures that workers might be
reading.  Instead, the :class:`SnapshotManager` holds one *current*
:class:`Snapshot` — a generation number, a private deep copy of the graph
database, a copy-on-write :class:`~repro.index.store.SnapshotStoreView`
of the previous generation's store, and a prototype
:class:`~repro.api.MiningEngine` bound to both.  ``apply_delta`` builds the
next generation off the hot path:

1. deep-copy the current generation's graphs (readers keep theirs);
2. take a store view of the current generation's store (a view of a view
   is a view over the same base, seeded with a copy of its overlay, so
   generations never chain);
3. run the engine's incremental repair *into that view* — the base store,
   still serving every in-flight query, is never touched;
4. publish the finished snapshot with a single attribute assignment
   (atomic under the GIL), so readers see either the old generation or the
   complete new one — never a half-repaired index.

Workers resolve ``manager.current`` once per query and keep that reference
for the query's whole execution; generations already picked up keep
working after a publish, so ``apply_delta`` never blocks in-flight queries.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.api.engine import MiningEngine
from repro.core.database import EdgeDelta, GraphDelta
from repro.graph.labeled_graph import LabeledGraph
from repro.index.incremental import RepairReport
from repro.index.store import PatternStore


class Snapshot:
    """One immutable serving generation (graphs + store view + engine)."""

    __slots__ = ("generation", "graphs", "store", "engine", "fingerprint", "repair_report")

    def __init__(
        self,
        generation: int,
        graphs: List[LabeledGraph],
        store: PatternStore,
        engine: MiningEngine,
        repair_report: Optional[RepairReport] = None,
    ) -> None:
        self.generation = generation
        self.graphs = graphs
        self.store = store
        self.engine = engine
        self.fingerprint = engine.fingerprint
        self.repair_report = repair_report


class SnapshotManager:
    """Owns the current :class:`Snapshot` and builds successors from deltas.

    ``engine_factory(graphs, store)`` must return a fresh
    :class:`MiningEngine` over exactly those objects; the factory is where
    the server threads its caps, Stage-1 mode and the shared descriptor
    cache through (descriptors are data-independent, so one cache can span
    every generation).
    """

    def __init__(
        self,
        graphs: Union[LabeledGraph, Sequence[LabeledGraph]],
        store: PatternStore,
        engine_factory: Callable[[List[LabeledGraph], PatternStore], MiningEngine],
    ) -> None:
        graph_list = [graphs] if isinstance(graphs, LabeledGraph) else list(graphs)
        self._engine_factory = engine_factory
        self._writer_lock = threading.Lock()
        engine = engine_factory(graph_list, store)
        self._current = Snapshot(0, graph_list, store, engine)

    @property
    def current(self) -> Snapshot:
        """The latest published generation (a single attribute read)."""
        return self._current

    @property
    def generation(self) -> int:
        return self._current.generation

    def apply_delta(
        self, delta: Union[GraphDelta, Sequence[EdgeDelta]]
    ) -> Tuple[Snapshot, RepairReport]:
        """Build and publish the next generation; returns it with its report.

        Runs under a writer lock (one delta at a time) but entirely off the
        read path: queries against the current generation proceed
        concurrently and later queries pick up the new generation only once
        it is complete.  A failed repair publishes nothing — the current
        generation stays live and the exception propagates.

        Frozen CSR views (see ``docs/DATA_PLANE.md``) carry over: a graph
        copy the delta does not name is content-identical to the previous
        generation's, and the views are immutable, so the new engine adopts
        them instead of re-freezing the whole database.  Only the edited
        transactions pay the freeze cost again, on their next scan.
        """
        with self._writer_lock:
            current = self._current
            graphs = [graph.copy() for graph in current.graphs]
            view = current.store.snapshot_view()
            engine = self._engine_factory(graphs, view)
            report = engine.apply_delta(delta)
            engine.adopt_frozen_views(current.engine, delta)
            snapshot = Snapshot(
                current.generation + 1, graphs, view, engine, repair_report=report
            )
            self._current = snapshot  # atomic publish
            return snapshot, report
