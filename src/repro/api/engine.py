"""The :class:`MiningEngine` facade: one entry point, any registered constraint.

The engine is the one way to mine: the CLI, the serving tier and in-process
callers all go through it, for every registered constraint.  It owns:

* **Stage 1** — minimal constraint-satisfying patterns are looked up in a
  :class:`repro.index.store.PatternStore` under
  ``StoreKey(dataset fingerprint, constraint id, stage-one parameter)``; a
  miss runs the constraint's driver and persists the result.  Different
  constraints coexist in one store directory because ``constraint_id`` is now
  a load-bearing part of the key, not a constant.
* **Stage 2** — the query's driver grows each minimal pattern under the
  constraint (returning each pattern once per query); results are ranked
  and ``top_k``-truncated.
* A canonical-key LRU **result cache** makes repeated queries O(1), and
  every query appends a :class:`~repro.api.query.QueryStats` to ``stats_log``.
* **apply_delta** routes data edits through
  :class:`repro.index.incremental.IndexMaintainer`: path-indexed constraints
  (``skinny``, ``path``) are repaired in place, other constraints' stale
  entries are invalidated so a cold rebuild stays correct.
* Path-indexed constraints read vertex labels only, so on data with any
  edge label their queries are refused with
  :class:`~repro.api.errors.EdgeLabelledDataError` before any store read.

:class:`repro.core.skinnymine.SkinnyMine` runs the same skinny driver
without the store, the result cache or the registry.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.errors import EdgeLabelledDataError
from repro.api.query import Query, QueryStats, Result
from repro.api.registry import ConstraintSpec, constraint_specs, get_constraint
from repro.core.database import (
    EdgeDelta,
    GraphDelta,
    MiningContext,
    SupportMeasure,
    touched_graph_indices,
)
from repro.core.diammine import Stage1Mode, resolve_stage1_mode
from repro.core.levelgrow import DiameterDescriptorCache
from repro.core.patterns import SkinnyPattern
from repro.graph.csr import CSRGraph, LabelPalette
from repro.graph.io import dataset_fingerprint
from repro.graph.labeled_graph import LabeledGraph
from repro.index.incremental import IndexMaintainer, RepairReport
from repro.index.store import IndexEntry, MemoryPatternStore, PatternStore, StoreKey
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import NULL_TRACER, Tracer


class MiningEngine:
    """Serve :class:`Query` objects for any registered constraint.

    Parameters
    ----------
    graphs:
        The data graph (single-graph setting) or graph database.  The engine
        owns these objects: data edits must go through :meth:`apply_delta`.
    store:
        Stage-1 index store; defaults to a process-local
        :class:`MemoryPatternStore`.  Pass a
        :class:`repro.index.sqlite_store.SqlitePatternStore` to share the
        offline stage across processes and runs.
    result_cache_size:
        Number of complete results kept in the LRU result cache.
    max_paths_per_length / max_patterns_per_diameter:
        Optional safety caps forwarded to constraint drivers that honour them
        (Stage-1 path caps for ``skinny``/``path``; growth caps for
        ``skinny`` and ``diam-le``).  ``max_patterns_per_diameter`` caps
        each cluster of a ``skinny`` query, but the whole ``diam-le`` answer
        of a query: that driver stops after N patterns, the first N it
        discovers, before ranking and ``top_k``.  Engaged Stage-1 caps
        become part of the store key so truncated entries are never served
        to uncapped engines.
    stage1_mode:
        Stage-1 exactness contract (:class:`repro.core.diammine.Stage1Mode`)
        for the path-indexed constraints.  The default ``EXACT`` is the
        store-build contract — entries contain every frequent minimal
        pattern under any support measure, which is what incremental repair
        assumes.  ``PRUNED`` (the paper's literal Algorithm 2 thresholding,
        heuristic under embedding support) is opt-in; the engaged mode is
        always part of the :class:`~repro.index.store.StoreKey` parameter,
        so exact and pruned entries never alias and pruned entries are
        invalidated rather than repaired on data edits.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When enabled, every query is
        wrapped in a span tree (dispatch, result cache, Stage-1 store
        access, Stage-2 per-level growth, aggregate emission phases) and the
        tree is attached to ``stats.trace``.  Defaults to the shared no-op
        tracer, whose per-span cost is bounded (the bench-smoke overhead
        gate holds it under 3% of Stage 2).
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; defaults to the
        process-wide :func:`repro.obs.default_registry`.  The engine
        publishes query/stage latencies and cache/store hit counters per
        query (see ``docs/OBSERVABILITY.md`` for the metric catalogue).
    descriptor_cache:
        Optional pre-populated :class:`DiameterDescriptorCache` to adopt
        instead of starting empty.  Descriptors are data-independent, so a
        cache can be shared across engines over different data or snapshot
        generations; :meth:`fork` uses this to let sibling worker engines
        pool their Loop-Invariant work.

    Examples
    --------
    >>> from repro.graph.labeled_graph import graph_from_paths
    >>> engine = MiningEngine(graph_from_paths([list("abcd"), list("abcd")]))
    >>> result = engine.run(Query("skinny", {"length": 3, "delta": 1}, min_support=2))
    >>> [pattern.support for pattern in result.patterns]
    [2]
    >>> engine.stage1_mode
    <Stage1Mode.EXACT: 'exact'>
    """

    def __init__(
        self,
        graphs: Union[LabeledGraph, Sequence[LabeledGraph]],
        store: Optional[PatternStore] = None,
        result_cache_size: int = 128,
        max_paths_per_length: Optional[int] = None,
        max_patterns_per_diameter: Optional[int] = None,
        stage1_mode: Union[str, Stage1Mode, None] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        descriptor_cache: Optional[DiameterDescriptorCache] = None,
    ) -> None:
        self._graphs: List[LabeledGraph] = (
            [graphs] if isinstance(graphs, LabeledGraph) else list(graphs)
        )
        if not self._graphs:
            raise ValueError(f"{type(self).__name__} requires at least one data graph")
        self._store = store if store is not None else MemoryPatternStore()
        self._fingerprint = dataset_fingerprint(self._graphs)
        self._edge_labelled = self._has_edge_labels()
        self._result_cache: "OrderedDict[str, List[SkinnyPattern]]" = OrderedDict()
        self._result_cache_size = result_cache_size
        self._contexts: Dict[tuple, MiningContext] = {}
        # Engine-wide frozen CSR pool, shared *by reference* with every
        # MiningContext this engine creates: a transaction frozen for one
        # (σ, measure) query serves all others, and the single palette
        # keeps label codes stable across views (docs/DATA_PLANE.md).
        # ``apply_delta`` invalidates only the indices a delta writes to;
        # ``adopt_frozen_views`` seeds the pool from a previous snapshot
        # generation's engine.
        self._frozen_views: Dict[int, CSRGraph] = {}
        self._frozen_palette = LabelPalette()
        self._stage1_mode = resolve_stage1_mode(stage1_mode)
        self._caps: Dict[str, object] = {
            "max_paths_per_length": max_paths_per_length,
            "max_patterns_per_diameter": max_patterns_per_diameter,
            # Always present (never None): the exactness mode is part of
            # every path-indexed Stage-1 store key.
            "stage1_mode": self._stage1_mode.value,
        }
        # Engine-lifetime Loop-Invariant descriptor cache, injected into
        # each query's driver: a descriptor is a pure function of the
        # abstract pattern (no data, threshold or measure involved), so it
        # never goes stale — not even across apply_delta — which also makes
        # it safe to share across forked sibling engines (the per-request
        # counters stay on the per-query driver).
        self._descriptor_cache = (
            descriptor_cache if descriptor_cache is not None else DiameterDescriptorCache()
        )
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else default_registry()
        self.stats_log: List[QueryStats] = []

    @property
    def tracer(self) -> Tracer:
        """The engine's tracer (the shared no-op instance when disabled)."""
        return self._tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this engine publishes metrics into."""
        return self._metrics

    @property
    def stage1_mode(self) -> Stage1Mode:
        """The engine's Stage-1 exactness mode (keyed into every store entry)."""
        return self._stage1_mode

    @property
    def caps(self) -> Dict[str, object]:
        """The engine's driver caps/mode dict (a copy; the worker-init payload)."""
        return dict(self._caps)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> PatternStore:
        return self._store

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def graphs(self) -> List[LabeledGraph]:
        return self._graphs

    def fork(
        self,
        store: Optional[PatternStore] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        result_cache_size: Optional[int] = None,
    ) -> "MiningEngine":
        """A sibling engine over the same data, safe for another thread.

        The fork shares the graph objects (both sides must treat them as
        read-only — data edits go through the serving tier's snapshot
        manager, never through a fork), the Stage-1 caps and exactness mode,
        and the engine-lifetime descriptor cache.  Everything that is *not*
        safe to share across threads is private to the fork: result/context
        caches, stats log, tracer and metrics registry.  Pass ``store`` to
        point the fork at a snapshot view instead of the parent's store.
        """
        return MiningEngine(
            self._graphs,
            store=store if store is not None else self._store,
            result_cache_size=(
                result_cache_size
                if result_cache_size is not None
                else self._result_cache_size
            ),
            max_paths_per_length=self._caps["max_paths_per_length"],
            max_patterns_per_diameter=self._caps["max_patterns_per_diameter"],
            stage1_mode=self._stage1_mode,
            tracer=tracer,
            metrics=metrics,
            descriptor_cache=self._descriptor_cache,
        )

    def _context(self, min_support: int, measure: SupportMeasure) -> MiningContext:
        key = (min_support, measure.value)
        context = self._contexts.get(key)
        if context is None:
            context = MiningContext(
                self._graphs,
                min_support,
                measure,
                frozen_views=self._frozen_views,
                palette=self._frozen_palette,
            )
            self._contexts[key] = context
        return context

    # ------------------------------------------------------------------ #
    # Stage 1: the persistent index
    # ------------------------------------------------------------------ #
    def _has_edge_labels(self) -> bool:
        return any(graph.edge_labels() for graph in self._graphs)

    def _stage_one_key(self, spec: ConstraintSpec, query: Query) -> StoreKey:
        """The query's Stage-1 key; every store access of a query starts here.

        So a path-indexed query on edge-labelled data is refused here, before
        the store is read: a Stage-1 path record holds vertex labels only.
        """
        if spec.path_indexed and self._edge_labelled:
            raise EdgeLabelledDataError(spec.constraint_id)
        parameter = spec.stage_one_parameter(
            query.params, query.min_support, query.support_measure, self._caps
        )
        return StoreKey.make(self._fingerprint, spec.constraint_id, parameter)

    def stage_one_key(self, query: Query) -> StoreKey:
        """The Stage-1 store key this engine would use for ``query``.

        Public so schedulers (the serving tier's worker pool) can classify a
        query as warm (``key in engine.store``) or cold before dispatching
        it, without running it.  Raises the usual typed errors for unknown
        constraints or invalid parameters, and
        :class:`~repro.api.errors.EdgeLabelledDataError` for a query the
        engine refuses.
        """
        return self._stage_one_key(get_constraint(query.constraint_id), query)

    def _stage_one(self, spec: ConstraintSpec, query: Query) -> Tuple[list, bool, float]:
        """Fetch (or build and persist) the query's Stage-1 entry.

        Returns ``(minimal_patterns, served_from_store, seconds)`` where
        ``seconds`` is the wall-clock cost paid by *this* call.
        """
        key = self._stage_one_key(spec, query)
        started = time.perf_counter()
        with self._tracer.span("store.get", constraint=spec.constraint_id) as span:
            entry = self._store.get(key)
            span.annotate(hit=entry is not None)
        if entry is not None:
            self._metrics.counter(
                "repro_store_hits_total", "Stage-1 store lookups answered from the index"
            ).inc()
            return entry.patterns, True, time.perf_counter() - started
        self._metrics.counter(
            "repro_store_misses_total", "Stage-1 store lookups that fell through to mining"
        ).inc()
        context = self._context(query.min_support, query.measure)
        driver = spec.make_driver(query.params, self._caps, True)
        if hasattr(driver, "tracer"):
            driver.tracer = self._tracer
        with self._tracer.span("stage1.mine", constraint=spec.constraint_id):
            minimal = driver.mine_minimal(context, spec.driver_parameter(query.params))
        seconds = time.perf_counter() - started
        with self._tracer.span("store.put", constraint=spec.constraint_id):
            self._store.put(
                IndexEntry(key=key, patterns=list(minimal), build_seconds=seconds)
            )
        return minimal, False, seconds

    def precompute_queries(
        self, queries: Iterable[Query], processes: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """Warm the Stage-1 store for a batch of queries; returns a summary row each.

        ``processes > 1`` distributes cold entries over a ``multiprocessing``
        pool (the graphs are shipped to each worker once); entries already in
        the store are never recomputed, and queries sharing a Stage-1 key are
        mined once.  Works for any registered constraint — the workers
        resolve drivers from the registry.
        """
        query_list = list(queries)
        summaries: List[Optional[Dict[str, object]]] = [None] * len(query_list)

        def summary(spec, query, num_patterns, served, seconds):
            return {
                "constraint_id": spec.constraint_id,
                "parameter": spec.stage_one_parameter(
                    query.params, query.min_support, query.support_measure, self._caps
                ),
                "num_patterns": num_patterns,
                "served_from_store": served,
                "seconds": seconds,
            }

        cold: "OrderedDict[StoreKey, List[int]]" = OrderedDict()
        for slot, query in enumerate(query_list):
            spec = get_constraint(query.constraint_id)
            key = self._stage_one_key(spec, query)
            entry = None if key in cold else self._store.get(key)
            if entry is not None:
                summaries[slot] = summary(spec, query, len(entry.patterns), True, 0.0)
            else:
                cold.setdefault(key, []).append(slot)

        def record(key: StoreKey, patterns: List[object], seconds: float) -> None:
            self._store.put(
                IndexEntry(key=key, patterns=list(patterns), build_seconds=seconds)
            )
            for slot in cold[key]:
                query = query_list[slot]
                spec = get_constraint(query.constraint_id)
                summaries[slot] = summary(spec, query, len(patterns), False, seconds)

        if processes is not None and processes > 1 and len(cold) > 1:
            import multiprocessing

            from repro.api.workers import init_worker, mine_stage_one

            tasks = []
            keys = list(cold)
            for task_index, key in enumerate(keys):
                query = query_list[cold[key][0]]
                tasks.append(
                    (
                        task_index,
                        query.constraint_id,
                        dict(query.params),
                        query.min_support,
                        query.support_measure,
                    )
                )
            with multiprocessing.Pool(
                processes=min(processes, len(tasks)),
                initializer=init_worker,
                initargs=(self._graphs, self._caps),
            ) as pool:
                for task_index, patterns, seconds in pool.imap_unordered(
                    mine_stage_one, tasks
                ):
                    record(keys[task_index], patterns, seconds)
        else:
            for key in cold:
                query = query_list[cold[key][0]]
                spec = get_constraint(query.constraint_id)
                patterns, _, seconds = self._stage_one(spec, query)
                for slot in cold[key]:
                    extra = query_list[slot]
                    extra_spec = get_constraint(extra.constraint_id)
                    summaries[slot] = summary(
                        extra_spec, extra, len(patterns), False, seconds
                    )
        return summaries

    # ------------------------------------------------------------------ #
    # Stage 2 + query serving
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ranked(patterns: List[SkinnyPattern], top_k: Optional[int]) -> List[SkinnyPattern]:
        ranked = sorted(
            patterns,
            key=lambda pattern: (
                -pattern.support,
                pattern.num_edges,
                pattern.diameter_labels(),
            ),
        )
        return ranked if top_k is None else ranked[:top_k]

    def run(self, query: Query) -> Result:
        """Serve one query (result cache → warm index → cold compute).

        The returned ``stats`` satisfy ``total_seconds == stage_one_seconds
        + stage_two_seconds + overhead_seconds`` exactly: the residual the
        engine spends outside the two stages (dispatch, cache bookkeeping,
        stats assembly) is derived and surfaced instead of silently drifting
        into ``total_seconds``.  With an enabled tracer the per-query span
        tree is attached to ``stats.trace``.
        """
        with self._tracer.span("query", constraint=query.constraint_id) as query_span:
            patterns, stats = self._serve(query, query_span)
        if self._tracer.enabled:
            stats.trace = query_span.to_dict()
        labels = {"constraint": query.constraint_id}
        self._metrics.counter(
            "repro_queries_total", "Queries served by the engine", labels=labels
        ).inc()
        self._metrics.histogram(
            "repro_query_seconds", "End-to-end query latency", labels=labels
        ).observe(stats.total_seconds)
        self.stats_log.append(stats)
        return Result(query=query, patterns=patterns, stats=stats)

    def _serve(self, query: Query, query_span) -> Tuple[List[SkinnyPattern], QueryStats]:
        """The :meth:`run` body, executed inside the per-query span."""
        key = query.cache_key()
        started = time.perf_counter()
        cached = self._result_cache.get(key)
        if cached is not None:
            self._result_cache.move_to_end(key)
            query_span.annotate(result_cache_hit=True)
            self._metrics.counter(
                "repro_result_cache_hits_total",
                "Queries answered from the canonical-key result cache",
            ).inc()
            measured = time.perf_counter() - started
            stats = QueryStats(
                request_key=key,
                total_seconds=measured,
                # No stage ran: the whole measured time is engine overhead.
                overhead_seconds=measured,
                served_from_store=False,  # the store was never consulted
                result_cache_hit=True,
                num_patterns=len(cached),
            )
            return list(cached), stats

        self._metrics.counter(
            "repro_result_cache_misses_total",
            "Queries that missed the result cache and ran the pipeline",
        ).inc()
        spec = get_constraint(query.constraint_id)
        minimal, from_store, stage_one = self._stage_one(spec, query)
        context = self._context(query.min_support, query.measure)
        driver = spec.make_driver(query.params, self._caps, query.include_minimal)
        if hasattr(driver, "descriptor_cache"):
            # Share the engine-lifetime descriptor memo with this request's
            # driver (the driver's counters remain per-request).
            driver.descriptor_cache = self._descriptor_cache
        if hasattr(driver, "tracer"):
            driver.tracer = self._tracer
        parameter = spec.driver_parameter(query.params)
        stage_two_start = time.perf_counter()
        patterns: List[SkinnyPattern] = []
        with self._tracer.span("stage2", constraint=spec.constraint_id) as stage_span:
            for minimal_pattern in minimal:
                patterns.extend(driver.grow(context, minimal_pattern, parameter))
            patterns = self._ranked(patterns, query.top_k)
            stage_span.annotate(patterns=len(patterns))
            # The skinny and diam-le drivers expose per-request growth
            # counters (the driver instance is built fresh for this query,
            # so the numbers can never leak from an earlier request).
            # LevelGrow's emission phases are accumulated per candidate —
            # far too hot for a span each — and attached here as pre-timed
            # aggregate spans.
            level_statistics = getattr(driver, "statistics", None)
            if level_statistics is not None:
                for phase, seconds in level_statistics.phase_seconds().items():
                    self._tracer.record("stage2.phase." + phase, seconds)
        stage_two = time.perf_counter() - stage_two_start

        measured = time.perf_counter() - started
        overhead = max(0.0, measured - stage_one - stage_two)
        stats = QueryStats(
            request_key=key,
            stage_one_seconds=stage_one,
            stage_two_seconds=stage_two,
            overhead_seconds=overhead,
            total_seconds=stage_one + stage_two + overhead,
            served_from_store=from_store,
            result_cache_hit=False,
            num_minimal_patterns=len(minimal),
            num_patterns=len(patterns),
            level_statistics=(
                level_statistics.to_dict() if level_statistics is not None else None
            ),
        )
        self._publish_stage_metrics(spec.constraint_id, stats)
        self._result_cache[key] = list(patterns)
        while len(self._result_cache) > self._result_cache_size:
            self._result_cache.popitem(last=False)
        return patterns, stats

    def _publish_stage_metrics(self, constraint_id: str, stats: QueryStats) -> None:
        """Publish one cold query's stage latencies and growth counters."""
        labels = {"constraint": constraint_id}
        self._metrics.histogram(
            "repro_stage_one_seconds", "Stage-1 (store or mine) latency", labels=labels
        ).observe(stats.stage_one_seconds)
        self._metrics.histogram(
            "repro_stage_two_seconds", "Stage-2 (growth) latency", labels=labels
        ).observe(stats.stage_two_seconds)
        level = stats.level_statistics
        if not level:
            return
        for field, metric_name, help_text in (
            (
                "canonical_incremental_hits",
                "repro_canonical_incremental_hits_total",
                "Canonical keys derived incrementally instead of recomputed",
            ),
            (
                "invariant_cache_hits",
                "repro_invariant_cache_hits_total",
                "Diameter-invariant descriptor cache hits",
            ),
            (
                "probes_batched",
                "repro_probes_batched_total",
                "Existence probes answered by the batched prefilter",
            ),
            (
                "patterns_emitted",
                "repro_patterns_emitted_total",
                "Patterns emitted by Stage-2 growth",
            ),
        ):
            value = level.get(field, 0)
            if value:
                self._metrics.counter(metric_name, help_text, labels=labels).inc(value)

    def run_batch(self, queries: Sequence[Query]) -> List[Result]:
        """Serve a batch in order; duplicate queries hit the result cache.

        The whole batch becomes one ``service.batch`` span with each query's
        span tree nested under it, and the batch count and latency land in
        the metrics registry (``repro serve-batch`` runs through here).
        """
        started = time.perf_counter()
        with self._tracer.span("service.batch", size=len(queries)):
            results = [self.run(query) for query in queries]
        self._metrics.counter(
            "repro_batches_total", "Request batches served by the mining service"
        ).inc()
        self._metrics.histogram(
            "repro_batch_seconds", "End-to-end batch latency (mining service)"
        ).observe(time.perf_counter() - started)
        return results

    def query_corpus(self, **filters):
        """Query the pattern corpus this engine serves from.

        Delegates to :meth:`PatternStore.query
        <repro.index.store.PatternStore.query>` on the engine's store
        (indexed on the SQLite backend, a scan elsewhere), defaulting the
        ``fingerprint`` filter to this engine's dataset so callers see the
        corpus for *their* data unless they explicitly ask for everything
        (``fingerprint=None`` queries across datasets).  Returns
        :class:`repro.index.PatternMatch` objects ordered deterministically.
        """
        if "fingerprint" not in filters:
            filters["fingerprint"] = self._fingerprint
        elif filters["fingerprint"] is None:
            del filters["fingerprint"]
        with self._tracer.span("engine.query_corpus"):
            return self._store.query(**filters)

    # ------------------------------------------------------------------ #
    # incremental maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(
        self, delta: Union[GraphDelta, Sequence[EdgeDelta]]
    ) -> RepairReport:
        """Edit the data and repair (not rebuild) the Stage-1 index.

        Entries of path-indexed constraints are repaired through
        :class:`IndexMaintainer`; stale entries of every other registered
        constraint are invalidated, since their Stage-1 semantics have no
        incremental repair rule yet.  Even if the repair fails part-way, the
        ``finally`` block re-keys the engine to whatever the graphs now
        contain and drops the result/context caches, so stale answers are
        never served.
        """
        specs = constraint_specs()
        repairable = [spec.constraint_id for spec in specs if spec.path_indexed]
        invalidatable = {spec.constraint_id for spec in specs if not spec.path_indexed}
        maintainer = IndexMaintainer(self._store, repairable, metrics=self._metrics)
        try:
            with self._tracer.span("engine.apply_delta"):
                report = maintainer.apply_delta(self._graphs, delta)
            for key in list(self._store.keys()):
                if (
                    key.fingerprint == report.old_fingerprint
                    and key.fingerprint != report.new_fingerprint
                    and key.constraint_id in invalidatable
                ):
                    self._store.delete(key)
                    report.entries_seen += 1
                    report.entries_invalidated += 1
            return report
        finally:
            self._fingerprint = dataset_fingerprint(self._graphs)
            self._edge_labelled = self._has_edge_labels()
            self._result_cache.clear()
            self._contexts.clear()
            # Only graphs the batch names can have been mutated (even on
            # a part-way failure), so frozen views of every other
            # transaction stay valid and keep serving.
            for index in touched_graph_indices(delta):
                self._frozen_views.pop(index, None)

    def adopt_frozen_views(
        self,
        source: "MiningEngine",
        delta: Union[GraphDelta, Sequence[EdgeDelta]],
    ) -> int:
        """Reuse ``source``'s frozen CSR views for graphs ``delta`` skipped.

        The serving tier builds each snapshot generation over *deep copies*
        of the previous generation's graphs, so a fresh engine starts with
        an empty frozen-view pool and would re-freeze the entire database
        even when the delta edited a single transaction.  A copy the delta
        does not name is content-identical to its original, and frozen
        views are immutable — so the previous generation's views are valid
        for this engine verbatim.  This method copies them across (along
        with the source's label palette, which the adopted views' label
        codes point into; palettes are append-only, so sharing one across
        generations never reassigns a code) and returns how many views
        were adopted.

        Must be called before this engine freezes anything itself: if the
        pool is already populated or a context exists, the call is a no-op
        returning 0 — mixing views interned against different palettes
        would break database-wide label-code stability.

        Examples
        --------
        >>> from repro.graph.labeled_graph import build_graph
        >>> graphs = [build_graph({0: "a", 1: "b"}, [(0, 1)]),
        ...           build_graph({0: "c", 1: "d"}, [(0, 1)])]
        >>> old = MiningEngine(graphs)
        >>> _ = old._context(1, SupportMeasure.TRANSACTIONS).frozen_graph(0)
        >>> _ = old._context(1, SupportMeasure.TRANSACTIONS).frozen_graph(1)
        >>> new = MiningEngine([graph.copy() for graph in graphs])
        >>> delta = GraphDelta().remove_edge(0, 1, graph_index=1)
        >>> new.adopt_frozen_views(old, delta)  # graph 1 edited, graph 0 not
        1
        >>> new._frozen_views[0] is old._frozen_views[0]
        True
        """
        if self._contexts or self._frozen_views:
            return 0
        touched = touched_graph_indices(delta)
        adopted = 0
        for index, view in source._frozen_views.items():
            if index not in touched and 0 <= index < len(self._graphs):
                self._frozen_views[index] = view
                adopted += 1
        if adopted:
            self._frozen_palette = source._frozen_palette
        return adopted
