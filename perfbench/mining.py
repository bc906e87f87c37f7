"""The mining workloads: cold ``MiningEngine.run`` queries over one LG file.

Each query gets a fresh set-up (``read_lg`` plus ``MiningEngine``), so it
pays Stage 1, CSR freezing and Stage 2 in full.  The previous answer is
reduced to digests, dropped and garbage-collected before the next query is
timed, so no query pays for the garbage of the one before.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
import time
import traceback
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.api import MiningEngine, Query
from repro.api.registry import get_constraint
from repro.graph.io import read_lg
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

import checks
import common
from layers import Probes, TracedStore, flatten, span_totals

#: workload -> (input shape, Stage-1 mode, queries as (constraint, params, σ))
WORKLOADS: Dict[str, Tuple[str, Optional[str], Tuple[tuple, ...]]] = {
    "skinny-blowup": ("blowup", None, (("skinny", {"length": 5, "delta": 1}, 3),)),
    "diamle-growth": ("blowup", None, (("diam-le", {"k": 2, "max_edges": 5}, 2),)),
    # Interleaved so that a short traced run still reaches both constraints.
    "large-stage1": (
        "large",
        "pruned",
        tuple(
            query
            for length in (2, 3, 4)
            for query in (
                ("skinny", {"length": length, "delta": 1}, 8),
                ("path", {"length": length}, 8),
            )
        ),
    ),
}
#: Before each query the set-up is repeated until this much time or this
#: many samples: where one set-up takes milliseconds, its median then rests
#: on many samples spread over the whole run rather than on one moment.
SETUP_SECONDS_PER_QUERY = 0.1
SETUPS_PER_QUERY = 10
#: A workload with several queries runs a fixed number of whole cycles of
#: them, one per this many seconds of ``--seconds`` (large-stage1's six
#: queries take about that long on the reference host), so every run and
#: every commit takes its median over the same queries.  A one-query
#: workload runs until its mining time reaches ``--seconds``.
CYCLE_SECONDS = 20.0
#: Workloads run on one CPU.  Interleaved within one run on a 2-vCPU VM,
#: eight diam-le queries pinned spread 5.0% (IQR over median) against
#: 11.7% unpinned; the spread between runs is the host's either way.
#: skinny-blowup stays unpinned: the ROADMAP's intra-cluster parallelism
#: would show there.
PINNED = ("diamle-growth", "large-stage1")


class MiningRun:
    def __init__(self, workload: str, lg_path: str, seed: int) -> None:
        _shape, self.stage1_mode, specs = WORKLOADS[workload]
        self.lg_path = lg_path
        self.default_seed = seed == common.DEFAULT_SEED
        self.queries = [
            (Query(c, dict(p), min_support=s), checks.query_label(c, p, s)) for c, p, s in specs
        ]
        self.setup_s: List[float] = []
        self.read_lg_s: List[float] = []
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.first_digest: Dict[str, str] = {}
        self.traced: List[dict] = []

    def setup(self, tracer: Optional[Tracer] = None, counts: Optional[Counter] = None):
        """Time ``read_lg`` plus ``MiningEngine``, repeated; returns the last engine."""
        began = time.perf_counter()
        for _ in range(SETUPS_PER_QUERY):
            gc.collect()
            engine = self._setup_once(tracer, counts)
            if time.perf_counter() - began >= SETUP_SECONDS_PER_QUERY:
                break
        return engine

    def _setup_once(self, tracer: Optional[Tracer], counts: Optional[Counter]):
        span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        started = time.perf_counter()
        with span("setup"):
            with span("io.read_lg"):
                graphs = read_lg(self.lg_path)
            read_seconds = time.perf_counter() - started
            engine = MiningEngine(
                graphs,
                store=TracedStore(tracer, counts) if tracer is not None else None,
                stage1_mode=self.stage1_mode,
                tracer=tracer,
                metrics=MetricsRegistry(),
            )
        self.setup_s.append(time.perf_counter() - started)
        self.read_lg_s.append(read_seconds)
        return engine

    def query(self, slot: int, traced: bool) -> Optional[float]:
        """Set up, run and check one cold query; returns its latency (None on failure)."""
        query, label = self.queries[slot % len(self.queries)]
        self.attempted += 1
        tracer = Tracer() if traced else None
        probes = Probes() if traced else None
        engine = self.setup(tracer, probes.counts if probes else None)
        gc.collect()
        if probes:
            probes.install(tracer)
        try:
            started = time.perf_counter()
            with tracer.span("bench.query", label=label) if tracer else contextlib.nullcontext():
                result = engine.run(query)
            latency = time.perf_counter() - started
        except Exception:  # count the failure and keep the run going
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            if probes:
                probes.uninstall()
        if traced:
            self.traced.append(
                {"id": self.attempted, "stats": result.stats, "trees": tracer.drain(), "counts": probes.counts}
            )
        # Checked in a forked child so that checking adds nothing to the
        # peak RSS of this process, which mines.
        try:
            digest, *problems = common.in_forked_child(self.check, query, label, result.patterns)
        except RuntimeError as error:
            digest, problems = None, [f"{label}: the check raised {error}"]
        if digest != self.first_digest.setdefault(label, digest):
            problems.append(f"{label}: a repetition answered a different set")
        for problem in problems:
            print("CHECK FAILED:", problem, file=sys.stderr)
        self.failed += bool(problems)
        del result, engine
        gc.collect()
        return latency

    def check(self, query: Query, label: str, patterns) -> List[str]:
        """The answer's full digest, then its problems (the first answer is checked in full)."""
        digest = checks.full_digest(patterns)
        if label in self.first_digest:
            return [digest]
        return [digest] + checks.check_first_answer(
            label,
            patterns,
            get_constraint(query.constraint_id).predicate_factory(query.params),
            query.min_support,
            query.params.get("max_edges"),
            self.default_seed,
        )


def run(workload: str, lg_path: str, seed: int, meta: dict, seconds: float, trace: bool) -> dict:
    state = MiningRun(workload, lg_path, seed)
    if workload in PINNED:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cycle = len(state.queries)
    slots = cycle * max(1, round(seconds / CYCLE_SECONDS))
    # A traced run times pairs of one query, untraced and traced in
    # alternating order; their ratio is the tracing overhead.
    overhead: List[float] = []
    slot = 0
    while slot < slots if cycle > 1 else sum(state.latencies) < seconds:
        if not trace:
            latencies = [state.query(slot, traced=False)]
        else:
            order = (False, True) if slot % 2 == 0 else (True, False)
            by_mode = {traced: state.query(slot, traced) for traced in order}
            latencies = list(by_mode.values())
            if None not in latencies:
                overhead.append(by_mode[True] / by_mode[False])
        state.latencies.extend(latency for latency in latencies if latency is not None)
        if None in latencies and not state.latencies:
            break  # nothing succeeds; stop rather than spin
        slot += 1

    latencies = state.latencies
    outcome = {
        "attempted": state.attempted,
        "failed": state.failed,
        "end_to_end": {
            "setup_s": (common.median(state.setup_s), len(state.setup_s)),
            "query_p50_ms": (common.median(latencies) * 1000.0, len(latencies)),
            # Every query runs on a fresh engine, so every query misses.
            "miss_p50_ms": (common.median(latencies) * 1000.0, len(latencies)),
            "throughput_rps": (common.ratio(len(latencies), sum(latencies)), len(latencies)),
            "peak_rss_mb": (common.own_peak_rss_mb(), 1),
        },
    }
    if trace:
        outcome["per_layer"] = per_layer(state.traced, state.read_lg_s, overhead)
        outcome["trace_records"] = [
            record for item in state.traced for tree in item["trees"] for record in flatten(tree, item["id"])
        ]
    return outcome


def per_layer(traced: List[dict], read_lg_s: List[float], overhead: List[float]) -> Dict[str, Tuple[float, int]]:
    """Per-query means over the traced queries, as (value, samples)."""
    queries = len(traced)
    stats = [item["stats"] for item in traced]
    counts: Counter = Counter()
    for item in traced:
        counts.update(item["counts"])
    totals = span_totals(tree for item in traced for tree in item["trees"])

    def per_query(value: float) -> Tuple[float, int]:
        return (common.ratio(value, queries), queries)

    def span_seconds(name: str) -> Tuple[float, int]:
        return per_query(totals.get(name, (0, 0.0, 0.0))[1])

    values: Dict[str, Tuple[float, int]] = {
        "engine.queries": (float(queries), queries),
        "engine.stage1_s": per_query(sum(s.stage_one_seconds for s in stats)),
        "engine.stage2_s": per_query(sum(s.stage_two_seconds for s in stats)),
        "engine.overhead_s": per_query(sum(s.overhead_seconds for s in stats)),
        "diamle.extensions": per_query(counts["diamle.extensions"]),
        "diamle.duplicates": per_query(counts["diamle.duplicates"]),
        "diamle.emitted": per_query(counts["diamle.emitted"]),
        "diamle.yield": (common.ratio(counts["diamle.emitted"], counts["diamle.extensions"]), queries),
        "canonical.dfs_s": span_seconds("canonical.key"),
        "paths.diameter_checks": per_query(totals.get("paths.diameter_at_most", (0,))[0]),
        "paths.diameter_s": span_seconds("paths.diameter_at_most"),
        "diammine.mine_s": span_seconds("stage1.mine"),
        "diammine.ladder_s": span_seconds("stage1.ladder"),
        "diammine.merge_s": span_seconds("stage1.merge"),
        "diammine.minimal_patterns": per_query(sum(s.num_minimal_patterns for s in stats)),
        "csr.freeze_s": span_seconds("csr.freeze"),
        "csr.bytes": per_query(counts["csr.bytes"]),
        "io.read_lg_s": (common.median(read_lg_s), len(read_lg_s)),
        "index.gets": per_query(counts["index.gets"]),
        "index.get_s": span_seconds("index.get"),
        "index.hit_ratio": (common.ratio(counts["index.hits"], counts["index.gets"]), queries),
        "index.puts": per_query(counts["index.puts"]),
        "index.put_s": span_seconds("index.put"),
        "obs.trace_overhead": (common.median(overhead), len(overhead)),
    }
    values.update(levelgrow_layer([s.level_statistics for s in stats], [s.stage_two_seconds for s in stats]))
    return values


def levelgrow_layer(levels: List[Optional[dict]], stage2_s: List[float]) -> Dict[str, Tuple[float, int]]:
    """Per-query means of LevelGrow's counters over queries that grew through it."""
    rows = [(level, seconds) for level, seconds in zip(levels, stage2_s) if level]
    n = len(rows)

    def mean_of(field: str) -> float:
        return common.mean(level[field] for level, _ in rows)

    phases = ("canonical_seconds", "invariant_seconds", "probe_seconds")
    candidates = sum(level["candidates_generated"] for level, _ in rows)
    emitted = sum(level["patterns_emitted"] for level, _ in rows)
    return {
        "levelgrow.candidates": (mean_of("candidates_generated"), n),
        "levelgrow.emitted": (mean_of("patterns_emitted"), n),
        "levelgrow.yield": (common.ratio(emitted, candidates), n),
        "levelgrow.rejected_support": (mean_of("candidates_rejected_support"), n),
        "levelgrow.rejected_duplicate": (mean_of("candidates_rejected_duplicate"), n),
        "levelgrow.rejected_constraints": (mean_of("candidates_rejected_constraints"), n),
        "levelgrow.pending": (mean_of("candidates_pending"), n),
        "levelgrow.canonical_s": (mean_of("canonical_seconds"), n),
        "levelgrow.invariant_s": (mean_of("invariant_seconds"), n),
        "levelgrow.probe_s": (mean_of("probe_seconds"), n),
        "levelgrow.unattributed_s": (
            common.mean(seconds - sum(level[p] for p in phases) for level, seconds in rows),
            n,
        ),
        "levelgrow.canonical_incremental_hits": (mean_of("canonical_incremental_hits"), n),
        "levelgrow.invariant_cache_hits": (mean_of("invariant_cache_hits"), n),
        "levelgrow.probes_batched": (mean_of("probes_batched"), n),
    }
