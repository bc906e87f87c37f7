"""SkinnyMine — the full (l, δ)-SPM miner (Algorithm 1) plus the diameter index.

``SkinnyMine`` runs the two stages through
:class:`repro.core.framework.SkinnyConstraintDriver`, the driver
:class:`repro.api.MiningEngine` serves skinny queries with:

* Stage I: :class:`repro.core.diammine.DiamMine` mines every frequent simple
  path of length ``l`` (the canonical diameters / minimal
  constraint-satisfying patterns);
* Stage II: :class:`repro.core.levelgrow.LevelGrower` grows each diameter
  level by level up to δ, preserving the canonical diameter at every step.

The class also exposes the *direct mining* workflow of Figure 2: canonical
diameters for many values of ``l`` can be pre-computed once
(:meth:`SkinnyMine.precompute`) and each subsequent mining request with a
particular ``l`` (or a range ``[l1, l2]``) is answered by growing only the
relevant clusters — no pattern with a different diameter is ever visited.

Runtimes of the two stages and pattern counts are recorded in
:class:`MiningReport` because the paper's scalability figures (14, 16, 17,
18) report exactly that break-down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.core.database import MiningContext, SupportMeasure
from repro.core.diameter import is_l_long_delta_skinny
from repro.core.diammine import Stage1Mode, resolve_stage1_mode
from repro.core.framework import SkinnyConstraintDriver
from repro.core.levelgrow import DiameterDescriptorCache, LevelGrowStatistics
from repro.core.patterns import PathPattern, SkinnyPattern
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass
class MiningReport:
    """Stage-wise accounting of one mining request."""

    length: int
    delta: int
    diammine_seconds: float = 0.0
    levelgrow_seconds: float = 0.0
    num_diameters: int = 0
    num_patterns: int = 0
    level_statistics: LevelGrowStatistics = field(default_factory=LevelGrowStatistics)

    @property
    def total_seconds(self) -> float:
        return self.diammine_seconds + self.levelgrow_seconds


class SkinnyMine:
    """Mine all l-long δ-skinny frequent patterns of a graph or graph database.

    Parameters
    ----------
    graphs:
        A single data graph (single-graph setting) or a sequence of graphs
        (graph-transaction setting).
    min_support:
        The frequency threshold σ.
    support_measure:
        Optional override of the support measure; defaults follow the paper
        (embedding count for a single graph, transaction count for a
        database).
    max_paths_per_length / max_patterns_per_diameter:
        Optional safety caps for exploratory runs on dense data; ``None``
        (default) keeps the algorithm exact.
    stage1_mode:
        Stage-1 exactness contract forwarded to DiamMine
        (:class:`repro.core.diammine.Stage1Mode`); the default ``EXACT``
        mines every frequent diameter under any support measure, ``PRUNED``
        opts back into the paper's literal intermediate thresholding.
    tracer:
        Optional :class:`repro.obs.Tracer` for standalone (non-engine) use —
        the profiler and benchmarks drive :class:`SkinnyMine` directly.
        When enabled, each request gets ``stage1``/``stage2`` spans,
        per-level ``stage2.level`` spans and aggregate ``stage2.phase.*``
        spans; defaults to the shared no-op tracer.

    Examples
    --------
    >>> from repro.graph.generators import erdos_renyi_graph, inject_pattern, random_skinny_pattern
    >>> background = erdos_renyi_graph(120, 1.5, 8, seed=1)
    >>> pattern = random_skinny_pattern(6, 1, 9, 8, seed=2)
    >>> _ = inject_pattern(background, pattern, copies=3, seed=3)
    >>> miner = SkinnyMine(background, min_support=3)
    >>> result = miner.mine(length=6, delta=1)
    >>> all(p.diameter_length == 6 for p in result)
    True
    >>> miner.stage1_mode
    <Stage1Mode.EXACT: 'exact'>
    """

    def __init__(
        self,
        graphs: Union[LabeledGraph, Sequence[LabeledGraph]],
        min_support: int,
        support_measure: Optional[SupportMeasure] = None,
        max_paths_per_length: Optional[int] = None,
        max_patterns_per_diameter: Optional[int] = None,
        stage1_mode: Union[str, Stage1Mode, None] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._context = MiningContext(graphs, min_support, support_measure)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._stage1_mode = resolve_stage1_mode(stage1_mode)
        self._max_paths_per_length = max_paths_per_length
        self._max_patterns_per_diameter = max_patterns_per_diameter
        self._diameter_index: Dict[int, List[PathPattern]] = {}
        # Shared across clusters and requests: Loop-Invariant verdicts are a
        # function of the abstract pattern, so a candidate generated by
        # several clusters (each cluster containing its diameter proposes
        # it) verifies once (see levelgrow.DiameterDescriptorCache).
        self._descriptor_cache = DiameterDescriptorCache()
        self.last_report: Optional[MiningReport] = None

    # ------------------------------------------------------------------ #
    # direct-mining pre-computation (Figure 2)
    # ------------------------------------------------------------------ #
    @property
    def context(self) -> MiningContext:
        return self._context

    @property
    def stage1_mode(self) -> Stage1Mode:
        """The resolved Stage-1 exactness mode (see :class:`Stage1Mode`)."""
        return self._stage1_mode

    def _driver(
        self,
        include_minimal: bool = True,
        closed_only: bool = False,
        maximal_only: bool = False,
    ) -> SkinnyConstraintDriver:
        """A per-request driver, with the descriptor cache and tracer injected
        the way :class:`repro.api.MiningEngine` injects them.
        """
        driver = SkinnyConstraintDriver(
            max_paths_per_length=self._max_paths_per_length,
            max_patterns_per_diameter=self._max_patterns_per_diameter,
            include_minimal=include_minimal,
            stage1_mode=self._stage1_mode,
            closed_only=closed_only,
            maximal_only=maximal_only,
        )
        driver.descriptor_cache = self._descriptor_cache
        driver.tracer = self._tracer
        return driver

    def precompute(self, lengths: Iterable[int]) -> Dict[int, int]:
        """Pre-compute and index canonical diameters for several lengths.

        Returns ``length -> number of frequent diameters`` for reporting.
        Subsequent :meth:`mine` calls with an indexed length skip Stage I.
        """
        return {length: len(self.diameters_for(length)) for length in sorted(set(lengths))}

    def indexed_lengths(self) -> List[int]:
        return sorted(self._diameter_index)

    def diameters_for(self, length: int) -> List[PathPattern]:
        """The canonical diameters (frequent length-``l`` paths) for one request."""
        if length not in self._diameter_index:
            self._diameter_index[length] = self._driver().mine_minimal(
                self._context, (length, 0)
            )
        return self._diameter_index[length]

    # ------------------------------------------------------------------ #
    # mining
    # ------------------------------------------------------------------ #
    def mine(
        self,
        length: int,
        delta: int,
        include_minimal: bool = True,
        validate: bool = False,
        closed_only: bool = False,
        maximal_only: bool = False,
    ) -> List[SkinnyPattern]:
        """All l-long δ-skinny patterns with support ≥ σ (Algorithm 1).

        ``include_minimal`` keeps the bare canonical diameters in the result
        (they are themselves l-long 0-skinny patterns and hence satisfy the
        δ-skinny constraint); pass False to reproduce Algorithm 1 literally,
        which returns only grown patterns.  ``closed_only`` applies the
        closedness filter of Algorithm 3, line 12: a pattern is reported only
        if it has no frequent constraint-preserving super-pattern of at least
        the same support in its cluster.  ``maximal_only`` is the stricter
        filter (no frequent constraint-preserving super-pattern in its
        cluster at all) used by some of the effectiveness benchmarks.  Both
        are cluster-local: a super-pattern whose canonical diameter differs
        belongs to — and is weighed by — its own cluster.  Super-patterns
        reached through constraint-pending intermediates are credited to
        their nearest reportable ancestor, so the filters see through
        pending repairs.  ``validate`` re-checks every output
        with the reference predicate
        :func:`repro.core.diameter.is_l_long_delta_skinny` — slow, meant for
        tests.
        """
        if length < 1:
            raise ValueError("length must be at least 1")
        if delta < 0:
            raise ValueError("delta must be non-negative")

        # One driver per request: its counters are this request's alone.
        driver = self._driver(include_minimal, closed_only, maximal_only)
        report = MiningReport(
            length=length, delta=delta, level_statistics=driver.statistics
        )
        started = time.perf_counter()
        with self._tracer.span("stage1", length=length) as span:
            diameters = self.diameters_for(length)
            span.annotate(diameters=len(diameters))
        report.diammine_seconds = time.perf_counter() - started
        report.num_diameters = len(diameters)

        results: List[SkinnyPattern] = []
        started = time.perf_counter()
        with self._tracer.span("stage2", length=length, delta=delta) as span:
            for path in diameters:
                results.extend(driver.grow(self._context, path, (length, delta)))
            span.annotate(patterns=len(results))
            # The emission phases are accumulated inline per candidate (too
            # hot for a span each); attach them as pre-timed aggregates.
            for phase, seconds in report.level_statistics.phase_seconds().items():
                self._tracer.record("stage2.phase." + phase, seconds)
        report.levelgrow_seconds = time.perf_counter() - started
        report.num_patterns = len(results)
        self.last_report = report

        if validate:
            self._validate(results, length, delta)
        return results

    def mine_range(
        self,
        min_length: int,
        max_length: int,
        delta: int,
        include_minimal: bool = True,
    ) -> Dict[int, List[SkinnyPattern]]:
        """Answer a range request l ∈ [l1, l2] without visiting other diameters.

        This is the query shape the introduction highlights: thanks to the
        partition induced by canonical diameters, patterns with diameters
        outside the range are never generated or examined.
        """
        if min_length > max_length:
            raise ValueError("min_length must not exceed max_length")
        results: Dict[int, List[SkinnyPattern]] = {}
        for length in range(min_length, max_length + 1):
            results[length] = self.mine(length, delta, include_minimal=include_minimal)
        return results

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _validate(
        self, patterns: Sequence[SkinnyPattern], length: int, delta: int
    ) -> None:
        for pattern in patterns:
            if not is_l_long_delta_skinny(pattern.graph, length, delta):
                raise AssertionError(
                    f"mined pattern violates the l-long δ-skinny constraint: {pattern!r}"
                )
            if pattern.support < self._context.min_support:
                raise AssertionError(
                    f"mined pattern violates the support threshold: {pattern!r}"
                )
