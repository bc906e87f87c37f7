"""Shared infrastructure for the baseline miners.

All baselines return :class:`MinedPattern` objects (a pattern graph plus its
support and an optional algorithm-specific score) so the analysis layer can
build the paper's pattern-size distributions (Figures 4–10) uniformly.

:class:`PatternGrowthMiner` is the generic frequent-connected-subgraph miner
used by the gSpan and MoSS adapters: occurrence-list based pattern growth with
occurrences grouped by their pattern's exact canonical key.  It supports all
three support measures of :class:`repro.core.database.MiningContext` and
optional caps on pattern size and running time (the paper repeatedly notes
that complete miners "fail halfway due to intractability"; the caps let the
benchmark harness reproduce that behaviour without hanging the test machine).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.database import MiningContext, SupportMeasure
from repro.graph.canonical import canonical_key
from repro.graph.labeled_graph import LabeledGraph, VertexId

EdgeKey = Tuple[VertexId, VertexId]
Occurrence = Tuple[int, FrozenSet[EdgeKey]]


@dataclass
class MinedPattern:
    """A pattern reported by one of the baseline miners."""

    graph: LabeledGraph
    support: int
    score: float = 0.0

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices()

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges()

    def __repr__(self) -> str:
        return (
            f"<MinedPattern |V|={self.num_vertices} |E|={self.num_edges} "
            f"support={self.support}>"
        )


class IsomorphismRegistry:
    """Exact duplicate detection: the set of canonical keys seen so far."""

    def __init__(self) -> None:
        self._keys: Set[Tuple] = set()

    def add(self, pattern: LabeledGraph) -> bool:
        """Add ``pattern``; return True if it is new."""
        key = canonical_key(pattern)
        if key in self._keys:
            return False
        self._keys.add(key)
        return True


def _edge_key(u: VertexId, v: VertexId) -> EdgeKey:
    return (u, v) if u < v else (v, u)


def occurrence_support(
    context: MiningContext, pattern: LabeledGraph, occurrences: Sequence[Occurrence]
) -> int:
    """Support of a pattern from its edge-set occurrences under the context measure."""
    if context.support_measure is SupportMeasure.TRANSACTIONS:
        return len({index for index, _ in occurrences})
    if context.support_measure is SupportMeasure.MNI:
        # Edge-set occurrences lose the vertex correspondence needed for MNI;
        # approximate with the number of distinct vertex images, which is an
        # upper bound and coincides for automorphism-free patterns.
        return len(
            {
                (index, frozenset(v for edge in edges for v in edge))
                for index, edges in occurrences
            }
        )
    return len(
        {
            (index, frozenset(v for edge in edges for v in edge))
            for index, edges in occurrences
        }
    )


@dataclass
class PatternGrowthResult:
    """Output of :class:`PatternGrowthMiner` plus run accounting."""

    patterns: List[MinedPattern] = field(default_factory=list)
    completed: bool = True
    elapsed_seconds: float = 0.0
    patterns_explored: int = 0


class PatternGrowthMiner:
    """Generic complete frequent-connected-subgraph miner (pattern growth).

    Grows patterns one data edge at a time from single-edge seeds, keeping
    exact occurrence lists.  Occurrences are grouped by their pattern's
    canonical key, so each group is one pattern and is reported once.  The
    miner is *complete* up to ``max_edges`` and the optional time budget:
    when the budget is exhausted mid-way the result is flagged
    ``completed=False``, which the runtime-comparison benchmarks use to
    reproduce the paper's ">18000 seconds / did not finish" rows.
    """

    def __init__(
        self,
        context: MiningContext,
        max_edges: Optional[int] = None,
        time_budget_seconds: Optional[float] = None,
        max_patterns: Optional[int] = None,
    ) -> None:
        self._context = context
        self._max_edges = max_edges
        self._time_budget = time_budget_seconds
        self._max_patterns = max_patterns

    def mine(self) -> PatternGrowthResult:
        started = time.perf_counter()
        result = PatternGrowthResult()

        def out_of_budget() -> bool:
            return (
                self._time_budget is not None
                and time.perf_counter() - started > self._time_budget
            )

        # Seed: single-edge patterns grouped by their (label, edge-label, label) key.
        current: Dict[Tuple, Dict[Occurrence, None]] = {}
        representative: Dict[Tuple, Tuple[int, FrozenSet[EdgeKey]]] = {}
        for graph_index in self._context.graph_indices():
            graph = self._context.graph(graph_index)
            for edge in graph.edges():
                labels = tuple(
                    sorted((str(graph.label_of(edge.u)), str(graph.label_of(edge.v))))
                )
                key = ("seed", labels, str(edge.label) if edge.label else "")
                edges = frozenset({_edge_key(edge.u, edge.v)})
                current.setdefault(key, {})[(graph_index, edges)] = None
                representative.setdefault(key, (graph_index, edges))

        size = 1
        while current:
            if out_of_budget():
                result.completed = False
                break
            next_level: Dict[Tuple, Dict[Occurrence, None]] = {}
            next_representative: Dict[Tuple, Tuple[int, FrozenSet[EdgeKey]]] = {}
            for key, occurrence_map in current.items():
                if out_of_budget():
                    result.completed = False
                    break
                occurrences = list(occurrence_map)
                graph_index, sample_edges = representative[key]
                sample_graph = self._context.graph(graph_index)
                pattern = sample_graph.edge_subgraph(sorted(sample_edges)).compact()[0]
                support = occurrence_support(self._context, pattern, occurrences)
                result.patterns_explored += 1
                if not self._context.is_frequent(support):
                    continue
                result.patterns.append(MinedPattern(pattern, support))
                if (
                    self._max_patterns is not None
                    and len(result.patterns) >= self._max_patterns
                ):
                    result.completed = False
                    result.elapsed_seconds = time.perf_counter() - started
                    return result
                if self._max_edges is not None and size >= self._max_edges:
                    continue
                for occurrence_index, edges in occurrences:
                    graph = self._context.graph(occurrence_index)
                    vertices = {v for edge in edges for v in edge}
                    for vertex in vertices:
                        for neighbor in graph.neighbors(vertex):
                            new_edge = _edge_key(vertex, neighbor)
                            if new_edge in edges:
                                continue
                            extended = edges | {new_edge}
                            extended_pattern = graph.edge_subgraph(sorted(extended))
                            compacted, _ = extended_pattern.compact()
                            new_key = canonical_key(compacted)
                            next_level.setdefault(("grown", size + 1, new_key), {})[
                                (occurrence_index, extended)
                            ] = None
                            next_representative.setdefault(
                                ("grown", size + 1, new_key),
                                (occurrence_index, extended),
                            )
            current = next_level
            representative = next_representative
            size += 1

        result.elapsed_seconds = time.perf_counter() - started
        return result
