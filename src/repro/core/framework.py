"""The general direct mining framework (Section 5 of the paper).

The paper abstracts SkinnyMine into a two-stage recipe applicable to any
graph constraint that is *reducible* and *continuous*:

1. **Minimal constraint-satisfying pattern generation** — mine (often
   off-line) the minimal patterns that satisfy the constraint and index their
   embeddings.
2. **Constraint-preserving pattern growth** — on a mining request, fetch the
   relevant minimal patterns and grow each while preserving the constraint.

This module provides:

* :func:`check_reducibility` / :func:`check_continuity` — Property 1 and 2 of
  the paper, decidable on an explicit finite pattern universe.  They are used
  in tests to show the skinny constraint qualifies while the paper's two
  counter-examples (``MaxDegree ≤ K`` and "all degrees equal") fail the
  respective property;
* :class:`ConstraintDriver` — the two stages a constraint plugs in.  The
  built-in drivers (:class:`SkinnyConstraintDriver`,
  :class:`PathConstraintDriver`, :class:`BoundedDiameterDriver`) are served
  by :class:`repro.api.MiningEngine` through
  :func:`repro.api.register_constraint`, which also runs any custom driver;
  :class:`repro.core.skinnymine.SkinnyMine` drives the skinny one directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.core.database import MiningContext
from repro.core.diameter import is_l_long_delta_skinny
from repro.core.patterns import SkinnyPattern
from repro.graph.canonical import canonical_key
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.trace import NULL_TRACER


# --------------------------------------------------------------------- #
# constraint properties (Property 1 and 2)
# --------------------------------------------------------------------- #
ConstraintPredicate = Callable[[LabeledGraph], bool]


def _strict_subpatterns(pattern: LabeledGraph) -> List[LabeledGraph]:
    """All connected subgraphs of ``pattern`` with exactly one edge removed.

    Vertices isolated by the removal are dropped, mirroring the paper's
    pattern containment (patterns are connected subgraphs; |E(P')| =
    |E(P)| - 1).
    """
    subpatterns: List[LabeledGraph] = []
    for edge in pattern.edges():
        candidate = pattern.copy()
        candidate.remove_edge(edge.u, edge.v)
        for vertex in (edge.u, edge.v):
            if candidate.degree(vertex) == 0 and candidate.num_vertices() > 1:
                candidate.remove_vertex(vertex)
        components = candidate.connected_components()
        if len(components) == 1:
            subpatterns.append(candidate)
    return subpatterns


@dataclass
class ReducibilityReport:
    """Outcome of a reducibility check on a finite universe."""

    reducible: bool
    minimal_patterns: List[LabeledGraph]
    threshold_size: Optional[int]


def check_reducibility(
    predicate: ConstraintPredicate,
    universe: Sequence[LabeledGraph],
    min_size: int = 1,
) -> ReducibilityReport:
    """Property 1 (Reducibility) evaluated over an explicit pattern universe.

    A constraint is reducible if there is a non-empty set of satisfying
    patterns of size ≥ ``min_size`` whose strict (one-edge-smaller connected)
    subpatterns all violate the constraint — the minimal
    constraint-satisfying patterns.  The check returns those minimal patterns
    found in ``universe``.
    """
    minimal: List[LabeledGraph] = []
    for pattern in universe:
        if pattern.num_edges() < min_size:
            continue
        if not predicate(pattern):
            continue
        if all(not predicate(sub) for sub in _strict_subpatterns(pattern)):
            minimal.append(pattern)
    if not minimal:
        return ReducibilityReport(False, [], None)
    threshold = min(pattern.num_edges() for pattern in minimal)
    nontrivial = [pattern for pattern in minimal if pattern.num_edges() >= min_size]
    return ReducibilityReport(bool(nontrivial), nontrivial, threshold)


@dataclass
class ContinuityReport:
    """Outcome of a continuity check on a finite universe."""

    continuous: bool
    violating_patterns: List[LabeledGraph]


def check_continuity(
    predicate: ConstraintPredicate,
    universe: Sequence[LabeledGraph],
    minimal_patterns: Optional[Sequence[LabeledGraph]] = None,
) -> ContinuityReport:
    """Property 2 (Continuity) evaluated over an explicit pattern universe.

    Every satisfying pattern must either be minimal (no strict subpattern
    satisfies the constraint — or be designated minimal by the caller) or
    have at least one strict subpattern that also satisfies it.  Patterns
    violating this are returned; an empty violation list means the constraint
    is continuous on the universe.
    """
    minimal_keys = None
    if minimal_patterns is not None:
        minimal_keys = {canonical_key(pattern) for pattern in minimal_patterns}
    violations: List[LabeledGraph] = []
    for pattern in universe:
        if not predicate(pattern):
            continue
        subpatterns = _strict_subpatterns(pattern)
        if any(predicate(sub) for sub in subpatterns):
            continue
        if minimal_keys is not None:
            if canonical_key(pattern) in minimal_keys:
                continue
        else:
            # No designated minimal set: a pattern with no satisfying strict
            # subpattern is its own minimal pattern, which case (1) allows.
            continue
        violations.append(pattern)
    return ContinuityReport(not violations, violations)


# --------------------------------------------------------------------- #
# constraint predicates used in the paper's discussion
# --------------------------------------------------------------------- #
def skinny_constraint(length: int, delta: int) -> ConstraintPredicate:
    """The l-long δ-skinny constraint as a predicate (reducible + continuous)."""

    def predicate(pattern: LabeledGraph) -> bool:
        return is_l_long_delta_skinny(pattern, length, delta)

    return predicate


def max_degree_constraint(maximum: int) -> ConstraintPredicate:
    """The paper's non-reducible example: every vertex degree strictly below ``maximum``."""

    def predicate(pattern: LabeledGraph) -> bool:
        if pattern.num_vertices() == 0:
            return False
        return all(pattern.degree(vertex) < maximum for vertex in pattern.vertices())

    return predicate


def uniform_degree_constraint() -> ConstraintPredicate:
    """The paper's non-continuous example: all vertices share the same degree."""

    def predicate(pattern: LabeledGraph) -> bool:
        degrees = {pattern.degree(vertex) for vertex in pattern.vertices()}
        return pattern.num_vertices() > 0 and len(degrees) == 1

    return predicate


def min_size_constraint(min_edges: int) -> ConstraintPredicate:
    """A simple reducible + continuous constraint (|E(P)| ≥ k) used in examples."""

    def predicate(pattern: LabeledGraph) -> bool:
        return pattern.num_edges() >= min_edges

    return predicate


def path_shape_constraint(length: int) -> ConstraintPredicate:
    """The l-long path constraint: the pattern *is* a simple path of ``length`` edges.

    Reducible (the minimal patterns are exactly the l-paths — every strict
    subpattern is a shorter path) and trivially continuous (every satisfying
    pattern is minimal).  This is the degenerate δ=0 corner of the skinny
    family, served as its own constraint because its Stage 2 is the identity.
    """
    if length < 1:
        raise ValueError("length must be at least 1")

    def predicate(pattern: LabeledGraph) -> bool:
        if pattern.num_edges() != length or pattern.num_vertices() != length + 1:
            return False
        if not pattern.is_connected():
            return False
        degrees = sorted(pattern.degree(vertex) for vertex in pattern.vertices())
        # A connected tree with max degree 2 and two leaves is a simple path.
        return degrees[-1] <= 2 and degrees[0] == 1

    return predicate


def bounded_diameter_constraint(maximum: int) -> ConstraintPredicate:
    """The bounded-diameter constraint diam(P) ≤ K (connected, at least one edge).

    Reducible: single-edge patterns (diameter 1) qualify, and so do the
    odd/even cycles whose every one-edge-deleted subpath exceeds K — the
    reducibility check on an explicit universe surfaces both kinds of
    minimal pattern.  Continuity holds relative to that minimal set: deleting
    a non-cycle pattern's pendant edge keeps the diameter bounded.
    """
    if maximum < 1:
        raise ValueError("maximum diameter must be at least 1")

    def predicate(pattern: LabeledGraph) -> bool:
        from repro.graph.paths import diameter_at_most

        if pattern.num_edges() < 1 or not pattern.is_connected():
            return False
        # SumSweep-style bounded check: confirms or refutes the bound from
        # a few BFS sweeps instead of computing the exact diameter.
        return diameter_at_most(pattern, maximum)

    return predicate


# --------------------------------------------------------------------- #
# the constraint drivers
# --------------------------------------------------------------------- #
class ConstraintDriver(Protocol):
    """What a constraint must provide to be served by :class:`repro.api.MiningEngine`.

    ``mine_minimal(context, parameter)`` returns the minimal
    constraint-satisfying patterns for one value of the constraint parameter
    (e.g. the diameter length for skinny patterns);
    ``grow(context, minimal, parameter)`` grows one minimal pattern into all
    target patterns of its cluster.

    One driver instance serves one query: the engine builds a fresh one per
    query and calls ``grow`` once per minimal pattern.  The engine returns
    what the driver returns, so a driver whose clusters overlap must not
    return a pattern isomorphic to one it already returned in that query.
    """

    def mine_minimal(self, context: MiningContext, parameter: Hashable) -> List[object]:
        ...

    def grow(
        self, context: MiningContext, minimal: object, parameter: Hashable
    ) -> List[SkinnyPattern]:
        ...


class SkinnyConstraintDriver:
    """SkinnyMine's two stages as a :class:`ConstraintDriver`.

    The constraint parameter is the pair ``(length, delta)``; minimal patterns
    are the frequent length-``l`` paths, mined under the Stage-1 exactness
    mode (:class:`repro.core.diammine.Stage1Mode`; exact by default).
    :meth:`grow` is the one skinny cluster-growth loop: the engine, the CLI,
    the serving tier and :class:`repro.core.skinnymine.SkinnyMine` all grow
    through it.

    A driver instance is the per-request scope: ``statistics`` accumulates
    the LevelGrow counters (including the emission-fast-path ones —
    ``canonical_incremental_hits``, ``invariant_cache_hits``,
    ``probes_batched``) across every cluster of the request.
    ``descriptor_cache`` defaults to a fresh per-driver cache shared across
    the request's clusters; long-lived callers (the engine, SkinnyMine)
    inject their own instance so Loop-Invariant descriptors survive across
    requests — sound, because a descriptor is a pure function of the
    abstract pattern, independent of the data, threshold or measure.

    ``closed_only`` and ``maximal_only`` are SkinnyMine's cluster-local
    output filters (see :meth:`repro.core.skinnymine.SkinnyMine.mine`).
    """

    def __init__(
        self,
        max_paths_per_length: Optional[int] = None,
        max_patterns_per_diameter: Optional[int] = None,
        include_minimal: bool = True,
        stage1_mode: Optional[object] = None,
        closed_only: bool = False,
        maximal_only: bool = False,
    ) -> None:
        from repro.core.levelgrow import DiameterDescriptorCache, LevelGrowStatistics

        self._max_paths_per_length = max_paths_per_length
        self._max_patterns_per_diameter = max_patterns_per_diameter
        self._include_minimal = include_minimal
        self._stage1_mode = stage1_mode
        self._closed_only = closed_only
        self._maximal_only = maximal_only
        self.descriptor_cache = DiameterDescriptorCache()
        self.statistics = LevelGrowStatistics()
        # Injected by the engine (hasattr protocol, like descriptor_cache);
        # defaults to the shared no-op tracer.
        self.tracer = NULL_TRACER

    def mine_minimal(
        self, context: MiningContext, parameter: Tuple[int, int]
    ) -> List[object]:
        from repro.core.diammine import DiamMine

        length, _ = parameter
        return DiamMine(
            context,
            max_paths_per_length=self._max_paths_per_length,
            mode=self._stage1_mode,
            tracer=self.tracer,
        ).mine(length)

    def grow(
        self, context: MiningContext, minimal: object, parameter: Tuple[int, int]
    ) -> List[SkinnyPattern]:
        from repro.core.levelgrow import LevelGrower
        from repro.core.patterns import initial_state_from_path

        _, delta = parameter
        grower = LevelGrower(
            context,
            max_patterns=self._max_patterns_per_diameter,
            descriptor_cache=self.descriptor_cache,
            # The child counters feed only the closed/maximal filters; with
            # both off the grower's duplicate fast path may skip the
            # re-derivation's embedding join outright.
            child_accounting=self._closed_only or self._maximal_only,
        )
        root = initial_state_from_path(minimal)
        grower.register(root)
        collected = [root] if self._include_minimal else []
        # The frontier carries both reportable states and constraint-pending
        # intermediates (Constraint-I violations a later level's edges can
        # still repair); only the former are ever collected.
        frontier = [root]
        for level in range(1, delta + 1):
            with self.tracer.span("stage2.level", level=level) as span:
                next_frontier = []
                for state in frontier:
                    growth = grower.grow_level_full(state, level, max_level=delta)
                    next_frontier.extend(growth.emitted)
                    next_frontier.extend(growth.pending)
                    collected.extend(growth.emitted)
                span.annotate(frontier=len(frontier), grown=len(next_frontier))
            if not next_frontier:
                break
            frontier = next_frontier
        self.statistics.merge(grower.statistics)
        # Child counters are final only once the cluster stops growing.
        return [
            state.to_pattern()
            for state in collected
            if not (self._maximal_only and state.accepted_children)
            and not (self._closed_only and state.equal_support_children)
        ]


class PathConstraintDriver:
    """Driver for the l-long path constraint (``path_shape_constraint``).

    The constraint parameter is the path length ``l``.  Minimal patterns are
    the frequent length-``l`` paths (DiamMine — exactly Stage 1 of
    SkinnyMine), and because every strict super-pattern of a path is not a
    path, Stage 2 is the identity: each minimal pattern is its own cluster's
    only member.
    """

    def __init__(
        self,
        max_paths_per_length: Optional[int] = None,
        include_minimal: bool = True,
        stage1_mode: Optional[object] = None,
    ) -> None:
        self._max_paths_per_length = max_paths_per_length
        self._include_minimal = include_minimal
        self._stage1_mode = stage1_mode
        self.tracer = NULL_TRACER

    def mine_minimal(self, context: MiningContext, parameter: int) -> List[object]:
        from repro.core.diammine import DiamMine

        return DiamMine(
            context,
            max_paths_per_length=self._max_paths_per_length,
            mode=self._stage1_mode,
            tracer=self.tracer,
        ).mine(int(parameter))

    def grow(
        self, context: MiningContext, minimal: object, parameter: int
    ) -> List[SkinnyPattern]:
        from repro.core.patterns import initial_state_from_path

        if not self._include_minimal:
            return []
        return [initial_state_from_path(minimal).to_pattern()]


class BoundedDiameterDriver:
    """Driver for the bounded-diameter constraint diam(P) ≤ K.

    The constraint parameter is the bound ``K``.  Minimal patterns are the
    frequent single-edge patterns (diameter 1 — the size-1 minimal
    constraint-satisfying patterns); Stage 2 grows each by
    embedding-joined extensions (attach a data neighbour as a new pattern
    vertex, or close an edge between two mapped vertices), keeping only
    frequent extensions whose diameter stays within the bound.

    Cycle-shaped patterns whose every one-edge-deleted sub-pattern violates
    the bound (e.g. a 2K-cycle, or the 4-cycle under K = 2, reachable only
    through a diameter-3 path) are reached through *pending* intermediates:
    growth keeps extending frequent patterns whose diameter exceeds the
    bound by a repairable margin (at most 2K — the best single-edge repair,
    closing a path of length D into a cycle, needs D ≤ 2K) but reports only
    patterns within the bound.  This mirrors LevelGrow's Constraint-I
    pending states (see ``docs/CORRECTNESS.md``).

    One instance serves one query: every :meth:`grow` call shares one
    duplicate registry, so a pattern reached from several seed edges is
    grown and returned once, by the first seed that reaches it.  Nothing is
    lost by skipping it later: frequency, the 2K margin and ``max_edges``
    do not depend on the growth path, so that first seed also reaches every
    extension of it.  ``max_patterns`` caps the whole answer of the query:
    once that many patterns were returned, later calls return ``[]``, so a
    capped answer is a prefix of the uncapped one in discovery order.
    Calling :meth:`grow` with another context or bound raises
    ``ValueError``.

    Tree-shaped states carry their :class:`~repro.graph.canonical.TreeEncodings`,
    so a pendant extension's key comes in O(depth) before its graph copy
    and embedding join, and a tree's diameter comes from the same
    encodings.  Closing edges and every descendant of a cyclic state are
    keyed by :func:`~repro.graph.canonical.canonical_key` and gated by
    :func:`~repro.graph.paths.diameter_at_most`.

    Remaining caveat, documented rather than hidden: embedding-count support
    is not anti-monotone, so frequency pruning of intermediates is heuristic
    under that measure — the same trade Stage 2 of SkinnyMine makes.
    """

    def __init__(
        self,
        max_edges: Optional[int] = None,
        max_patterns: Optional[int] = None,
        include_minimal: bool = True,
    ) -> None:
        self._max_edges = max_edges
        self._max_patterns = max_patterns
        self._include_minimal = include_minimal
        # The query this instance serves, fixed by the first grow call.
        self._query: Optional[Tuple[MiningContext, int]] = None
        self._seen: Set[Hashable] = set()
        self._returned = 0

    # ------------------------------------------------------------------ #
    # Stage 1: frequent single-edge patterns
    # ------------------------------------------------------------------ #
    def mine_minimal(self, context: MiningContext, parameter: Hashable) -> List[object]:
        from repro.graph.embeddings import Embedding

        by_shape: Dict[Tuple[str, str, str], List] = {}
        labels_of: Dict[Tuple[str, str, str], Tuple[object, object, object]] = {}
        for graph_index in context.graph_indices():
            graph = context.graph(graph_index)
            for edge in graph.edges():
                label_u = graph.label_of(edge.u)
                label_v = graph.label_of(edge.v)
                orientations = []
                if str(label_u) <= str(label_v):
                    orientations.append((label_u, label_v, edge.u, edge.v))
                if str(label_v) <= str(label_u):
                    orientations.append((label_v, label_u, edge.v, edge.u))
                for first, second, u, v in orientations:
                    shape = (str(first), str(second), str(edge.label))
                    labels_of.setdefault(shape, (first, second, edge.label))
                    by_shape.setdefault(shape, []).append(
                        Embedding.from_dict({0: u, 1: v}, graph_index)
                    )
        minimal: List[object] = []
        for shape in sorted(by_shape):
            first, second, edge_label = labels_of[shape]
            pattern = LabeledGraph(name=f"edge-{shape[0]}-{shape[1]}")
            pattern.add_vertex(0, first)
            pattern.add_vertex(1, second)
            pattern.add_edge(0, 1, edge_label)
            embeddings = by_shape[shape]
            support = context.support_of_embeddings(embeddings, pattern)
            if context.is_frequent(support):
                minimal.append(SkinnyPattern(pattern, [0, 1], embeddings, support))
        return minimal

    # ------------------------------------------------------------------ #
    # Stage 2: constraint-preserving growth
    # ------------------------------------------------------------------ #
    def _extensions(self, context, graph, table):
        """Pattern-level extension ops joined across the embedding table.

        Yields ``(anchor, other, label, edge_label, join)`` for every
        distinct one-edge extension supported by at least one row, pendant
        ops first: a new pendant pattern vertex labelled ``label`` on
        ``anchor`` (``other`` is ``None``; ``join`` holds ``(row, data
        vertex)`` pairs), or a closing edge between the mapped vertices
        ``anchor`` and ``other`` (``join`` holds the surviving row indices).
        Each op's join is recorded during the single adjacency scan, so
        applying an op is a pure join against the parent table rather than
        a re-scan.
        """
        pattern_edges = {frozenset(edge.endpoints()) for edge in graph.edges()}
        columns = table.columns
        new_vertex_ops: Dict[Tuple, List[Tuple[int, int]]] = {}
        new_vertex_labels: Dict[Tuple, Tuple[object, object]] = {}
        close_edge_ops: Dict[Tuple, List[int]] = {}
        close_edge_labels: Dict[Tuple, object] = {}
        last_graph_index = -1
        data = None
        for row_index, (graph_index, row) in enumerate(
            zip(table.graph_ids, table.rows)
        ):
            # Frozen CSR view: sorted-tuple neighbour reads, cached label
            # strings and O(log deg) edge-label probes, shared across every
            # row of the transaction (rows arrive grouped by graph).
            if graph_index != last_graph_index:
                data = context.frozen_graph(graph_index)
                label_strs = data.label_strs
                adjacency = data.adjacency
                last_graph_index = graph_index
            # Embeddings are injective: data vertex → pattern vertex is
            # well defined per row, so one inverse map answers both the
            # membership probe and the closing-edge endpoint recovery.
            mapped_get = dict(zip(row, columns)).get
            for position, pattern_vertex in enumerate(columns):
                data_vertex = row[position]
                for neighbor in adjacency[data_vertex]:
                    edge_label = data.edge_label(data_vertex, neighbor)
                    mapped = mapped_get(neighbor)
                    if mapped is not None:
                        if (
                            pattern_vertex < mapped
                            and frozenset((pattern_vertex, mapped)) not in pattern_edges
                        ):
                            op = (pattern_vertex, mapped, str(edge_label))
                            close_edge_labels.setdefault(op, edge_label)
                            close_edge_ops.setdefault(op, []).append(row_index)
                    else:
                        op = (pattern_vertex, label_strs[neighbor], str(edge_label))
                        if op not in new_vertex_labels:
                            new_vertex_labels[op] = (data.label_of(neighbor), edge_label)
                        new_vertex_ops.setdefault(op, []).append((row_index, neighbor))

        for op in sorted(new_vertex_ops):
            label, edge_label = new_vertex_labels[op]
            yield op[0], None, label, edge_label, new_vertex_ops[op]
        for op in sorted(close_edge_ops):
            yield op[0], op[1], None, close_edge_labels[op], close_edge_ops[op]

    def grow(
        self, context: MiningContext, minimal: object, parameter: Hashable
    ) -> List[SkinnyPattern]:
        bound = int(parameter)
        if self._query is None:
            self._query = (context, bound)
        elif self._query[0] is not context or self._query[1] != bound:
            raise ValueError(
                "a BoundedDiameterDriver serves one query; build a new driver "
                "for another context or bound"
            )
        cap = self._max_patterns
        results: List[SkinnyPattern] = []
        if cap is not None and self._returned >= cap:
            return results
        for pattern in self._discovered(context, minimal, bound):
            results.append(pattern)
            self._returned += 1
            if cap is not None and self._returned >= cap:
                break
        return results

    def _discovered(
        self, context: MiningContext, minimal: SkinnyPattern, bound: int
    ) -> Iterator[SkinnyPattern]:
        """Yield, in DFS order, the patterns ``minimal`` reaches that the query has not seen.

        Per candidate the steps are: key, registry check, support, diameter
        gates, then emit or push.  A pendant op on a tree state is keyed from
        the state's encodings, so only a new key pays for the join, and only
        a frequent one for the graph copy and the child's encodings.
        """
        from repro.core.diameter import canonical_diameter
        from repro.graph.canonical import TreeEncodings
        from repro.graph.embeddings import EmbeddingTable
        from repro.graph.paths import diameter_at_most

        seen = self._seen
        graph = minimal.graph
        encodings = (
            TreeEncodings.from_tree(graph)
            if graph.num_edges() == graph.num_vertices() - 1 and graph.is_connected()
            else None
        )
        key = canonical_key(graph) if encodings is None else encodings.key
        if key in seen:
            return
        seen.add(key)
        if self._include_minimal:
            yield minimal
        frontier = [
            (graph, EmbeddingTable.from_embeddings(minimal.embeddings), encodings)
        ]
        while frontier:
            graph, table, encodings = frontier.pop()
            if self._max_edges is not None and graph.num_edges() >= self._max_edges:
                continue
            new_id = max(graph.vertices()) + 1
            for anchor, other, label, edge_label, join in self._extensions(
                context, graph, table
            ):
                extended = child = None
                if other is not None or encodings is None:
                    extended = _with_edge(graph, anchor, other, new_id, label, edge_label)
                    key = canonical_key(extended)
                elif (
                    encodings.d1[anchor] >= encodings.diam
                    or encodings.d2[anchor] >= encodings.diam
                ):
                    # The leaf lengthens the diameter, where extended_key
                    # would build the full extension anyway: keep it.
                    child = encodings.extend(anchor, new_id, label, edge_label)
                    key = child.key
                else:
                    key = encodings.extended_key(anchor, new_id, label, edge_label)
                if key in seen:
                    continue
                seen.add(key)
                extended_table = (
                    table.extended(new_id, join) if other is None else table.subset(join)
                )
                support = context.support_of_table(extended_table)
                if not context.is_frequent(support):
                    continue
                if extended is None:
                    if child is None:
                        child = encodings.extend(anchor, new_id, label, edge_label)
                    within = child.diam <= bound
                    # Pending intermediate: over the bound but repairable —
                    # closing a path of length D needs D <= 2K, so anything
                    # beyond that margin can never come back under it.
                    if not within and child.diam > 2 * bound:
                        continue
                    extended = _with_edge(graph, anchor, None, new_id, label, edge_label)
                else:
                    # Both gates run as SumSweep-bounded checks, which settle
                    # from a few BFS sweeps without the exact diameter.
                    within = diameter_at_most(extended, bound)
                    if not within and not diameter_at_most(extended, 2 * bound):
                        continue
                frontier.append((extended, extended_table, child))
                if within:
                    yield SkinnyPattern(
                        extended,
                        canonical_diameter(extended),
                        extended_table.to_embeddings(),
                        support,
                    )


def _with_edge(graph, anchor, other, new_id, label, edge_label) -> LabeledGraph:
    """A copy of ``graph`` with one more edge at ``anchor``.

    The edge closes onto ``other``, or, when ``other`` is ``None``, hangs a
    new vertex ``new_id`` labelled ``label``.
    """
    extended = graph.copy()
    if other is None:
        extended.add_vertex(new_id, label)
        other = new_id
    extended.add_edge(anchor, other, edge_label)
    return extended
