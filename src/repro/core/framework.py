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
from itertools import combinations
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
from repro.graph.paths import bfs_distances
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
    do not depend on the growth path, and a child dropped as unrepairable
    is in no reportable pattern, so that first seed also reaches every
    reportable extension of it.  ``max_patterns`` caps the whole answer of
    the query: once that many patterns were returned, later calls return
    ``[]``, so a capped answer is a prefix of the uncapped one in discovery
    order.  Calling :meth:`grow` with another context or bound raises
    ``ValueError``.

    Tree-shaped states carry their :class:`~repro.graph.canonical.TreeEncodings`,
    so a pendant extension's key comes in O(depth) before its graph copy
    and embedding join, and a child pushed to the frontier builds its
    encodings from the leaf its key came with.  A pendant changes no
    distance between vertices already in the pattern, so its child's
    diameter, ``max(D, ecc(anchor) + 1)``, is known before the key (from
    the encodings' ``d1`` / ``d2`` on a tree, by one BFS otherwise).  A closing
    edge lengthens no distance, so only a pending state's closing child is
    gated by :func:`~repro.graph.paths.diameter_at_most`, before its key.
    Closing edges and the pendants of a cyclic state are keyed by
    :func:`~repro.graph.canonical.canonical_key`.

    A child whose join holds fewer rows than σ is dropped first, before
    any other check, key or join: support is at most the row count under
    every measure, and the tables hold every embedding, so every
    derivation of the child has the same rows and fails too.

    A child with ``max_edges`` edges is never extended, so it counts only
    when its diameter is within ``K``.  One that is not, and a pendant
    beyond the 2K margin, is dropped before its key; one edge below the
    budget a pending state scans closing edges only.  A pending child is
    also dropped before its key when no row of it maps every pair it holds
    more than K apart onto data vertices at most K apart: a pattern path
    maps onto a data walk as long, so nothing grown from it could come
    within K.  The check needs no join: the child's rows are the parent's
    rows and the op's join.  Data distances come from a depth-K BFS per
    data vertex, memoised for the query; a ball past LevelGrow's
    ``_VIABILITY_BFS_CAP`` counts as holding every vertex.
    ``docs/CORRECTNESS.md`` says why keeping these keys out of the registry
    changes no answer.  ``statistics`` counts every candidate where the
    driver decides it (``docs/OBSERVABILITY.md``).

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
        from repro.core.levelgrow import LevelGrowStatistics

        self._max_edges = max_edges
        self._max_patterns = max_patterns
        self._include_minimal = include_minimal
        # The query this instance serves, fixed by the first grow call.
        self._query: Optional[Tuple[MiningContext, int]] = None
        self._seen: Set[Hashable] = set()
        # Data vertices within K of a data vertex, by (graph index, vertex);
        # None past the cap.
        self._balls: Dict[Tuple[int, Hashable], Optional[Set[Hashable]]] = {}
        self._returned = 0
        self.statistics = LevelGrowStatistics()

    # ------------------------------------------------------------------ #
    # Stage 1: frequent single-edge patterns
    # ------------------------------------------------------------------ #
    def mine_minimal(self, context: MiningContext, parameter: Hashable) -> List[object]:
        from repro.core.levelgrow import edge_label_key
        from repro.graph.embeddings import Embedding

        by_shape: Dict[Tuple[str, str, Tuple[str, bool]], List] = {}
        labels_of: Dict[Tuple[str, str, Tuple[str, bool]], Tuple[object, object, object]] = {}
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
                    shape = (str(first), str(second), edge_label_key(edge.label))
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

        Per candidate the steps are: the row count, the budget, margin and
        repair drops, key, registry check, join, support, then emit, push,
        or both.  A pendant op on a tree state is keyed from the state's
        encodings, so only a new key pays for the join, and only a frequent
        child below the budget for the child's encodings and frontier entry.
        """
        from repro.core.diameter import canonical_diameter
        from repro.core.levelgrow import LevelGrower, scan_extensions
        from repro.graph.canonical import TreeEncodings
        from repro.graph.embeddings import EmbeddingTable
        from repro.graph.paths import diameter_at_most

        statistics = self.statistics
        seen = self._seen
        min_support = context.min_support
        max_edges = self._max_edges
        balls = self._balls
        cap = LevelGrower._VIABILITY_BFS_CAP

        def near(graph_index: int, vertex: Hashable, other: Hashable) -> bool:
            """Whether two data vertices may lie at most K apart (a ball past the cap says so)."""
            ball = balls.get((graph_index, vertex), False)
            if ball is False:
                adjacency = context.frozen_graph(graph_index).adjacency
                ball = balls[graph_index, vertex] = _ball(adjacency, vertex, bound, cap)
            return ball is None or other in ball

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
        # Frontier entries: (pattern, table, tree encodings or None, pending),
        # where a pending state's diameter lies in (K, 2K].
        frontier = [
            (
                graph,
                EmbeddingTable.from_embeddings(minimal.embeddings),
                encodings,
                not diameter_at_most(graph, bound),
            )
        ]
        while frontier:
            graph, table, encodings, pending = frontier.pop()
            size = graph.num_edges() + 1
            if max_edges is not None and size > max_edges:
                continue
            # Children at the budget are never extended: they count only
            # when they are within the bound.
            last = size == max_edges
            new_id = max(graph.vertices()) + 1
            # Every mapped vertex may sprout and every non-adjacent pair may
            # close, except that one edge below the budget a pending state
            # offers closing edges only: a pendant shortens no distance.
            position_of = table.position_of
            columns = [(vertex, position_of(vertex)) for vertex in sorted(table.columns)]
            sprouts = [] if last and pending else columns
            pairs = [
                ((u, v), position_u, position_v)
                for (u, position_u), (v, position_v) in combinations(columns, 2)
                if not graph.has_edge(u, v)
            ]
            # Pattern distances by one BFS per vertex that needs them: an
            # anchor of a cyclic state or of a pending child, or every
            # vertex of a pending state.
            distances: Dict[Hashable, Dict[Hashable, int]] = {}
            rows, graph_ids = table.rows, table.graph_ids
            # Per row of a pending state that may still grow: whether it
            # maps every pair the state holds more than K apart onto data
            # vertices at most K apart.
            rows_within: Optional[List[bool]] = None
            if pending and not last:
                far_pairs = [
                    (position_of(vertex), position_of(other))
                    for vertex in graph.vertices()
                    for other, distance in _distances(distances, graph, vertex).items()
                    if vertex < other and distance > bound
                ]
                rows_within = [
                    all(near(graph_index, row[p], row[q]) for p, q in far_pairs)
                    for graph_index, row in zip(graph_ids, rows)
                ]
            for anchor, other, label, edge_label, join in scan_extensions(
                context, table, sprouts, pairs, edge_labels=True
            ):
                statistics.candidates_generated += 1
                if len(join) < min_support:
                    statistics.candidates_rejected_support += 1
                    statistics.rejected_rows += 1
                    continue
                extended = None
                if other is None:
                    # A pendant leaves every distance between existing
                    # vertices as it was: the child's diameter is
                    # max(D, ecc(anchor) + 1), and D <= 2K here.
                    if encodings is not None:
                        far = max(encodings.d1[anchor], encodings.d2[anchor]) + 1
                    else:
                        far = max(_distances(distances, graph, anchor).values()) + 1
                    within = not pending and far <= bound
                else:
                    # A closing edge lengthens no distance: a valid state's
                    # child stays within the bound, a pending state's within
                    # the margin, so only the budget or the repair check
                    # below can drop it.
                    far = 0
                    extended = _with_edge(graph, anchor, other, new_id, label, edge_label)
                    within = not pending or diameter_at_most(extended, bound)
                if not within and (last or far > 2 * bound):
                    statistics.candidates_rejected_constraints += 1
                    if last:
                        statistics.rejected_budget += 1
                    else:
                        statistics.rejected_margin += 1
                    continue
                if not within:
                    # A descendant's embedding restricts to a row of this
                    # child, and a pattern path maps onto a data walk as
                    # long, so a reportable descendant needs a row that
                    # maps every pair the child holds more than K apart
                    # onto data vertices at most K apart.  A row maps the
                    # pairs within K in the child within K anyway, so only
                    # the parent's far pairs and a pendant's new ones are
                    # checked.
                    if other is None:
                        # The leaf is more than K from every vertex at
                        # least K from its anchor.
                        far_columns = [
                            position_of(vertex)
                            for vertex, distance in _distances(distances, graph, anchor).items()
                            if distance >= bound
                        ]
                        repairable = any(
                            (not pending or rows_within[row_index])
                            and all(
                                near(graph_ids[row_index], rows[row_index][p], image)
                                for p in far_columns
                            )
                            for row_index, image in join
                        )
                    else:
                        repairable = any(rows_within[row_index] for row_index in join)
                    if not repairable:
                        statistics.candidates_rejected_constraints += 1
                        statistics.rejected_unrepairable += 1
                        continue
                if extended is None and encodings is None:
                    extended = _with_edge(graph, anchor, None, new_id, label, edge_label)
                if extended is not None:
                    key = canonical_key(extended)
                else:
                    key, leaf = encodings.extended_key(anchor, new_id, label, edge_label)
                    statistics.canonical_incremental_hits += 1
                statistics.candidates_keyed += 1
                if key in seen:
                    statistics.candidates_rejected_duplicate += 1
                    continue
                seen.add(key)
                statistics.candidates_joined += 1
                extended_table = (
                    table.extended(new_id, join) if other is None else table.subset(join)
                )
                support = context.support_of_table(extended_table)
                if not context.is_frequent(support):
                    statistics.candidates_rejected_support += 1
                    continue
                if extended is None:
                    extended = _with_edge(graph, anchor, None, new_id, label, edge_label)
                if not last:
                    child = (
                        encodings.extend(leaf)
                        if encodings is not None and other is None
                        else None
                    )
                    frontier.append((extended, extended_table, child, not within))
                if within:
                    statistics.patterns_emitted += 1
                    yield SkinnyPattern(
                        extended,
                        canonical_diameter(extended),
                        extended_table.to_embeddings(),
                        support,
                    )
                else:
                    statistics.candidates_rejected_constraints += 1
                    statistics.candidates_pending += 1


def _distances(memo: Dict, graph: LabeledGraph, vertex: Hashable) -> Dict[Hashable, int]:
    """BFS distances in ``graph`` from ``vertex``, memoised in ``memo``."""
    found = memo.get(vertex)
    if found is None:
        found = memo[vertex] = bfs_distances(graph, vertex)
    return found


def _ball(adjacency, vertex: Hashable, bound: int, cap: int) -> Optional[Set[Hashable]]:
    """The data vertices at most ``bound`` from ``vertex``, or ``None`` past ``cap`` of them."""
    ball = {vertex}
    frontier = [vertex]
    for _ in range(bound):
        next_frontier = []
        for current in frontier:
            for neighbor in adjacency[current]:
                if neighbor not in ball:
                    ball.add(neighbor)
                    next_frontier.append(neighbor)
            if len(ball) > cap:
                return None
        frontier = next_frontier
    return ball


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
