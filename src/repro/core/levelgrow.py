"""LevelGrow — Stage II of SkinnyMine: constraint-preserving pattern growth.

Section 3.1 / Algorithm 3 of the paper.  Each canonical diameter mined by
DiamMine is grown level by level: iteration ``i`` adds only edges that either
attach a *new* i-level vertex to an (i-1)-level vertex, connect an existing
(i-1)-level vertex to an existing i-level vertex, or connect two existing
i-level vertices.  Every extension must preserve the canonical diameter
(Loop Invariant 1), which is checked locally through the
``D_H`` / ``D_T`` indices (:mod:`repro.core.constraints`), and must stay
frequent in the data.

Embedding maintenance is *incremental*: a pattern's occurrences live in a
columnar :class:`repro.graph.embeddings.EmbeddingTable`, and one adjacency
scan over that table both proposes the admissible extensions **and** records
each extension's join — the ``(row, data vertex)`` pairs (new twig vertex) or
surviving row indices (edge between mapped vertices) that realise it.
Applying an extension is then a pure join against the parent table; no
embedding is ever re-matched, no per-embedding dict or image set is built.

Duplicate elimination.  The canonical diameter already partitions the result
space into disjoint clusters (patterns sharing a diameter), so duplicates can
only arise *within* a cluster, from reaching the same pattern through
different edge-addition orders.  The paper orders extension edges and anchors
each pattern at its last added edge (gSpan style); this implementation keeps
the canonical ordering of candidate extensions but guarantees uniqueness with
an explicit per-cluster registry: a set of exact canonical keys
(:func:`repro.graph.canonical.canonical_key`, or the same key derived
incrementally for trees and unicyclic patterns).  That is simpler to reason
about and immune to corner cases in the anchor ordering when new twig
vertices are created dynamically.  The observable behaviour
(each pattern reported exactly once, only cluster-local candidates examined)
matches the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.constraints import (
    admissible_existing_edge,
    distances_after_existing_edge,
    new_vertex_distances,
    permanently_admissible_new_vertex,
)
from repro.core.database import MiningContext
from repro.core.patterns import GrowthState
from repro.graph.canonical import UnicyclicEncodings, canonical_key
from repro.graph.labeled_graph import LabeledGraph, VertexId
from repro.graph.paths import _farthest as _descriptor_farthest
from repro.graph.paths import sum_sweep_diameter


@dataclass(frozen=True)
class NewVertexExtension:
    """Attach a new vertex with ``label`` to pattern vertex ``parent``."""

    parent: VertexId
    label: str

    def sort_key(self) -> Tuple:
        return (0, self.parent, self.label)


@dataclass(frozen=True)
class ExistingEdgeExtension:
    """Add the pattern edge (u, v) between two existing vertices."""

    u: VertexId
    v: VertexId

    def sort_key(self) -> Tuple:
        return (1, min(self.u, self.v), max(self.u, self.v))


Extension = object  # union of the two dataclasses above


class _DuplicateChild:
    """Child recognised as a re-derivation before its state was built.

    Tree children carry an incrementally derived canonical key, so the
    duplicate registry can be peeked right after the support gate — before
    the pattern copy, distance-map copies and :class:`GrowthState`
    construction are paid for.  Only the support survives: it is exactly
    what the closed/maximal accounting (``credit`` in
    :meth:`LevelGrower.grow_level_full`) needs for a duplicate.  With that
    accounting switched off the peek runs before the embedding join and the
    support is ``None`` — nothing would ever read it.
    """

    __slots__ = ("support",)

    def __init__(self, support: Optional[int]) -> None:
        self.support = support

#: The join recorded for one candidate while scanning the embedding table:
#: ``(row index, data vertex)`` pairs for a new-vertex extension, or the
#: sorted surviving row indices for an edge between mapped vertices.
ExtensionJoin = Union[List[Tuple[int, VertexId]], List[int]]


@dataclass
class LevelGrowStatistics:
    """Counters exposed for the scalability experiments (Figures 16–18).

    ``candidates_pending`` counts candidates that violated Constraint I in a
    repairable way and entered the pending worklist (explored, not
    reported); they are *also* counted under
    ``candidates_rejected_constraints`` because, unless a later edge repairs
    them, they contribute nothing to the output.

    The emission-fast-path counters account for the incremental machinery:

    * ``canonical_incremental_hits`` — duplicate-registry keys served from
      the carried :class:`~repro.graph.canonical.TreeEncodings` (O(depth)
      derivation) instead of a batch AHU re-canonicalisation;
    * ``invariant_cache_hits`` — Loop-Invariant verdicts answered from the
      memoised diameter descriptor of an isomorphic pattern seen earlier
      (typically in another cluster that generated the same candidate);
    * ``probes_batched`` — pendant-viability probes resolved by a shared
      multi-source data-BFS frontier (counted only when the frontier served
      at least two probes) rather than a dedicated per-candidate walk.

    The ``*_seconds`` fields split Stage-2 wall-clock by phase —
    canonicalisation (key derivation + duplicate registry), verification
    (Loop-Invariant checks) and probing (pendant probes + pending-viability
    BFS) — and feed the CI perf-history gate, which bounds each phase's
    share independently of the total.
    """

    candidates_generated: int = 0
    candidates_rejected_constraints: int = 0
    candidates_rejected_support: int = 0
    candidates_rejected_duplicate: int = 0
    candidates_pending: int = 0
    patterns_emitted: int = 0
    canonical_incremental_hits: int = 0
    invariant_cache_hits: int = 0
    probes_batched: int = 0
    canonical_seconds: float = 0.0
    invariant_seconds: float = 0.0
    probe_seconds: float = 0.0

    def merge(self, other: "LevelGrowStatistics") -> None:
        self.candidates_generated += other.candidates_generated
        self.candidates_rejected_constraints += other.candidates_rejected_constraints
        self.candidates_rejected_support += other.candidates_rejected_support
        self.candidates_rejected_duplicate += other.candidates_rejected_duplicate
        self.candidates_pending += other.candidates_pending
        self.patterns_emitted += other.patterns_emitted
        self.canonical_incremental_hits += other.canonical_incremental_hits
        self.invariant_cache_hits += other.invariant_cache_hits
        self.probes_batched += other.probes_batched
        self.canonical_seconds += other.canonical_seconds
        self.invariant_seconds += other.invariant_seconds
        self.probe_seconds += other.probe_seconds

    def phase_seconds(self) -> Dict[str, float]:
        """Phase-name → accumulated seconds (the telemetry aggregate-span feed).

        The phase timers are accumulated inline per candidate (a method call
        per sample would be measurable on the emission hot path); this
        accessor is the read-side view the tracer turns into pre-timed
        ``stage2.phase.*`` spans.
        """
        return {
            "canonical": self.canonical_seconds,
            "invariant": self.invariant_seconds,
            "probe": self.probe_seconds,
        }

    def to_dict(self) -> Dict[str, object]:
        """Wire form for per-request stats (engine/service/CLI reporting)."""
        return {
            "candidates_generated": self.candidates_generated,
            "candidates_rejected_constraints": self.candidates_rejected_constraints,
            "candidates_rejected_support": self.candidates_rejected_support,
            "candidates_rejected_duplicate": self.candidates_rejected_duplicate,
            "candidates_pending": self.candidates_pending,
            "patterns_emitted": self.patterns_emitted,
            "canonical_incremental_hits": self.canonical_incremental_hits,
            "invariant_cache_hits": self.invariant_cache_hits,
            "probes_batched": self.probes_batched,
            "canonical_seconds": self.canonical_seconds,
            "invariant_seconds": self.invariant_seconds,
            "probe_seconds": self.probe_seconds,
        }


def _eccentricities(pattern: LabeledGraph) -> Dict[VertexId, int]:
    """Per-vertex eccentricity by BFS from every vertex (patterns are small)."""
    from collections import deque

    result: Dict[VertexId, int] = {}
    for source in pattern.vertices():
        distances = {source: 0}
        queue = deque([source])
        farthest = 0
        while queue:
            current = queue.popleft()
            for neighbor in pattern.neighbors(current):
                if neighbor not in distances:
                    distances[neighbor] = distances[current] + 1
                    farthest = distances[neighbor]
                    queue.append(neighbor)
        result[source] = farthest
    return result


def _deficient_vertices(state: GrowthState) -> Set[VertexId]:
    """Vertices keeping the state from being reportable.

    Untainted states only ever violate Constraint I at head/tail distances
    (the paper's induction); tainted states are judged by full eccentricity,
    since a repaired excursion can leave a twig-to-twig distance above D(P)
    with every head/tail distance in bounds.
    """
    limit = state.diameter_len
    if not state.tainted:
        return {
            vertex
            for vertex in state.levels
            if state.dist_head[vertex] > limit or state.dist_tail[vertex] > limit
        }
    return {
        vertex
        for vertex, eccentricity in _eccentricities(state.pattern).items()
        if eccentricity > limit
    }


def _total_deficiency(state: GrowthState) -> int:
    """Total distance excess over D(P) — 0 iff the state is reportable."""
    limit = state.diameter_len
    if not state.tainted:
        return sum(
            max(0, state.dist_head[vertex] - limit)
            + max(0, state.dist_tail[vertex] - limit)
            for vertex in state.levels
        )
    return sum(
        max(0, eccentricity - limit)
        for eccentricity in _eccentricities(state.pattern).values()
    )


def diameter_descriptor(
    pattern: LabeledGraph,
    seed_labels: Optional[Tuple[str, ...]] = None,
) -> Tuple[int, Tuple[str, ...]]:
    """The pattern's exact canonical-diameter descriptor.

    Returns ``(D, labels)`` where ``D`` is the graph diameter and ``labels``
    is the lexicographically smallest label sequence over every
    diameter-realising shortest path, both orientations considered.  Loop
    Invariant 1 holds for a growth state iff this descriptor equals
    ``(state.diameter_len, state.diameter_label_sequence())``: the stored
    diameter L occupies the smallest vertex ids, so the Definition-3 id
    tie-break favours it whenever the label sequences tie, and only a
    strictly smaller sequence (which would make ``labels`` differ) can
    dethrone it.  Constraint II keeps head and tail exactly D(P) apart
    through every extension, so the diameter-equality half of the old
    emission check is ``D == diameter_len`` here.

    Crucially the descriptor is a function of the *abstract pattern* alone —
    not of the cluster, the embedding table or the growth order — which is
    what makes memoising it by canonical key sound
    (:class:`DiameterDescriptorCache`).

    Per diameter-realising vertex pair the lex-min label sequence is built
    greedily layer by layer (O(D·deg) instead of enumerating paths), pruned
    against the best sequence found so far.  ``seed_labels`` may prime that
    pruning with a label sequence the caller knows to be *achievable* by
    some diameter-realising shortest path (the growth loop passes its stored
    L, achievable exactly when the diameter still equals D(P)): in the
    common all-pairs-tie case every pair then prunes within a layer or two,
    matching the cost of the historical compare-against-L check.  A seed
    never changes the result — it is ignored unless its length matches the
    diameter, and an achievable unbeaten seed *is* the lex-min.

    Phase 1 is SumSweep-style instead of all-pairs: the exact diameter
    comes from :func:`repro.graph.paths.sum_sweep_diameter` (double sweep +
    iFUB-style level processing, a handful of BFS), and full distance rows
    are then grown only from vertices that can still be diameter endpoints.
    With ``m`` a (double-sweep) midpoint and ``L(v) = d(m, v)``, the
    triangle inequality gives ``L(u) + L(v) ≥ d(u, v)``, so every
    diameter pair has an endpoint with ``L ≥ ⌈D/2⌉`` — rows start there,
    and each discovered far endpoint enqueues its partner's row so both
    orientations of every diameter pair are walked exactly as the all-pairs
    version did.
    """
    from collections import deque

    label_of = pattern.label_of
    neighbors = pattern.neighbors

    def bfs(source: VertexId) -> Dict[VertexId, int]:
        reached = {source: 0}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in neighbors(current):
                if neighbor not in reached:
                    reached[neighbor] = reached[current] + 1
                    queue.append(neighbor)
        return reached

    diameter = sum_sweep_diameter(pattern)

    # A midpoint of the double-sweep path keeps max L(v) near ⌈D/2⌉, which
    # makes the endpoint filter below as tight as one extra BFS can.
    start = next(iter(pattern.vertices()))
    sweep_a, _ = _descriptor_farthest(bfs(start))
    from_a = bfs(sweep_a)
    sweep_b, _ = _descriptor_farthest(from_a)
    parents: Dict[VertexId, Optional[VertexId]] = {sweep_a: None}
    queue = deque([sweep_a])
    while queue:
        current = queue.popleft()
        for neighbor in neighbors(current):
            if neighbor not in parents:
                parents[neighbor] = current
                queue.append(neighbor)
    path = [sweep_b]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    midpoint = path[len(path) // 2]
    layer = bfs(midpoint)
    threshold = (diameter + 1) // 2

    distances: Dict[VertexId, Dict[VertexId, int]] = {}
    worklist = [vertex for vertex in pattern.vertices() if layer[vertex] >= threshold]
    enqueued = set(worklist)
    best: Optional[List[str]] = None
    if seed_labels is not None and len(seed_labels) == diameter + 1:
        best = list(seed_labels)
    for source in worklist:
        row = distances.get(source)
        if row is None:
            row = distances[source] = bfs(source)
        for target, distance in row.items():
            if distance != diameter:
                continue
            if target not in enqueued:
                # The partner of a far pair may sit below the layer
                # threshold; its row still has to be walked so the reverse
                # orientation of the pair is considered.
                enqueued.add(target)
                worklist.append(target)
            if target not in distances:
                distances[target] = bfs(target)
            # Greedy lex-min over shortest source→target paths, pruned the
            # moment its prefix compares above the best sequence so far.
            sequence = [str(label_of(source))]
            tied = best is not None and sequence[0] == best[0]
            if best is not None and sequence[0] > best[0]:
                continue
            to_target = distances[target]
            frontier = {source}
            for position in range(1, diameter + 1):
                remaining = diameter - position
                step = {
                    neighbor
                    for vertex in frontier
                    for neighbor in neighbors(vertex)
                    if to_target.get(neighbor, -1) == remaining
                }
                label = min(str(label_of(vertex)) for vertex in step)
                if tied:
                    if label > best[position]:
                        sequence = None
                        break
                    if label < best[position]:
                        tied = False
                sequence.append(label)
                frontier = {v for v in step if str(label_of(v)) == label}
            if sequence is not None and (best is None or sequence < best):
                best = sequence
    assert best is not None  # every graph has at least one farthest pair
    return (diameter, tuple(best))


class DiameterDescriptorCache:
    """Cross-cluster memo: canonical key → :func:`diameter_descriptor`.

    The same candidate pattern is routinely *generated* in several clusters
    (each cluster whose diameter it contains proposes it; only the cluster
    owning its canonical diameter emits it, the rest reject it at the
    Loop-Invariant gate).  The descriptor is a function of the abstract
    pattern, so those repeated verifications can share one computation,
    keyed by the same exact canonical keys as the duplicate registries.  One
    cache is shared across all the clusters of a miner — and across
    requests, since verdicts never go stale (they depend on no data,
    threshold or measure).

    Long-lived owners (the engine, a service) would otherwise grow the memo
    for the process lifetime, so the dict is bounded: past ``max_entries``
    keys it is flushed wholesale.  Descriptors are cheap to recompute on a
    miss, and a flush only costs the cross-request warm-up, so the simple
    policy beats per-hit LRU bookkeeping on the emission hot path.
    """

    def __init__(self, max_entries: int = 500_000) -> None:
        self._max_entries = max_entries
        self._descriptors: Dict[Tuple, Tuple[int, Tuple[str, ...]]] = {}

    def lookup(self, key: Tuple) -> Optional[Tuple[int, Tuple[str, ...]]]:
        return self._descriptors.get(key)

    def store(self, key: Tuple, descriptor: Tuple[int, Tuple[str, ...]]) -> None:
        if len(self._descriptors) >= self._max_entries:
            self._descriptors.clear()
        self._descriptors[key] = descriptor


@dataclass
class LevelGrowth:
    """What one ``grow_level`` pass produced.

    ``emitted`` are the reportable results: frequent, novel, and satisfying
    the full constraint.  ``pending`` are frequent intermediates that
    violate only Constraint I (a vertex temporarily further than D(P) from
    the head or tail); they must not be reported but must stay on the
    caller's frontier — an edge of a later growth level can still repair
    them (that is how 4-cycles and other edge-closed patterns, whose every
    one-edge-short sub-pattern violates the constraint, are reached).
    """

    emitted: List[GrowthState]
    pending: List[GrowthState]


class LevelGrower:
    """Grows patterns one level at a time (Algorithm 3).

    One ``LevelGrower`` is created per canonical-diameter cluster; it owns the
    cluster's duplicate registry so the same pattern is never emitted twice
    even across level iterations.
    """

    def __init__(
        self,
        context: MiningContext,
        max_patterns: Optional[int] = None,
        descriptor_cache: Optional[DiameterDescriptorCache] = None,
        child_accounting: bool = True,
    ) -> None:
        self._context = context
        self._max_patterns = max_patterns
        # The per-state accepted/equal-support child counters exist solely
        # for the closed/maximal filters.  When the caller runs neither
        # filter it can switch the accounting off, which lets the duplicate
        # fast path classify a re-derived tree child from its incremental
        # canonical key alone — before the embedding join its support (the
        # only thing the accounting consumes) would be computed by.
        self._child_accounting = child_accounting
        # Canonical keys of the patterns explored so far: reportable ones,
        # and pending intermediates (see grow_level_full).
        self._registry: Set[Tuple] = set()
        self._pending_registry: Set[Tuple] = set()
        # (graph_index, diameter-image tuple) -> data distance to the nearest
        # diameter image, for data vertices within the growth horizon.  The
        # diameter images of a row never change within a cluster, so this is
        # computed once per distinct root row (see _pending_viable).
        self._diameter_ball_cache: Dict[Tuple, Dict[VertexId, int]] = {}
        # Memoised pendant-probe verdicts (see _pendant_probe_viable).
        self._probe_cache: Dict[Tuple, bool] = {}
        # Loop-Invariant verdicts are derived from memoised diameter
        # descriptors; the caller (the skinny constraint driver) passes one
        # cache shared across its clusters so a candidate generated in
        # several clusters verifies once.
        self._descriptor_cache = (
            descriptor_cache if descriptor_cache is not None else DiameterDescriptorCache()
        )
        self.statistics = LevelGrowStatistics()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def register(self, state: GrowthState) -> None:
        """Record a pattern (typically the bare diameter) in the duplicate registry."""
        self._registry.add(self._canonical_key(state))

    def grow_level(self, state: GrowthState, level: int) -> List[GrowthState]:
        """The reportable patterns of :meth:`grow_level_full` (compatibility view).

        Callers that drive a multi-level growth loop should use
        :meth:`grow_level_full` and keep the pending states on their
        frontier; this wrapper discards them.
        """
        return self.grow_level_full(state, level).emitted

    def grow_level_full(
        self, state: GrowthState, level: int, max_level: Optional[int] = None
    ) -> LevelGrowth:
        """All frequent patterns reachable from ``state`` by adding one or
        more edges of iteration ``level``, split into reportable results and
        constraint-pending intermediates.

        Mirrors Algorithm 3 with one completeness repair: a worklist of
        patterns is repeatedly extended by admissible edges until no new
        pattern appears, but candidates that violate only Constraint I
        (repairable — a later edge can shrink the offending distances) stay
        on the worklist as *pending* instead of being cut, provided every
        over-distance vertex still has a conceivable repair
        (:meth:`_pending_viable`).  Only states satisfying the full
        constraint are emitted; per-cluster duplicate registries guarantee
        each pattern (valid or pending) is explored once.  Without this, any
        pattern whose every one-edge-short sub-pattern has a too-long
        diameter — the frequent 4-cycle of the ROADMAP repro, for instance —
        is unreachable.

        ``max_level`` is the growth horizon δ when the caller knows it;
        pending viability uses it to rule out repairs that would need
        vertices of a level that will never be grown (``None`` = no horizon,
        fully conservative).
        """
        if level < 1:
            raise ValueError("growth levels start at 1")
        results: List[GrowthState] = []
        pending: List[GrowthState] = []
        if state.deficiency and not self._pending_viable(state, level, max_level):
            # A pending state carried over from an earlier level whose
            # remaining repairs are no longer proposable at this level.
            return LevelGrowth(results, pending)
        def deficient_of(grow_state: GrowthState) -> Set[VertexId]:
            """Memoised on the state object — ``id()``-keyed caches are unsafe
            here (ids are reused once rejected candidates are collected).
            """
            if not grow_state.deficiency:
                return set()
            memo = getattr(grow_state, "_deficient_memo", None)
            if memo is None:
                memo = _deficient_vertices(grow_state)
                grow_state._deficient_memo = memo
            return memo

        worklist: List[GrowthState] = [state]
        while worklist:
            current = worklist.pop()
            current_deficient = deficient_of(current)
            extensions = self._candidate_extensions(current, level)
            # One shared data-BFS frontier answers every sibling pendant
            # probe of this state (cache-filling pre-pass); the per-candidate
            # checks below then hit the cache.
            self._batch_pendant_probes(
                current, extensions, level, max_level, current_deficient
            )
            for extension, join in extensions:
                if current_deficient and not self._relevant_while_pending(
                    current, current_deficient, extension
                ):
                    # From a pending state only deficiency-relevant structure
                    # may grow; everything else commutes past the repair (it
                    # can be added later, from the repaired valid state), so
                    # skipping it here loses nothing and stops the pending
                    # space from multiplying with every unrelated extension.
                    continue
                self.statistics.candidates_generated += 1
                distances = None
                if isinstance(extension, NewVertexExtension):
                    distances = new_vertex_distances(current, extension.parent)
                    dist_head, dist_tail = distances
                    limit = current.diameter_len
                    if (
                        dist_head > limit or dist_tail > limit
                    ) and not self._pendant_probe_viable(
                        current, extension.parent, join, level, max_level
                    ):
                        # Constraint-I violation with no conceivable repair:
                        # reject before paying for the embedding join.
                        self.statistics.candidates_rejected_constraints += 1
                        continue
                extended = self._apply_extension(
                    current, extension, join, level, distances
                )
                if extended is None:
                    continue
                if type(extended) is _DuplicateChild:
                    # The incremental tree key pinned this child as a
                    # re-derivation before its state was built; only the
                    # closed/maximal accounting remains to be done (its
                    # support is None exactly when that accounting is off).
                    if extended.support is not None:
                        credited = (
                            current
                            if not current.deficiency
                            else (current.origin or current)
                        )
                        credited.accepted_children += 1
                        if extended.support >= credited.support:
                            credited.equal_support_children += 1
                    self.statistics.candidates_rejected_duplicate += 1
                    continue
                if (
                    current_deficient
                    and isinstance(extension, ExistingEdgeExtension)
                    and extension.u not in current_deficient
                    and extension.v not in current_deficient
                    and extended.deficiency >= current.deficiency
                ):
                    # Edge between valid vertices that did not advance any
                    # repair: defer it to the valid state (commutes).
                    continue
                if extended.deficiency:
                    # Repairable violation: explore (never report) while a
                    # repair is still conceivable; drop otherwise.
                    self.statistics.candidates_rejected_constraints += 1
                    if not self._pending_viable(
                        extended, level, max_level,
                        deficient_set=deficient_of(extended),
                    ):
                        continue
                    self.statistics.candidates_pending += 1
                    # Pending states remember their nearest reportable
                    # ancestor: patterns emitted out of the excursion are
                    # that ancestor's super-patterns.
                    extended.origin = current.origin if current.deficiency else current
                    if self._add_if_new(
                        self._pending_registry, self._canonical_key(extended)
                    ):
                        pending.append(extended)
                        worklist.append(extended)
                    continue
                # Credit the child to the state it will be reported against:
                # the pending intermediates between them are never emitted,
                # so the closed/maximal accounting must reach through to the
                # reportable ancestor.
                credited = (
                    current if not current.deficiency else (current.origin or current)
                )
                key = self._canonical_key(extended)
                if not self._add_if_new(self._registry, key):
                    self.statistics.candidates_rejected_duplicate += 1
                    credited.accepted_children += 1
                    if extended.support >= credited.support:
                        credited.equal_support_children += 1
                    continue
                if not self._holds_loop_invariant(
                    extended, key, parent_state=current, extension=extension
                ):
                    # The pattern's true canonical diameter is some other
                    # (smaller-label) length-D(P) path: the pattern belongs
                    # to — and, when it satisfies the constraint at all, is
                    # emitted by — that diameter's own cluster.  The
                    # per-edge Constraint III checks cannot see this case
                    # when the competing path connects two twigs rather
                    # than the head and tail.  Checked after the registry so
                    # each distinct pattern pays for it once (re-derivations
                    # fall out at the duplicate gate above); no child credit
                    # — the pattern is not reportable from this cluster.
                    self.statistics.candidates_rejected_constraints += 1
                    continue
                extended.invariant_verified = True
                credited.accepted_children += 1
                if extended.support >= credited.support:
                    credited.equal_support_children += 1
                self.statistics.patterns_emitted += 1
                results.append(extended)
                worklist.append(extended)
                if self._max_patterns is not None and len(self._registry) > self._max_patterns:
                    return LevelGrowth(results, pending)
        return LevelGrowth(results, pending)

    # ------------------------------------------------------------------ #
    # canonical keys and the emission-time invariant
    # ------------------------------------------------------------------ #
    def _canonical_key(self, state: GrowthState) -> Tuple:
        """The exact canonical key of the state's pattern.

        Tree-shaped and unicyclic states carry encodings
        (:class:`~repro.graph.canonical.TreeEncodings`,
        :class:`~repro.graph.canonical.UnicyclicEncodings`) derived
        incrementally along the growth chain, so their key is an attribute
        read (counted as ``canonical_incremental_hits``).  States without
        encodings — patterns of cycle rank >= 2, or externally built states
        — take :func:`~repro.graph.canonical.canonical_key`.  The caller
        computes the key once and hands it to the duplicate registry and
        the Loop-Invariant check.
        """
        started = time.perf_counter()
        encodings = state.tree_encodings or state.cycle_encodings
        if encodings is not None:
            key = encodings.key
            self.statistics.canonical_incremental_hits += 1
        else:
            key = canonical_key(state.pattern)
        self.statistics.canonical_seconds += time.perf_counter() - started
        return key

    def _add_if_new(self, registry: Set[Tuple], key: Tuple) -> bool:
        """Register ``key``; True iff no pattern with this key was seen."""
        started = time.perf_counter()
        new = key not in registry
        if new:
            registry.add(key)
        self.statistics.canonical_seconds += time.perf_counter() - started
        return new

    def _holds_loop_invariant(
        self,
        state: GrowthState,
        key: Optional[Tuple] = None,
        parent_state: Optional[GrowthState] = None,
        extension: Optional["Extension"] = None,
    ) -> bool:
        """Loop Invariant 1 verified exactly before every emission.

        The per-edge Constraints I–III are *local*: they bound distances to
        the head and tail and inspect head–tail paths through the new edge.
        They miss two global cases — a twig-to-twig distance exceeding D(P)
        after a pending repair, and a twig-to-twig *diameter path* with a
        label sequence smaller than L (possible even along never-pending
        growth; found by the randomized cross-check suite).  Both fall out
        of one exact comparison: the pattern's
        :func:`diameter_descriptor` — its true diameter and the lex-smallest
        label sequence over diameter-realising shortest paths — must equal
        the stored ``(D(P), L)``.  Patterns failing it either violate the
        constraint outright or belong to another cluster, which emits them
        itself.

        The descriptor depends only on the abstract pattern, so verdicts are
        memoised in the shared :class:`DiameterDescriptorCache` under the
        same canonical keys the duplicate registry uses: a candidate that
        several clusters generate is verified once
        (``invariant_cache_hits``), and memoisation can never revive a
        closed soundness gap because a cached descriptor decides each
        cluster's comparison against *its own* stored diameter.
        """
        started = time.perf_counter()
        if key is None:
            key = self._canonical_key(state)
        cache = self._descriptor_cache
        expected = (state.diameter_len, state.diameter_label_sequence())
        descriptor = cache.lookup(key)
        holds: Optional[bool] = None
        if descriptor is not None:
            self.statistics.invariant_cache_hits += 1
            holds = descriptor == expected
        elif (
            parent_state is not None
            and parent_state.invariant_verified
            and isinstance(extension, NewVertexExtension)
        ):
            # Incremental verification: a pendant changes no existing
            # distance, so with the parent verified only the pairs involving
            # the new vertex can break the invariant.  A True verdict pins
            # the descriptor to the stored (D(P), L) exactly.
            holds = self._pendant_invariant_holds(state)
            if holds:
                cache.store(key, expected)
        if holds is None:
            # The stored L seeds the lex-min pruning; it is achievable
            # whenever the pattern's diameter still equals D(P) (L is then a
            # diameter-realising shortest head–tail path) and is ignored by
            # length otherwise, so the descriptor stays exact and cacheable.
            descriptor = diameter_descriptor(state.pattern, seed_labels=expected[1])
            cache.store(key, descriptor)
            holds = descriptor == expected
        self.statistics.invariant_seconds += time.perf_counter() - started
        return holds

    @staticmethod
    def _pendant_invariant_holds(state: GrowthState) -> bool:
        """Exact Loop-Invariant verdict for a pendant child of a verified parent.

        The parent's verification established that its diameter equals D(P)
        and no diameter-realising path beats L.  Attaching a degree-1 vertex
        ``u`` leaves every existing distance untouched, so the child can fail
        only through ``u``: either ``ecc(u) > D(P)``, or some pair ``(u, x)``
        at distance exactly D(P) carries a label sequence below L in one of
        its orientations.  One BFS from ``u`` (plus one per far pair, which
        are rare) decides this — instead of the all-pairs descriptor scan.
        """
        from collections import deque

        pattern = state.pattern
        limit = state.diameter_len
        neighbors = pattern.neighbors
        # Pendant ids are assigned by next_vertex_id (monotonically
        # increasing), so the newly attached vertex carries the largest id.
        pendant = max(state.levels)

        # Tree states carry diametral-endpoint distance maps in their
        # incremental encodings, and in a tree every vertex's eccentricity
        # is realised at an endpoint of any fixed diametral pair — so the
        # pendant's eccentricity is two dict reads.  Only ecc == D(P) needs
        # the BFS below (far pairs exist and their label sequences must be
        # compared against L); ecc decides the verdict outright otherwise.
        encodings = state.tree_encodings
        if encodings is not None:
            eccentricity = max(encodings.d1[pendant], encodings.d2[pendant])
            if eccentricity > limit:
                return False
            if eccentricity < limit:
                return True

        def distances_from(source: VertexId) -> Dict[VertexId, int]:
            reached = {source: 0}
            queue = deque([source])
            while queue:
                current = queue.popleft()
                for neighbor in neighbors(current):
                    if neighbor not in reached:
                        reached[neighbor] = reached[current] + 1
                        queue.append(neighbor)
            return reached

        from_pendant = distances_from(pendant)
        if max(from_pendant.values()) > limit:
            return False  # the pendant stretched the diameter beyond D(P)
        diameter_labels = state.diameter_label_sequence()
        label_of = pattern.label_of

        def beats(source: VertexId, to_target: Dict[VertexId, int]) -> bool:
            """Lex-min label sequence of shortest source→target paths < L?"""
            first = str(label_of(source))
            if first > diameter_labels[0]:
                return False
            if first < diameter_labels[0]:
                return True
            frontier = {source}
            for position in range(1, limit + 1):
                remaining = limit - position
                step = {
                    neighbor
                    for vertex in frontier
                    for neighbor in neighbors(vertex)
                    if to_target.get(neighbor, -1) == remaining
                }
                best = min(str(label_of(vertex)) for vertex in step)
                expected = diameter_labels[position]
                if best > expected:
                    return False
                if best < expected:
                    return True
                frontier = {v for v in step if str(label_of(v)) == best}
            return False  # equal to L: the id tie-break keeps L canonical

        for far_vertex, distance in from_pendant.items():
            if distance != limit:
                continue
            if beats(far_vertex, from_pendant):
                return False
            if beats(pendant, distances_from(far_vertex)):
                return False
        return True

    @staticmethod
    def _relevant_while_pending(
        state: GrowthState, deficient: Set[VertexId], extension: "Extension"
    ) -> bool:
        """Pre-application filter for extensions of a pending state.

        A new vertex matters only if it hangs off a deficient vertex or ends
        up deficient itself (a potential repair partner — a pendant can never
        *reduce* anyone's distance); its pendency is decided by its own
        distances, computable without applying.  An existing edge matters if
        it touches a deficient vertex; edges between valid vertices get a
        second, post-application chance in the caller (they can still repair
        transitively by shrinking a neighbour's distance).
        """
        if isinstance(extension, NewVertexExtension):
            if extension.parent in deficient:
                return True
            dist_head, dist_tail = new_vertex_distances(state, extension.parent)
            limit = state.diameter_len
            return dist_head > limit or dist_tail > limit
        return True

    # ------------------------------------------------------------------ #
    # pending viability
    # ------------------------------------------------------------------ #
    #: Visiting more data vertices than this during one viability BFS makes
    #: the check give up and answer True (it must stay conservative).
    _VIABILITY_BFS_CAP = 512

    def _pending_viable(
        self,
        state: GrowthState,
        level: int,
        max_level: Optional[int],
        deficient_set: Optional[Set[VertexId]] = None,
    ) -> bool:
        """Whether every over-distance vertex of a pending state can still be repaired.

        The check is conservative (it never rules out a genuinely repairable
        state) but prunes the combinatorial noise that would otherwise make
        relaxed growth explode: a pendant hanging off the head with nothing
        in the data to close a cycle through it can never come back within
        D(P) of the tail, so every pattern containing it is dead weight.

        A deficient vertex ``d`` is judged per violated distance (head/tail)
        by a bounded BFS in the *data* graph, one embedding row at a time:
        starting from ``d``'s image, walk through unmapped data vertices
        (the images of potential future repair-partner vertices) until a
        mapped vertex ``y`` is reached.  Walking ``k`` unmapped vertices and
        landing on ``y`` models the repair path ``d – w₁ – … – w_k – y``, so
        the violated distance could become ``eff(y) + k + 1``, where
        ``eff(y)`` is ``y``'s current distance — or, when ``y`` is itself
        deficient, its level (an optimistic but sound lower bound, since
        mutual repairs like the two arms of an 8-cycle bottom out at their
        levels).  The state is viable for ``d`` iff some row yields
        ``eff(y) + k + 1 ≤ D(P)`` under the side conditions that the repair
        edges are still proposable: a direct partner (``k = 0``) needs
        ``|level(y) − level(d)| ≤ 1`` and ``max(level(y), level(d)) ==
        level`` (that edge class's iteration is now), and any future partner
        (``k ≥ 1``) needs ``level(d) + 1 ≥ level`` and a level budget below
        the growth horizon.  Deficient vertices with a repair-marked
        deficient pattern-neighbour are marked transitively (distance
        relaxation propagates along existing edges).  The BFS visits at most
        ``_VIABILITY_BFS_CAP`` vertices per row; on overflow it answers True.
        """
        started = time.perf_counter()
        limit = state.diameter_len
        levels = state.levels
        if deficient_set is None:
            deficient_set = _deficient_vertices(state)
        if not deficient_set:
            self.statistics.probe_seconds += time.perf_counter() - started
            return True
        table = state.table
        pattern = state.pattern
        horizon = max_level if max_level is not None else level + limit

        def effective(dist_map: Dict[VertexId, int], y: VertexId) -> int:
            if y in deficient_set:
                return min(dist_map[y], levels[y])
            return dist_map[y]

        def diameter_ball(graph_index: int, row: Tuple[VertexId, ...]) -> Dict[VertexId, int]:
            return self._diameter_ball(graph_index, row, limit, horizon)

        def row_repairable(d: VertexId, dist_map: Dict[VertexId, int]) -> bool:
            position = table.position_of(d)
            future_ok = levels[d] + 1 >= level and min(levels[d] + 1, horizon) >= level

            def depth0_accept(y: VertexId) -> bool:
                return (
                    not pattern.has_edge(d, y)
                    and abs(levels[y] - levels[d]) <= 1
                    and max(levels[y], levels[d]) == level
                )

            for graph_index, row in zip(table.graph_ids, table.rows):
                if self._repair_bfs(
                    graph_index=graph_index,
                    row=row,
                    columns=table.columns,
                    start=row[position],
                    exclude=d,
                    limit=limit,
                    ball=diameter_ball(graph_index, row),
                    horizon=horizon,
                    future_ok=future_ok,
                    depth0_accept=depth0_accept,
                    target_value=lambda y: effective(dist_map, y),
                ):
                    return True
            return False

        def directly_repairable(d: VertexId) -> bool:
            if state.dist_head[d] > limit and not row_repairable(d, state.dist_head):
                return False
            if state.dist_tail[d] > limit and not row_repairable(d, state.dist_tail):
                return False
            return True

        marked = {d for d in deficient_set if directly_repairable(d)}
        changed = True
        while changed:
            changed = False
            for d in deficient_set:
                if d in marked:
                    continue
                if any(
                    neighbor in marked
                    for neighbor in pattern.neighbors(d)
                    if neighbor in deficient_set
                ):
                    marked.add(d)
                    changed = True
        self.statistics.probe_seconds += time.perf_counter() - started
        return len(marked) == len(deficient_set)

    def _batch_pendant_probes(
        self,
        state: GrowthState,
        extensions: Sequence[Tuple["Extension", "ExtensionJoin"]],
        level: int,
        max_level: Optional[int],
        deficient: Optional[Set[VertexId]] = None,
    ) -> None:
        """Answer the state's pendant-viability probes with shared BFS frontiers.

        :meth:`_pendant_probe_viable` models each probe as a data-BFS from
        one would-be pendant image toward one row's diameter images.  Sibling
        extensions of the same state ask many such probes against the *same*
        terminal set and ball — every row of a cluster shares its root's
        diameter images — so this pre-pass groups the uncached probes by
        ``(graph, diameter images, side)`` and answers each group with one
        multi-source BFS (:meth:`_probe_bfs_batch`) whose frontier carries a
        per-source bitmask.  Results land in ``_probe_cache`` under exactly
        the keys the per-candidate check reads, so verdicts are identical to
        the dedicated walks they replace; ``probes_batched`` counts probes
        that shared a frontier with at least one other.
        """
        started = time.perf_counter()
        limit = state.diameter_len
        levels = state.levels
        horizon = max_level if max_level is not None else level + limit
        table = state.table
        prefixes = table.prefixes(limit + 1)
        graph_ids = table.graph_ids
        cache = self._probe_cache
        # (graph_index, diameter_images, side) -> ordered distinct sources.
        groups: Dict[Tuple[int, Tuple[VertexId, ...], int], Dict[VertexId, None]] = {}
        for extension, join in extensions:
            if not isinstance(extension, NewVertexExtension):
                break  # candidate ordering puts all new-vertex extensions first
            if deficient and not self._relevant_while_pending(
                state, deficient, extension
            ):
                # The growth loop skips this extension outright on a pending
                # state; probing for it would be work the solo path never did.
                continue
            parent = extension.parent
            pendant_head, pendant_tail = new_vertex_distances(state, parent)
            if pendant_head <= limit and pendant_tail <= limit:
                continue
            deficient_parent = (
                state.dist_head[parent] > limit or state.dist_tail[parent] > limit
            )
            if deficient_parent and levels[parent] + 2 <= limit:
                continue  # the transitive shortcut answers without probing
            for side, pendant_distance in ((0, pendant_head), (1, pendant_tail)):
                if pendant_distance <= limit:
                    continue
                needed: List[Tuple[int, Tuple[VertexId, ...], VertexId]] = []
                satisfied = False
                for row_index, data_vertex in join:
                    graph_index = graph_ids[row_index]
                    diameter_images = prefixes[row_index]
                    cached = cache.get(
                        (graph_index, data_vertex, side, level, diameter_images)
                    )
                    if cached:
                        satisfied = True
                        break
                    if cached is None:
                        needed.append((graph_index, diameter_images, data_vertex))
                if satisfied:
                    continue
                for graph_index, diameter_images, data_vertex in needed:
                    groups.setdefault(
                        (graph_index, diameter_images, side), {}
                    ).setdefault(data_vertex)
        for (graph_index, diameter_images, side), sources in groups.items():
            starts = list(sources)
            results = self._probe_bfs_batch(
                graph_index, starts, side, level, limit, horizon, diameter_images
            )
            if len(starts) >= 2:
                self.statistics.probes_batched += len(starts)
            for data_vertex, verdict in results.items():
                cache[
                    (graph_index, data_vertex, side, level, diameter_images)
                ] = verdict
        self.statistics.probe_seconds += time.perf_counter() - started

    def _probe_bfs_batch(
        self,
        graph_index: int,
        starts: Sequence[VertexId],
        side: int,
        level: int,
        limit: int,
        horizon: int,
        diameter_images: Tuple[VertexId, ...],
    ) -> Dict[VertexId, bool]:
        """Multi-source variant of :meth:`_probe_bfs`, one frontier per group.

        Each source owns one bit; a vertex's visited mask records which
        sources have reached it, so bit ``b`` propagates to exactly the
        vertices the solo BFS from ``starts[b]`` would visit, layer for
        layer.  Per-source visit counts reproduce the solo
        ``_VIABILITY_BFS_CAP`` give-up (conservative True), and sources
        resolve out of the frontier as soon as a terminal answers them — the
        shared frontier only merges work, never changes a verdict.
        """
        graph = self._context.frozen_graph(graph_index)
        ball = self._diameter_ball(graph_index, diameter_images, limit, horizon)
        terminal = {image: position for position, image in enumerate(diameter_images)}
        bit_of = {vertex: 1 << index for index, vertex in enumerate(starts)}
        full = (1 << len(starts)) - 1
        counts = [1] * len(starts)  # each solo BFS counts its start as visited
        resolved = 0  # sources answered True (terminal reached or cap give-up)
        visited: Dict[VertexId, int] = dict(bit_of)
        frontier: Dict[VertexId, int] = dict(bit_of)
        cap = self._VIABILITY_BFS_CAP
        depth = 0
        while frontier and depth + 1 <= limit and resolved != full:
            next_frontier: Dict[VertexId, int] = {}
            for data_vertex, mask in frontier.items():
                mask &= ~resolved
                if not mask:
                    continue
                for neighbor in graph.neighbors(data_vertex):
                    if neighbor in terminal:
                        if depth == 0 and level > 1:
                            # A direct pendant–diameter edge spans levels
                            # (level, 0); only iteration 1 proposes those.
                            continue
                        position = terminal[neighbor]
                        distance = position if side == 0 else limit - position
                        if distance + depth + 1 <= limit:
                            resolved |= mask
                            break
                    else:
                        fresh = mask & ~visited.get(neighbor, 0)
                        if fresh:
                            visited[neighbor] = visited.get(neighbor, 0) | fresh
                            # Per-source cap bookkeeping (bit iteration; the
                            # masks are a handful of bits in practice).
                            bits = fresh
                            while bits:
                                low = bits & -bits
                                bits ^= low
                                source_index = low.bit_length() - 1
                                counts[source_index] += 1
                                if counts[source_index] > cap:
                                    resolved |= low  # give up conservatively
                            fresh &= ~resolved
                            if fresh and ball.get(neighbor, horizon + 1) <= horizon:
                                next_frontier[neighbor] = (
                                    next_frontier.get(neighbor, 0) | fresh
                                )
            frontier = next_frontier
            depth += 1
        return {
            vertex: bool(resolved & bit) for vertex, bit in bit_of.items()
        }

    def _pendant_probe_viable(
        self,
        state: GrowthState,
        parent: VertexId,
        join_pairs: Sequence[Tuple[int, VertexId]],
        level: int,
        max_level: Optional[int],
    ) -> bool:
        """Cheap pre-join viability of a Constraint-I-violating pendant.

        Decides, *before* paying for the embedding join, whether a new
        vertex whose pendant distances exceed D(P) could conceivably be
        repaired.  The probe is a data-graph BFS from the pendant's would-be
        image whose only terminals are the row's *diameter* images: reaching
        the image of diameter position ``p`` after walking ``k``
        intermediate vertices models a repair path of length ``k + 1`` onto
        the diameter, giving the pendant a conceivable head distance of
        ``p + k + 1`` (tail: ``(D(P) − p) + k + 1``).  Twig vertices need no
        special treatment: a repair through a (current or future) twig is a
        walk through its image, and its distance contribution is exactly the
        walked length.  Because the model depends only on the data graph,
        the diameter images and the pendant image, results are memoised per
        cluster (``_probe_cache``) — sibling states share everything the
        probe looks at.

        Rejecting here reproduces the original cheap-first ordering of the
        constraint checks for the overwhelmingly common case of an endpoint
        twig with no cycle through it in the data.
        """
        started = time.perf_counter()
        limit = state.diameter_len
        levels = state.levels
        horizon = max_level if max_level is not None else level + limit
        pendant_head, pendant_tail = new_vertex_distances(state, parent)
        table = state.table
        prefixes = table.prefixes(limit + 1)
        deficient_parent = (
            state.dist_head[parent] > limit or state.dist_tail[parent] > limit
        )

        result = True
        for side, pendant_distance in ((0, pendant_head), (1, pendant_tail)):
            if pendant_distance <= limit:
                continue
            # Transitive shortcut: a deficient parent that gets repaired
            # down to its level drags the pendant along.
            if deficient_parent and levels[parent] + 2 <= limit:
                continue
            satisfied = False
            for row_index, data_vertex in join_pairs:
                graph_index = table.graph_ids[row_index]
                diameter_images = prefixes[row_index]
                key = (graph_index, data_vertex, side, level, diameter_images)
                cached = self._probe_cache.get(key)
                if cached is None:
                    cached = self._probe_bfs(
                        graph_index, data_vertex, side, level, limit, horizon,
                        diameter_images,
                    )
                    self._probe_cache[key] = cached
                if cached:
                    satisfied = True
                    break
            if not satisfied:
                result = False
                break
        self.statistics.probe_seconds += time.perf_counter() - started
        return result

    def _probe_bfs(
        self,
        graph_index: int,
        start: VertexId,
        side: int,
        level: int,
        limit: int,
        horizon: int,
        diameter_images: Tuple[VertexId, ...],
    ) -> bool:
        """BFS core of :meth:`_pendant_probe_viable` (terminals = diameter images)."""
        graph = self._context.frozen_graph(graph_index)
        ball = self._diameter_ball(graph_index, diameter_images, limit, horizon)
        terminal = {image: position for position, image in enumerate(diameter_images)}
        visited = {start}
        frontier = [start]
        depth = 0
        while frontier and depth + 1 <= limit:
            next_frontier = []
            for data_vertex in frontier:
                for neighbor in graph.neighbors(data_vertex):
                    if neighbor in terminal:
                        if depth == 0 and level > 1:
                            # A direct pendant–diameter edge spans levels
                            # (level, 0); only iteration 1 proposes those.
                            continue
                        position = terminal[neighbor]
                        distance = position if side == 0 else limit - position
                        if distance + depth + 1 <= limit:
                            return True
                    elif neighbor not in visited:
                        visited.add(neighbor)
                        if len(visited) > self._VIABILITY_BFS_CAP:
                            return True  # give up conservatively
                        if ball.get(neighbor, horizon + 1) <= horizon:
                            next_frontier.append(neighbor)
            frontier = next_frontier
            depth += 1
        return False

    def _diameter_ball(
        self, graph_index: int, row: Tuple[VertexId, ...], limit: int, horizon: int
    ) -> Dict[VertexId, int]:
        """Data distance to the row's diameter images, up to the horizon.

        A future repair-partner vertex ``w`` has pattern level
        ``dist(w, L) ≥`` the data distance of its image to the diameter
        images, so unmapped vertices outside this ball can never be grown at
        all and must not be walked through.  Cached per distinct diameter
        image tuple — every state of a cluster shares its root's diameter
        images, so in practice this is computed once or twice per cluster.
        """
        key = (graph_index, horizon) + tuple(row[: limit + 1])
        cached = self._diameter_ball_cache.get(key)
        if cached is not None:
            return cached
        graph = self._context.frozen_graph(graph_index)
        distances = {row[position]: 0 for position in range(limit + 1)}
        frontier = list(distances)
        depth = 0
        while frontier and depth < horizon:
            depth += 1
            next_frontier = []
            for vertex in frontier:
                for neighbor in graph.neighbors(vertex):
                    if neighbor not in distances:
                        distances[neighbor] = depth
                        next_frontier.append(neighbor)
            frontier = next_frontier
        self._diameter_ball_cache[key] = distances
        return distances

    def _repair_bfs(
        self,
        graph_index: int,
        row: Tuple[VertexId, ...],
        columns: Sequence[VertexId],
        start: VertexId,
        exclude: Optional[VertexId],
        limit: int,
        ball: Dict[VertexId, int],
        horizon: int,
        future_ok: bool,
        depth0_accept,
        target_value,
    ) -> bool:
        """Layered BFS from ``start`` through unmapped data vertices.

        Landing on the image of a mapped pattern vertex ``y`` after walking
        ``depth`` unmapped vertices models the repair path
        ``d – w₁ – … – w_depth – y``; the search succeeds as soon as
        ``target_value(y) + depth + 1 ≤ limit`` for an admissible ``y``
        (``depth0_accept`` gates direct partners; ``future_ok`` gates paths
        through future vertices).  Unmapped vertices are only traversed
        while inside ``ball`` (level feasibility) and the search gives up —
        conservatively answering True — past ``_VIABILITY_BFS_CAP`` visits.
        """
        graph = self._context.frozen_graph(graph_index)
        mapped = {vertex: idx for idx, vertex in enumerate(row)}
        visited = {start}
        frontier = [start]
        depth = 0
        while frontier and depth + 1 <= limit:
            next_frontier = []
            for data_vertex in frontier:
                for neighbor in graph.neighbors(data_vertex):
                    if neighbor in mapped:
                        y = columns[mapped[neighbor]]
                        if y == exclude:
                            continue
                        if depth == 0:
                            if not depth0_accept(y):
                                continue
                        elif not future_ok:
                            continue
                        if target_value(y) + depth + 1 <= limit:
                            return True
                    elif neighbor not in visited:
                        visited.add(neighbor)
                        if len(visited) > self._VIABILITY_BFS_CAP:
                            return True  # give up conservatively
                        if ball.get(neighbor, horizon + 1) <= horizon:
                            next_frontier.append(neighbor)
            frontier = next_frontier
            depth += 1
        return False

    # ------------------------------------------------------------------ #
    # candidate generation
    # ------------------------------------------------------------------ #
    def _candidate_extensions(
        self, state: GrowthState, level: int
    ) -> List[Tuple[Extension, ExtensionJoin]]:
        """Extensions allowed at iteration ``level`` with their embedding joins.

        One pass over the embedding table's adjacency both proposes every
        extension that occurs somewhere in the data (pattern-growth style —
        this is what makes the search cluster-local) and records, per
        extension, which rows realise it; applying the extension later joins
        on exactly those deltas instead of re-scanning the table.

        The scan runs against the frozen CSR views of the data
        (:meth:`~repro.core.database.MiningContext.frozen_graph`): per-vertex
        sorted neighbour tuples and palette-cached label strings replace the
        dict-of-sets walk and the per-neighbour ``str(label_of(...))`` calls
        of the mutable graphs — this loop visits every data edge incident to
        every embedding image and dominates Stage-2 candidate generation.
        """
        pattern = state.pattern
        levels = state.levels
        table = state.table
        context = self._context
        # Pendant extensions can only hang off level-1 vertices; edge
        # extensions close a pair whose deeper endpoint sits at ``level``.
        parents = [
            (vertex, table.position_of(vertex))
            for vertex, lvl in levels.items()
            if lvl == level - 1
        ]
        currents = [
            (vertex, table.position_of(vertex))
            for vertex, lvl in levels.items()
            if lvl == level
        ]
        has_edge = pattern.has_edge
        # Edge-closing candidates are a property of the *pattern*, not the
        # data: enumerate the handful of admissible vertex pairs once, then
        # probe each row's images directly against the data adjacency.  This
        # keeps the per-row neighbour walk (the Stage-2 hot loop) to the
        # level-1 vertices that can actually sprout a pendant.
        pairs: List[Tuple[Tuple[VertexId, VertexId], int, int]] = []
        for u, pos_u in parents:
            for v, pos_v in currents:
                if not has_edge(u, v):
                    pairs.append(((u, v), pos_u, pos_v))
        for i, (u, pos_u) in enumerate(currents):
            for v, pos_v in currents[i + 1 :]:
                if not has_edge(u, v):
                    key = (u, v) if u < v else (v, u)
                    pairs.append((key, pos_u, pos_v))

        new_vertex_joins: Dict[Tuple[VertexId, str], List[Tuple[int, VertexId]]] = {}
        edge_joins: Dict[Tuple[VertexId, VertexId], Set[int]] = {}

        last_graph_index = -1
        labeled_adjacency: Dict[VertexId, Tuple[Tuple[VertexId, str], ...]] = {}
        adjacency: Dict[VertexId, Tuple[VertexId, ...]] = {}
        for row_index, (graph_index, row) in enumerate(
            zip(table.graph_ids, table.rows)
        ):
            if graph_index != last_graph_index:
                frozen = context.frozen_graph(graph_index)
                labeled_adjacency = frozen.labeled_adjacency
                adjacency = frozen.adjacency
                last_graph_index = graph_index
            # Embeddings are injective, so a neighbour already used by the
            # row can never be a pendant image: one set membership per visit.
            row_set = set(row)
            for parent, parent_position in parents:
                # The pre-zipped runs carry each neighbour's label string
                # (needed for the extension key) without a per-visit probe.
                for neighbor, neighbor_label in labeled_adjacency[row[parent_position]]:
                    if neighbor not in row_set:
                        key = (parent, neighbor_label)
                        join = new_vertex_joins.get(key)
                        if join is None:
                            join = new_vertex_joins[key] = []
                        join.append((row_index, neighbor))
            for key, pos_u, pos_v in pairs:
                # Sorted runs stay short in skinny data; linear membership
                # beats a bisect call at these degrees.
                if row[pos_v] in adjacency[row[pos_u]]:
                    rows = edge_joins.get(key)
                    if rows is None:
                        rows = edge_joins[key] = set()
                    rows.add(row_index)

        ordered: List[Tuple[Extension, ExtensionJoin]] = [
            (NewVertexExtension(parent, label), new_vertex_joins[(parent, label)])
            for parent, label in sorted(new_vertex_joins)
        ]
        ordered.extend(
            (ExistingEdgeExtension(u, v), sorted(edge_joins[(u, v)]))
            for u, v in sorted(edge_joins, key=lambda uv: (min(uv), max(uv)))
        )
        return ordered

    # ------------------------------------------------------------------ #
    # extension application
    # ------------------------------------------------------------------ #
    def _apply_extension(
        self,
        state: GrowthState,
        extension: Extension,
        join: ExtensionJoin,
        level: int,
        distances: Optional[Tuple[int, int]] = None,
    ) -> Optional[Union[GrowthState, _DuplicateChild]]:
        if isinstance(extension, NewVertexExtension):
            return self._apply_new_vertex(state, extension, join, level, distances)
        if isinstance(extension, ExistingEdgeExtension):
            return self._apply_existing_edge(state, extension, join)
        raise TypeError(f"unknown extension type: {extension!r}")

    def _apply_new_vertex(
        self,
        state: GrowthState,
        extension: NewVertexExtension,
        join_pairs: Sequence[Tuple[int, VertexId]],
        level: int,
        distances: Optional[Tuple[int, int]] = None,
    ) -> Optional[Union[GrowthState, _DuplicateChild]]:
        new_vertex = state.next_vertex_id()
        if distances is None:
            distances = new_vertex_distances(state, extension.parent)
        dist_head, dist_tail = distances
        limit = state.diameter_len
        pendant_excess = max(0, dist_head - limit) + max(0, dist_tail - limit)

        # A pendant changes neither the shape tier nor the 2-core: derive
        # the child's canonical key from the parent's carried AHU encodings
        # (tree or unicyclic) in O(depth) instead of re-canonicalising from
        # scratch.  Having the key this early lets
        # the duplicate registry be peeked before *anything* per-candidate
        # is paid for — the admissibility BFS, the embedding join, the
        # pattern copy and the state construction: on the never-tainted path
        # the child is known to reach the main registry with deficiency 0,
        # so a key hit short-circuits to the duplicate branch (a registered
        # pattern has already been explored once, whatever gate this
        # re-derivation would have failed).  The peek uses
        # :meth:`TreeEncodings.extended_key`, which overlays the re-encoded
        # attach→root path on the parent's encodings without the dict copies
        # a full ``extend`` performs — a duplicate costs one key derivation
        # and one set probe.  With child accounting on, the peek instead
        # waits for the join so the credited support stays available.
        encodings = None
        carried = state.tree_encodings or state.cycle_encodings
        peekable = (
            carried is not None
            and not state.tainted
            and pendant_excess == 0
        )
        if peekable and not self._child_accounting:
            started = time.perf_counter()
            peek_key = carried.extended_key(
                extension.parent, new_vertex, extension.label
            )
            duplicate = peek_key in self._registry
            self.statistics.canonical_seconds += time.perf_counter() - started
            if duplicate:
                self.statistics.canonical_incremental_hits += 1
                return _DuplicateChild(None)

        # Constraint I is NOT checked here: a pendant landing beyond D(P) is
        # repairable by a later edge, so grow_level_full keeps such states as
        # pending.  Only the permanent Constraints II/III reject outright.
        if not permanently_admissible_new_vertex(state, extension.parent, extension.label):
            self.statistics.candidates_rejected_constraints += 1
            return None

        table = state.table.extended(new_vertex, join_pairs)
        if not table.graph_ids:
            self.statistics.candidates_rejected_support += 1
            return None

        # The support measures read only the table, so the frequency gate
        # runs before the per-candidate pattern copy is paid for.
        support = self._context.support_of_table(table)
        if not self._context.is_frequent(support):
            self.statistics.candidates_rejected_support += 1
            return None

        if carried is not None and encodings is None:
            started = time.perf_counter()
            encodings = carried.extend(
                extension.parent, new_vertex, extension.label
            )
            if peekable and encodings.key in self._registry:
                self.statistics.canonical_incremental_hits += 1
                self.statistics.canonical_seconds += time.perf_counter() - started
                return _DuplicateChild(support)
            self.statistics.canonical_seconds += time.perf_counter() - started

        pattern = state.pattern.copy()
        pattern.add_vertex(new_vertex, extension.label)
        pattern.add_edge(extension.parent, new_vertex)

        levels = dict(state.levels)
        levels[new_vertex] = level
        new_dist_head = dict(state.dist_head)
        new_dist_tail = dict(state.dist_tail)
        new_dist_head[new_vertex] = dist_head
        new_dist_tail[new_vertex] = dist_tail
        extended = GrowthState(
            pattern=pattern,
            diameter_len=state.diameter_len,
            levels=levels,
            dist_head=new_dist_head,
            dist_tail=new_dist_tail,
            table=table,
            support=support,
            last_extension=("new", extension.parent, extension.label),
            tainted=state.tainted or pendant_excess > 0,
        )
        # Along the never-pending fast path a pendant changes no existing
        # distance, so the excess stays 0 in O(1); tainted states pay the
        # exact eccentricity-based accounting.
        extended.deficiency = (
            _total_deficiency(extended) if extended.tainted else 0
        )
        # A pendant can never lie on (or shorten) a path between existing
        # vertices, so every Constraint-III prefix enumerated for this state
        # stays exact in the child: hand the memo down by shallow copy (a
        # shared reference would leak entries across sibling branches that
        # reuse the same next_vertex_id for different attachments).
        memo = getattr(state, "_constraint_three_memo", None)
        if memo:
            extended._constraint_three_memo = dict(memo)
        # The diameter path (vertices 0..D) and its labels are fixed for the
        # whole derivation; hand the cached label tuple to the child instead
        # of rebuilding it at the next constraint check.
        labels = getattr(state, "_diameter_labels", None)
        if labels is not None:
            extended._diameter_labels = labels
        if state.cycle_encodings is not None:
            extended.cycle_encodings = encodings
        else:
            extended.tree_encodings = encodings
        return extended

    def _apply_existing_edge(
        self,
        state: GrowthState,
        extension: ExistingEdgeExtension,
        join_rows: Sequence[int],
    ) -> Optional[GrowthState]:
        u, v = extension.u, extension.v
        if not admissible_existing_edge(state, u, v):
            self.statistics.candidates_rejected_constraints += 1
            return None

        table = state.table.subset(join_rows)
        if not table.graph_ids:
            self.statistics.candidates_rejected_support += 1
            return None

        support = self._context.support_of_table(table)
        if not self._context.is_frequent(support):
            self.statistics.candidates_rejected_support += 1
            return None
        pattern = state.pattern.copy()
        pattern.add_edge(u, v)

        carrier = GrowthState(
            pattern=pattern,
            diameter_len=state.diameter_len,
            levels=dict(state.levels),
            dist_head=dict(state.dist_head),
            dist_tail=dict(state.dist_tail),
            table=table,
            support=support,
            last_extension=("edge", u, v),
            tainted=state.tainted,
        )
        dist_head, dist_tail = distances_after_existing_edge(carrier, u, v)
        carrier.dist_head = dist_head
        carrier.dist_tail = dist_tail
        # Relaxation can shrink many distances at once; recompute (edges
        # between existing vertices are rare relative to pendant candidates).
        carrier.deficiency = _total_deficiency(carrier)
        labels = getattr(state, "_diameter_labels", None)
        if labels is not None:
            carrier._diameter_labels = labels
        # The closing edge leaves the tree tier.  When it lands on the
        # unicyclic tier, seed the carried hanging-tree encodings: the cycle
        # is now fixed for the whole derivation chain, so every pendant
        # descendant keys incrementally (and peeks the duplicate registry)
        # instead of re-running the batch unicyclic canonicalisation.  The
        # batch build here is net-neutral — _canonical_key would otherwise
        # compute the same key from scratch for this very state.
        if pattern.num_edges() == pattern.num_vertices():
            started = time.perf_counter()
            carrier.cycle_encodings = UnicyclicEncodings.from_graph(pattern)
            self.statistics.canonical_seconds += time.perf_counter() - started
        return carrier
