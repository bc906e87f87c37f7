"""Pattern objects: mined results and in-flight growth states.

Two classes live here:

* :class:`SkinnyPattern` — an element of the mining *result*: the pattern
  graph, its canonical diameter, its embeddings and support.  This is what
  :class:`repro.core.skinnymine.SkinnyMine` returns and what the benchmark
  harness consumes.
* :class:`GrowthState` — the state LevelGrow carries while growing a pattern:
  the pattern graph, the (fixed) canonical diameter occupying pattern
  vertices ``0 .. l``, the per-vertex level and the two distance indices
  ``D_H`` / ``D_T`` of Section 3.4, plus the live embedding list.

Pattern-vertex numbering convention: the canonical diameter is always the
path ``0 - 1 - ... - l`` with head ``v_H = 0`` and tail ``v_T = l``; twig
vertices are numbered ``l + 1, l + 2, ...`` in creation order.  Keeping the
diameter on the smallest ids makes the paper's Definition-3 tie-break (prefer
smaller physical ids) favour the stored diameter automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.orders import canonical_label_orientation
from repro.graph.canonical import TreeEncodings, UnicyclicEncodings, canonical_key
from repro.graph.embeddings import Embedding, EmbeddingTable, LazyEmbeddings
from repro.graph.labeled_graph import LabeledGraph, VertexId


@dataclass(frozen=True)
class PathPattern:
    """A frequent simple path produced by DiamMine (a future canonical diameter).

    ``labels`` is the canonical orientation of the path's label sequence
    (Definition 2/3); ``embeddings`` are (graph index, data-vertex tuple)
    pairs oriented to match ``labels``.
    """

    labels: Tuple[str, ...]
    embeddings: Tuple[Tuple[int, Tuple[VertexId, ...]], ...]
    support: int

    @property
    def length(self) -> int:
        """Number of edges of the path."""
        return len(self.labels) - 1

    def to_graph(self) -> LabeledGraph:
        """Materialise the path as a pattern graph on vertices ``0 .. length``."""
        graph = LabeledGraph(name=f"diameter-{self.length}")
        for position, label in enumerate(self.labels):
            graph.add_vertex(position, label)
            if position > 0:
                graph.add_edge(position - 1, position)
        return graph

    def to_embedding_objects(self) -> List[Embedding]:
        """Embeddings as :class:`repro.graph.embeddings.Embedding` objects."""
        result = []
        for graph_index, vertices in self.embeddings:
            mapping = {position: vertex for position, vertex in enumerate(vertices)}
            result.append(Embedding.from_dict(mapping, graph_index))
        return result


@dataclass
class SkinnyPattern:
    """One mined l-long δ-skinny pattern."""

    graph: LabeledGraph
    diameter: List[VertexId]
    #: Legacy wire format: a sequence of :class:`Embedding` objects.  The
    #: growth engine supplies a lazily materialised
    #: :class:`repro.graph.embeddings.LazyEmbeddings` view; plain lists are
    #: equally valid (the store codec and tests build them directly).
    embeddings: Sequence[Embedding]
    support: int

    @property
    def diameter_length(self) -> int:
        return len(self.diameter) - 1

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices()

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges()

    @property
    def skinniness(self) -> int:
        """Maximum vertex level of the pattern (lazy, recomputed from the graph)."""
        from repro.core.diameter import vertex_levels

        levels = vertex_levels(self.graph, self.diameter)
        return max(levels.values())

    def canonical_form(self) -> Tuple:
        """A hashable key equal for isomorphic patterns."""
        return canonical_key(self.graph)

    def diameter_labels(self) -> Tuple[str, ...]:
        return tuple(str(self.graph.label_of(vertex)) for vertex in self.diameter)

    def __repr__(self) -> str:
        return (
            f"<SkinnyPattern |V|={self.num_vertices} |E|={self.num_edges} "
            f"l={self.diameter_length} support={self.support}>"
        )


@dataclass
class GrowthState:
    """The in-flight state of one pattern during LevelGrow.

    Attributes
    ----------
    pattern:
        The pattern graph.  Vertices ``0 .. diameter_len`` are the canonical
        diameter; larger ids are twig vertices.
    diameter_len:
        l = |L|, which equals the pattern's diameter D(P) throughout growth
        (Loop Invariant 1).
    levels:
        ``Dist(v, L)`` for every pattern vertex.
    dist_head / dist_tail:
        The two indices ``D^u_H`` / ``D^u_T`` of Section 3.4: shortest
        distance from each pattern vertex to the head (vertex 0) and tail
        (vertex ``diameter_len``) of the diameter.
    table:
        Current embeddings of the pattern in the data, held as a columnar
        :class:`repro.graph.embeddings.EmbeddingTable`; the legacy
        ``embeddings`` view materialises :class:`Embedding` objects on
        demand (results and the store codec keep that wire format).
    support:
        Support of the pattern under the context's measure.
    """

    pattern: LabeledGraph
    diameter_len: int
    levels: Dict[VertexId, int]
    dist_head: Dict[VertexId, int]
    dist_tail: Dict[VertexId, int]
    table: EmbeddingTable
    support: int
    last_extension: Optional[Tuple] = None
    # Total distance excess over D(P): 0 iff the state is reportable, > 0
    # for pending intermediates.  For never-pending states this is the
    # head/tail excess (O(1) to maintain; the paper's induction guarantees
    # head/tail distances bound the diameter along valid-only growth).  For
    # tainted states (see below) it is the eccentricity excess
    # Σ_v max(0, ecc(v) − D(P)), because once the induction is broken a
    # twig-to-twig distance can exceed D(P) while every head/tail distance
    # is fine.  Maintained by LevelGrower.
    deficiency: int = 0
    # True iff the state or any ancestor violated Constraint I (entered the
    # pending flow).  Tainted states pay the exact eccentricity-based
    # deficiency; untainted ones keep the cheap head/tail bookkeeping.
    tainted: bool = False
    # True once this state passed the emission-time Loop-Invariant check (or
    # is the bare canonical diameter, which realises L trivially).  A pendant
    # extension of a verified state changes no existing distance, so its own
    # check reduces to the pairs involving the new vertex — the growth
    # loop's incremental verification path (see LevelGrower).
    invariant_verified: bool = False
    # Carried rooted AHU encodings while the pattern is still a tree (the
    # overwhelmingly common case for grown skinny patterns): the duplicate
    # registry's canonical key is then derived from the parent's encodings in
    # O(depth) per pendant extension instead of re-canonicalising the whole
    # tree (see repro.graph.canonical.TreeEncodings).  ``None`` once a
    # cycle-closing edge lands (those patterns carry ``cycle_encodings`` or
    # take the batch ``canonical_key``) or when an incremental derivation was
    # not possible.  Runtime-only: never serialised, shared by reference
    # across copies (immutable).
    tree_encodings: Optional[TreeEncodings] = None
    # The unicyclic counterpart, carried once a cycle-closing edge lands
    # (|E| = |V|): the single cycle is fixed for the rest of the derivation
    # chain — pendant growth never changes the 2-core, and a second closing
    # edge leaves the unicyclic tier — so the registry key is derived from
    # the parent's hanging-tree encodings in O(depth + cycle) per pendant
    # extension (see repro.graph.canonical.UnicyclicEncodings).  ``None``
    # for trees, for >=2-cycle patterns, and when an incremental derivation
    # was not possible.  Runtime-only, shared by reference (immutable).
    cycle_encodings: Optional["UnicyclicEncodings"] = None
    # For pending states: the nearest *reportable* ancestor.  Emissions
    # reached through a pending excursion are super-patterns of that
    # ancestor, so the closed/maximal child accounting must credit it (the
    # pending intermediates themselves are never reported).  None for
    # reportable states.
    origin: Optional["GrowthState"] = None
    # Growth accounting filled in by LevelGrower: how many accepted (frequent,
    # constraint-preserving, non-duplicate) extensions this state has, and how
    # many of them kept the same support.  Used for the maximal / closed
    # output filters (Algorithm 3 reports closed patterns).
    accepted_children: int = 0
    equal_support_children: int = 0

    @property
    def embeddings(self) -> List[Embedding]:
        """Legacy view: the table's rows as :class:`Embedding` objects."""
        return self.table.to_embeddings()

    @property
    def head(self) -> VertexId:
        return 0

    @property
    def tail(self) -> VertexId:
        return self.diameter_len

    @property
    def diameter_vertices(self) -> List[VertexId]:
        return list(range(self.diameter_len + 1))

    def max_level(self) -> int:
        return max(self.levels.values()) if self.levels else 0

    def next_vertex_id(self) -> VertexId:
        # Read once per candidate of this state; keyed on the vertex count so
        # in-place pattern growth (test helpers) invalidates the cache.
        order = self.pattern.num_vertices()
        cached = getattr(self, "_next_vertex_id", None)
        if cached is None or cached[0] != order:
            cached = (order, max(self.pattern.vertices()) + 1)
            self._next_vertex_id = cached
        return cached[1]

    def vertices_at_level(self, level: int) -> List[VertexId]:
        return [vertex for vertex, lvl in self.levels.items() if lvl == level]

    def diameter_label_sequence(self) -> Tuple[str, ...]:
        # Hot in the constraint checks; the diameter's labels never change
        # after construction, so the tuple is built once per state.
        cached = getattr(self, "_diameter_labels", None)
        if cached is None:
            cached = tuple(
                str(self.pattern.label_of(vertex)) for vertex in self.diameter_vertices
            )
            self._diameter_labels = cached
        return cached

    def copy(self) -> "GrowthState":
        return GrowthState(
            pattern=self.pattern.copy(),
            diameter_len=self.diameter_len,
            levels=dict(self.levels),
            dist_head=dict(self.dist_head),
            dist_tail=dict(self.dist_tail),
            table=self.table.copy(),
            support=self.support,
            last_extension=self.last_extension,
            invariant_verified=self.invariant_verified,
            tree_encodings=self.tree_encodings,
            cycle_encodings=self.cycle_encodings,
            deficiency=self.deficiency,
            tainted=self.tainted,
            origin=self.origin,
        )

    def to_pattern(self) -> SkinnyPattern:
        """Freeze the state into a result object (legacy embedding wire format).

        The embeddings ride along as a :class:`LazyEmbeddings` view: results
        are frozen inside the timed growth loop, but their ``Embedding``
        objects are only ever read afterwards (serialisation, analysis), so
        the per-pattern materialisation is deferred to first access.  The
        graph is shared by reference for the same reason: growth never
        mutates an emitted state's pattern (every extension path copies it
        first), and result consumers only read.
        """
        return SkinnyPattern(
            graph=self.pattern,
            diameter=self.diameter_vertices,
            embeddings=LazyEmbeddings(self.table),
            support=self.support,
        )

    def __repr__(self) -> str:
        return (
            f"<GrowthState |V|={self.pattern.num_vertices()} "
            f"|E|={self.pattern.num_edges()} l={self.diameter_len} "
            f"support={self.support}>"
        )


def initial_state_from_path(path: PathPattern) -> GrowthState:
    """Build the level-0 growth state from a DiamMine path (iteration 0 of Stage II).

    The path's orientation must already be canonical: when the path's label
    sequence is not palindromic, its forward reading must be the smaller one,
    which :class:`PathPattern` guarantees by construction.

    When the label sequence *is* palindromic, every undirected occurrence is
    two distinct embeddings (the reversal maps the path onto itself), and the
    growth table must hold both rows: extensions join against table rows, so
    a twig that hangs off only one end of a data occurrence is reachable from
    only one orientation.  Dropping the mirror rows silently loses those
    joins — one of the LevelGrow completeness gaps closed in
    ``docs/CORRECTNESS.md``.
    """
    if path.labels != canonical_label_orientation(path.labels):
        raise ValueError("PathPattern labels must be in canonical orientation")
    graph = path.to_graph()
    length = path.length
    levels = {vertex: 0 for vertex in range(length + 1)}
    dist_head = {vertex: vertex for vertex in range(length + 1)}
    dist_tail = {vertex: length - vertex for vertex in range(length + 1)}
    occurrences = list(path.embeddings)
    if path.labels == tuple(reversed(path.labels)):
        seen = set(occurrences)
        for graph_index, vertices in path.embeddings:
            mirrored = (graph_index, tuple(reversed(vertices)))
            if mirrored not in seen:
                seen.add(mirrored)
                occurrences.append(mirrored)
    table = EmbeddingTable.from_path_occurrences(occurrences, length)
    support = path.support
    return GrowthState(
        pattern=graph,
        diameter_len=length,
        levels=levels,
        dist_head=dist_head,
        dist_tail=dist_tail,
        table=table,
        support=support,
        # The bare canonical diameter realises L as its own lex-min diameter
        # path (the canonical orientation is the smaller reading), so Loop
        # Invariant 1 holds by construction.
        invariant_verified=True,
        # Seed the incremental canonical-key fast path: every pendant
        # extension derives its key from these encodings in O(depth).
        tree_encodings=TreeEncodings.from_tree(graph),
    )
