"""Frozen CSR (compressed sparse row) views of labeled graphs.

The mining engines read the *data* graphs millions of times per query and
never write them between deltas: every candidate extension scans a
neighbourhood, every pendant probe runs a BFS, every frequency check hashes
data-vertex ids.  :class:`~repro.graph.labeled_graph.LabeledGraph` is the
right structure for *patterns* (they mutate on every growth step) but pays
dict-of-sets overhead on every data access.

:class:`CSRGraph` is the immutable array-backed counterpart: vertex records
live in flat :mod:`array` columns, adjacency is the classic
``indptr``/``indices`` pair, and labels are interned through a
:class:`LabelPalette` into dense integer codes.  It mirrors the read API of
``LabeledGraph`` exactly — ``neighbors`` / ``degree`` / ``has_edge`` /
``label_of`` / ``edges`` / ``connected_components`` and friends all behave
identically — so engine code is written once against the shared surface.
Mutators raise :class:`FrozenGraphError`; updates go through
``MiningContext.apply_delta`` on the mutable originals, which then
invalidates the frozen views (see ``docs/DATA_PLANE.md``).

Vertex ids are **preserved**, never renumbered: embeddings, stored results
and content hashes all reference data-vertex ids, so a frozen view must be
observationally identical to the graph it mirrors.  When the ids already
form ``0..n-1`` (every generated dataset does this) the id↔slot mapping is
the identity and costs nothing.

Examples
--------
>>> from repro.graph.labeled_graph import build_graph
>>> g = build_graph({0: "a", 1: "b", 2: "a"}, [(0, 1), (1, 2)])
>>> frozen = CSRGraph.from_labeled(g)
>>> frozen.num_vertices(), frozen.num_edges()
(3, 2)
>>> frozen.label_of(1)
'b'
>>> frozen.neighbors(1)
(0, 2)
>>> frozen.has_edge(0, 2)
False
>>> sorted(frozen.to_labeled().vertices()) == sorted(g.vertices())
True
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from repro.graph.labeled_graph import Edge, Label, LabeledGraph, VertexId


class FrozenGraphError(TypeError):
    """Raised when a mutating operation is attempted on a :class:`CSRGraph`."""


class LabelPalette:
    """Interns labels into dense integer codes.

    A data graph uses a handful of distinct labels across many vertices;
    comparing and hashing interned codes is cheaper than hashing arbitrary
    label objects, and the palette also caches each label's ``str`` form —
    the representation the growth engine keys extensions by — so hot loops
    never call ``str()`` per neighbour.

    Examples
    --------
    >>> palette = LabelPalette()
    >>> palette.intern("a"), palette.intern("b"), palette.intern("a")
    (0, 1, 0)
    >>> palette.label_of(1)
    'b'
    >>> palette.str_of(0)
    'a'
    >>> len(palette)
    2
    >>> "a" in palette, "z" in palette
    (True, False)
    """

    __slots__ = ("_codes", "_labels", "_strs")

    def __init__(self) -> None:
        self._codes: Dict[Label, int] = {}
        self._labels: List[Label] = []
        self._strs: List[str] = []

    def intern(self, label: Label) -> int:
        """Return the dense code for ``label``, allocating one if new."""
        code = self._codes.get(label)
        if code is None:
            code = len(self._labels)
            self._codes[label] = code
            self._labels.append(label)
            self._strs.append(str(label))
        return code

    def code_of(self, label: Label) -> int:
        """Code of an already-interned label (``KeyError`` if unknown)."""
        return self._codes[label]

    def label_of(self, code: int) -> Label:
        """The original label object for ``code``."""
        return self._labels[code]

    def str_of(self, code: int) -> str:
        """Cached ``str(label)`` for ``code``."""
        return self._strs[code]

    def labels(self) -> Tuple[Label, ...]:
        """All interned labels, in code order."""
        return tuple(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._codes


def _mutation_stub(name: str):
    def stub(self, *args, **kwargs):
        raise FrozenGraphError(
            f"CSRGraph is immutable: {name}() is not supported. "
            "Apply deltas to the mutable LabeledGraph (e.g. through "
            "MiningContext.apply_delta) and re-freeze."
        )

    stub.__name__ = name
    stub.__doc__ = "Unsupported on a frozen view: raises :class:`FrozenGraphError`."
    return stub


class CSRGraph:
    """An immutable, array-backed, vertex-labeled undirected graph.

    The canonical storage is four flat columns (see ``docs/DATA_PLANE.md``):

    * ``indptr`` — ``n + 1`` offsets; vertex slot ``i``'s neighbour run is
      ``indices[indptr[i]:indptr[i + 1]]``;
    * ``indices`` — ``2m`` neighbour *slots*, each run sorted by vertex id;
    * ``label_codes`` — one palette code per vertex slot;
    * ``edge_label_codes`` — optional, aligned with ``indices`` (``-1`` =
      unlabeled); omitted entirely when the graph has no edge labels.

    On top of the arrays two derived read caches make pure-Python iteration
    cheap: ``adjacency`` maps each vertex id to a sorted tuple of neighbour
    ids, and ``label_strs`` maps each vertex id to the cached ``str`` form
    of its label.  Both are plain dicts exposed as public attributes — the
    hot loops of the growth engine read them directly — and both are
    derived from (never authoritative over) the arrays.  The freeze builds
    both, and nothing else walks every vertex afterwards: a query that
    reads a few neighbourhoods pays for those, not for the whole graph.

    The read API matches :class:`~repro.graph.labeled_graph.LabeledGraph`;
    ``neighbors`` returns a sorted tuple instead of a live set, which every
    caller treats as read-only anyway.  All mutators raise
    :class:`FrozenGraphError`.

    Examples
    --------
    >>> from repro.graph.labeled_graph import build_graph
    >>> g = build_graph({0: "a", 1: "b", 2: "a", 3: "c"},
    ...                 [(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> frozen = CSRGraph.from_labeled(g)
    >>> frozen.degree(1)
    2
    >>> sorted(frozen.labels_used())
    ['a', 'b', 'c']
    >>> frozen.label_histogram() == {"a": 2, "b": 1, "c": 1}
    True
    >>> frozen.is_connected()
    True
    >>> frozen.add_vertex(9, "z")  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    FrozenGraphError: CSRGraph is immutable: add_vertex() is not supported.
    """

    __slots__ = (
        "name",
        "indptr",
        "indices",
        "label_codes",
        "edge_label_codes",
        "palette",
        "edge_palette",
        "adjacency",
        "label_strs",
        "_vertex_ids",
        "_slot_of",
        "_labels",
        "_edge_labels",
        "_num_edges",
    )

    def __init__(self) -> None:
        raise TypeError("use CSRGraph.from_labeled() to build a frozen view")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_labeled(
        cls, graph: LabeledGraph, palette: Optional[LabelPalette] = None
    ) -> "CSRGraph":
        """Freeze ``graph`` into a CSR view (the only constructor).

        ``palette`` lets several transactions of one database share a label
        palette, so a label's code is stable across the whole context.
        Vertex ids are preserved verbatim; slots are assigned in sorted-id
        order so the layout is a pure function of graph content.
        """
        self = object.__new__(cls)
        self.name = graph.name
        self.palette = palette if palette is not None else LabelPalette()

        labels = graph.vertex_labels()
        vertex_ids = tuple(sorted(labels))
        n = len(vertex_ids)
        self._vertex_ids = vertex_ids
        # Identity fast path: generated datasets number vertices 0..n-1, so
        # the id -> slot map degenerates to the id itself and is not built.
        identity = vertex_ids == tuple(range(n))
        self._slot_of = (
            None if identity else {vid: slot for slot, vid in enumerate(vertex_ids)}
        )

        intern = self.palette.intern
        self.label_codes = array("l", (intern(labels[vid]) for vid in vertex_ids))
        edge_labels = graph.edge_labels()

        indptr = array("q", [0])
        indices = array("q")
        adjacency: Dict[VertexId, Tuple[VertexId, ...]] = {}
        offset = 0
        slot_of = self._slot_of
        for vid in vertex_ids:
            run = tuple(sorted(graph.neighbors(vid)))
            adjacency[vid] = run
            offset += len(run)
            indptr.append(offset)
            if identity:
                indices.extend(run)
            else:
                indices.extend(slot_of[neighbor] for neighbor in run)
        self.indptr = indptr
        self.indices = indices
        self.adjacency = adjacency
        self._num_edges = graph.num_edges()

        str_of = self.palette.str_of
        codes = self.label_codes
        self.label_strs = {
            vid: str_of(codes[slot]) for slot, vid in enumerate(vertex_ids)
        }
        self._labels = labels

        if edge_labels:
            self.edge_palette = LabelPalette()
            edge_intern = self.edge_palette.intern
            edge_codes = array("l")
            for vid in vertex_ids:
                for neighbor in adjacency[vid]:
                    key = (vid, neighbor) if vid < neighbor else (neighbor, vid)
                    label = edge_labels.get(key)
                    edge_codes.append(-1 if label is None else edge_intern(label))
            self.edge_label_codes = edge_codes
            self._edge_labels = edge_labels
        else:
            self.edge_palette = None
            self.edge_label_codes = None
            self._edge_labels = {}
        return self

    def to_labeled(self) -> LabeledGraph:
        """Thaw back into a mutable :class:`LabeledGraph` (round-trip exact)."""
        graph = LabeledGraph(name=self.name)
        for vid in self._vertex_ids:
            graph.add_vertex(vid, self._labels[vid])
        edge_labels = self._edge_labels
        for vid in self._vertex_ids:
            for neighbor in self.adjacency[vid]:
                if vid < neighbor:
                    graph.add_edge(vid, neighbor, edge_labels.get((vid, neighbor)))
        return graph

    # ------------------------------------------------------------------ #
    # queries (LabeledGraph read-API parity)
    # ------------------------------------------------------------------ #
    def has_vertex(self, vertex: VertexId) -> bool:
        return vertex in self.adjacency

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """O(log deg) membership via binary search in the sorted run."""
        run = self.adjacency.get(u)
        if run is None:
            return False
        position = bisect_left(run, v)
        return position < len(run) and run[position] == v

    def label_of(self, vertex: VertexId) -> Label:
        return self._labels[vertex]

    def edge_label(self, u: VertexId, v: VertexId) -> Optional[Label]:
        """Return the label of edge ``{u, v}`` (``None`` if unlabeled)."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) is not in the graph")
        return self._edge_labels.get((u, v) if u < v else (v, u))

    def neighbors(self, vertex: VertexId) -> Tuple[VertexId, ...]:
        """Sorted tuple of neighbours (read-only by construction)."""
        return self.adjacency[vertex]

    def degree(self, vertex: VertexId) -> int:
        return len(self.adjacency[vertex])

    def vertices(self) -> Iterator[VertexId]:
        return iter(self._vertex_ids)

    def vertex_labels(self) -> Dict[VertexId, Label]:
        """Return a copy of the vertex → label mapping."""
        return dict(self._labels)

    def edge_labels(self) -> Dict[Tuple[VertexId, VertexId], Label]:
        """Return a copy of the ``(min, max)`` endpoints → edge label mapping."""
        return dict(self._edge_labels)

    def edges(self) -> Iterator[Edge]:
        """Yield each undirected edge exactly once (ascending id order)."""
        edge_labels = self._edge_labels
        for vid in self._vertex_ids:
            for neighbor in self.adjacency[vid]:
                if vid < neighbor:
                    yield Edge(vid, neighbor, edge_labels.get((vid, neighbor)))

    def num_vertices(self) -> int:
        return len(self._vertex_ids)

    def num_edges(self) -> int:
        return self._num_edges

    def size(self) -> int:
        """The paper's |P|: the number of edges."""
        return self._num_edges

    def labels_used(self) -> Set[Label]:
        return set(self._labels.values())

    def label_histogram(self) -> Dict[Label, int]:
        histogram: Dict[Label, int] = {}
        for label in self._labels.values():
            histogram[label] = histogram.get(label, 0) + 1
        return histogram

    def is_connected(self) -> bool:
        if not self._vertex_ids:
            return True
        adjacency = self.adjacency
        start = self._vertex_ids[0]
        seen = {start}
        stack = [start]
        while stack:
            for neighbor in adjacency[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(self._vertex_ids)

    def connected_components(self) -> List[Set[VertexId]]:
        adjacency = self.adjacency
        remaining = set(self._vertex_ids)
        components: List[Set[VertexId]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            stack = [start]
            while stack:
                for neighbor in adjacency[stack.pop()]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            components.append(seen)
            remaining -= seen
        return components

    # ------------------------------------------------------------------ #
    # CSR-specific surface
    # ------------------------------------------------------------------ #
    def vertex_slot(self, vertex: VertexId) -> int:
        """Dense slot (row index into the arrays) of ``vertex``."""
        if self._slot_of is None:
            if 0 <= vertex < len(self._vertex_ids):
                return vertex
            raise KeyError(f"vertex {vertex} is not in the graph")
        return self._slot_of[vertex]

    def slot_vertex(self, slot: int) -> VertexId:
        """Vertex id occupying dense ``slot``."""
        return self._vertex_ids[slot]

    def memory_bytes(self) -> int:
        """Bytes held by the flat array columns (excludes the read caches).

        Diagnostic for benchmarks and docs: the CSR columns are the
        canonical storage, the dict caches trade memory back for pure-Python
        iteration speed and can be dropped/rebuilt at will.
        """
        total = self.indptr.itemsize * len(self.indptr)
        total += self.indices.itemsize * len(self.indices)
        total += self.label_codes.itemsize * len(self.label_codes)
        if self.edge_label_codes is not None:
            total += self.edge_label_codes.itemsize * len(self.edge_label_codes)
        return total

    # ------------------------------------------------------------------ #
    # mutators: rejected
    # ------------------------------------------------------------------ #
    add_vertex = _mutation_stub("add_vertex")
    add_edge = _mutation_stub("add_edge")
    add_labeled_path = _mutation_stub("add_labeled_path")
    remove_vertex = _mutation_stub("remove_vertex")
    remove_edge = _mutation_stub("remove_edge")

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self.adjacency

    def __len__(self) -> int:
        return len(self._vertex_ids)

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._vertex_ids)

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return (
            f"<CSRGraph{name} |V|={self.num_vertices()} |E|={self.num_edges()} "
            f"bytes={self.memory_bytes()}>"
        )
