"""Vertex-labeled undirected graphs.

The paper's setting (Section 2) is a single labeled graph ``G`` with a label
function ``l_G : V(G) -> Sigma``.  Vertices carry labels; edges may optionally
carry labels as well (the paper notes the method "can also be applied to
graphs with edge labels").  Graph size |P| is measured by the number of edges.

``LabeledGraph`` is a mutable adjacency-set structure tuned for the access
patterns of pattern-growth mining:

* O(1) lookup of a vertex's label and neighbourhood,
* O(1) edge-existence test,
* cheap copies (patterns are copied on every extension),
* deterministic iteration order (insertion order), which keeps the miners
  reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

Label = Hashable
VertexId = int


@dataclass(frozen=True)
class Edge:
    """An undirected edge ``{u, v}`` with an optional label.

    Edges compare equal regardless of endpoint order: ``Edge(1, 2) ==
    Edge(2, 1)``.  The normalised (smaller-id-first) endpoints are what the
    dataclass stores, so hashing is consistent with equality.
    """

    u: VertexId
    v: VertexId
    label: Optional[Label] = None

    def __post_init__(self) -> None:
        u, v = self.u, self.v
        if u > v:
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)

    def endpoints(self) -> Tuple[VertexId, VertexId]:
        """Return the normalised ``(min, max)`` endpoint pair."""
        return (self.u, self.v)

    def other(self, vertex: VertexId) -> VertexId:
        """Return the endpoint that is not ``vertex``."""
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"vertex {vertex} is not an endpoint of {self}")


class LabeledGraph:
    """A mutable, vertex-labeled, undirected graph.

    Vertices are integers; labels are arbitrary hashable values (the paper and
    our generators use short strings such as ``"a"`` or ``"P2"``).  Parallel
    edges and self-loops are rejected: patterns in frequent subgraph mining
    are simple graphs.

    Examples
    --------
    >>> g = LabeledGraph()
    >>> g.add_vertex(1, "a")
    1
    >>> g.add_vertex(2, "b")
    2
    >>> g.add_edge(1, 2)
    >>> g.num_vertices(), g.num_edges()
    (2, 1)
    >>> g.label_of(1)
    'a'
    >>> sorted(g.neighbors(1))
    [2]
    """

    __slots__ = ("_labels", "_adjacency", "_edge_labels", "_num_edges", "name")

    def __init__(self, name: str = "") -> None:
        self._labels: Dict[VertexId, Label] = {}
        self._adjacency: Dict[VertexId, Set[VertexId]] = {}
        self._edge_labels: Dict[Tuple[VertexId, VertexId], Label] = {}
        self._num_edges: int = 0
        self.name = name

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: VertexId, label: Label) -> VertexId:
        """Add ``vertex`` with ``label``; re-adding with the same label is a no-op.

        Raises ``ValueError`` if the vertex already exists with a different
        label, because silently relabeling would corrupt embeddings that other
        components may hold onto.
        """
        if vertex in self._labels:
            if self._labels[vertex] != label:
                raise ValueError(
                    f"vertex {vertex} already has label {self._labels[vertex]!r}, "
                    f"cannot relabel to {label!r}"
                )
            return vertex
        self._labels[vertex] = label
        self._adjacency[vertex] = set()
        return vertex

    def add_edge(
        self,
        u: VertexId,
        v: VertexId,
        label: Optional[Label] = None,
    ) -> None:
        """Add the undirected edge ``{u, v}``.

        Both endpoints must already exist.  Adding an edge that is already
        present with the same label is a no-op; self-loops and conflicting
        relabels raise ``ValueError``.
        """
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u})")
        if u not in self._labels:
            raise KeyError(f"vertex {u} is not in the graph")
        if v not in self._labels:
            raise KeyError(f"vertex {v} is not in the graph")
        key = (u, v) if u < v else (v, u)
        if v in self._adjacency[u]:
            existing = self._edge_labels.get(key)
            if existing != label:
                raise ValueError(
                    f"edge {key} already has label {existing!r}, "
                    f"cannot relabel to {label!r}"
                )
            return
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        if label is not None:
            self._edge_labels[key] = label
        self._num_edges += 1

    def add_labeled_path(self, labels: Iterable[Label], start_id: int = 0) -> List[VertexId]:
        """Append a fresh path whose vertices carry ``labels``; return its vertex ids.

        Vertex ids are allocated from ``max(existing, start_id - 1) + 1``
        upward so the path never collides with existing vertices.
        """
        labels = list(labels)
        next_id = max(self._labels, default=start_id - 1) + 1
        ids: List[VertexId] = []
        for offset, label in enumerate(labels):
            vertex = next_id + offset
            self.add_vertex(vertex, label)
            ids.append(vertex)
        for left, right in zip(ids, ids[1:]):
            self.add_edge(left, right)
        return ids

    def remove_vertex(self, vertex: VertexId) -> None:
        """Remove ``vertex`` and all incident edges."""
        if vertex not in self._labels:
            raise KeyError(f"vertex {vertex} is not in the graph")
        for neighbor in list(self._adjacency[vertex]):
            self.remove_edge(vertex, neighbor)
        del self._adjacency[vertex]
        del self._labels[vertex]

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        """Remove the undirected edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) is not in the graph")
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._edge_labels.pop((u, v) if u < v else (v, u), None)
        self._num_edges -= 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def has_vertex(self, vertex: VertexId) -> bool:
        return vertex in self._labels

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def label_of(self, vertex: VertexId) -> Label:
        return self._labels[vertex]

    def edge_label(self, u: VertexId, v: VertexId) -> Optional[Label]:
        """Return the label of edge ``{u, v}`` (``None`` if unlabeled)."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) is not in the graph")
        return self._edge_labels.get((u, v) if u < v else (v, u))

    def neighbors(self, vertex: VertexId) -> Set[VertexId]:
        """Return the (live) neighbour set of ``vertex``; treat as read-only."""
        return self._adjacency[vertex]

    def degree(self, vertex: VertexId) -> int:
        return len(self._adjacency[vertex])

    def vertices(self) -> Iterator[VertexId]:
        return iter(self._labels)

    def vertex_labels(self) -> Dict[VertexId, Label]:
        """Return a copy of the vertex → label mapping."""
        return dict(self._labels)

    def edge_labels(self) -> Dict[Tuple[VertexId, VertexId], Label]:
        """Return a copy of the ``(min, max)`` endpoints → edge label mapping.

        Unlabeled edges are absent, so a graph without edge labels returns
        an empty dict without visiting its edges.
        """
        return dict(self._edge_labels)

    def edges(self) -> Iterator[Edge]:
        """Yield each undirected edge exactly once."""
        for u in self._labels:
            for v in self._adjacency[u]:
                if u < v:
                    yield Edge(u, v, self._edge_labels.get((u, v)))

    def num_vertices(self) -> int:
        return len(self._labels)

    def num_edges(self) -> int:
        return self._num_edges

    def size(self) -> int:
        """The paper's |P|: the number of edges."""
        return self._num_edges

    def labels_used(self) -> Set[Label]:
        """Return the set of distinct vertex labels present in the graph."""
        return set(self._labels.values())

    def label_histogram(self) -> Dict[Label, int]:
        """Return label → number of vertices carrying it."""
        histogram: Dict[Label, int] = {}
        for label in self._labels.values():
            histogram[label] = histogram.get(label, 0) + 1
        return histogram

    def is_connected(self) -> bool:
        """True if the graph has a single connected component (or is empty)."""
        if not self._labels:
            return True
        start = next(iter(self._labels))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(self._labels)

    def connected_components(self) -> List[Set[VertexId]]:
        """Return the vertex sets of all connected components."""
        remaining = set(self._labels)
        components: List[Set[VertexId]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            stack = [start]
            while stack:
                current = stack.pop()
                for neighbor in self._adjacency[current]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            components.append(seen)
            remaining -= seen
        return components

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #
    def copy(self) -> "LabeledGraph":
        """Return a deep-enough copy (labels/adjacency duplicated)."""
        clone = LabeledGraph(name=self.name)
        clone._labels = dict(self._labels)
        # set.copy() beats set(ns) measurably, and this dictcomp runs once
        # per pattern copy on the growth hot path.
        clone._adjacency = {v: ns.copy() for v, ns in self._adjacency.items()}
        clone._edge_labels = dict(self._edge_labels)
        clone._num_edges = self._num_edges
        return clone

    def subgraph(self, vertices: Iterable[VertexId]) -> "LabeledGraph":
        """Return the subgraph induced by ``vertices`` (ids and labels kept)."""
        keep = set(vertices)
        missing = keep - set(self._labels)
        if missing:
            raise KeyError(f"vertices not in graph: {sorted(missing)}")
        sub = LabeledGraph(name=f"{self.name}/induced")
        for vertex in keep:
            sub.add_vertex(vertex, self._labels[vertex])
        for vertex in keep:
            for neighbor in self._adjacency[vertex]:
                if neighbor in keep and vertex < neighbor:
                    sub.add_edge(
                        vertex, neighbor, self._edge_labels.get((vertex, neighbor))
                    )
        return sub

    def edge_subgraph(self, edges: Iterable[Tuple[VertexId, VertexId]]) -> "LabeledGraph":
        """Return the subgraph consisting of exactly ``edges`` and their endpoints."""
        sub = LabeledGraph(name=f"{self.name}/edges")
        for u, v in edges:
            if not self.has_edge(u, v):
                raise KeyError(f"edge ({u}, {v}) is not in the graph")
            if not sub.has_vertex(u):
                sub.add_vertex(u, self._labels[u])
            if not sub.has_vertex(v):
                sub.add_vertex(v, self._labels[v])
            sub.add_edge(u, v, self._edge_labels.get((u, v) if u < v else (v, u)))
        return sub

    def relabel_vertices(self, mapping: Dict[VertexId, VertexId]) -> "LabeledGraph":
        """Return a copy with vertex ids renamed through ``mapping``.

        Every vertex must be mapped, and the mapping must be injective.
        """
        if set(mapping) != set(self._labels):
            raise ValueError("mapping must cover exactly the graph's vertices")
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("mapping must be injective")
        renamed = LabeledGraph(name=self.name)
        for old, new in mapping.items():
            renamed.add_vertex(new, self._labels[old])
        for edge in self.edges():
            renamed.add_edge(mapping[edge.u], mapping[edge.v], edge.label)
        return renamed

    def compact(self) -> Tuple["LabeledGraph", Dict[VertexId, VertexId]]:
        """Renumber vertices to ``0..n-1`` (insertion order); return (graph, old→new)."""
        mapping = {old: new for new, old in enumerate(self._labels)}
        return self.relabel_vertices(mapping), mapping

    def merged_with(self, other: "LabeledGraph") -> "LabeledGraph":
        """Union of two graphs that agree on the labels of shared vertex ids."""
        merged = self.copy()
        for vertex in other.vertices():
            merged.add_vertex(vertex, other.label_of(vertex))
        for edge in other.edges():
            if not merged.has_edge(edge.u, edge.v):
                merged.add_edge(edge.u, edge.v, edge.label)
        return merged

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._labels)

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return (
            f"<LabeledGraph{name} |V|={self.num_vertices()} |E|={self.num_edges()}>"
        )


def graph_from_paths(
    label_paths: Iterable[Iterable[Label]],
) -> LabeledGraph:
    """Build a graph that is the disjoint union of labeled paths.

    Convenience used heavily in tests: ``graph_from_paths([["a", "b", "c"]])``
    creates a 3-vertex path with labels a-b-c.
    """
    graph = LabeledGraph()
    for labels in label_paths:
        graph.add_labeled_path(labels)
    return graph


def build_graph(
    vertex_labels: Dict[VertexId, Label],
    edges: Iterable[Tuple[VertexId, VertexId]],
    name: str = "",
) -> LabeledGraph:
    """Build a graph from explicit vertex-label and edge lists.

    This is the constructor used throughout the test-suite because it reads
    like the figures in the paper: a dict of labeled vertices plus edge pairs.
    """
    graph = LabeledGraph(name=name)
    for vertex, label in vertex_labels.items():
        graph.add_vertex(vertex, label)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph
