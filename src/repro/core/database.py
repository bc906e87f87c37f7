"""The mining context: data graph(s) plus a support measure.

The paper defines the problem in the single-graph setting (support =
``|E[P]|``, the number of embeddings) and notes that the graph-transaction
setting "can be easily derived".  ``MiningContext`` abstracts over both so
DiamMine, LevelGrow and the baselines are written once:

* ``SupportMeasure.EMBEDDINGS`` — distinct occurrences across all graphs
  (the paper's measure in the single-graph setting);
* ``SupportMeasure.TRANSACTIONS`` — number of transactions with ≥ 1 embedding
  (standard graph-transaction support);
* ``SupportMeasure.MNI`` — minimum-image support, offered for baseline
  harmonisation in the single-graph setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.graph.csr import CSRGraph, LabelPalette
from repro.graph.embeddings import Embedding, EmbeddingTable
from repro.graph.labeled_graph import Label, LabeledGraph, VertexId


class SupportMeasure(Enum):
    """How pattern support is computed from an embedding list.

    Two of the three measures are *anti-monotone* (a sub-pattern's support is
    never below a super-pattern's), which is what makes intermediate
    frequency pruning exact — see :attr:`anti_monotone` and
    ``docs/CORRECTNESS.md``.

    Examples
    --------
    >>> SupportMeasure.TRANSACTIONS.anti_monotone
    True
    >>> SupportMeasure.EMBEDDINGS.anti_monotone
    False
    """

    EMBEDDINGS = "embeddings"
    TRANSACTIONS = "transactions"
    MNI = "mni"

    @property
    def anti_monotone(self) -> bool:
        """Whether support can only shrink as a pattern grows.

        Transaction support (a super-pattern occurs in a subset of the
        transactions) and MNI (each position's image set only shrinks) are
        anti-monotone; raw embedding count is not — two embeddings of a
        super-pattern can restrict to the *same* embedding of a sub-pattern,
        so a sub-pattern's distinct-image count can be smaller.
        """
        return self in (SupportMeasure.TRANSACTIONS, SupportMeasure.MNI)


# --------------------------------------------------------------------- #
# deltas: incremental edits to the data graph(s)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class EdgeDelta:
    """One edit to a data graph: add or remove a single undirected edge.

    ``add`` operations may introduce new endpoints; supply ``label_u`` /
    ``label_v`` for endpoints that do not exist yet (they are ignored for
    endpoints already present).  ``remove`` operations keep the endpoint
    vertices in the graph — a vertex losing its last edge becomes an isolated
    labeled vertex, which is still valid data.
    """

    op: str  # "add" | "remove"
    u: int
    v: int
    graph_index: int = 0
    label_u: Optional[Label] = None
    label_v: Optional[Label] = None
    edge_label: Optional[Label] = None

    def __post_init__(self) -> None:
        if self.op not in ("add", "remove"):
            raise ValueError(f"unknown delta op {self.op!r} (expected 'add' or 'remove')")

    @classmethod
    def add_edge(
        cls,
        u: int,
        v: int,
        graph_index: int = 0,
        label_u: Optional[Label] = None,
        label_v: Optional[Label] = None,
        edge_label: Optional[Label] = None,
    ) -> "EdgeDelta":
        return cls("add", u, v, graph_index, label_u, label_v, edge_label)

    @classmethod
    def remove_edge(cls, u: int, v: int, graph_index: int = 0) -> "EdgeDelta":
        return cls("remove", u, v, graph_index)


@dataclass
class GraphDelta:
    """An ordered batch of :class:`EdgeDelta` operations."""

    operations: List[EdgeDelta] = field(default_factory=list)

    def add_edge(self, *args, **kwargs) -> "GraphDelta":
        self.operations.append(EdgeDelta.add_edge(*args, **kwargs))
        return self

    def remove_edge(self, *args, **kwargs) -> "GraphDelta":
        self.operations.append(EdgeDelta.remove_edge(*args, **kwargs))
        return self

    def touched_vertices(self, graph_index: int = 0) -> Set[int]:
        touched: Set[int] = set()
        for operation in self.operations:
            if operation.graph_index == graph_index:
                touched.update((operation.u, operation.v))
        return touched

    def touched_graphs(self) -> Set[int]:
        """Indices of the transactions named by at least one operation."""
        return {operation.graph_index for operation in self.operations}

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)


def touched_graph_indices(
    delta: Union["GraphDelta", Iterable[EdgeDelta]]
) -> Set[int]:
    """Graph indices a delta batch writes to; every other index is untouched.

    Untouched transactions keep their content byte-for-byte across the
    delta, which is what licenses reusing their immutable frozen CSR views
    (see ``MiningContext.frozen_graph`` and
    ``MiningEngine.adopt_frozen_views``) instead of re-freezing them.

    Examples
    --------
    >>> delta = GraphDelta().add_edge(0, 1, graph_index=2, label_u="a",
    ...                               label_v="b")
    >>> touched_graph_indices(delta)
    {2}
    >>> sorted(touched_graph_indices([EdgeDelta.remove_edge(0, 1),
    ...                               EdgeDelta.remove_edge(2, 3, 5)]))
    [0, 5]
    """
    if isinstance(delta, GraphDelta):
        return delta.touched_graphs()
    return {operation.graph_index for operation in delta}


def validate_delta(
    graphs: Sequence[LabeledGraph], operations: Sequence[EdgeDelta]
) -> None:
    """Check a whole batch against the data *before* mutating anything.

    Applying a delta half-way and then raising would leave graphs, caches and
    index fingerprints describing different states, so callers validate the
    batch first.  The check simulates the sequential effect of the batch on
    vertex/edge sets (an edge added by operation i may be removed by
    operation j > i).
    """
    vertices: Dict[int, Set[int]] = {}
    edges: Dict[int, Dict[FrozenSet[int], Optional[Label]]] = {}
    for position, operation in enumerate(operations):
        index = operation.graph_index
        if not 0 <= index < len(graphs):
            raise ValueError(
                f"delta operation {position}: graph_index {index} out of range"
            )
        if index not in vertices:
            graph = graphs[index]
            vertices[index] = set(graph.vertices())
            edges[index] = {
                frozenset(edge.endpoints()): edge.label for edge in graph.edges()
            }
        edge = frozenset((operation.u, operation.v))
        if operation.op == "add":
            if operation.u == operation.v:
                raise ValueError(
                    f"delta operation {position}: self-loops are not allowed"
                )
            for vertex, label in (
                (operation.u, operation.label_u),
                (operation.v, operation.label_v),
            ):
                if vertex not in vertices[index] and label is None:
                    raise ValueError(
                        f"delta operation {position}: add_edge introduces vertex "
                        f"{vertex} without a label"
                    )
                vertices[index].add(vertex)
            if edge in edges[index] and edges[index][edge] != operation.edge_label:
                raise ValueError(
                    f"delta operation {position}: edge ({operation.u}, {operation.v}) "
                    f"already has label {edges[index][edge]!r}, "
                    f"cannot relabel to {operation.edge_label!r}"
                )
            edges[index][edge] = operation.edge_label
        else:
            if edge not in edges[index]:
                raise KeyError(
                    f"delta operation {position}: edge ({operation.u}, {operation.v}) "
                    f"is not in graph {index}"
                )
            del edges[index][edge]


def apply_edge_delta(graphs: Sequence[LabeledGraph], operation: EdgeDelta) -> None:
    """Apply one :class:`EdgeDelta` to a graph list in place."""
    graph = graphs[operation.graph_index]
    if operation.op == "add":
        for vertex, label in ((operation.u, operation.label_u), (operation.v, operation.label_v)):
            if not graph.has_vertex(vertex):
                if label is None:
                    raise ValueError(
                        f"add_edge delta introduces vertex {vertex} without a label"
                    )
                graph.add_vertex(vertex, label)
        graph.add_edge(operation.u, operation.v, operation.edge_label)
    else:
        graph.remove_edge(operation.u, operation.v)


@dataclass
class MiningContext:
    """A data graph or graph database together with the support measure.

    Parameters
    ----------
    graphs:
        The data.  Pass a single :class:`LabeledGraph` for the single-graph
        setting or a sequence of them for the transaction setting.
    min_support:
        The frequency threshold σ.
    support_measure:
        Defaults to embeddings for a single graph and transactions for a
        database, matching the paper's two settings.
    """

    graphs: List[LabeledGraph]
    min_support: int
    support_measure: SupportMeasure
    _label_index: Dict[int, Dict[Label, List[VertexId]]] = field(
        default_factory=dict, repr=False
    )
    _frozen_graphs: Dict[int, CSRGraph] = field(default_factory=dict, repr=False)
    _palette: LabelPalette = field(default_factory=LabelPalette, repr=False)

    def __init__(
        self,
        graphs: Union[LabeledGraph, Sequence[LabeledGraph]],
        min_support: int,
        support_measure: Optional[SupportMeasure] = None,
        *,
        frozen_views: Optional[Dict[int, CSRGraph]] = None,
        palette: Optional[LabelPalette] = None,
    ) -> None:
        if isinstance(graphs, LabeledGraph):
            graph_list = [graphs]
            default_measure = SupportMeasure.EMBEDDINGS
        else:
            graph_list = list(graphs)
            default_measure = (
                SupportMeasure.EMBEDDINGS
                if len(graph_list) == 1
                else SupportMeasure.TRANSACTIONS
            )
        if not graph_list:
            raise ValueError("MiningContext requires at least one data graph")
        if min_support < 1:
            raise ValueError("min_support must be at least 1")
        self.graphs = graph_list
        self.min_support = min_support
        self.support_measure = support_measure or default_measure
        self._label_index = {}
        # The frozen-view pool and its palette may be injected *by
        # reference* (keyword-only) so every context of one engine shares
        # a single set of CSR views — a view frozen for one (σ, measure)
        # query serves every other query over the same data.  Injected
        # views must have been frozen against content-identical graphs
        # with exactly the injected palette; ``MiningEngine`` is the only
        # in-tree caller and guarantees both.
        self._frozen_graphs = frozen_views if frozen_views is not None else {}
        self._palette = palette if palette is not None else LabelPalette()

    # ------------------------------------------------------------------ #
    # data access
    # ------------------------------------------------------------------ #
    @property
    def is_single_graph(self) -> bool:
        return len(self.graphs) == 1

    def graph(self, index: int = 0) -> LabeledGraph:
        return self.graphs[index]

    def frozen_graph(self, index: int = 0) -> CSRGraph:
        """Immutable CSR view of transaction ``index``, built once and cached.

        The growth engines run every adjacency scan and data BFS against
        this view (see ``docs/DATA_PLANE.md``): array-backed sorted
        neighbour tuples plus interned label palettes beat the mutable
        dict-of-sets on read throughput, and the view is safe to share
        across snapshot forks because it cannot be written.  All
        transactions of one context share one vertex-label palette, so a
        label's code is stable database-wide.  :meth:`apply_delta`
        invalidates the cache; the next access re-freezes the mutated
        graph.

        Examples
        --------
        >>> from repro.graph.labeled_graph import build_graph
        >>> context = MiningContext(
        ...     build_graph({0: "a", 1: "b"}, [(0, 1)]), min_support=1
        ... )
        >>> frozen = context.frozen_graph(0)
        >>> frozen.neighbors(0)
        (1,)
        >>> context.frozen_graph(0) is frozen  # cached
        True
        """
        frozen = self._frozen_graphs.get(index)
        if frozen is None:
            frozen = CSRGraph.from_labeled(self.graphs[index], palette=self._palette)
            self._frozen_graphs[index] = frozen
        return frozen

    def graph_indices(self) -> range:
        return range(len(self.graphs))

    def vertices_with_label(self, graph_index: int, label: Label) -> List[VertexId]:
        """All vertices of one transaction carrying ``label`` (cached)."""
        index = self._label_index.get(graph_index)
        if index is None:
            index = {}
            graph = self.graphs[graph_index]
            for vertex in graph.vertices():
                index.setdefault(graph.label_of(vertex), []).append(vertex)
            self._label_index[graph_index] = index
        return index.get(label, [])

    def frequent_labels(self) -> Set[Label]:
        """Vertex labels whose single-vertex support reaches the threshold."""
        frequent: Set[Label] = set()
        all_labels: Set[Label] = set()
        for graph in self.graphs:
            all_labels |= graph.labels_used()
        for label in all_labels:
            occurrences = [
                (index, vertex)
                for index in self.graph_indices()
                for vertex in self.vertices_with_label(index, label)
            ]
            if self.support_measure is SupportMeasure.TRANSACTIONS:
                support = len({index for index, _ in occurrences})
            else:
                support = len(occurrences)
            if support >= self.min_support:
                frequent.add(label)
        return frequent

    # ------------------------------------------------------------------ #
    # support
    # ------------------------------------------------------------------ #
    def support_of_embeddings(
        self, embeddings: Sequence[Embedding], pattern: Optional[LabeledGraph] = None
    ) -> int:
        """Support of a pattern given its embedding list, per the configured measure."""
        if self.support_measure is SupportMeasure.TRANSACTIONS:
            return len({embedding.graph_index for embedding in embeddings})
        if self.support_measure is SupportMeasure.MNI:
            from repro.graph.embeddings import mni_support

            if pattern is None:
                raise ValueError("MNI support requires the pattern graph")
            return mni_support(pattern, embeddings)
        return len({embedding.image_key() for embedding in embeddings})

    def support_of_table(
        self, table: "EmbeddingTable", pattern: Optional[LabeledGraph] = None
    ) -> int:
        """Support of a pattern from its :class:`EmbeddingTable`, per the measure.

        Delegates to the table's lazily-cached support methods, so repeated
        queries against one table (frequency check, then result reporting)
        never recount.  ``pattern`` is accepted for signature parity with
        :meth:`support_of_embeddings`; the columnar MNI needs no graph.
        """
        if self.support_measure is SupportMeasure.TRANSACTIONS:
            return table.transaction_support()
        if self.support_measure is SupportMeasure.MNI:
            return table.mni_support()
        return table.embedding_support()

    def support_of_occurrences(
        self, occurrences: Iterable[Tuple[int, FrozenSet[VertexId]]]
    ) -> int:
        """Support from raw (graph_index, vertex-image) occurrence keys.

        MNI support cannot be derived from unordered images, so this method
        treats it like embedding support; path-shaped patterns with ordered
        occurrences should use :meth:`support_of_path_occurrences` instead.
        """
        occurrence_list = list(occurrences)
        if self.support_measure is SupportMeasure.TRANSACTIONS:
            return len({index for index, _ in occurrence_list})
        return len(set(occurrence_list))

    def support_of_path_occurrences(
        self,
        occurrences: Iterable[Tuple[int, Tuple[VertexId, ...]]],
        labels: Optional[Tuple[str, ...]] = None,
    ) -> int:
        """Support of a path pattern from ordered (graph_index, vertex tuple) occurrences.

        Handles all three measures; the MNI value is computed position-wise
        over the ordered tuples (each tuple position is one pattern vertex).
        Callers that know the path's label sequence should pass ``labels``:
        when the sequence is palindromic, *both* orientations of every
        occurrence are valid embeddings, and the MNI image sets must include
        the reversed tuples or positions near the ends undercount.
        """
        occurrence_list = list(occurrences)
        if not occurrence_list:
            return 0
        if self.support_measure is SupportMeasure.TRANSACTIONS:
            return len({index for index, _ in occurrence_list})
        if self.support_measure is SupportMeasure.MNI:
            if labels is not None and tuple(labels) == tuple(reversed(labels)):
                occurrence_list = occurrence_list + [
                    (index, tuple(reversed(vertices)))
                    for index, vertices in occurrence_list
                ]
            length = len(occurrence_list[0][1])
            images: List[Set[Tuple[int, VertexId]]] = [set() for _ in range(length)]
            for graph_index, vertices in occurrence_list:
                for position, vertex in enumerate(vertices):
                    images[position].add((graph_index, vertex))
            return min(len(position_images) for position_images in images)
        return len({(index, frozenset(vertices)) for index, vertices in occurrence_list})

    def path_support_upper_bound(self, occurrences: int, labels: Tuple[str, ...]) -> int:
        """Most support :meth:`support_of_path_occurrences` can give ``occurrences``.

        ``occurrences`` counts the distinct undirected occurrences of the
        path ``labels``, so a caller can drop a path that cannot be frequent
        before it builds a single occurrence.  Each occurrence adds at most
        one transaction, one vertex set and one image per position, so the
        bound is ``occurrences`` under every measure, except MNI on a
        palindromic sequence: there both readings of an occurrence are
        embeddings, and each position can gain two images.

        Examples
        --------
        >>> from repro.graph.labeled_graph import graph_from_paths
        >>> graph = graph_from_paths([["a", "a"]])
        >>> MiningContext(graph, 1).path_support_upper_bound(3, ("a", "a"))
        3
        >>> mni = MiningContext(graph, 1, SupportMeasure.MNI)
        >>> mni.path_support_upper_bound(3, ("a", "a"))
        6
        >>> mni.path_support_upper_bound(3, ("a", "b"))
        3
        """
        palindromic = tuple(labels) == tuple(reversed(labels))
        if palindromic and self.support_measure is SupportMeasure.MNI:
            return 2 * occurrences
        return occurrences

    def is_frequent(self, support: int) -> bool:
        return support >= self.min_support

    # ------------------------------------------------------------------ #
    # content identity and incremental edits
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Content fingerprint of the data graph(s); keys index-store entries."""
        from repro.graph.io import dataset_fingerprint

        return dataset_fingerprint(self.graphs)

    def apply_delta(self, delta: Union[GraphDelta, Iterable[EdgeDelta]]) -> None:
        """Apply a batch of edge edits to the data in place.

        The whole batch is validated before the first mutation, so a bad
        operation raises with the data untouched.  Derived caches (the
        per-graph label index and the frozen CSR views) are invalidated
        *selectively*: only the transactions the batch writes to are
        dropped, so views of untouched transactions keep serving (an edit
        to one graph of a large database does not re-freeze the rest).
        Index stores keyed by the old fingerprint must be repaired
        separately — see :class:`repro.index.incremental.IndexMaintainer`.
        """
        operations = list(delta)
        validate_delta(self.graphs, operations)
        try:
            for operation in operations:
                apply_edge_delta(self.graphs, operation)
        finally:
            # Even on a part-way failure only graphs named by the batch
            # can have been mutated, so untouched indices stay valid.
            for index in touched_graph_indices(operations):
                self._label_index.pop(index, None)
                self._frozen_graphs.pop(index, None)

    def total_vertices(self) -> int:
        return sum(graph.num_vertices() for graph in self.graphs)

    def total_edges(self) -> int:
        return sum(graph.num_edges() for graph in self.graphs)

    def __repr__(self) -> str:
        return (
            f"<MiningContext graphs={len(self.graphs)} "
            f"sigma={self.min_support} measure={self.support_measure.value}>"
        )
