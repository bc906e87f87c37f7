"""Embeddings and support counting.

The paper works in the single-graph setting where the support of a pattern
``P`` is ``|E[P]|``, the number of distinct embeddings of ``P`` in ``G``
(Definition 8).  The graph-transaction setting ("can be easily derived",
Section 2) counts the number of transactions containing at least one
embedding.  Baseline miners that use other single-graph measures (MNI) can do
so through :func:`mni_support`.

``Embedding`` is an immutable pattern-vertex → data-vertex map.
``EmbeddingList`` is the bookkeeping structure pattern-growth miners carry
with each pattern so extension candidates can be generated from occurrences
instead of re-matching from scratch.  ``EmbeddingTable`` is the columnar
replacement the growth engines actually run on: one interned column layout
per pattern, one plain tuple per occurrence, and join-based extension in
place of per-embedding dict juggling.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.labeled_graph import LabeledGraph, VertexId


@dataclass(frozen=True)
class Embedding:
    """A single occurrence of a pattern in a data graph.

    ``mapping`` sends pattern vertex ids to data-graph vertex ids;
    ``graph_index`` identifies the transaction when mining a graph database
    (always 0 in the single-graph setting).

    Examples
    --------
    >>> occurrence = Embedding.from_dict({0: 7, 1: 9})
    >>> occurrence.target_of(1)
    9
    >>> sorted(occurrence.image())
    [7, 9]
    >>> occurrence.extended(2, 4).as_dict() == {0: 7, 1: 9, 2: 4}
    True
    >>> occurrence.image_key() == (0, frozenset({7, 9}))
    True
    """

    mapping: Tuple[Tuple[VertexId, VertexId], ...]
    graph_index: int = 0

    @classmethod
    def from_dict(
        cls, mapping: Dict[VertexId, VertexId], graph_index: int = 0
    ) -> "Embedding":
        return cls(mapping=tuple(sorted(mapping.items())), graph_index=graph_index)

    def as_dict(self) -> Dict[VertexId, VertexId]:
        return dict(self.mapping)

    def image(self) -> FrozenSet[VertexId]:
        """The set of data-graph vertices covered by this embedding."""
        return frozenset(target for _, target in self.mapping)

    def image_key(self) -> Tuple[int, FrozenSet[VertexId]]:
        """Key identifying the *subgraph* occurrence (transaction + vertex set)."""
        return (self.graph_index, self.image())

    def target_of(self, pattern_vertex: VertexId) -> VertexId:
        for source, target in self.mapping:
            if source == pattern_vertex:
                return target
        raise KeyError(f"pattern vertex {pattern_vertex} is not mapped")

    def extended(
        self, pattern_vertex: VertexId, data_vertex: VertexId
    ) -> "Embedding":
        """Return a new embedding with one extra pattern vertex mapped."""
        mapping = self.as_dict()
        if pattern_vertex in mapping:
            raise KeyError(f"pattern vertex {pattern_vertex} already mapped")
        mapping[pattern_vertex] = data_vertex
        return Embedding.from_dict(mapping, self.graph_index)

    def __len__(self) -> int:
        return len(self.mapping)


class LazyEmbeddings(Sequence):
    """List-compatible view over a table's embeddings, materialised on demand.

    Emitted patterns keep the legacy ``List[Embedding]`` wire format, but in
    the growth loop nothing reads those objects until well after Stage 2 has
    finished (serialisation, analysis, result hashing).  This view defers
    :meth:`EmbeddingTable.to_embeddings` to the first access, so the
    per-pattern materialisation cost moves out of the timed mining path
    while every consumer still sees an immutable sequence of
    :class:`Embedding` objects — iteration, indexing, ``len`` and equality
    against plain lists all behave identically.

    >>> table = EmbeddingTable([0], rows=[(7,), (9,)], graph_ids=[0, 0])
    >>> view = LazyEmbeddings(table)
    >>> len(view), view[0].mapping
    (2, ((0, 7),))
    >>> view == table.to_embeddings()
    True
    """

    __slots__ = ("_table", "_items")

    def __init__(self, table: "EmbeddingTable") -> None:
        self._table: Optional["EmbeddingTable"] = table
        self._items: Optional[List[Embedding]] = None

    def _materialised(self) -> List[Embedding]:
        if self._items is None:
            self._items = self._table.to_embeddings()
            self._table = None  # the view owns nothing once materialised
        return self._items

    def __iter__(self) -> Iterator[Embedding]:
        return iter(self._materialised())

    def __len__(self) -> int:
        items = self._items
        if items is not None:
            return len(items)
        return len(self._table.graph_ids)

    def __getitem__(self, index):
        return self._materialised()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyEmbeddings):
            return self._materialised() == other._materialised()
        if isinstance(other, list):
            return self._materialised() == other
        return NotImplemented

    def __repr__(self) -> str:
        state = "materialised" if self._items is not None else "lazy"
        return f"<LazyEmbeddings n={len(self)} {state}>"


@dataclass
class EmbeddingList:
    """All known embeddings of one pattern, with cheap support queries."""

    embeddings: List[Embedding] = field(default_factory=list)

    def add(self, embedding: Embedding) -> None:
        self.embeddings.append(embedding)

    def __iter__(self) -> Iterator[Embedding]:
        return iter(self.embeddings)

    def __len__(self) -> int:
        return len(self.embeddings)

    def deduplicated(self) -> "EmbeddingList":
        """Keep one embedding per distinct occurrence (transaction, vertex set)."""
        seen: Set[Tuple[int, FrozenSet[VertexId]]] = set()
        kept: List[Embedding] = []
        for embedding in self.embeddings:
            key = embedding.image_key()
            if key in seen:
                continue
            seen.add(key)
            kept.append(embedding)
        return EmbeddingList(kept)

    def embedding_support(self) -> int:
        """|E[P]|: the number of distinct occurrences (single-graph support)."""
        return len({embedding.image_key() for embedding in self.embeddings})

    def transaction_support(self) -> int:
        """Number of distinct transactions containing at least one embedding."""
        return len({embedding.graph_index for embedding in self.embeddings})

    def transactions(self) -> Set[int]:
        return {embedding.graph_index for embedding in self.embeddings}

    def images(self) -> List[FrozenSet[VertexId]]:
        return [embedding.image() for embedding in self.embeddings]


# --------------------------------------------------------------------- #
# columnar embedding storage
# --------------------------------------------------------------------- #
#: Interned column layouts: every table over the same pattern-vertex tuple
#: shares one columns tuple and one vertex → position map.  Growth produces
#: thousands of short-lived tables whose layouts repeat constantly (the same
#: cluster re-derives the same vertex sets along many extension orders), so
#: interning removes the per-table dict build from the hot path.
_LAYOUT_INTERN: Dict[Tuple[VertexId, ...], Tuple[Tuple[VertexId, ...], Dict[VertexId, int]]] = {}


def _interned_layout(
    columns: Iterable[VertexId],
) -> Tuple[Tuple[VertexId, ...], Dict[VertexId, int]]:
    key = tuple(columns)
    layout = _LAYOUT_INTERN.get(key)
    if layout is None:
        layout = (key, {vertex: position for position, vertex in enumerate(key)})
        _LAYOUT_INTERN[key] = layout
    return layout


class EmbeddingTable:
    """All embeddings of one pattern, stored column-major without dicts.

    ``columns`` names the pattern vertices in a fixed order; each occurrence
    is one ``rows`` entry — a tuple of data vertices, position-aligned with
    ``columns`` — tagged with the transaction index in ``graph_ids``.

    The row data lives in one flat signed-64-bit arena per table
    (``array('q')``: one machine word per mapped data vertex, row-major)
    plus a second arena holding each row's sorted image key.  Derivations
    (:meth:`extended` / :meth:`subset`) append integer codes and slice
    arenas; the ``rows`` tuples are materialised lazily on first access and
    cached.  Tables whose data vertices are not machine-word integers keep
    eager per-row tuples instead (``storage_mode() == "tuple"``), as does a
    table whose ``rows`` are assigned.  Derived tables inherit their
    parent's storage, so the tuple path also serves as the reference the
    arena's differential tests compare against.  Compared to a
    ``List[Embedding]`` this representation

    * extends by **joining**: a new-vertex extension appends one column and
      materialises rows from recorded ``(row, data vertex)`` join pairs; an
      edge-closing extension keeps a subset of rows (by reference under
      tuple storage, by arena slice under array storage);
    * deduplicates occurrences through sorted-row image keys instead of
      per-embedding ``frozenset`` objects;
    * computes all three support measures lazily and caches them, so a
      support value is derived at most once per table.

    The legacy :class:`Embedding` objects remain the wire format — results
    and the index store round-trip through :meth:`to_embeddings` /
    :meth:`from_embeddings` unchanged.

    Examples
    --------
    Two occurrences of a one-edge pattern, extended by a join recording
    that row 0 can map a new pattern vertex ``2`` onto data vertex ``8``:

    >>> table = EmbeddingTable((0, 1), rows=[(5, 3), (6, 4)], graph_ids=[0, 1])
    >>> child = table.extended(2, [(0, 8)])
    >>> child.columns, child.rows
    ((0, 1, 2), [(5, 3, 8)])
    >>> child.rows[0][:2] == table.rows[0][:2]  # parent prefix shared
    True
    >>> table.embedding_support(), table.transaction_support()
    (2, 2)
    >>> EmbeddingTable.from_embeddings(table.to_embeddings()).rows == table.rows
    True
    """

    __slots__ = (
        "columns",
        "graph_ids",
        "_rows",
        "_arena",
        "_key_arena",
        "_position",
        "_row_keys",
        "_embedding_support",
        "_transaction_support",
        "_mni_support",
        "_prefix_cache",
    )

    def __init__(
        self,
        columns: Iterable[VertexId],
        rows: Optional[Iterable[Tuple[VertexId, ...]]] = None,
        graph_ids: Optional[Iterable[int]] = None,
    ) -> None:
        self.columns, self._position = _interned_layout(columns)
        row_list: List[Tuple[VertexId, ...]] = list(rows) if rows is not None else []
        self.graph_ids: List[int] = list(graph_ids) if graph_ids is not None else []
        if len(row_list) != len(self.graph_ids):
            raise ValueError("rows and graph_ids must have equal length")
        width = len(self.columns)
        for row in row_list:
            if len(row) != width:
                raise ValueError(
                    f"row {row!r} does not match the {width}-column layout"
                )
        self._rows: Optional[List[Tuple[VertexId, ...]]] = row_list
        self._arena: Optional[array] = None
        self._key_arena: Optional[array] = None
        arena = array("q")
        try:
            for row in row_list:
                arena.extend(row)
        except (TypeError, OverflowError):
            pass  # non-machine-word vertex ids: stay on tuple storage
        else:
            self._arena = arena
        self._row_keys: Optional[List[Tuple[VertexId, ...]]] = None
        self._embedding_support: Optional[int] = None
        self._transaction_support: Optional[int] = None
        self._mni_support: Optional[int] = None
        self._prefix_cache: Optional[Dict[int, List[Tuple[VertexId, ...]]]] = None

    @property
    def rows(self) -> List[Tuple[VertexId, ...]]:
        """Per-row data-vertex tuples, position-aligned with ``columns``.

        Under tuple storage this is the list itself.  Under arena storage
        the tuples are materialised from the flat arena on first access and
        cached — derivations that die at a frequency gate (most of them)
        never pay for per-row tuple objects.
        """
        rows = self._rows
        if rows is None:
            arena = self._arena
            width = len(self.columns)
            if width == 0:
                rows = [()] * len(self.graph_ids)
            else:
                rows = [
                    tuple(arena[base : base + width])
                    for base in range(0, len(arena), width)
                ]
            self._rows = rows
        return rows

    @rows.setter
    def rows(self, value: Iterable[Tuple[VertexId, ...]]) -> None:
        # Direct assignment replaces any arena-backed storage outright.
        self._rows = list(value)
        self._arena = None
        self._key_arena = None

    def storage_mode(self) -> str:
        """This table's actual storage: ``"array"`` or ``"tuple"``."""
        return "array" if self._arena is not None else "tuple"

    # ------------------------------------------------------------------ #
    # construction bridges
    # ------------------------------------------------------------------ #
    @classmethod
    def from_embeddings(cls, embeddings: Iterable[Embedding]) -> "EmbeddingTable":
        """Build a table from legacy :class:`Embedding` objects.

        All embeddings must cover the same pattern-vertex domain; the column
        order is the (sorted) mapping order of the first embedding.
        """
        iterator = iter(embeddings)
        first = next(iterator, None)
        if first is None:
            return cls(())
        columns = tuple(source for source, _ in first.mapping)
        rows: List[Tuple[VertexId, ...]] = []
        graph_ids: List[int] = []
        for embedding in (first, *iterator):
            mapping = dict(embedding.mapping)
            if len(mapping) != len(columns):
                raise ValueError("embeddings cover different pattern-vertex sets")
            try:
                rows.append(tuple(mapping[column] for column in columns))
            except KeyError:
                raise ValueError(
                    "embeddings cover different pattern-vertex sets"
                ) from None
            graph_ids.append(embedding.graph_index)
        return cls(columns, rows, graph_ids)

    @classmethod
    def from_path_occurrences(
        cls,
        occurrences: Iterable[Tuple[int, Tuple[VertexId, ...]]],
        length: int,
    ) -> "EmbeddingTable":
        """Build the level-0 table straight from a ``PathPattern``'s occurrences.

        Pattern vertices of a canonical diameter are ``0 .. length`` by
        convention, which is exactly the occurrence tuple order — no
        :class:`Embedding` objects are materialised.
        """
        rows: List[Tuple[VertexId, ...]] = []
        graph_ids: List[int] = []
        for graph_index, vertices in occurrences:
            rows.append(tuple(vertices))
            graph_ids.append(graph_index)
        return cls(range(length + 1), rows, graph_ids)

    def to_embeddings(self) -> List[Embedding]:
        """Materialise legacy :class:`Embedding` objects (the wire format).

        ``Embedding.mapping`` is sorted by pattern vertex id; the sort
        permutation depends only on the (shared, interned) column layout, so
        it is computed once per call and applied per row instead of sorting
        every row's pairs.
        """
        columns = self.columns
        order = sorted(range(len(columns)), key=columns.__getitem__)
        if order == list(range(len(columns))):
            return [
                Embedding(mapping=tuple(zip(columns, row)), graph_index=graph_index)
                for graph_index, row in zip(self.graph_ids, self.rows)
            ]
        ordered_columns = [columns[position] for position in order]
        return [
            Embedding(
                mapping=tuple(zip(ordered_columns, (row[p] for p in order))),
                graph_index=graph_index,
            )
            for graph_index, row in zip(self.graph_ids, self.rows)
        ]

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.graph_ids)

    def __iter__(self) -> Iterator[Embedding]:
        return iter(self.to_embeddings())

    def position_of(self, pattern_vertex: VertexId) -> int:
        """Column index of ``pattern_vertex`` (KeyError if unmapped)."""
        return self._position[pattern_vertex]

    def row_keys(self) -> List[Tuple[VertexId, ...]]:
        """Per-row sorted data-vertex tuples (the canonical image forms).

        Computed once and cached — and, crucially, **propagated** instead of
        recomputed along derivations: :meth:`extended` inserts the joined
        vertex into the parent's already-sorted key with one bisect, and
        :meth:`subset` selects parent keys by index.  Since every frequency
        gate touches the keys (embedding support is their distinct count),
        growth sorts each row once at the cluster root and never again.

        Examples
        --------
        >>> table = EmbeddingTable((0, 1), [(5, 3)], [0])
        >>> table.row_keys()
        [(3, 5)]
        >>> table.extended(2, [(0, 4)]).row_keys()
        [(3, 4, 5)]
        """
        keys = self._row_keys
        if keys is None:
            key_arena = self._key_arena
            if key_arena is not None:
                width = len(self.columns)
                if width == 0:
                    keys = [()] * len(self.graph_ids)
                else:
                    keys = [
                        tuple(key_arena[base : base + width])
                        for base in range(0, len(key_arena), width)
                    ]
            else:
                keys = [tuple(sorted(row)) for row in self.rows]
            self._row_keys = keys
        return keys

    def prefixes(self, width: int) -> List[Tuple[VertexId, ...]]:
        """Per-row ``row[:width]`` tuples, computed once and cached.

        The growth engine keys its probe caches and diameter balls by each
        row's diameter images — the first ``D(P) + 1`` row entries — and
        consults them once per candidate probe; caching the slices turns the
        repeated per-probe tuple copies into one list build per table.  Like
        the lazy support measures, the cache assumes rows are not mutated
        after the first query (tables are built, then read).
        """
        cache = self._prefix_cache
        if cache is None:
            cache = self._prefix_cache = {}
        slices = cache.get(width)
        if slices is None:
            slices = cache[width] = [row[:width] for row in self.rows]
        return slices

    def copy(self) -> "EmbeddingTable":
        clone = EmbeddingTable(self.columns)
        clone.graph_ids = list(self.graph_ids)
        clone._rows = None if self._rows is None else list(self._rows)
        clone._arena = None if self._arena is None else array("q", self._arena)
        clone._key_arena = (
            None if self._key_arena is None else array("q", self._key_arena)
        )
        if self._row_keys is not None:
            clone._row_keys = list(self._row_keys)
        return clone

    # ------------------------------------------------------------------ #
    # join-based derivation
    # ------------------------------------------------------------------ #
    def extended(
        self,
        new_vertex: VertexId,
        join_pairs: Iterable[Tuple[int, VertexId]],
    ) -> "EmbeddingTable":
        """One more column, rows joined from ``(row index, data vertex)`` pairs.

        This is the extension join: the caller recorded, while scanning this
        table's adjacency, which parent rows reach which data vertices; the
        new table is assembled from those deltas without re-matching any
        embedding.  When this table's sorted :meth:`row_keys` are already
        materialised (every table that passed a frequency gate has them),
        the child's keys are derived in the same pass by bisect insertion.
        """
        table = EmbeddingTable(self.columns + (new_vertex,))
        graph_ids = self.graph_ids
        append_gid = table.graph_ids.append
        arena = self._arena
        if arena is not None:
            # Arena storage: append integer codes, slice the parent arena.
            # The child's sorted key is the parent's with one bisect
            # insertion — done directly on the flat key arena when the
            # parent has one, else on its materialised key tuples.
            width = len(self.columns)
            table._rows = None
            table._arena = child_arena = array("q")
            key_arena = self._key_arena
            parent_keys = self._row_keys if key_arena is None else None
            if key_arena is not None:
                table._key_arena = child_keys = array("q")
                for row_index, data_vertex in join_pairs:
                    base = row_index * width
                    stop = base + width
                    child_arena.extend(arena[base:stop])
                    child_arena.append(data_vertex)
                    append_gid(graph_ids[row_index])
                    position = bisect_left(key_arena, data_vertex, base, stop)
                    child_keys.extend(key_arena[base:position])
                    child_keys.append(data_vertex)
                    child_keys.extend(key_arena[position:stop])
            elif parent_keys is not None:
                table._key_arena = child_keys = array("q")
                for row_index, data_vertex in join_pairs:
                    base = row_index * width
                    child_arena.extend(arena[base : base + width])
                    child_arena.append(data_vertex)
                    append_gid(graph_ids[row_index])
                    key = parent_keys[row_index]
                    position = bisect_left(key, data_vertex)
                    child_keys.extend(key[:position])
                    child_keys.append(data_vertex)
                    child_keys.extend(key[position:])
            else:
                for row_index, data_vertex in join_pairs:
                    base = row_index * width
                    child_arena.extend(arena[base : base + width])
                    child_arena.append(data_vertex)
                    append_gid(graph_ids[row_index])
            return table

        table._arena = None  # derived tables inherit the parent's storage
        rows = self.rows
        append_row = table.rows.append
        parent_keys = self._row_keys
        if parent_keys is None:
            for row_index, data_vertex in join_pairs:
                append_row(rows[row_index] + (data_vertex,))
                append_gid(graph_ids[row_index])
        else:
            keys: List[Tuple[VertexId, ...]] = []
            append_key = keys.append
            for row_index, data_vertex in join_pairs:
                append_row(rows[row_index] + (data_vertex,))
                append_gid(graph_ids[row_index])
                key = parent_keys[row_index]
                position = bisect_left(key, data_vertex)
                append_key(key[:position] + (data_vertex,) + key[position:])
            table._row_keys = keys
        return table

    def subset(self, row_indices: Iterable[int]) -> "EmbeddingTable":
        """The sub-table of ``row_indices`` — row tuples shared, not copied.

        Materialised :meth:`row_keys` are selected through by index, so an
        edge-closing extension (same vertex set, fewer rows) never re-sorts.
        """
        table = EmbeddingTable(self.columns)
        graph_ids = self.graph_ids
        arena = self._arena
        if arena is not None:
            row_indices = list(row_indices)
            width = len(self.columns)
            rows = self._rows  # select materialised tuples through if present
            table._rows = None if rows is None else []
            table._arena = child_arena = array("q")
            key_arena = self._key_arena
            parent_keys = self._row_keys
            if key_arena is not None:
                table._key_arena = child_keys = array("q")
            for row_index in row_indices:
                base = row_index * width
                child_arena.extend(arena[base : base + width])
                table.graph_ids.append(graph_ids[row_index])
                if rows is not None:
                    table._rows.append(rows[row_index])
                if key_arena is not None:
                    child_keys.extend(key_arena[base : base + width])
            if key_arena is None and parent_keys is not None:
                table._row_keys = [parent_keys[i] for i in row_indices]
            return table

        table._arena = None  # derived tables inherit the parent's storage
        rows = self.rows
        parent_keys = self._row_keys
        if parent_keys is None:
            for row_index in row_indices:
                table.rows.append(rows[row_index])
                table.graph_ids.append(graph_ids[row_index])
        else:
            keys: List[Tuple[VertexId, ...]] = []
            for row_index in row_indices:
                table.rows.append(rows[row_index])
                table.graph_ids.append(graph_ids[row_index])
                keys.append(parent_keys[row_index])
            table._row_keys = keys
        return table

    # ------------------------------------------------------------------ #
    # lazy support measures
    # ------------------------------------------------------------------ #
    def embedding_support(self) -> int:
        """|E[P]|: distinct (transaction, image) occurrences, cached.

        Counted by a merge-style scan over the sorted ``(transaction, image
        key)`` pairs — adjacent-distinct boundaries after one sort — instead
        of hashing every row key into a set (the hashing reference lives in
        the differential tests, pinned against this counter).  Row keys are
        per-row sorted tuples, so the
        lexicographic pair order groups duplicate occurrences adjacently and
        the scan is exact.  Under arena storage the image keys are compared
        as fixed-stride byte slices of the flat key arena — no per-row tuple
        is ever built for a table that dies at this gate.
        """
        if self._embedding_support is None:
            key_arena = self._key_arena
            if key_arena is not None and self._row_keys is None:
                width = len(self.columns)
                if width == 0:
                    self._embedding_support = len(set(self.graph_ids))
                    return self._embedding_support
                raw = key_arena.tobytes()
                stride = width * key_arena.itemsize
                pairs = sorted(
                    zip(
                        self.graph_ids,
                        (
                            raw[base : base + stride]
                            for base in range(0, len(raw), stride)
                        ),
                    )
                )
            else:
                pairs = sorted(zip(self.graph_ids, self.row_keys()))
            count = 0
            previous = None
            for pair in pairs:
                if pair != previous:
                    previous = pair
                    count += 1
            self._embedding_support = count
        return self._embedding_support

    def transaction_support(self) -> int:
        """Distinct transactions with at least one row, cached."""
        if self._transaction_support is None:
            self._transaction_support = len(set(self.graph_ids))
        return self._transaction_support

    def transactions(self) -> Set[int]:
        return set(self.graph_ids)

    def mni_support(self) -> int:
        """Minimum-image support: per-column distinct images, cached."""
        if self._mni_support is None:
            if not self.graph_ids or not self.columns:
                self._mni_support = 0
            else:
                graph_ids = self.graph_ids
                self._mni_support = min(
                    len({
                        (graph_index, row[position])
                        for graph_index, row in zip(graph_ids, self.rows)
                    })
                    for position in range(len(self.columns))
                )
        return self._mni_support

    def __repr__(self) -> str:
        return (
            f"<EmbeddingTable columns={len(self.columns)} rows={len(self.graph_ids)}>"
        )


def embeddings_from_maps(
    maps: Iterable[Dict[VertexId, VertexId]], graph_index: int = 0
) -> EmbeddingList:
    """Wrap raw vertex maps (e.g. from the isomorphism module) into an EmbeddingList."""
    collection = EmbeddingList()
    for mapping in maps:
        collection.add(Embedding.from_dict(mapping, graph_index))
    return collection


def mni_support(
    pattern: LabeledGraph, embeddings: Sequence[Embedding]
) -> int:
    """Minimum-image based (MNI) support of a pattern in a single graph.

    MNI is the standard anti-monotone single-graph support: for each pattern
    vertex count the distinct data vertices it maps to across all embeddings
    and take the minimum.  It is provided for the baselines (MoSS-style
    miners) and for harmonised comparisons; SkinnyMine itself follows the
    paper and counts embeddings.

    Examples
    --------
    >>> from repro.graph.labeled_graph import build_graph
    >>> pattern = build_graph({0: "a", 1: "b"}, [(0, 1)])
    >>> occurrences = [Embedding.from_dict({0: 5, 1: 3}),
    ...                Embedding.from_dict({0: 5, 1: 4})]
    >>> mni_support(pattern, occurrences)  # vertex 0 has one image, vertex 1 two
    1
    >>> embedding_support(occurrences), transaction_support(occurrences)
    (2, 1)
    """
    if pattern.num_vertices() == 0:
        return 0
    images: Dict[VertexId, Set[Tuple[int, VertexId]]] = {
        vertex: set() for vertex in pattern.vertices()
    }
    for embedding in embeddings:
        for source, target in embedding.mapping:
            images[source].add((embedding.graph_index, target))
    if not embeddings:
        return 0
    return min(len(targets) for targets in images.values())


def transaction_support(embeddings: Sequence[Embedding]) -> int:
    """Number of distinct transactions covered by ``embeddings``."""
    return len({embedding.graph_index for embedding in embeddings})


def embedding_support(embeddings: Sequence[Embedding]) -> int:
    """Number of distinct occurrences (transaction, vertex-image) pairs."""
    return len({embedding.image_key() for embedding in embeddings})


def path_embedding(
    path_pattern_vertices: Sequence[VertexId],
    data_path: Sequence[VertexId],
    graph_index: int = 0,
) -> Embedding:
    """Build the embedding mapping a pattern path onto a data-graph path.

    The two sequences must have equal length; position ``i`` of the pattern
    path is mapped to position ``i`` of the data path.
    """
    if len(path_pattern_vertices) != len(data_path):
        raise ValueError("pattern path and data path must have the same length")
    mapping = dict(zip(path_pattern_vertices, data_path))
    if len(mapping) != len(path_pattern_vertices):
        raise ValueError("pattern path vertices must be distinct")
    if len(set(data_path)) != len(data_path):
        raise ValueError("data path vertices must be distinct")
    return Embedding.from_dict(mapping, graph_index)
