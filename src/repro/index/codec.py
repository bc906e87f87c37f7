"""JSON codec for the objects held by the pattern-index store.

The persistent store (:mod:`repro.index.store`) serialises *minimal
constraint-satisfying patterns together with their embeddings* — the paper's
Stage-1 output.  Three record types are supported:

* ``path`` — :class:`repro.core.patterns.PathPattern` (SkinnyMine's minimal
  patterns: frequent length-l paths with their ordered occurrences);
* ``skinny`` — :class:`repro.core.patterns.SkinnyPattern` (full mined
  patterns, used by the service's result persistence);
* ``graph`` — a bare :class:`repro.graph.labeled_graph.LabeledGraph`
  (minimal patterns of generic constraints in the direct-mining framework).

Records are plain dicts tagged with a ``"type"`` key so one store entry can
mix them; decoding an unknown tag raises :class:`CodecError` rather than
silently dropping data.

Two corpus-query hooks live here as well:

* :func:`pattern_metadata` — the *indexable* facts about a storable object
  (kind, support, size, labels, diameter descriptor).  The SQLite store
  persists exactly these as columns at ``put`` time; the base-class scan
  (memory store, snapshot overlays) recomputes them from decoded objects.
  Keeping the extraction in one place is what makes the indexed query and
  the scan answer identically.
* :func:`decode_count` — a process-wide counter of :func:`decode_record`
  calls.  The SQLite store's claim to answer metadata queries *without*
  deserialising non-matching pattern bodies is pinned against it
  (``tests/index/test_sqlite_store.py``).
"""

from __future__ import annotations

from typing import Dict

from repro.core.patterns import PathPattern, SkinnyPattern
from repro.graph.embeddings import Embedding
from repro.graph.io import graph_from_record, graph_to_record
from repro.graph.labeled_graph import LabeledGraph


class CodecError(ValueError):
    """Raised when a record cannot be encoded or decoded."""


#: Monotonic count of decode_record calls; read it through decode_count().
_decode_calls = 0


def decode_count() -> int:
    """How many pattern bodies this process has decoded so far.

    The counter only ever grows; tests snapshot it before an operation and
    compare the delta.  This is the instrument behind the SQLite backend's
    contract that corpus queries never deserialise non-matching bodies.

    Examples
    --------
    >>> before = decode_count()
    >>> graph = LabeledGraph()
    >>> _ = graph.add_vertex(0, "a")
    >>> _ = decode_record(encode_record(graph))
    >>> decode_count() - before
    1
    """
    return _decode_calls


def encode_record(obj: object) -> Dict:
    """Serialise one storable object to a tagged JSON-compatible dict.

    Examples
    --------
    >>> pattern = PathPattern(("a", "b"), ((0, (1, 2)),), support=1)
    >>> encode_record(pattern)["type"]
    'path'
    >>> decode_record(encode_record(pattern)) == pattern
    True
    """
    if isinstance(obj, PathPattern):
        return {
            "type": "path",
            "labels": list(obj.labels),
            "support": obj.support,
            "embeddings": [
                [graph_index, list(vertices)] for graph_index, vertices in obj.embeddings
            ],
        }
    if isinstance(obj, SkinnyPattern):
        return {
            "type": "skinny",
            "graph": graph_to_record(obj.graph),
            "diameter": list(obj.diameter),
            "support": obj.support,
            "embeddings": [
                [embedding.graph_index, [list(pair) for pair in embedding.mapping]]
                for embedding in obj.embeddings
            ],
        }
    if isinstance(obj, LabeledGraph):
        return {"type": "graph", "graph": graph_to_record(obj)}
    raise CodecError(f"cannot encode object of type {type(obj).__name__} for the index store")


def decode_record(record: Dict) -> object:
    """Rebuild a storable object from a tagged dict (counted; see decode_count)."""
    global _decode_calls
    _decode_calls += 1
    kind = record.get("type")
    if kind == "path":
        return PathPattern(
            labels=tuple(record["labels"]),
            embeddings=tuple(
                (graph_index, tuple(vertices))
                for graph_index, vertices in record["embeddings"]
            ),
            support=record["support"],
        )
    if kind == "skinny":
        return SkinnyPattern(
            graph=graph_from_record(record["graph"]),
            diameter=list(record["diameter"]),
            embeddings=[
                Embedding(
                    mapping=tuple(tuple(pair) for pair in mapping),
                    graph_index=graph_index,
                )
                for graph_index, mapping in record["embeddings"]
            ],
            support=record["support"],
        )
    if kind == "graph":
        return graph_from_record(record["graph"])
    raise CodecError(f"unknown index-store record type {kind!r}")


def pattern_metadata(obj: object) -> Dict[str, object]:
    """The indexable metadata of one storable object (no body required back).

    Returns a dict with exactly the keys the corpus-query surface filters
    and orders on: ``kind``, ``support`` (``None`` for bare graphs, which
    carry no frequency), ``size`` (number of edges), ``num_vertices``,
    ``labels`` (sorted, de-duplicated vertex labels), ``diameter_len`` and
    ``diameter_labels`` (``None`` when the object has no distinguished
    diameter).  The SQLite store persists these as columns; the base-class
    scan recomputes them per decoded object — one function, one answer
    either way.

    Examples
    --------
    >>> meta = pattern_metadata(PathPattern(("a", "b", "a"), (), support=3))
    >>> (meta["kind"], meta["support"], meta["size"], meta["labels"])
    ('path', 3, 2, ('a', 'b'))
    >>> graph = LabeledGraph()
    >>> _ = graph.add_vertex(0, "x")
    >>> pattern_metadata(graph)["support"] is None
    True
    """
    if isinstance(obj, PathPattern):
        labels = tuple(str(label) for label in obj.labels)
        return {
            "kind": "path",
            "support": obj.support,
            "size": obj.length,
            "num_vertices": len(labels),
            "labels": tuple(sorted(set(labels))),
            "diameter_len": obj.length,
            "diameter_labels": labels,
        }
    if isinstance(obj, SkinnyPattern):
        vertex_labels = tuple(
            str(obj.graph.label_of(vertex)) for vertex in obj.graph.vertices()
        )
        return {
            "kind": "skinny",
            "support": obj.support,
            "size": obj.graph.num_edges(),
            "num_vertices": obj.graph.num_vertices(),
            "labels": tuple(sorted(set(vertex_labels))),
            "diameter_len": obj.diameter_length,
            "diameter_labels": obj.diameter_labels(),
        }
    if isinstance(obj, LabeledGraph):
        vertex_labels = tuple(str(obj.label_of(vertex)) for vertex in obj.vertices())
        return {
            "kind": "graph",
            "support": None,
            "size": obj.num_edges(),
            "num_vertices": obj.num_vertices(),
            "labels": tuple(sorted(set(vertex_labels))),
            "diameter_len": None,
            "diameter_labels": None,
        }
    raise CodecError(
        f"cannot extract metadata from object of type {type(obj).__name__}"
    )
