"""Text I/O, JSON records and content fingerprints for labeled graphs.

Three serialization surfaces are provided:

* **LG format** — the ``t # <id> / v <id> <label> / e <u> <v> [label]`` format
  used by gSpan-family tools.  ``read_lg``/``write_lg`` handle files that
  contain one or many graphs, including graphs with isolated labeled
  vertices, empty graphs inside a multi-graph file and the gSpan trailing
  ``t # -1`` end-of-file sentinel.  Labels containing whitespace (or ``%``)
  are percent-encoded so the space-delimited format stays lossless; labels
  are text on disk, so non-string labels round-trip as their ``str()`` form.
* **JSON records** — ``graph_to_record``/``graph_from_record`` produce plain
  dicts preserving vertex ids, labels and graph names exactly (used by the
  persistent pattern-index store, :mod:`repro.index.store`).
* **Fingerprints** — ``graph_fingerprint``/``dataset_fingerprint`` hash graph
  content (not object identity) so index entries can be keyed by the dataset
  they were mined from.

Datasets produced by :mod:`repro.datasets` can be persisted with these
helpers so the benchmark harness can cache expensive generations.
"""

from __future__ import annotations

import hashlib
import re
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from repro.graph.labeled_graph import Label, LabeledGraph

PathLike = Union[str, Path]

# Only the characters the writer must escape are ever decoded on read, so a
# legacy or third-party file whose labels happen to contain other
# percent-looking text (e.g. "%41") loads verbatim.
_LABEL_ESCAPES = {
    " ": "%20",
    "\t": "%09",
    "\n": "%0A",
    "\x0b": "%0B",
    "\x0c": "%0C",
    "\r": "%0D",
    "%": "%25",
}
_LABEL_UNESCAPES = {escape: char for char, escape in _LABEL_ESCAPES.items()}
_LABEL_ESCAPE_RE = re.compile("|".join(re.escape(e) for e in _LABEL_UNESCAPES))


def _encode_label_token(label: Label) -> str:
    """Render a label as a single whitespace-free LG token.

    Labels containing ASCII whitespace or ``%`` are escaped with the table
    above; everything else is written verbatim, so files for ordinary labels
    are byte-identical to the historical format.
    """
    text = str(label)
    if text == "":
        raise ValueError("LG format cannot represent empty-string labels")
    if "%" in text or any(ch.isspace() for ch in text):
        unsupported = [ch for ch in text if ch.isspace() and ch not in _LABEL_ESCAPES]
        if unsupported:
            raise ValueError(
                f"LG format cannot represent label {text!r}: "
                f"non-ASCII whitespace {unsupported!r}"
            )
        return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in text)
    return text


def _decode_label_token(token: str) -> str:
    if "%" not in token:
        return token
    return _LABEL_ESCAPE_RE.sub(lambda match: _LABEL_UNESCAPES[match.group(0)], token)


def write_lg(graphs: Union[LabeledGraph, Sequence[LabeledGraph]], path: PathLike) -> None:
    """Write one graph or a list of graphs in LG format."""
    if isinstance(graphs, LabeledGraph):
        graphs = [graphs]
    lines: List[str] = []
    for index, graph in enumerate(graphs):
        lines.append(f"t # {index}")
        id_map = {vertex: position for position, vertex in enumerate(graph.vertices())}
        for vertex in graph.vertices():
            lines.append(f"v {id_map[vertex]} {_encode_label_token(graph.label_of(vertex))}")
        for edge in graph.edges():
            if edge.label is None:
                lines.append(f"e {id_map[edge.u]} {id_map[edge.v]}")
            else:
                lines.append(
                    f"e {id_map[edge.u]} {id_map[edge.v]} {_encode_label_token(edge.label)}"
                )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_lg(path: PathLike) -> List[LabeledGraph]:
    """Read a (multi-)graph LG file written by :func:`write_lg` or gSpan tools.

    A trailing empty graph declared as ``t # -1`` (the gSpan end-of-file
    sentinel) is dropped; empty graphs with a real id are preserved.
    """
    graphs: List[LabeledGraph] = []
    declared_ids: List[str] = []
    current: LabeledGraph | None = None
    for raw_line in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "t":
            current = LabeledGraph(name=f"graph-{len(graphs)}")
            graphs.append(current)
            declared_ids.append(parts[2] if len(parts) > 2 else "")
        elif parts[0] == "v":
            if current is None:
                raise ValueError("vertex line before any 't' line")
            if len(parts) < 3:
                raise ValueError(f"malformed vertex line: {raw_line!r}")
            current.add_vertex(int(parts[1]), _decode_label_token(parts[2]))
        elif parts[0] == "e":
            if current is None:
                raise ValueError("edge line before any 't' line")
            if len(parts) < 3:
                raise ValueError(f"malformed edge line: {raw_line!r}")
            label = _decode_label_token(parts[3]) if len(parts) > 3 else None
            current.add_edge(int(parts[1]), int(parts[2]), label)
        else:
            raise ValueError(f"unrecognised LG line: {raw_line!r}")
    if graphs and declared_ids[-1] == "-1" and graphs[-1].num_vertices() == 0:
        graphs.pop()
    return graphs


def graph_from_edge_list(
    rows: Iterable[Tuple[int, str, int, str]], name: str = ""
) -> LabeledGraph:
    """Build a graph from ``(u, label_u, v, label_v)`` rows."""
    graph = LabeledGraph(name=name)
    for u, label_u, v, label_v in rows:
        if not graph.has_vertex(u):
            graph.add_vertex(u, label_u)
        if not graph.has_vertex(v):
            graph.add_vertex(v, label_v)
        graph.add_edge(u, v)
    return graph


# --------------------------------------------------------------------- #
# JSON records (lossless, used by the persistent pattern-index store)
# --------------------------------------------------------------------- #
_JSON_LABEL_TYPES = (str, int, float, bool, type(None))


def _json_label(label: Label) -> Label:
    if isinstance(label, _JSON_LABEL_TYPES):
        return label
    raise TypeError(
        f"label {label!r} is not JSON-serialisable; "
        "JSON graph records support str/int/float/bool/None labels"
    )


def graph_to_record(graph: LabeledGraph) -> Dict:
    """Serialise a graph to a plain JSON-compatible dict.

    Unlike the LG text format this is lossless: vertex ids, label types
    (within JSON scalars), edge labels and the graph name are all preserved.
    """
    return {
        "name": graph.name,
        "vertices": [
            [vertex, _json_label(graph.label_of(vertex))] for vertex in graph.vertices()
        ],
        "edges": [
            [edge.u, edge.v, None if edge.label is None else _json_label(edge.label)]
            for edge in graph.edges()
        ],
    }


def graph_from_record(record: Dict) -> LabeledGraph:
    """Rebuild a graph from a :func:`graph_to_record` dict."""
    graph = LabeledGraph(name=record.get("name", ""))
    for vertex, label in record["vertices"]:
        graph.add_vertex(int(vertex), label)
    for u, v, label in record["edges"]:
        graph.add_edge(int(u), int(v), label)
    return graph


# --------------------------------------------------------------------- #
# content fingerprints (index-store keys)
# --------------------------------------------------------------------- #
#: Lines hashed per ``sha256.update`` call: large enough that per-call
#: overhead vanishes, small enough that no graph is held as one string.
_FINGERPRINT_CHUNK_LINES = 8192


def _fingerprint_lines(graph: LabeledGraph) -> Iterator[str]:
    """``v <id> <label!r>`` per vertex, then ``e <u> <v> <label!r>`` per edge, sorted."""
    labels = graph.vertex_labels()
    edge_labels = graph.edge_labels()
    vertices = sorted(labels)
    for vertex in vertices:
        yield f"v {vertex} {labels[vertex]!r}\n"
    for u in vertices:
        for v in sorted(graph.neighbors(u)):
            if u < v:
                yield f"e {u} {v} {edge_labels.get((u, v))!r}\n"


def graph_fingerprint(graph: LabeledGraph) -> str:
    """A stable hex digest of the graph's *content* (vertices, labels, edges).

    Two graphs with identical vertex ids, labels and edges produce the same
    fingerprint regardless of insertion order or object identity; any edit
    (including via :class:`repro.core.database.GraphDelta`) changes it.  The
    graph name is deliberately excluded — it is presentation metadata.  The
    digest keys stored index entries, so its input lines must never change.
    """
    digest = hashlib.sha256()
    lines = _fingerprint_lines(graph)
    while True:
        chunk = "".join(islice(lines, _FINGERPRINT_CHUNK_LINES))
        if not chunk:
            return digest.hexdigest()
        digest.update(chunk.encode("utf-8"))


def dataset_fingerprint(graphs: Union[LabeledGraph, Sequence[LabeledGraph]]) -> str:
    """Fingerprint of a whole dataset (one graph or an ordered graph database)."""
    if isinstance(graphs, LabeledGraph):
        graphs = [graphs]
    digest = hashlib.sha256()
    for graph in graphs:
        digest.update(graph_fingerprint(graph).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()
