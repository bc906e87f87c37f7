"""Reference enumerate-and-check miner for validating SkinnyMine.

This is the "traditional mining" strawman from Figure 1/2 of the paper: grow
every connected frequent subgraph pattern breadth-first, then keep those that
satisfy the l-long δ-skinny constraint.  It is exponential and only usable on
tiny inputs, which is exactly its role here — a ground-truth oracle for the
completeness and uniqueness tests, and the baseline that the direct-mining
benchmarks beat.

The enumeration is edge-set based: patterns are grown by adding one data edge
at a time to a connected occurrence, occurrences are grouped by the pattern's
minimum DFS code, and support is the number of distinct occurrences (or
transactions) exactly as in :class:`repro.core.database.MiningContext`.

The minimum DFS code [Yan & Han, ICDM 2002] lives here, not in
:mod:`repro.graph.canonical`: it is exact for every graph but exponential on
symmetric ones, so it is the oracle's key only.  The grouping deliberately
bypasses :func:`repro.graph.canonical.canonical_key`, so the oracle shares no
code with the canonical form the miners key by, and the canonical-form tests
keep the DFS code as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.core.database import MiningContext, SupportMeasure
from repro.core.diameter import canonical_diameter, is_l_long_delta_skinny
from repro.core.patterns import SkinnyPattern
from repro.graph.embeddings import Embedding
from repro.graph.labeled_graph import Label, LabeledGraph, VertexId

EdgeKey = Tuple[VertexId, VertexId]
Occurrence = Tuple[int, FrozenSet[EdgeKey]]
DFSEdge = Tuple[int, int, str, str, str]


def _label_key(label: Optional[Label]) -> str:
    """Normalise a label to a string for lexicographic comparison."""
    return "" if label is None else str(label)


@dataclass(frozen=True)
class CanonicalCode:
    """The canonical (minimum) DFS code of a graph, usable as a dict key."""

    code: Tuple[DFSEdge, ...]
    num_vertices: int
    isolated_labels: Tuple[str, ...]

    def __lt__(self, other: "CanonicalCode") -> bool:
        return (
            _code_key(self.code),
            self.isolated_labels,
        ) < (_code_key(other.code), other.isolated_labels)


def _edge_sort_key(edge: DFSEdge) -> Tuple:
    """gSpan edge order key for a single DFS-code edge.

    Backward edges (j < i) sort before forward edges from the same vertex;
    among forward edges smaller source index (deeper rightmost-path vertex is
    *larger* i, so smaller i means earlier) — the standard gSpan total order
    is realised by comparing these keys tuple-wise.
    """
    i, j, li, le, lj = edge
    forward = 1 if i < j else 0
    if forward:
        return (forward, j, i, li, le, lj)
    return (forward, i, j, li, le, lj)


def _code_key(code: Sequence[DFSEdge]) -> Tuple:
    return tuple(_edge_sort_key(edge) for edge in code)


def _candidate_roots(graph: LabeledGraph) -> List[VertexId]:
    """Vertices whose label is lexicographically minimal (valid DFS roots)."""
    best_label = min(_label_key(graph.label_of(v)) for v in graph.vertices())
    return [v for v in graph.vertices() if _label_key(graph.label_of(v)) == best_label]


def _min_code_from_root(graph: LabeledGraph, root: VertexId) -> Tuple[DFSEdge, ...]:
    """Smallest DFS code over traversals rooted at ``root`` (branch and bound).

    The search enumerates every DFS traversal rooted at ``root`` (extensions
    are restricted to the rightmost path as usual for DFS codes) and keeps the
    lexicographically smallest complete code.  Branches whose prefix already
    compares greater than the best code's prefix of equal length are pruned —
    a sound cut because code comparison is lexicographic edge by edge and all
    complete codes have exactly ``|E|`` edges.  Some partial traversals are
    dead ends (an unused edge hangs off a vertex that has left the rightmost
    path); those branches simply do not produce a candidate.
    """
    best: List[Optional[Tuple[DFSEdge, ...]]] = [None]
    best_key: List[Optional[Tuple]] = [None]
    total_edges = graph.num_edges()

    def recurse(
        code: List[DFSEdge],
        discovery: Dict[VertexId, int],
        rightmost_path: List[VertexId],
        used_edges: set,
    ) -> None:
        if best_key[0] is not None and code:
            current_key = _code_key(code)
            prefix_key = best_key[0][: len(code)]
            if current_key > prefix_key:
                return
        if len(used_edges) == total_edges:
            candidate = tuple(code)
            candidate_key = _code_key(candidate)
            if best_key[0] is None or candidate_key < best_key[0]:
                best[0] = candidate
                best_key[0] = candidate_key
            return

        extensions: List[Tuple[Tuple, DFSEdge, VertexId, VertexId]] = []
        # Backward edges may only leave the rightmost vertex and land on the
        # rightmost path.
        rightmost = rightmost_path[-1]
        rightmost_set = set(rightmost_path)
        for neighbor in graph.neighbors(rightmost):
            key = frozenset((rightmost, neighbor))
            if key in used_edges:
                continue
            if neighbor in rightmost_set:
                edge = (
                    discovery[rightmost],
                    discovery[neighbor],
                    _label_key(graph.label_of(rightmost)),
                    _label_key(graph.edge_label(rightmost, neighbor)),
                    _label_key(graph.label_of(neighbor)),
                )
                extensions.append((_edge_sort_key(edge), edge, rightmost, neighbor))
        # Forward edges may leave any vertex on the rightmost path.
        for path_vertex in rightmost_path:
            for neighbor in graph.neighbors(path_vertex):
                key = frozenset((path_vertex, neighbor))
                if key in used_edges or neighbor in discovery:
                    continue
                edge = (
                    discovery[path_vertex],
                    len(discovery),
                    _label_key(graph.label_of(path_vertex)),
                    _label_key(graph.edge_label(path_vertex, neighbor)),
                    _label_key(graph.label_of(neighbor)),
                )
                extensions.append((_edge_sort_key(edge), edge, path_vertex, neighbor))

        extensions.sort(key=lambda item: item[0])
        for _, edge, source, target in extensions:
            i, j = edge[0], edge[1]
            is_forward = i < j
            used_edges.add(frozenset((source, target)))
            code.append(edge)
            if is_forward:
                discovery[target] = j
                # Rightmost path becomes root -> ... -> source -> target.
                source_index = rightmost_path.index(source)
                new_rightmost = rightmost_path[: source_index + 1] + [target]
                recurse(code, discovery, new_rightmost, used_edges)
                del discovery[target]
            else:
                recurse(code, discovery, rightmost_path, used_edges)
            code.pop()
            used_edges.discard(frozenset((source, target)))

    recurse([], {root: 0}, [root], set())
    if best[0] is None:
        return tuple()
    return best[0]


def minimum_dfs_code(graph: LabeledGraph) -> CanonicalCode:
    """Return the canonical (minimum) DFS code of ``graph``.

    The lexicographically smallest DFS code over all rooted DFS traversals:
    a sequence of ``(i, j, l_i, l_e, l_j)`` edges with DFS discovery indices
    ``i``/``j`` (forward edges ``i < j``) and vertex/edge labels (``None``
    compared as the empty string).  Isolated vertices carry no edges, so
    they are recorded separately as a sorted label tuple; the code itself
    covers every edge of the graph.  Isomorphic graphs produce equal
    ``CanonicalCode`` values, non-isomorphic graphs produce different ones
    (for connected labeled graphs, this is the gSpan canonical form;
    components are encoded independently and sorted).  Exponential in the
    worst case: the oracle's key only.
    """
    isolated = tuple(
        sorted(
            _label_key(graph.label_of(v))
            for v in graph.vertices()
            if graph.degree(v) == 0
        )
    )
    if graph.num_edges() == 0:
        return CanonicalCode(code=(), num_vertices=graph.num_vertices(), isolated_labels=isolated)

    component_codes: List[Tuple[DFSEdge, ...]] = []
    for component in graph.connected_components():
        if len(component) == 1:
            continue
        subgraph = graph.subgraph(component)
        best: Optional[Tuple[DFSEdge, ...]] = None
        for root in _candidate_roots(subgraph):
            candidate = _min_code_from_root(subgraph, root)
            if best is None or _code_key(candidate) < _code_key(best):
                best = candidate
        component_codes.append(best if best is not None else tuple())

    component_codes.sort(key=_code_key)
    flat: List[DFSEdge] = []
    for offset, code in enumerate(component_codes):
        # Offset vertex indices per component so concatenation stays unambiguous.
        shift = sum(
            max((max(e[0], e[1]) for e in earlier), default=-1) + 1
            for earlier in component_codes[:offset]
        )
        for i, j, li, le, lj in code:
            flat.append((i + shift, j + shift, li, le, lj))
    return CanonicalCode(
        code=tuple(flat),
        num_vertices=graph.num_vertices(),
        isolated_labels=isolated,
    )




def _edge_key(u: VertexId, v: VertexId) -> EdgeKey:
    return (u, v) if u < v else (v, u)


def _occurrence_graph(data_graph: LabeledGraph, edges: FrozenSet[EdgeKey]) -> LabeledGraph:
    return data_graph.edge_subgraph(sorted(edges))


def _pattern_of_occurrence(
    data_graph: LabeledGraph, edges: FrozenSet[EdgeKey]
) -> Tuple[CanonicalCode, LabeledGraph]:
    subgraph = _occurrence_graph(data_graph, edges)
    compacted, _ = subgraph.compact()
    return minimum_dfs_code(compacted), compacted


def enumerate_frequent_connected_subgraphs(
    context: MiningContext,
    max_edges: int,
    max_patterns: Optional[int] = None,
) -> List[Tuple[LabeledGraph, List[Occurrence], int]]:
    """All frequent connected subgraph patterns with at most ``max_edges`` edges.

    Returns ``(pattern graph, occurrences, support)`` triples.  Exponential —
    keep ``max_edges`` and the data tiny.
    """
    if max_edges < 1:
        raise ValueError("max_edges must be at least 1")

    # Seed with single-edge occurrences.
    current: Dict[CanonicalCode, Dict[Occurrence, None]] = {}
    pattern_graphs: Dict[CanonicalCode, LabeledGraph] = {}
    for graph_index in context.graph_indices():
        graph = context.graph(graph_index)
        for edge in graph.edges():
            edges = frozenset({_edge_key(edge.u, edge.v)})
            key, pattern = _pattern_of_occurrence(graph, edges)
            current.setdefault(key, {})[(graph_index, edges)] = None
            pattern_graphs.setdefault(key, pattern)

    results: List[Tuple[LabeledGraph, List[Occurrence], int]] = []
    seen_patterns: Set[CanonicalCode] = set()

    def mni_of(pattern: LabeledGraph) -> int:
        # Position-wise minimum image count over *all* embeddings of the
        # pattern (including automorphic re-mappings), the textbook MNI.
        # VF2 lets an unlabelled pattern edge match a labelled data edge,
        # so a mapping counts only if every edge label matches exactly, as
        # the occurrences behind the other two measures do.
        from repro.graph.isomorphism import find_subgraph_embeddings

        images: Dict[VertexId, Set[Tuple[int, VertexId]]] = {
            vertex: set() for vertex in pattern.vertices()
        }
        for graph_index in context.graph_indices():
            graph = context.graph(graph_index)
            for mapping in find_subgraph_embeddings(
                pattern, graph, distinct_images=False
            ):
                if any(
                    graph.edge_label(mapping[edge.u], mapping[edge.v]) != edge.label
                    for edge in pattern.edges()
                ):
                    continue
                for pattern_vertex, data_vertex in mapping.items():
                    images[pattern_vertex].add((graph_index, data_vertex))
        return min((len(image) for image in images.values()), default=0)

    def support_of(key: CanonicalCode, occurrences: Sequence[Occurrence]) -> int:
        if context.support_measure is SupportMeasure.TRANSACTIONS:
            return len({index for index, _ in occurrences})
        if context.support_measure is SupportMeasure.MNI:
            return mni_of(pattern_graphs[key])
        images = {
            (index, frozenset(v for edge in edges for v in edge))
            for index, edges in occurrences
        }
        return len(images)

    size = 1
    while current and size <= max_edges:
        next_level: Dict[CanonicalCode, Dict[Occurrence, None]] = {}
        for key, occurrence_map in current.items():
            occurrences = list(occurrence_map)
            support = support_of(key, occurrences)
            frequent = context.is_frequent(support)
            # Under an anti-monotone measure an infrequent pattern has no
            # frequent super-pattern, so pruning it is lossless.  Embedding
            # count is not anti-monotone (two embeddings of a super-pattern
            # can share one image of a sub-pattern), so there the oracle
            # keeps extending every pattern that occurs at all and only the
            # *reporting* is thresholded — exhaustive, as ground truth must be.
            if not frequent and context.support_measure.anti_monotone:
                continue
            if frequent and key not in seen_patterns:
                seen_patterns.add(key)
                results.append((pattern_graphs[key], occurrences, support))
                if max_patterns is not None and len(results) >= max_patterns:
                    return results
            if size == max_edges:
                continue
            for graph_index, edges in occurrences:
                graph = context.graph(graph_index)
                vertices = {v for edge in edges for v in edge}
                for vertex in vertices:
                    for neighbor in graph.neighbors(vertex):
                        new_edge = _edge_key(vertex, neighbor)
                        if new_edge in edges:
                            continue
                        extended = edges | {new_edge}
                        new_key, new_pattern = _pattern_of_occurrence(graph, extended)
                        next_level.setdefault(new_key, {})[
                            (graph_index, extended)
                        ] = None
                        pattern_graphs.setdefault(new_key, new_pattern)
        current = next_level
        size += 1
    return results


def enumerate_and_check_spm(
    graphs: Union[LabeledGraph, Sequence[LabeledGraph]],
    length: int,
    delta: int,
    min_support: int,
    max_edges: Optional[int] = None,
    support_measure: Optional[SupportMeasure] = None,
) -> List[SkinnyPattern]:
    """Ground-truth (l, δ)-SPM solver by exhaustive enumerate-and-check.

    ``max_edges`` defaults to a bound sufficient for any l-long δ-skinny
    pattern present in the data: patterns are connected, so at most
    ``|V(data)| - 1 + cycles`` edges — we simply use the total number of data
    edges, which is safe but means the caller should keep the data tiny.
    """
    context = MiningContext(graphs, min_support, support_measure)
    if max_edges is None:
        max_edges = max(graph.num_edges() for graph in context.graphs)
    frequent = enumerate_frequent_connected_subgraphs(context, max_edges)
    results: List[SkinnyPattern] = []
    for pattern, occurrences, support in frequent:
        if not is_l_long_delta_skinny(pattern, length, delta):
            continue
        embeddings = [
            Embedding.from_dict(
                {position: vertex for position, vertex in enumerate(sorted(
                    {v for edge in edges for v in edge}
                ))},
                graph_index,
            )
            for graph_index, edges in occurrences
        ]
        results.append(
            SkinnyPattern(
                graph=pattern,
                diameter=canonical_diameter(pattern),
                embeddings=embeddings,
                support=support,
            )
        )
    return results
