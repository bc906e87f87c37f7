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
transactions) exactly as in :class:`repro.core.database.MiningContext`.  The
grouping deliberately bypasses :func:`repro.graph.canonical.canonical_key`:
the oracle shares no code with the cycle-rank ladder the miners key by.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.core.database import MiningContext, SupportMeasure
from repro.core.diameter import canonical_diameter, is_l_long_delta_skinny
from repro.core.patterns import SkinnyPattern
from repro.graph.canonical import CanonicalCode, minimum_dfs_code
from repro.graph.embeddings import Embedding
from repro.graph.labeled_graph import LabeledGraph, VertexId

EdgeKey = Tuple[VertexId, VertexId]
Occurrence = Tuple[int, FrozenSet[EdgeKey]]


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
        from repro.graph.isomorphism import find_subgraph_embeddings

        images: Dict[VertexId, Set[Tuple[int, VertexId]]] = {
            vertex: set() for vertex in pattern.vertices()
        }
        for graph_index in context.graph_indices():
            graph = context.graph(graph_index)
            for mapping in find_subgraph_embeddings(
                pattern, graph, distinct_images=False
            ):
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
