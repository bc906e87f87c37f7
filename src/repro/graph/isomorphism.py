"""Label-aware (sub)graph isomorphism and embedding enumeration.

Three operations are needed by the miners:

* ``are_isomorphic(g1, g2)`` — exact labeled graph isomorphism
  (Definition 1 in the paper), used to deduplicate patterns.
* ``find_subgraph_embeddings(pattern, graph)`` — enumerate embeddings of a
  pattern in a data graph.  An embedding of ``P`` in ``G`` is a subgraph
  ``G' ⊆ G`` with ``P =_L G'`` (Section 2); we return the witnessing vertex
  maps.  Support in the single-graph setting is ``|E[P]|``, the number of
  distinct embeddings (distinct vertex-image sets).
* ``find_automorphisms(g)`` — automorphism group of a pattern, used to avoid
  counting symmetric matches as distinct embeddings.

The matcher is a VF2-style backtracking search specialised for small pattern
graphs (the patterns the miners grow are tens of vertices at most) matched
into a potentially much larger data graph.  Candidate vertices are filtered by
label, degree and neighbourhood-connectivity before recursing.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graph.labeled_graph import LabeledGraph, VertexId

VertexMap = Dict[VertexId, VertexId]


def _match_order(pattern: LabeledGraph) -> List[VertexId]:
    """Choose a matching order that keeps the partial pattern connected.

    Start from a vertex with the rarest label/highest degree and grow a
    BFS-like frontier; each subsequent vertex is adjacent to an already
    ordered one whenever the pattern is connected, which lets the matcher
    prune by connectivity at every step.
    """
    if pattern.num_vertices() == 0:
        return []
    histogram = pattern.label_histogram()

    def start_key(vertex: VertexId) -> Tuple[int, int, int]:
        return (histogram[pattern.label_of(vertex)], -pattern.degree(vertex), vertex)

    # The selection criteria (most ordered neighbours, then degree, then
    # smallest id) are a total order, so maintaining the ordered-neighbour
    # counts incrementally — one bump per edge into the prefix — produces
    # exactly the order the historical per-step set intersections did, minus
    # their quadratic cost (this runs once per isomorphism test).
    remaining: Set[VertexId] = set(pattern.vertices())
    order: List[VertexId] = []
    attached_count: Dict[VertexId, int] = {}
    while remaining:
        if attached_count:
            nxt = max(
                attached_count,
                key=lambda v: (attached_count[v], pattern.degree(v), -v),
            )
            del attached_count[nxt]
        else:
            nxt = min(remaining, key=start_key)
        order.append(nxt)
        remaining.discard(nxt)
        for neighbor in pattern.neighbors(nxt):
            if neighbor in remaining:
                attached_count[neighbor] = attached_count.get(neighbor, 0) + 1
    return order


def _candidate_targets(
    pattern: LabeledGraph,
    graph: LabeledGraph,
    pattern_vertex: VertexId,
    mapping: VertexMap,
    used_targets: Set[VertexId],
    anchors: Optional[Dict[VertexId, VertexId]],
) -> Iterator[VertexId]:
    """Yield data-graph vertices that could host ``pattern_vertex``."""
    if anchors and pattern_vertex in anchors:
        forced = anchors[pattern_vertex]
        if forced not in used_targets and graph.has_vertex(forced):
            yield forced
        return

    label = pattern.label_of(pattern_vertex)
    mapped_neighbors = [
        mapping[p_neighbor]
        for p_neighbor in pattern.neighbors(pattern_vertex)
        if p_neighbor in mapping
    ]
    if mapped_neighbors:
        # Candidates must be common neighbours of all already-mapped
        # pattern-neighbours: intersect starting from the smallest set.
        neighbor_sets = sorted(
            (graph.neighbors(g_vertex) for g_vertex in mapped_neighbors), key=len
        )
        candidates: Set[VertexId] = set(neighbor_sets[0])
        for other in neighbor_sets[1:]:
            candidates &= other
            if not candidates:
                return
    else:
        candidates = set(graph.vertices())

    degree_needed = pattern.degree(pattern_vertex)
    for target in candidates:
        if target in used_targets:
            continue
        if graph.label_of(target) != label:
            continue
        if graph.degree(target) < degree_needed:
            continue
        yield target


def _edges_compatible(
    pattern: LabeledGraph,
    graph: LabeledGraph,
    pattern_vertex: VertexId,
    target: VertexId,
    mapping: VertexMap,
    induced: bool,
) -> bool:
    """Check edge consistency of mapping ``pattern_vertex -> target``."""
    for p_neighbor in pattern.neighbors(pattern_vertex):
        if p_neighbor in mapping:
            g_neighbor = mapping[p_neighbor]
            if not graph.has_edge(target, g_neighbor):
                return False
            p_label = pattern.edge_label(pattern_vertex, p_neighbor)
            if p_label is not None and graph.edge_label(target, g_neighbor) != p_label:
                return False
    if induced:
        # For induced matching, non-edges of the pattern must map to non-edges.
        for p_vertex, g_vertex in mapping.items():
            if p_vertex == pattern_vertex:
                continue
            if not pattern.has_edge(pattern_vertex, p_vertex) and graph.has_edge(
                target, g_vertex
            ):
                return False
    return True


def _search(
    pattern: LabeledGraph,
    graph: LabeledGraph,
    order: Sequence[VertexId],
    index: int,
    mapping: VertexMap,
    used_targets: Set[VertexId],
    induced: bool,
    anchors: Optional[Dict[VertexId, VertexId]],
) -> Iterator[VertexMap]:
    if index == len(order):
        yield dict(mapping)
        return
    pattern_vertex = order[index]
    for target in _candidate_targets(
        pattern, graph, pattern_vertex, mapping, used_targets, anchors
    ):
        if not _edges_compatible(pattern, graph, pattern_vertex, target, mapping, induced):
            continue
        mapping[pattern_vertex] = target
        used_targets.add(target)
        yield from _search(
            pattern, graph, order, index + 1, mapping, used_targets, induced, anchors
        )
        used_targets.discard(target)
        del mapping[pattern_vertex]


def iter_subgraph_embeddings(
    pattern: LabeledGraph,
    graph: LabeledGraph,
    induced: bool = False,
    anchors: Optional[Dict[VertexId, VertexId]] = None,
) -> Iterator[VertexMap]:
    """Lazily yield every vertex map witnessing ``pattern`` inside ``graph``.

    Parameters
    ----------
    pattern:
        The (small) pattern graph.
    graph:
        The data graph.
    induced:
        If True, require an induced subgraph (pattern non-edges map to
        non-edges).  Frequent-subgraph mining uses non-induced matching,
        which is the default.
    anchors:
        Optional partial assignment ``pattern vertex -> data vertex`` that
        every returned embedding must respect.  Used by the incremental
        extension code to re-match around known embeddings only.

    Notes
    -----
    Distinct automorphic images are yielded separately; callers that need the
    paper's |E[P]| (distinct subgraphs, not distinct maps) should deduplicate
    by vertex-image frozenset — `find_subgraph_embeddings` does this.
    """
    if pattern.num_vertices() == 0:
        return
    if pattern.num_vertices() > graph.num_vertices():
        return
    if pattern.num_edges() > graph.num_edges():
        return
    pattern_labels = pattern.label_histogram()
    graph_labels = graph.label_histogram()
    for label, count in pattern_labels.items():
        if graph_labels.get(label, 0) < count:
            return
    order = _match_order(pattern)
    if anchors:
        unknown = set(anchors) - set(pattern.vertices())
        if unknown:
            raise KeyError(f"anchor vertices not in pattern: {sorted(unknown)}")
        # Put anchored vertices first so contradictions are found immediately.
        anchored = [v for v in order if v in anchors]
        free = [v for v in order if v not in anchors]
        order = anchored + free
    yield from _search(pattern, graph, order, 0, {}, set(), induced, anchors)


def find_subgraph_embeddings(
    pattern: LabeledGraph,
    graph: LabeledGraph,
    induced: bool = False,
    max_embeddings: Optional[int] = None,
    distinct_images: bool = True,
) -> List[VertexMap]:
    """Return embeddings of ``pattern`` in ``graph`` as vertex maps.

    With ``distinct_images=True`` (default) at most one witnessing map is kept
    per distinct vertex-image set, matching the paper's embedding count
    |E[P]|; with False, all automorphic variants are returned.
    ``max_embeddings`` caps the search (useful when only "support >= sigma"
    is needed).
    """
    embeddings: List[VertexMap] = []
    seen_images: Set[FrozenSet[VertexId]] = set()
    for mapping in iter_subgraph_embeddings(pattern, graph, induced=induced):
        if distinct_images:
            image = frozenset(mapping.values())
            if image in seen_images:
                continue
            seen_images.add(image)
        embeddings.append(mapping)
        if max_embeddings is not None and len(embeddings) >= max_embeddings:
            break
    return embeddings


def is_subgraph_isomorphic(pattern: LabeledGraph, graph: LabeledGraph) -> bool:
    """True if ``pattern`` occurs at least once in ``graph`` (non-induced)."""
    for _ in iter_subgraph_embeddings(pattern, graph):
        return True
    return False


def are_isomorphic(graph_a: LabeledGraph, graph_b: LabeledGraph) -> bool:
    """Labeled graph isomorphism (Definition 1).

    Cheap invariants (vertex/edge counts, label histograms, sorted degree
    sequences) are compared before falling back to the exact matcher.
    """
    if graph_a.num_vertices() != graph_b.num_vertices():
        return False
    if graph_a.num_edges() != graph_b.num_edges():
        return False
    if graph_a.label_histogram() != graph_b.label_histogram():
        return False
    degrees_a = sorted(
        (graph_a.label_of(v), graph_a.degree(v)) for v in graph_a.vertices()
    )
    degrees_b = sorted(
        (graph_b.label_of(v), graph_b.degree(v)) for v in graph_b.vertices()
    )
    if degrees_a != degrees_b:
        return False
    if graph_a.num_vertices() == 0:
        return True  # two empty graphs; the matcher yields no empty mapping
    for mapping in iter_subgraph_embeddings(graph_a, graph_b):
        # Same vertex and edge count + subgraph embedding => isomorphism.
        del mapping
        return True
    return False


def find_automorphisms(graph: LabeledGraph) -> List[VertexMap]:
    """Return all label-preserving automorphisms of ``graph`` (including identity)."""
    return find_subgraph_embeddings(
        graph, graph, induced=True, distinct_images=False
    )


def count_embeddings(
    pattern: LabeledGraph,
    graph: LabeledGraph,
    cap: Optional[int] = None,
) -> int:
    """Count distinct embeddings (distinct vertex-image sets), optionally capped."""
    return len(
        find_subgraph_embeddings(pattern, graph, max_embeddings=cap, distinct_images=True)
    )
