"""Canonical diameters, vertex levels and the skinny predicates.

Implements Definitions 4–7 of the paper:

* ``canonical_diameter(G)`` — the minimum diameter-realising simple path under
  the total path order (Definition 4).  Every connected graph has exactly one.
* ``vertex_levels(G, L)`` — ``Dist(v, L)`` for every vertex (Definition 5).
* ``is_delta_skinny(G, delta)`` — every vertex within distance δ of the
  canonical diameter (Definition 6).
* ``is_l_long_delta_skinny(G, l, delta)`` — Definition 7, the target pattern
  shape of the (l, δ)-SPM problem.

These work on a whole graph: they compute every distance of it.  They
validate mining results, define ground truth in tests and the brute-force
enumerate-and-check miner, and the ``diam-le`` driver
(:class:`~repro.core.framework.BoundedDiameterDriver`) calls
``canonical_diameter`` once on every pattern it reports.  Skinny growth
never calls them per candidate — it maintains the canonical diameter
incrementally via :mod:`repro.core.constraints`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.orders import label_key
from repro.graph.labeled_graph import LabeledGraph, VertexId
from repro.graph.paths import bfs_distances, distance_to_set


def canonical_diameter(graph: LabeledGraph) -> List[VertexId]:
    """The canonical diameter L_G of a connected graph (Definition 4).

    The smallest reading, labels first and then vertex ids (Definition 3),
    of any shortest path between two vertices ``D(G)`` apart.  No path is
    listed: one BFS per vertex gives every distance, then ``D + 1`` layers
    of ``(start, vertex)`` states grow from the vertices of eccentricity
    ``D``.  A layer keeps only its smallest-label states that still lie on a
    shortest path from their start to a vertex ``D`` away, so every path
    through the layers has the smallest label sequence and every such path
    runs through them.  A backward pass keeps the states with a kept
    successor, and the smallest id at each step then gives the path.

    Raises ``ValueError`` on empty or disconnected graphs, where the diameter
    (and hence the canonical diameter) is undefined.
    """
    if graph.num_vertices() == 0:
        raise ValueError("the canonical diameter of an empty graph is undefined")
    distances = {}
    for vertex in graph.vertices():
        row = distances[vertex] = bfs_distances(graph, vertex)
        if len(row) != graph.num_vertices():
            raise ValueError("the canonical diameter of a disconnected graph is undefined")
    length = max(max(row.values()) for row in distances.values())
    ends = {
        start: [end for end, distance in row.items() if distance == length]
        for start, row in distances.items()
    }
    labels = {vertex: label_key(graph.label_of(vertex)) for vertex in distances}
    neighbors = graph.neighbors

    def smallest_label(states):
        best = min(labels[vertex] for _, vertex in states)
        return {(start, vertex) for start, vertex in states if labels[vertex] == best}

    layers = [smallest_label([(start, start) for start in ends if ends[start]])]
    for step in range(1, length + 1):
        # A neighbour is ``step`` from the start and on a shortest path to
        # one of its ends exactly when it is ``length - step`` from that end.
        remaining = length - step
        layers.append(
            smallest_label(
                [
                    (start, neighbor)
                    for start, vertex in layers[-1]
                    for neighbor in neighbors(vertex)
                    if any(distances[neighbor][end] == remaining for end in ends[start])
                ]
            )
        )
    for step in range(length - 1, -1, -1):
        after = layers[step + 1]
        layers[step] = {
            (start, vertex)
            for start, vertex in layers[step]
            if any((start, neighbor) in after for neighbor in neighbors(vertex))
        }
    start = min(vertex for _, vertex in layers[0])
    path = [start]
    for layer in layers[1:]:
        path.append(min(n for n in neighbors(path[-1]) if (start, n) in layer))
    return path


def diameter_length(graph: LabeledGraph) -> int:
    """Length (edge count) of the canonical diameter."""
    return len(canonical_diameter(graph)) - 1


def vertex_levels(
    graph: LabeledGraph, diameter_path: Sequence[VertexId]
) -> Dict[VertexId, int]:
    """``Dist(v, L)`` for every vertex ``v`` (Definition 5).

    ``diameter_path`` is typically the canonical diameter, but any vertex
    subset works (the computation is a multi-source BFS from the path).
    """
    return distance_to_set(graph, list(diameter_path))


def is_delta_skinny(graph: LabeledGraph, delta: int) -> bool:
    """Definition 6: every vertex lies within distance δ of the canonical diameter."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if graph.num_vertices() == 0:
        return True
    if not graph.is_connected():
        return False
    levels = vertex_levels(graph, canonical_diameter(graph))
    return max(levels.values()) <= delta


def is_l_long_delta_skinny(graph: LabeledGraph, length: int, delta: int) -> bool:
    """Definition 7: canonical diameter has length exactly ``length`` and G is δ-skinny."""
    if length < 0:
        raise ValueError("length must be non-negative")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if graph.num_vertices() == 0 or not graph.is_connected():
        return False
    diameter_path = canonical_diameter(graph)
    if len(diameter_path) - 1 != length:
        return False
    levels = vertex_levels(graph, diameter_path)
    return max(levels.values()) <= delta


def skinniness(graph: LabeledGraph) -> int:
    """The smallest δ for which the graph is δ-skinny (max vertex level)."""
    if graph.num_vertices() == 0:
        return 0
    if not graph.is_connected():
        raise ValueError("skinniness is undefined on a disconnected graph")
    levels = vertex_levels(graph, canonical_diameter(graph))
    return max(levels.values())
