"""Maintaining the canonical diameter through pattern extension.

Section 3.3 of the paper reduces Loop Invariant 1 ("the stored path L stays
the canonical diameter of the pattern") to three constraints checked per edge
extension:

* **Constraint I** — the extension does not create a longer diameter;
* **Constraint II** — L still realises the shortest distance between the
  diameter's head ``v_H`` and tail ``v_T``;
* **Constraint III** — L precedes (in the total path order) every diameter
  path the extension creates.

Section 3.4 shows the checks need only the two per-vertex indices
``D^u_H`` / ``D^u_T`` (shortest distance to head / tail), not an all-pairs
shortest-path recomputation (Theorems 1–3).  This module implements exactly
those local checks plus the incremental maintenance of the indices.

Two kinds of edge extension exist during LevelGrow:

* attaching a **new twig vertex** ``u`` to an existing vertex ``v`` — the
  paper's case "edge connecting one (i-1)-level vertex and one i-level
  vertex" where the i-level vertex is new;
* adding an edge between **two existing vertices** — either two i-level
  vertices or an (i-1)-level and an i-level vertex.

Each case gets its own check functions below; the distinction matters because
a degree-1 addition can never shorten existing distances whereas an edge
between existing vertices can (and then ``D_H`` / ``D_T`` must be relaxed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.patterns import GrowthState
from repro.graph.labeled_graph import Label, LabeledGraph, VertexId


# --------------------------------------------------------------------- #
# distance index helpers
# --------------------------------------------------------------------- #
def new_vertex_distances(state: GrowthState, parent: VertexId) -> Tuple[int, int]:
    """``(D^u_H, D^u_T)`` of a new pendant vertex attached to ``parent``."""
    return state.dist_head[parent] + 1, state.dist_tail[parent] + 1


def relax_distance_map(
    pattern: LabeledGraph,
    distances: Dict[VertexId, int],
    seeds: Sequence[VertexId],
) -> Dict[VertexId, int]:
    """Propagate distance improvements after an edge insertion.

    ``distances`` maps every pattern vertex to its (previous) shortest
    distance to a fixed anchor (head or tail).  Adding an edge can only
    shrink these values; the relaxation starts from ``seeds`` (the endpoints
    of the new edge, already updated by the caller) and pushes improvements
    outward — a local update, exactly what Section 3.4 calls for.
    """
    updated = dict(distances)
    queue = list(seeds)
    while queue:
        current = queue.pop()
        base = updated[current]
        for neighbor in pattern.neighbors(current):
            if updated[neighbor] > base + 1:
                updated[neighbor] = base + 1
                queue.append(neighbor)
    return updated


def distances_after_existing_edge(
    state: GrowthState, u: VertexId, v: VertexId
) -> Tuple[Dict[VertexId, int], Dict[VertexId, int]]:
    """Recompute ``D_H`` / ``D_T`` after adding edge (u, v) between existing vertices.

    The pattern graph passed in ``state`` must *already contain* the new edge
    so the relaxation can traverse it.
    """
    dist_head = dict(state.dist_head)
    dist_tail = dict(state.dist_tail)
    changed_head: List[VertexId] = []
    changed_tail: List[VertexId] = []
    if dist_head[u] > dist_head[v] + 1:
        dist_head[u] = dist_head[v] + 1
        changed_head.append(u)
    if dist_head[v] > dist_head[u] + 1:
        dist_head[v] = dist_head[u] + 1
        changed_head.append(v)
    if dist_tail[u] > dist_tail[v] + 1:
        dist_tail[u] = dist_tail[v] + 1
        changed_tail.append(u)
    if dist_tail[v] > dist_tail[u] + 1:
        dist_tail[v] = dist_tail[u] + 1
        changed_tail.append(v)
    if changed_head:
        dist_head = relax_distance_map(state.pattern, dist_head, changed_head)
    if changed_tail:
        dist_tail = relax_distance_map(state.pattern, dist_tail, changed_tail)
    return dist_head, dist_tail


# --------------------------------------------------------------------- #
# Constraint I and II
# --------------------------------------------------------------------- #
def constraint_one_ok_new_vertex(state: GrowthState, parent: VertexId) -> bool:
    """Constraint I for a pendant extension (Theorem 1): D^u_H ≤ D(P) and D^u_T ≤ D(P)."""
    dist_head, dist_tail = new_vertex_distances(state, parent)
    return dist_head <= state.diameter_len and dist_tail <= state.diameter_len


def constraint_two_ok_new_vertex(state: GrowthState, parent: VertexId) -> bool:
    """Constraint II for a pendant extension (Theorem 2): D^u_H + D^u_T ≥ D(P).

    A degree-1 vertex cannot create a shortcut between existing vertices, so
    this always holds (``D^v_H + D^v_T ≥ D(P)`` for every existing vertex);
    the check is kept because it is the paper's stated condition and costs
    two dictionary lookups.
    """
    dist_head, dist_tail = new_vertex_distances(state, parent)
    return dist_head + dist_tail >= state.diameter_len


def constraint_two_ok_existing_edge(
    state: GrowthState, u: VertexId, v: VertexId
) -> bool:
    """Constraint II for an edge between existing vertices.

    The new edge creates candidate head–tail walks ``v_H ⇝ u – v ⇝ v_T`` and
    ``v_H ⇝ v – u ⇝ v_T``; the distance between head and tail is preserved
    iff neither is shorter than D(P).
    """
    through_uv = state.dist_head[u] + 1 + state.dist_tail[v]
    through_vu = state.dist_head[v] + 1 + state.dist_tail[u]
    return min(through_uv, through_vu) >= state.diameter_len


# --------------------------------------------------------------------- #
# Constraint III
# --------------------------------------------------------------------- #
def _shortest_paths_of_length(
    pattern: LabeledGraph,
    source: VertexId,
    target: VertexId,
    length: int,
    distances_from_source: Dict[VertexId, int],
) -> List[List[VertexId]]:
    """All shortest source→target paths, provided their length equals ``length``."""
    if distances_from_source.get(target) != length:
        return []
    paths: List[List[VertexId]] = []

    def backtrack(current: VertexId, suffix: List[VertexId]) -> None:
        if current == source:
            paths.append(list(reversed(suffix)))
            return
        for neighbor in pattern.neighbors(current):
            if distances_from_source.get(neighbor, -1) == distances_from_source[current] - 1:
                suffix.append(neighbor)
                backtrack(neighbor, suffix)
                suffix.pop()

    backtrack(target, [target])
    return paths


def _bfs_from(pattern: LabeledGraph, source: VertexId) -> Dict[VertexId, int]:
    from collections import deque

    distances = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in pattern.neighbors(current):
            if neighbor not in distances:
                distances[neighbor] = distances[current] + 1
                queue.append(neighbor)
    return distances


def _label_sequence(pattern: LabeledGraph, path: Sequence[VertexId]) -> Tuple[str, ...]:
    return tuple(str(pattern.label_of(vertex)) for vertex in path)


def _breaks_canonical_order(
    pattern: LabeledGraph,
    diameter_labels: Tuple[str, ...],
    candidate_path: Sequence[VertexId],
) -> bool:
    """True if a newly created diameter path precedes the stored diameter L.

    The stored diameter occupies the smallest pattern vertex ids (0..l), so
    when the label sequences are equal L wins the Definition-3 id tie-break
    automatically; only a *strictly smaller label sequence* (in either
    orientation of the new path) can dethrone L.
    """
    labels = _label_sequence(pattern, candidate_path)
    reverse_labels = tuple(reversed(labels))
    return labels < diameter_labels or reverse_labels < diameter_labels


def constraint_three_ok_new_vertex(
    state: GrowthState,
    parent: VertexId,
    new_label: Label,
) -> bool:
    """Constraint III for a pendant extension (Theorem 3, case I).

    A new diameter path can only appear when the pendant vertex ``u`` ends up
    at distance D(P) from the head or the tail, i.e. when
    ``max(D^v_H, D^v_T) = D(P) - 1`` for the attachment vertex ``v``.  In
    that case every new diameter path is a shortest head→v (or tail→v) path
    extended by ``u``; the extension is admissible iff none of those paths is
    lexicographically smaller than L.

    The anchor→v path enumeration does not depend on the pendant's label, and
    the growth loop proposes one pendant per *label* off the same attachment
    vertex — so the enumerated label sequences are memoised on the state,
    keyed by the attachment vertex, and each sibling label only pays the
    final lexicographic comparisons.
    """
    diameter = state.diameter_len
    parent_head = state.dist_head[parent]
    parent_tail = state.dist_tail[parent]
    if max(parent_head, parent_tail) != diameter - 1:
        return True
    diameter_labels = state.diameter_label_sequence()
    new_label_key = str(new_label)
    pattern = state.pattern

    memo = getattr(state, "_constraint_three_memo", None)
    if memo is None:
        memo = {}
        state._constraint_three_memo = memo
    prefixes = memo.get(parent)
    if prefixes is None:
        endpoints: List[Tuple[VertexId, int]] = []
        if parent_head == diameter - 1:
            endpoints.append((state.head, parent_head))
        if parent_tail == diameter - 1:
            endpoints.append((state.tail, parent_tail))
        prefixes = []
        for anchor, expected_length in endpoints:
            distances = _bfs_from(pattern, anchor)
            for path in _shortest_paths_of_length(
                pattern, anchor, parent, expected_length, distances
            ):
                labels = _label_sequence(pattern, path)
                prefixes.append((labels, tuple(reversed(labels))))
        memo[parent] = prefixes

    for labels, reversed_labels in prefixes:
        candidate_labels = labels + (new_label_key,)
        reverse_labels = (new_label_key,) + reversed_labels
        if candidate_labels < diameter_labels or reverse_labels < diameter_labels:
            return False
    return True


def constraint_three_ok_existing_edge(
    state: GrowthState, u: VertexId, v: VertexId
) -> bool:
    """Constraint III for an edge between existing vertices (Theorem 3, case II).

    New diameter paths must route through the new edge and connect the head
    to the tail; they exist only when ``D^u_H + D^v_T = D(P) - 1`` or
    ``D^v_H + D^u_T = D(P) - 1``.  Each such path is a shortest head→x path,
    the new edge, and a shortest y→tail path (vertex-disjoint), and the
    extension is admissible iff none of them precedes L.
    """
    diameter = state.diameter_len
    pattern = state.pattern
    diameter_labels = state.diameter_label_sequence()

    head_distances: Optional[Dict[VertexId, int]] = None
    tail_distances: Optional[Dict[VertexId, int]] = None

    for first, second in ((u, v), (v, u)):
        if state.dist_head[first] + state.dist_tail[second] != diameter - 1:
            continue
        if head_distances is None:
            head_distances = _bfs_from(pattern, state.head)
        if tail_distances is None:
            tail_distances = _bfs_from(pattern, state.tail)
        head_segments = _shortest_paths_of_length(
            pattern, state.head, first, state.dist_head[first], head_distances
        )
        tail_segments = _shortest_paths_of_length(
            pattern, state.tail, second, state.dist_tail[second], tail_distances
        )
        for head_segment in head_segments:
            head_vertices = set(head_segment)
            for tail_segment in tail_segments:
                if head_vertices & set(tail_segment):
                    continue
                candidate = head_segment + list(reversed(tail_segment))
                if _breaks_canonical_order(pattern, diameter_labels, candidate):
                    return False
    return True
