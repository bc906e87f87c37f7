"""Canonical forms for labeled graphs: one exact key, dispatched on cycle rank.

Every "have I generated this pattern before?" check goes through one ladder
of exact canonical forms, picked by the cycle rank ``|E| - |V| + 1`` of a
connected graph: :func:`tree_canonical_key` (rank 0, AHU encoding rooted at
the centre), :func:`unicyclic_canonical_key` (rank 1, minimal
rotation/reflection of the cycle's hanging-tree encodings) and
:func:`bicyclic_canonical_key` (rank 2, figure-eight, theta or dumbbell
core).  Each rung is exact — equal keys iff labeled isomorphism — and
near-linear.  :func:`ladder_key` is that dispatch alone, ``None`` where no
rung applies (rank >= 3, disconnected or empty graphs).

:func:`canonical_key` is the one public canonical form.  Where the ladder
returns ``None`` it falls back to gSpan's minimum DFS code [Yan & Han, ICDM
2002] (:func:`minimum_dfs_code`), exact for every graph but exponential in
the worst case.  LevelGrow's duplicate registry never takes that fallback:
it buckets rank >= 3 patterns by :func:`wl_signature` and confirms
collisions with VF2.  :class:`TreeEncodings` and :class:`UnicyclicEncodings`
let the growth loop derive a one-leaf extension's key in O(depth).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.labeled_graph import Label, LabeledGraph, VertexId

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
    worst case: :func:`canonical_key`'s fallback and the oracle's key only.
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


def wl_signature(graph: LabeledGraph, rounds: int = 2) -> Tuple:
    """A cheap isomorphism-*invariant* signature (Weisfeiler–Lehman colouring).

    Isomorphic graphs always produce equal signatures; non-isomorphic graphs
    usually (but not provably) produce different ones, so the signature is a
    hash-bucket key, not a canonical form.  LevelGrow's duplicate registry
    uses it as the rung above the exact ladder: patterns of cycle rank >= 3,
    for which :func:`ladder_key` returns ``None``, are bucketed by signature
    and collisions confirmed with :func:`repro.graph.isomorphism.are_isomorphic`
    (see ``PatternRegistry`` in the LevelGrow module).

    The colour of a vertex starts as its (label, degree) pair and is refined
    ``rounds`` times from the multiset of neighbour colours; the signature
    records, for *every* round, the sorted colour histogram **and** the
    sorted histogram of per-edge colour pairs (the whole refinement
    trajectory discriminates far better than the final round alone).  The
    edge-pair histograms matter in practice: the growth engine's cyclic
    patterns — a diameter path with twigs and one cycle-closing edge — often
    share every vertex-colour histogram while wiring the colour classes
    differently, and the vertex-only signature once produced collision
    buckets over a hundred deep, each member paying an exact isomorphism
    test.  Recording which colour pairs the edges connect collapses those
    buckets to near-singletons.  Colours are compressed to canonical small
    integers each round — the palette is assigned in sorted key order, so
    the numbering, and therefore the signature, is independent of vertex
    iteration order — which keeps refinement allocation-light: the growth
    engine computes one signature per candidate pattern.  Two refinement
    rounds are the default: with the edge-pair histograms in place the third
    round no longer separated any bucket in practice, and the signature is
    on the per-candidate hot path.
    """
    vertices = list(graph.vertices())
    degree = graph.degree
    initial = {
        vertex: (_label_key(graph.label_of(vertex)), degree(vertex))
        for vertex in vertices
    }
    palette: Dict[object, int] = {
        key: index for index, key in enumerate(sorted(set(initial.values())))
    }
    colors: Dict[VertexId, int] = {
        vertex: palette[initial[vertex]] for vertex in vertices
    }
    neighbors = graph.neighbors
    edges = [edge.endpoints() for edge in graph.edges()]

    def edge_pair_histogram(coloring: Dict[VertexId, int]) -> Tuple:
        histogram: Dict[Tuple[int, int], int] = {}
        for u, v in edges:
            cu, cv = coloring[u], coloring[v]
            pair = (cu, cv) if cu <= cv else (cv, cu)
            histogram[pair] = histogram.get(pair, 0) + 1
        return tuple(sorted(histogram.items()))

    histograms: List[Tuple] = [
        (_color_histogram(colors), edge_pair_histogram(colors))
    ]
    for _ in range(rounds):
        keys = {
            vertex: (
                colors[vertex],
                tuple(sorted(colors[neighbor] for neighbor in neighbors(vertex))),
            )
            for vertex in vertices
        }
        palette = {key: index for index, key in enumerate(sorted(set(keys.values())))}
        colors = {vertex: palette[keys[vertex]] for vertex in vertices}
        histograms.append((_color_histogram(colors), edge_pair_histogram(colors)))
    return (
        graph.num_vertices(),
        graph.num_edges(),
        tuple(histograms),
    )


def _color_histogram(colors: Dict[VertexId, int]) -> Tuple:
    histogram: Dict[int, int] = {}
    for color in colors.values():
        histogram[color] = histogram.get(color, 0) + 1
    return tuple(sorted(histogram.items()))


def _tree_centers(
    degrees: Dict[VertexId, int],
    neighbors_of,
    order: int,
) -> List[VertexId]:
    """The 1 or 2 centres of a tree by iterative leaf stripping.

    ``degrees`` is consumed; ``neighbors_of(v)`` yields the tree adjacency.
    """
    remaining = order
    layer = [vertex for vertex, deg in degrees.items() if deg <= 1]
    while remaining > 2:
        next_layer: List[VertexId] = []
        for leaf in layer:
            degrees[leaf] = 0
            for neighbor in neighbors_of(leaf):
                if degrees[neighbor] > 0:
                    degrees[neighbor] -= 1
                    if degrees[neighbor] == 1:
                        next_layer.append(neighbor)
        remaining -= len(layer)
        layer = next_layer
    return sorted(layer)


def tree_canonical_key(tree: LabeledGraph) -> Tuple:
    """AHU canonical form of a free labeled tree — exact and near-linear.

    Two *trees* (connected, ``|E| = |V| - 1``) get equal keys iff they are
    isomorphic as labeled graphs (vertex and edge labels both participate).
    The classic centre construction makes the rooted AHU encoding canonical
    for free trees: strip leaves until one or two centre vertices remain,
    encode the tree rooted at each centre bottom-up with sorted child
    encodings, and keep the smaller encoding.  Callers must ensure the input
    is a tree; the cheap shape check raises ``ValueError`` otherwise.

    The growth engine's duplicate registry relies on this as its fast exact
    path: grown skinny patterns are overwhelmingly trees (a diameter plus
    twigs), and the minimum-DFS-code fallback is exponential in the worst
    case while the AHU key never is.
    """
    order = tree.num_vertices()
    if order == 0:
        raise ValueError("cannot canonise the empty tree")
    if tree.num_edges() != order - 1 or not tree.is_connected():
        raise ValueError("tree_canonical_key requires a connected tree")
    if order == 1:
        vertex = next(iter(tree.vertices()))
        return ("t", _label_key(tree.label_of(vertex)))

    # Find the 1 or 2 centres by iterative leaf stripping.
    degrees = {vertex: tree.degree(vertex) for vertex in tree.vertices()}
    centers = _tree_centers(degrees, tree.neighbors, order)

    return ("t", min(_rooted_tree_encoding(tree, center) for center in centers))


def _strip_to_core(graph: LabeledGraph) -> Dict[VertexId, int]:
    """Residual degrees after iteratively deleting degree-1 vertices.

    A vertex survives (residual degree >= 2) iff it lies on the graph's
    2-core: the union of its cycles plus any paths connecting them.  The
    hanging trees removed here are re-attached by the canonical forms below
    through their rooted AHU encodings.
    """
    degrees = {vertex: graph.degree(vertex) for vertex in graph.vertices()}
    layer = [vertex for vertex, deg in degrees.items() if deg == 1]
    while layer:
        next_layer: List[VertexId] = []
        for leaf in layer:
            degrees[leaf] = 0
            for neighbor in graph.neighbors(leaf):
                if degrees[neighbor] > 1:
                    degrees[neighbor] -= 1
                    if degrees[neighbor] == 1:
                        next_layer.append(neighbor)
        layer = next_layer
    return degrees


def _make_edge_key(graph: LabeledGraph):
    """Per-edge label accessor normalised for lexicographic comparison."""
    edge_labels = graph._edge_labels

    def edge_key(u: VertexId, v: VertexId) -> str:
        raw = edge_labels.get((u, v) if u < v else (v, u))
        return "" if raw is None else _label_key(raw)

    return edge_key


def _hanging_encoding(
    graph: LabeledGraph, core_set, root: VertexId, edge_key
) -> Tuple:
    """Rooted AHU encoding of the tree hanging off core vertex ``root``.

    The traversal never crosses into ``core_set``, so each core vertex's
    hanging tree is encoded independently; the root's own label heads the
    encoding, making it a complete invariant of (core vertex, its tree).
    """
    parent: Dict[VertexId, Optional[VertexId]] = {root: None}
    ordering = [root]
    for vertex in ordering:
        for neighbor in graph.neighbors(vertex):
            if neighbor not in parent and neighbor not in core_set:
                parent[neighbor] = vertex
                ordering.append(neighbor)
    encoding: Dict[VertexId, Tuple] = {}
    for vertex in reversed(ordering):
        up = parent[vertex]
        encoding[vertex] = (
            _label_key(graph.label_of(vertex)),
            "" if up is None else edge_key(vertex, up),
            tuple(
                sorted(
                    encoding[child]
                    for child in graph.neighbors(vertex)
                    if parent.get(child) == vertex
                )
            ),
        )
    return encoding[root]


def unicyclic_canonical_key(graph: LabeledGraph) -> Tuple:
    """Exact canonical key for a *connected* graph with exactly one cycle.

    Connected graphs with ``|E| = |V|`` carry a unique cycle with a (possibly
    trivial) rooted tree hanging off each cycle vertex.  Any isomorphism must
    map the cycle onto the cycle — as a rotation or reflection — and hanging
    trees onto isomorphic hanging trees, so the canonical form is the
    lexicographically smallest rotation/reflection of the cyclic sequence
    ``(hanging-tree AHU encoding, next-cycle-edge label)``.  Exactly the
    duplicate-registry trick :func:`tree_canonical_key` plays for trees, one
    cycle up: the growth engine's cycle-closing candidates are almost always
    unicyclic, and this key spares them the WL-bucket + VF2 confirmation.
    It is the key of the batch-built :class:`UnicyclicEncodings`, which the
    growth loop then extends one pendant leaf at a time.

    Raises ``ValueError`` when the edge count is wrong or the graph is
    empty or disconnected (an ``|E| = |V|`` graph may also be a cycle plus
    separate trees, whose hanging forests this construction would silently
    ignore).
    """
    if graph.num_vertices() == 0:
        raise ValueError("unicyclic_canonical_key requires one connected cycle")
    return UnicyclicEncodings.from_graph(graph).key


def _cycle_rotation_key(trees: List[Tuple], edges: List[str]) -> Tuple:
    """The unicyclic key from per-cycle-vertex tree encodings + edge labels.

    ``trees[i]`` is the hanging-tree encoding of the ``i``-th cycle vertex,
    ``edges[i]`` the label of the cycle edge to the ``(i+1)``-th.  The key is
    the lexicographically smallest rotation/reflection of the ``(tree, next
    edge)`` sequence.  Only offsets whose *starting* pair is the minimal one
    can realise the minimum, so the candidate set is filtered to those
    starts before any full sequence is materialised — on the growth engine's
    cycles that is one or two candidates instead of ``2·length``.
    """
    length = len(trees)
    # items[o] heads the forward rotation at offset o; rev_items[o] heads the
    # reflected rotation at offset o (its next edge is the *previous* cycle
    # edge).
    items = list(zip(trees, edges))
    rev_items = [(trees[index], edges[index - 1]) for index in range(length)]
    start_min = min(min(items), min(rev_items))
    doubled = items + items
    reflected = rev_items[::-1] + rev_items[::-1]
    best: Optional[Tuple] = None
    for offset in range(length):
        if items[offset] == start_min:
            forward = tuple(doubled[offset : offset + length])
            if best is None or forward < best:
                best = forward
        if rev_items[offset] == start_min:
            flipped = length - 1 - offset
            backward = tuple(reflected[flipped : flipped + length])
            if best is None or backward < best:
                best = backward
    return ("u", length, best)


def bicyclic_canonical_key(graph: LabeledGraph) -> Tuple:
    """Exact canonical key for a *connected* graph with ``|E| = |V| + 1``.

    Such a graph carries exactly two independent cycles.  Its 2-core (strip
    degree-1 vertices, keep what survives) has total degree excess 2 over a
    disjoint union of cycles, so it takes one of exactly three shapes:

    * **figure-eight** — one branch vertex of core degree 4 where two
      otherwise-disjoint cycles meet;
    * **theta** — two branch vertices of core degree 3 joined by three
      internally disjoint strands;
    * **dumbbell** — two branch vertices of core degree 3, each on its own
      cycle, joined by a (possibly single-edge) bridge path.

    Every isomorphism maps core to core, branch vertices to branch vertices
    and strands to strands of the same kind, so a canonical form needs only
    (a) the rooted AHU encoding of each core vertex's hanging tree — the same
    :func:`tree_canonical_key` construction the unicyclic key reuses — and
    (b) a canonical ordering of the strands: loops are minimised over their
    two directions, strand multisets are sorted, and the whole encoding is
    minimised over the (at most two) branch-vertex orderings.  Equal keys
    therefore imply isomorphism (the encoding reconstructs the labeled graph
    up to isomorphism) and isomorphic graphs get equal keys (every remaining
    choice is canonicalised away) — which is what lets the growth engine's
    duplicate registry retire VF2 confirmation for bicyclic patterns.

    Raises ``ValueError`` when the edge count is wrong or the graph is
    disconnected (``|E| = |V| + 1`` also fits a unicyclic graph plus a
    separate cycle, which has no exact two-cycle core).
    """
    order = graph.num_vertices()
    if graph.num_edges() != order + 1 or not graph.is_connected():
        raise ValueError(
            "bicyclic_canonical_key requires a connected graph with |E| = |V| + 1"
        )

    degrees = _strip_to_core(graph)
    core_set = {vertex for vertex, deg in degrees.items() if deg >= 2}
    branch_set = {vertex for vertex in core_set if degrees[vertex] >= 3}
    branches = sorted(branch_set)

    edge_key = _make_edge_key(graph)
    enc = {
        vertex: _hanging_encoding(graph, core_set, vertex, edge_key)
        for vertex in core_set
    }

    # Walk every strand (maximal core path whose interior avoids branch
    # vertices) exactly once; each is recorded with its entry direction and
    # the reverse entry is marked consumed.
    core_adjacency = {
        vertex: [n for n in graph.neighbors(vertex) if n in core_set]
        for vertex in core_set
    }
    consumed: set = set()
    loops: Dict[VertexId, List[List[VertexId]]] = {b: [] for b in branches}
    links: List[Tuple[VertexId, VertexId, List[VertexId]]] = []
    for source in branches:
        for first in core_adjacency[source]:
            if (source, first) in consumed:
                continue
            consumed.add((source, first))
            interior: List[VertexId] = []
            previous, current = source, first
            while current not in branch_set:
                interior.append(current)
                step = next(
                    n for n in core_adjacency[current] if n != previous
                )
                previous, current = current, step
            consumed.add((current, previous))
            if current == source:
                loops[source].append(interior)
            else:
                links.append((source, current, interior))

    def strand_encoding(
        start: VertexId, interior: List[VertexId], end: VertexId
    ) -> Tuple:
        """Alternating (edge label, interior-tree encoding) walk start→end."""
        parts: List[object] = []
        previous = start
        for vertex in interior:
            parts.append(edge_key(previous, vertex))
            parts.append(enc[vertex])
            previous = vertex
        parts.append(edge_key(previous, end))
        return tuple(parts)

    def loop_encoding(anchor: VertexId, interior: List[VertexId]) -> Tuple:
        """A loop's encoding, minimised over its two traversal directions."""
        return min(
            strand_encoding(anchor, interior, anchor),
            strand_encoding(anchor, interior[::-1], anchor),
        )

    if len(branches) == 1:
        anchor = branches[0]
        pair = sorted(loop_encoding(anchor, interior) for interior in loops[anchor])
        return ("b", "8", enc[anchor], tuple(pair))

    u, w = branches
    if links and len(links) == 3:
        candidates = []
        for first, second in ((u, w), (w, u)):
            strands = sorted(
                strand_encoding(
                    first, interior if start == first else interior[::-1], second
                )
                for start, _, interior in links
            )
            candidates.append((enc[first], enc[second], tuple(strands)))
        return ("b", "theta", min(candidates))

    bridge_start, _, bridge_interior = links[0]
    candidates = []
    for first, second in ((u, w), (w, u)):
        interior = (
            bridge_interior if bridge_start == first else bridge_interior[::-1]
        )
        candidates.append(
            (
                enc[first],
                loop_encoding(first, loops[first][0]),
                enc[second],
                loop_encoding(second, loops[second][0]),
                strand_encoding(first, interior, second),
            )
        )
    return ("b", "dumbbell", min(candidates))


def ladder_key(graph: LabeledGraph) -> Optional[Tuple]:
    """The exact key of the rung matching ``graph``'s cycle rank, else ``None``.

    Cycle rank ``|E| - |V| + 1`` picks :func:`tree_canonical_key` (0),
    :func:`unicyclic_canonical_key` (1) or :func:`bicyclic_canonical_key`
    (2).  ``None`` means no exact rung applies: rank >= 3, or a disconnected
    or empty graph — detected by the ``ValueError`` the rung's own shape
    check raises, so connected inputs pay no extra connectivity pass.
    """
    rank = graph.num_edges() - graph.num_vertices() + 1
    try:
        if rank == 0:
            return tree_canonical_key(graph)
        if rank == 1:
            return unicyclic_canonical_key(graph)
        if rank == 2:
            return bicyclic_canonical_key(graph)
    except ValueError:
        pass
    return None


def canonical_key(graph: LabeledGraph) -> Tuple:
    """The canonical form: a hashable key, equal iff the graphs are isomorphic.

    The cycle-rank ladder (:func:`ladder_key`) answers every connected graph
    of rank <= 2; rank >= 3, disconnected and empty graphs fall back to the
    minimum DFS code.  The first element of every key names its rung.

    >>> from repro.graph.labeled_graph import build_graph
    >>> square = build_graph(
    ...     {0: "a", 1: "b", 2: "a", 3: "b"}, [(0, 1), (1, 2), (2, 3), (3, 0)]
    ... )
    >>> renumbered = build_graph(
    ...     {9: "b", 4: "a", 7: "b", 2: "a"}, [(9, 4), (4, 7), (7, 2), (2, 9)]
    ... )
    >>> canonical_key(square) == canonical_key(renumbered)
    True
    >>> theta = build_graph(
    ...     {0: "a", 1: "a", 2: "b", 3: "b", 4: "b"},
    ...     [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)],
    ... )
    >>> k4 = build_graph(
    ...     {0: "a", 1: "a", 2: "a", 3: "a"},
    ...     [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    ... )
    >>> canonical_key(theta)[:2], canonical_key(k4)[0]
    (('b', 'theta'), 'dfs')
    """
    key = ladder_key(graph)
    if key is not None:
        return key
    canonical = minimum_dfs_code(graph)
    return ("dfs", canonical.code, canonical.num_vertices, canonical.isolated_labels)


class TreeEncodings:
    """Rooted AHU encodings of a free labeled tree, extensible one leaf at a time.

    The batch :func:`tree_canonical_key` re-encodes the whole tree — every
    vertex's sorted-children tuple is rebuilt — on each call.  During pattern
    growth, however, consecutive trees differ by exactly one pendant edge, so
    only the encodings on the path from the attachment vertex up to the root
    can change.  ``TreeEncodings`` carries the rooted structure (parent map,
    children lists, per-vertex encoding) needed to re-canonicalise just that
    path: :meth:`extend` derives the child tree's encodings — and its
    canonical :attr:`key`, equal to the batch key — in O(depth · degree)
    tuple work instead of a full re-encode.

    Invariants: :attr:`root` is always a centre of the tree, and :attr:`enc`
    holds, for every vertex, the same ``(vertex label, edge-to-parent label,
    sorted child encodings)`` triple :func:`_rooted_tree_encoding` would
    produce under that rooting.  Adding a leaf moves the centre by at most
    one edge toward it, so :meth:`extend` re-roots stepwise (each step is a
    local O(degree) exchange between the old root and one child) rather than
    re-encoding from scratch.

    Centres are maintained through the classic endpoint recurrence instead
    of leaf stripping: the instance carries one diameter endpoint pair
    ``(e1, e2)`` with the per-vertex distance maps ``d1`` / ``d2``.  After
    adding leaf ``u``, ``ecc(u) = max(d1[u], d2[u])`` and the new diameter
    is ``max(diam, ecc(u))`` (every farthest-vertex path in a tree ends at a
    diameter endpoint), so the maps extend by one entry in O(1) — a full
    re-BFS happens only on the rare extension that actually lengthens the
    diameter, which constraint-preserving growth almost never does.  The
    centres are then the middle vertices of the ``e1``–``e2`` path:
    ``d1[v] + d2[v] == diam`` with both distances within ``⌈diam/2⌉``.

    Instances are immutable from the caller's perspective: :meth:`extend`
    returns a new object and never mutates its receiver (growth states share
    their encodings with every candidate they spawn).
    """

    __slots__ = (
        "root", "parent", "children", "enc", "key",
        "e1", "e2", "diam", "d1", "d2", "centers",
    )

    def __init__(self, root, parent, children, enc, key):
        self.root: VertexId = root
        self.parent: Dict[VertexId, Optional[VertexId]] = parent
        self.children: Dict[VertexId, List[VertexId]] = children
        self.enc: Dict[VertexId, Tuple] = enc
        self.key: Tuple = key
        # Diameter-endpoint bookkeeping (set by from_tree / extend).
        self.e1: VertexId = root
        self.e2: VertexId = root
        self.diam: int = 0
        self.d1: Dict[VertexId, int] = {root: 0}
        self.d2: Dict[VertexId, int] = {root: 0}
        self.centers: List[VertexId] = [root]

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tree(cls, tree: LabeledGraph) -> "TreeEncodings":
        """Batch-build the encodings of ``tree`` (validates the tree shape)."""
        order = tree.num_vertices()
        if order == 0:
            raise ValueError("cannot canonise the empty tree")
        if tree.num_edges() != order - 1 or not tree.is_connected():
            raise ValueError("TreeEncodings requires a connected tree")
        if order == 1:
            vertex = next(iter(tree.vertices()))
            label = _label_key(tree.label_of(vertex))
            return cls(
                vertex,
                {vertex: None},
                {vertex: []},
                {vertex: (label, "", ())},
                ("t", label),
            )
        degrees = {vertex: tree.degree(vertex) for vertex in tree.vertices()}
        centers = _tree_centers(degrees, tree.neighbors, order)
        root = centers[0]

        parent: Dict[VertexId, Optional[VertexId]] = {root: None}
        ordering: List[VertexId] = [root]
        children: Dict[VertexId, List[VertexId]] = {}
        for vertex in ordering:
            kids: List[VertexId] = []
            for neighbor in tree.neighbors(vertex):
                if neighbor not in parent:
                    parent[neighbor] = vertex
                    ordering.append(neighbor)
                    kids.append(neighbor)
            children[vertex] = kids
        edge_labels = tree._edge_labels
        enc: Dict[VertexId, Tuple] = {}
        for vertex in reversed(ordering):
            up = parent[vertex]
            if up is None:
                edge = ""
            else:
                raw = edge_labels.get((vertex, up) if vertex < up else (up, vertex))
                edge = "" if raw is None else _label_key(raw)
            enc[vertex] = (
                _label_key(tree.label_of(vertex)),
                edge,
                tuple(sorted(enc[child] for child in children[vertex])),
            )
        instance = cls(root, parent, children, enc, ())
        # Diameter endpoints by double BFS over the rooted structure.
        probe = instance._distances_from(root)
        e1 = max(probe, key=lambda v: (probe[v], v))
        d1 = instance._distances_from(e1)
        e2 = max(d1, key=lambda v: (d1[v], v))
        instance.e1, instance.e2 = e1, e2
        instance.d1 = d1
        instance.d2 = instance._distances_from(e2)
        instance.diam = d1[e2]
        instance.centers = centers
        instance.key = instance._key_for(centers)
        return instance

    # ------------------------------------------------------------------ #
    # one-leaf extension
    # ------------------------------------------------------------------ #
    def extend(
        self,
        attach: VertexId,
        new_vertex: VertexId,
        vertex_label: Optional[Label],
        edge_label: Optional[Label] = None,
    ) -> "TreeEncodings":
        """Encodings of the tree with leaf ``new_vertex`` hung off ``attach``."""
        if attach not in self.parent:
            raise ValueError(f"attachment vertex {attach!r} is not in the tree")
        if new_vertex in self.parent:
            raise ValueError(f"vertex {new_vertex!r} is already in the tree")
        parent = dict(self.parent)
        children = dict(self.children)
        enc = dict(self.enc)
        parent[new_vertex] = attach
        children[new_vertex] = []
        children[attach] = children[attach] + [new_vertex]
        enc[new_vertex] = (
            _label_key(vertex_label),
            "" if edge_label is None else _label_key(edge_label),
            (),
        )
        # Only the attach→root path's sorted-children tuples can change, and
        # at each path vertex exactly one child encoding did: splice it in
        # by bisect (O(log k) deep-tuple comparisons) instead of re-sorting
        # the whole child list (O(k log k) plus a per-child dict lookup).
        leaf_enc = enc[new_vertex]
        stored = enc[attach]
        kids = stored[2]
        position = bisect_left(kids, leaf_enc)
        old_child = stored
        enc[attach] = (
            stored[0],
            stored[1],
            kids[:position] + (leaf_enc,) + kids[position:],
        )
        previous_vertex = attach
        vertex: Optional[VertexId] = parent[attach]
        while vertex is not None:
            stored = enc[vertex]
            kids = stored[2]
            removed = bisect_left(kids, old_child)
            trimmed = kids[:removed] + kids[removed + 1 :]
            new_child = enc[previous_vertex]
            position = bisect_left(trimmed, new_child)
            old_child = stored
            enc[vertex] = (
                stored[0],
                stored[1],
                trimmed[:position] + (new_child,) + trimmed[position:],
            )
            previous_vertex = vertex
            vertex = parent[vertex]
        extended = TreeEncodings(self.root, parent, children, enc, ())
        d1 = dict(self.d1)
        d2 = dict(self.d2)
        to_e1 = d1[attach] + 1
        to_e2 = d2[attach] + 1
        d1[new_vertex] = to_e1
        d2[new_vertex] = to_e2
        extended.e1, extended.e2 = self.e1, self.e2
        extended.d1, extended.d2 = d1, d2
        extended.diam = self.diam
        if to_e1 > self.diam or to_e2 > self.diam:
            # The leaf lengthened the diameter: its farthest vertex is one of
            # the old endpoints, so (old endpoint, leaf) is a new diameter
            # pair; re-BFS the replaced endpoint's map (rare under
            # constraint-preserving growth, which keeps D(P) fixed).
            if to_e1 >= to_e2:
                extended.e2 = new_vertex
                extended.diam = to_e1
                extended.d2 = extended._distances_from(new_vertex)
            else:
                extended.e1 = new_vertex
                extended.diam = to_e2
                extended.d1 = extended._distances_from(new_vertex)
                extended.d2 = d2
        centers = extended._centers()
        if extended.root not in centers:
            extended._reroot_to(centers[0])
        extended.centers = centers
        extended.key = extended._key_for(centers)
        return extended

    def extended_key(
        self,
        attach: VertexId,
        new_vertex: VertexId,
        vertex_label: Optional[Label],
        edge_label: Optional[Label] = None,
    ) -> Tuple:
        """The canonical key :meth:`extend` would produce — without building it.

        The duplicate-registry peek in the growth loop only needs the child
        tree's *key*: when the key is already registered the full
        :class:`TreeEncodings` (five dict copies per call) is never used.
        This method derives the key alone, overlaying the re-encoded
        attach→root path on the parent's (unmutated) encodings.  Two facts
        keep it cheap: a new leaf can never be a centre (its two endpoint
        distances sum to at least ``diam + 2``), so while the diameter is
        unchanged the centres — and the root — are exactly the parent's; and
        only the path encodings feed :meth:`_key_for`.  The rare extension
        that lengthens the diameter falls back to a full :meth:`extend`.
        """
        if attach not in self.parent:
            raise ValueError(f"attachment vertex {attach!r} is not in the tree")
        if new_vertex in self.parent:
            raise ValueError(f"vertex {new_vertex!r} is already in the tree")
        if self.d1[attach] + 1 > self.diam or self.d2[attach] + 1 > self.diam:
            return self.extend(attach, new_vertex, vertex_label, edge_label).key

        enc = self.enc
        children = self.children
        parent = self.parent
        overlay: Dict[VertexId, Tuple] = {
            new_vertex: (
                _label_key(vertex_label),
                "" if edge_label is None else _label_key(edge_label),
                (),
            )
        }
        # At each path vertex exactly one child encoding changed: splice it
        # into the stored (already sorted) children tuple by bisect instead
        # of re-sorting the whole child list with per-child overlay lookups.
        # Encodings are non-empty 3-tuples (always truthy), so the remaining
        # overlay lookups below can use `get(...) or enc[...]` — one C-level
        # dict probe instead of a Python-level conditional helper call.
        get = overlay.get
        leaf_enc = overlay[new_vertex]
        stored = enc[attach]
        kids = stored[2]
        position = bisect_left(kids, leaf_enc)
        overlay[attach] = (
            stored[0],
            stored[1],
            kids[:position] + (leaf_enc,) + kids[position:],
        )
        previous_vertex = attach
        vertex: Optional[VertexId] = parent[attach]
        while vertex is not None:
            stored = enc[vertex]
            kids = stored[2]
            old_child = enc[previous_vertex]
            removed = bisect_left(kids, old_child)
            trimmed = kids[:removed] + kids[removed + 1 :]
            new_child = overlay[previous_vertex]
            position = bisect_left(trimmed, new_child)
            overlay[vertex] = (
                stored[0],
                stored[1],
                trimmed[:position] + (new_child,) + trimmed[position:],
            )
            previous_vertex = vertex
            vertex = parent[vertex]

        root = self.root
        centers = self.centers
        best = overlay[root]
        if len(centers) == 2:
            other = centers[0] if centers[1] == root else centers[1]
            other_enc = get(other) or enc[other]
            root_kids = children[root]
            if root == attach:
                root_kids = root_kids + [new_vertex]
            root_as_child = (
                best[0],
                other_enc[1],
                tuple(
                    sorted([get(c) or enc[c] for c in root_kids if c != other])
                ),
            )
            other_kids = children[other]
            if other == attach:
                other_kids = other_kids + [new_vertex]
            rerooted = (
                other_enc[0],
                "",
                tuple(
                    sorted(
                        [get(c) or enc[c] for c in other_kids if c != root]
                        + [root_as_child]
                    )
                ),
            )
            if rerooted < best:
                best = rerooted
        return ("t", best)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _neighbors(self, vertex: VertexId) -> List[VertexId]:
        up = self.parent[vertex]
        kids = self.children[vertex]
        return kids if up is None else kids + [up]

    def _distances_from(self, source: VertexId) -> Dict[VertexId, int]:
        distances = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier: List[VertexId] = []
            for vertex in frontier:
                base = distances[vertex] + 1
                for neighbor in self._neighbors(vertex):
                    if neighbor not in distances:
                        distances[neighbor] = base
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return distances

    def _centers(self) -> List[VertexId]:
        """The 1 or 2 centres: middle vertices of the ``e1``–``e2`` path.

        A vertex lies on that diameter path iff ``d1[v] + d2[v] == diam``;
        the centres are the on-path vertices whose larger endpoint distance
        is ``⌈diam/2⌉`` — one vertex for even diameters, two adjacent ones
        for odd.  Tree centres are unique, so the scan stops once the
        expected count is found.
        """
        diam = self.diam
        if diam == 0:
            return [self.root]
        half = (diam + 1) // 2
        wanted = 1 if diam % 2 == 0 else 2
        centers: List[VertexId] = []
        d2 = self.d2
        for vertex, near in self.d1.items():
            far = d2[vertex]
            if near + far == diam and near <= half and far <= half:
                centers.append(vertex)
                if len(centers) == wanted:
                    break
        return sorted(centers)

    def _reroot_to(self, target: VertexId) -> None:
        """Re-root stepwise along the ancestor path of ``target`` (in place).

        Each step exchanges the root with one of its children: only those two
        encodings change, everything else stays valid under the new rooting.
        """
        path: List[VertexId] = []
        vertex: Optional[VertexId] = target
        while vertex is not None and vertex != self.root:
            path.append(vertex)
            vertex = self.parent[vertex]
        if vertex is None:  # pragma: no cover - structure is always a tree
            raise ValueError(f"vertex {target!r} is not in the tree")
        for step in reversed(path):
            root = self.root
            self.children[root] = [c for c in self.children[root] if c != step]
            self.children[step] = self.children[step] + [root]
            self.parent[root] = step
            self.parent[step] = None
            root_label, _, _ = self.enc[root]
            step_label, step_edge, _ = self.enc[step]
            self.enc[root] = (
                root_label,
                step_edge,  # the (root, step) edge label, read from the old child
                tuple(sorted(self.enc[c] for c in self.children[root])),
            )
            self.enc[step] = (
                step_label,
                "",
                tuple(sorted(self.enc[c] for c in self.children[step])),
            )
            self.root = step

    def _key_for(self, centers: List[VertexId]) -> Tuple:
        """The canonical key, given that ``self.root`` is one of ``centers``.

        For bicentral trees the second centre is adjacent to the root, so its
        rooted encoding is derived by a *view* of the one-step re-root (no
        mutation): the root becomes a child of the other centre and only
        those two encodings differ.
        """
        if len(self.parent) == 1:
            return ("t", self.enc[self.root][0])
        root = self.root
        enc = self.enc
        best = enc[root]
        if len(centers) == 2:
            other = centers[0] if centers[1] == root else centers[1]
            root_as_child = (
                enc[root][0],
                enc[other][1],
                tuple(sorted(enc[c] for c in self.children[root] if c != other)),
            )
            rerooted = (
                enc[other][0],
                "",
                tuple(sorted([enc[c] for c in self.children[other]] + [root_as_child])),
            )
            if rerooted < best:
                best = rerooted
        return ("t", best)


class UnicyclicEncodings:
    """Rooted hanging-tree encodings of a unicyclic graph, pendant-extensible.

    The batch :func:`unicyclic_canonical_key` re-strips the core and
    re-encodes every hanging tree on each call.  During pattern growth a
    unicyclic pattern's descendants differ by one pendant leaf at a time —
    the cycle itself is fixed for the whole derivation chain (closing a
    second cycle changes the shape tier) — so only one hanging tree's
    encodings along the attach→anchor path can change.  This class carries
    the per-vertex rooted structure of *all* hanging trees (anchored at
    their cycle vertices, roots pinned — no centre bookkeeping needed) and
    derives each one-leaf extension's canonical :attr:`key`, equal to the
    batch key, in O(depth + cycle length) instead of a full re-encode.

    Instances are immutable from the caller's perspective: :meth:`extend`
    returns a new object; :meth:`extended_key` derives the child's key alone
    by overlaying the re-encoded path, for the duplicate-registry peek.
    """

    __slots__ = ("cycle", "edges", "pos_of", "parent", "children", "enc", "trees", "key")

    def __init__(self, cycle, edges, pos_of, parent, children, enc, trees, key):
        self.cycle: Tuple[VertexId, ...] = cycle
        self.edges: List[str] = edges
        self.pos_of: Dict[VertexId, int] = pos_of
        self.parent: Dict[VertexId, Optional[VertexId]] = parent
        self.children: Dict[VertexId, List[VertexId]] = children
        self.enc: Dict[VertexId, Tuple] = enc
        self.trees: List[Tuple] = trees
        self.key: Tuple = key

    @classmethod
    def from_graph(cls, graph: LabeledGraph) -> "UnicyclicEncodings":
        """Batch-build the encodings (validates the unicyclic shape)."""
        order = graph.num_vertices()
        if graph.num_edges() != order or not graph.is_connected():
            raise ValueError(
                "UnicyclicEncodings requires one connected cycle"
            )
        degrees = _strip_to_core(graph)
        cycle_set = {vertex for vertex, deg in degrees.items() if deg >= 2}

        start = min(cycle_set)
        cycle: List[VertexId] = [start]
        previous: Optional[VertexId] = None
        current = start
        while True:
            step = next(
                neighbor
                for neighbor in graph.neighbors(current)
                if neighbor in cycle_set and neighbor != previous
            )
            if step == start:
                break
            cycle.append(step)
            previous, current = current, step
        length = len(cycle)

        edge_key = _make_edge_key(graph)
        # One rooted structure over all hanging trees (they are disjoint):
        # cycle vertices are the roots, traversal never crosses the core.
        parent: Dict[VertexId, Optional[VertexId]] = {v: None for v in cycle}
        ordering: List[VertexId] = list(cycle)
        children: Dict[VertexId, List[VertexId]] = {}
        for vertex in ordering:
            kids: List[VertexId] = []
            for neighbor in graph.neighbors(vertex):
                if neighbor not in parent and neighbor not in cycle_set:
                    parent[neighbor] = vertex
                    ordering.append(neighbor)
                    kids.append(neighbor)
            children[vertex] = kids
        enc: Dict[VertexId, Tuple] = {}
        for vertex in reversed(ordering):
            up = parent[vertex]
            enc[vertex] = (
                _label_key(graph.label_of(vertex)),
                "" if up is None else edge_key(vertex, up),
                tuple(sorted([enc[child] for child in children[vertex]])),
            )
        trees = [enc[vertex] for vertex in cycle]
        edges = [
            edge_key(cycle[index], cycle[(index + 1) % length])
            for index in range(length)
        ]
        return cls(
            tuple(cycle),
            edges,
            {vertex: index for index, vertex in enumerate(cycle)},
            parent,
            children,
            enc,
            trees,
            _cycle_rotation_key(trees, edges),
        )

    def extend(
        self,
        attach: VertexId,
        new_vertex: VertexId,
        vertex_label: Optional[Label],
        edge_label: Optional[Label] = None,
    ) -> "UnicyclicEncodings":
        """Encodings of the graph with leaf ``new_vertex`` hung off ``attach``."""
        if attach not in self.parent:
            raise ValueError(f"attachment vertex {attach!r} is not in the graph")
        if new_vertex in self.parent:
            raise ValueError(f"vertex {new_vertex!r} is already in the graph")
        parent = dict(self.parent)
        children = dict(self.children)
        enc = dict(self.enc)
        parent[new_vertex] = attach
        children[new_vertex] = []
        children[attach] = children[attach] + [new_vertex]
        enc[new_vertex] = (
            _label_key(vertex_label),
            "" if edge_label is None else _label_key(edge_label),
            (),
        )
        # Only the attach→anchor path of one hanging tree can change, and at
        # each path vertex exactly one child encoding did: splice it in by
        # bisect instead of re-sorting the whole child list (see
        # :meth:`TreeEncodings.extend`).
        leaf_enc = enc[new_vertex]
        stored = enc[attach]
        kids = stored[2]
        position = bisect_left(kids, leaf_enc)
        old_child = stored
        enc[attach] = (
            stored[0],
            stored[1],
            kids[:position] + (leaf_enc,) + kids[position:],
        )
        anchor = attach
        previous_vertex = attach
        vertex: Optional[VertexId] = parent[attach]
        while vertex is not None:
            stored = enc[vertex]
            kids = stored[2]
            removed = bisect_left(kids, old_child)
            trimmed = kids[:removed] + kids[removed + 1 :]
            new_child = enc[previous_vertex]
            position = bisect_left(trimmed, new_child)
            old_child = stored
            enc[vertex] = (
                stored[0],
                stored[1],
                trimmed[:position] + (new_child,) + trimmed[position:],
            )
            anchor = vertex
            previous_vertex = vertex
            vertex = parent[vertex]
        trees = list(self.trees)
        trees[self.pos_of[anchor]] = enc[anchor]
        return UnicyclicEncodings(
            self.cycle,
            self.edges,
            self.pos_of,
            parent,
            children,
            enc,
            trees,
            _cycle_rotation_key(trees, self.edges),
        )

    def extended_key(
        self,
        attach: VertexId,
        new_vertex: VertexId,
        vertex_label: Optional[Label],
        edge_label: Optional[Label] = None,
    ) -> Tuple:
        """The canonical key :meth:`extend` would produce — without building it.

        Overlays the re-encoded attach→anchor path on the parent's
        (unmutated) encodings, exactly like
        :meth:`TreeEncodings.extended_key`; since hanging-tree roots are
        pinned to their cycle vertices there is no centre or re-rooting case
        at all.
        """
        if attach not in self.parent:
            raise ValueError(f"attachment vertex {attach!r} is not in the graph")
        if new_vertex in self.parent:
            raise ValueError(f"vertex {new_vertex!r} is already in the graph")
        enc = self.enc
        parent = self.parent
        overlay: Dict[VertexId, Tuple] = {
            new_vertex: (
                _label_key(vertex_label),
                "" if edge_label is None else _label_key(edge_label),
                (),
            )
        }
        leaf_enc = overlay[new_vertex]
        stored = enc[attach]
        kids = stored[2]
        position = bisect_left(kids, leaf_enc)
        overlay[attach] = (
            stored[0],
            stored[1],
            kids[:position] + (leaf_enc,) + kids[position:],
        )
        anchor = attach
        previous_vertex = attach
        vertex: Optional[VertexId] = parent[attach]
        while vertex is not None:
            stored = enc[vertex]
            kids = stored[2]
            old_child = enc[previous_vertex]
            removed = bisect_left(kids, old_child)
            trimmed = kids[:removed] + kids[removed + 1 :]
            new_child = overlay[previous_vertex]
            position = bisect_left(trimmed, new_child)
            overlay[vertex] = (
                stored[0],
                stored[1],
                trimmed[:position] + (new_child,) + trimmed[position:],
            )
            anchor = vertex
            previous_vertex = vertex
            vertex = parent[vertex]
        trees = list(self.trees)
        trees[self.pos_of[anchor]] = overlay[anchor]
        return _cycle_rotation_key(trees, self.edges)


def tree_encodings(tree: LabeledGraph) -> "TreeEncodings":
    """Batch-build :class:`TreeEncodings` for ``tree`` (see its docstring)."""
    return TreeEncodings.from_tree(tree)


def tree_canonical_key_incremental(
    parent_encodings: "TreeEncodings",
    edge: Tuple,
) -> "TreeEncodings":
    """Derive a one-leaf extension's canonical key from its parent's encodings.

    ``edge`` is ``(attach_vertex, new_vertex, vertex_label)`` or
    ``(attach_vertex, new_vertex, vertex_label, edge_label)``.  Returns the
    extension's :class:`TreeEncodings`; its ``key`` attribute equals
    ``tree_canonical_key`` of the extended tree (property-tested over random
    pendant-extension chains in ``tests/graph/test_canonical.py``), but is
    derived by re-canonicalising only the attach→root path — O(depth) tuple
    work — instead of re-encoding every vertex.
    """
    if len(edge) == 3:
        attach, new_vertex, vertex_label = edge
        edge_label: Optional[Label] = None
    elif len(edge) == 4:
        attach, new_vertex, vertex_label, edge_label = edge
    else:
        raise ValueError(
            "edge must be (attach, new_vertex, vertex_label[, edge_label])"
        )
    return parent_encodings.extend(attach, new_vertex, vertex_label, edge_label)


def _rooted_tree_encoding(tree: LabeledGraph, root: VertexId) -> Tuple:
    """Bottom-up AHU encoding of ``tree`` rooted at ``root`` (iterative)."""
    parent: Dict[VertexId, Optional[VertexId]] = {root: None}
    ordering: List[VertexId] = [root]
    for vertex in ordering:
        for neighbor in tree.neighbors(vertex):
            if neighbor not in parent:
                parent[neighbor] = vertex
                ordering.append(neighbor)
    # One dict probe per parent edge; patterns grown by LevelGrow carry no
    # edge labels at all, so the empty-dict case must stay allocation-free.
    edge_labels = tree._edge_labels
    encoding: Dict[VertexId, Tuple] = {}
    for vertex in reversed(ordering):
        up = parent[vertex]
        if up is None:
            edge = ""
        else:
            raw = edge_labels.get((vertex, up) if vertex < up else (up, vertex))
            edge = "" if raw is None else _label_key(raw)
        children = sorted(
            encoding[child]
            for child in tree.neighbors(vertex)
            if parent[child] == vertex
        )
        encoding[vertex] = (
            _label_key(tree.label_of(vertex)),
            edge,
            tuple(children),
        )
    return encoding[root]
