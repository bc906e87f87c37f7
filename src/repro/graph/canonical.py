"""Canonical forms for labeled graphs: one exact key, dispatched on cycle rank.

Every "have I generated this pattern before?" check goes through
:func:`canonical_key`: a hashable key, equal for two graphs iff they are
isomorphic as labeled graphs (vertex and edge labels both count).  It has
three cases, picked by the cycle rank ``|E| - |V| + 1``:

* a connected graph of rank 0 takes :func:`tree_canonical_key`, the AHU
  encoding rooted at the tree's centre;
* a connected graph of rank 1 takes :func:`unicyclic_canonical_key`, the
  smallest rotation/reflection of the cycle's hanging-tree encodings;
* every other graph (two or more cycles, several components, no vertex at
  all) takes :func:`refinement_canonical_key`, a canonical labeller by
  individualisation and refinement after McKay & Piperno, "Practical graph
  isomorphism, II" (J. Symb. Comput. 2014).

The two rungs are near-linear, and :class:`TreeEncodings` and
:class:`UnicyclicEncodings` let the growth loop derive a one-leaf
extension's key in O(depth).  The labeller prunes its search with the
automorphisms it finds, so symmetric patterns such as K_n, grids or unions
of equal parts stay cheap.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.graph.labeled_graph import Label, LabeledGraph, VertexId


def _label_key(label: Optional[Label]) -> str:
    """Normalise a label to a string for lexicographic comparison."""
    return "" if label is None else str(label)


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
    twigs), and the AHU key needs no search at all.
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
    unicyclic, and this key spares them the labeller's search.  It is the
    key of the batch-built :class:`UnicyclicEncodings`, which the
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


def refinement_canonical_key(graph: LabeledGraph) -> Tuple:
    """Exact canonical key of any labeled graph, by individualisation–refinement.

    The search follows McKay & Piperno, "Practical graph isomorphism, II"
    (J. Symb. Comput. 2014), in five steps:

    1. Colours start from the vertex labels and are refined to an equitable
       partition: a vertex's next colour orders it by its colour and the
       sorted multiset of ``(edge label, neighbour colour)`` pairs.  A colour
       is the start position of its cell, so cells never change order.
    2. Each vertex of the first smallest non-singleton cell is individualised
       in turn (moved to the front of its cell), and the search recurses.
    3. A leaf is a discrete partition, i.e. a numbering of the vertices.  Its
       certificate is the sorted ``(i, j, edge label)`` triples, ``i < j``,
       under that numbering; the smallest one is kept.  The labels in
       canonical order complete the key; they are the same at every leaf,
       because refinement never reorders the label classes.
    4. A child in the same orbit as an explored sibling, under the
       automorphisms found so far that fix the node's prefix, is skipped:
       such an automorphism maps the sibling's subtree onto the child's.
    5. A leaf whose certificate equals the best one yields an automorphism
       (same position, same vertex) and unwinds the search to the two
       leaves' deepest common ancestor: the automorphism fixes that
       ancestor's prefix and maps its explored branch onto the current one.

    Each step commutes with renumbering, so isomorphic graphs get equal
    keys; a certificate rebuilds the graph, so equal keys mean isomorphic
    graphs.  Step 5 is what keeps many interchangeable vertices (the leaves
    of a star, the parts of a disjoint union) from multiplying the search.
    """
    vertices = list(graph.vertices())
    order = len(vertices)
    index = {vertex: position for position, vertex in enumerate(vertices)}
    labels = [_label_key(graph.label_of(vertex)) for vertex in vertices]
    edge_key = _make_edge_key(graph)
    adjacency = [
        [(edge_key(vertex, neighbor), index[neighbor]) for neighbor in graph.neighbors(vertex)]
        for vertex in vertices
    ]
    edges = [(i, j, label) for i, row in enumerate(adjacency) for label, j in row if i < j]

    def refine(colors: List[int]) -> Tuple[List[int], int]:
        """The equitable refinement of ``colors`` and its number of cells."""
        cells = len(set(colors))
        while cells < order:
            signatures = [
                (colors[v], tuple(sorted([(label, colors[w]) for label, w in adjacency[v]])))
                for v in range(order)
            ]
            start: Dict[Tuple, int] = {}
            for position, signature in enumerate(sorted(signatures)):
                start.setdefault(signature, position)
            if len(start) == cells:
                break
            cells = len(start)
            colors = [start[signature] for signature in signatures]
        return colors, cells

    # The best leaf so far: its certificate, its individualised vertices
    # and the vertex at each position.
    best: List = []
    automorphisms: List[List[int]] = []

    def search(colors: List[int], path: List[int]) -> Optional[int]:
        """Explore one node; return the depth to unwind to, if any."""
        colors, cells = refine(colors)
        if cells == order:
            certificate = sorted(
                (a, b, label) if a < b else (b, a, label)
                for a, b, label in ((colors[i], colors[j], label) for i, j, label in edges)
            )
            if not best or certificate < best[0]:
                at = [0] * order
                for vertex, position in enumerate(colors):
                    at[position] = vertex
                best[:] = [certificate, path, at]
                return None
            if certificate != best[0]:
                return None
            at = best[2]
            automorphisms.append([at[position] for position in colors])
            common = 0
            while path[common] == best[1][common]:
                common += 1
            return common
        sizes: Dict[int, int] = {}
        for color in colors:
            sizes[color] = sizes.get(color, 0) + 1
        target = min((size, color) for color, size in sizes.items() if size > 1)[1]
        depth = len(path)
        explored: List[int] = []
        for vertex in [v for v in range(order) if colors[v] == target]:
            if explored:
                generators = [g for g in automorphisms if all(g[u] == u for u in path)]
                orbit = set(explored)
                stack = list(explored)
                while stack:
                    current = stack.pop()
                    for generator in generators:
                        image = generator[current]
                        if image not in orbit:
                            orbit.add(image)
                            stack.append(image)
                if vertex in orbit:
                    continue
            explored.append(vertex)
            child = [
                color + 1 if color == target and u != vertex else color
                for u, color in enumerate(colors)
            ]
            unwind = search(child, path + [vertex])
            if unwind is not None and unwind < depth:
                return unwind
        return None

    in_order = sorted(labels)
    first: Dict[str, int] = {}
    for position, label in enumerate(in_order):
        first.setdefault(label, position)
    search([first[label] for label in labels], [])
    return ("r", tuple(in_order), tuple(best[0]))


def canonical_key(graph: LabeledGraph) -> Tuple:
    """The canonical form: a hashable key, equal iff the graphs are isomorphic.

    Three cases, by cycle rank ``|E| - |V| + 1``: a connected graph of rank 0
    takes :func:`tree_canonical_key`, a connected graph of rank 1
    :func:`unicyclic_canonical_key`, and every other graph
    :func:`refinement_canonical_key`.  A rung's own shape check rejects a
    disconnected or empty input with ``ValueError``, so connected inputs pay
    no extra connectivity pass.  The first element of every key names its
    case: ``"t"``, ``"u"`` or ``"r"``.

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
    >>> canonical_key(square)[0], canonical_key(theta)[0]
    ('u', 'r')
    >>> canonical_key(theta)[1:]
    (('a', 'a', 'b', 'b', 'b'), ((0, 2, ''), (0, 3, ''), (0, 4, ''), (1, 2, ''), (1, 3, ''), (1, 4, '')))
    """
    rank = graph.num_edges() - graph.num_vertices() + 1
    try:
        if rank == 0:
            return tree_canonical_key(graph)
        if rank == 1:
            return unicyclic_canonical_key(graph)
    except ValueError:
        pass
    return refinement_canonical_key(graph)


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
