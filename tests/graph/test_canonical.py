"""Tests for the canonical form: the tree and unicyclic rungs with their
incremental encodings, the individualisation-refinement labeller above them,
and the minimum DFS code that the reference oracle keys by.
"""

from __future__ import annotations

import itertools
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.reference import CanonicalCode, minimum_dfs_code
from repro.graph.canonical import (
    TreeEncodings,
    UnicyclicEncodings,
    canonical_key,
    refinement_canonical_key,
    tree_canonical_key,
    unicyclic_canonical_key,
)
from repro.graph.generators import random_skinny_pattern, random_tree_pattern
from repro.graph.isomorphism import are_isomorphic
from repro.graph.labeled_graph import LabeledGraph, build_graph


class TestMinimumDFSCode:
    def test_single_vertex(self):
        graph = build_graph({0: "a"}, [])
        code = minimum_dfs_code(graph)
        assert code.code == ()
        assert code.isolated_labels == ("a",)

    def test_single_edge(self):
        graph = build_graph({0: "a", 1: "b"}, [(0, 1)])
        code = minimum_dfs_code(graph)
        assert len(code.code) == 1
        # The smaller label must be the root of the canonical code.
        (i, j, li, le, lj) = code.code[0]
        assert (i, j) == (0, 1)
        assert li == "a" and lj == "b"

    def test_isomorphic_graphs_same_code(self, triangle_graph):
        shuffled = build_graph(
            {7: "c", 8: "a", 9: "b"}, [(7, 8), (8, 9), (7, 9)]
        )
        assert minimum_dfs_code(triangle_graph) == minimum_dfs_code(shuffled)

    def test_non_isomorphic_graphs_different_code(self):
        path = build_graph({0: "a", 1: "a", 2: "a"}, [(0, 1), (1, 2)])
        triangle = build_graph({0: "a", 1: "a", 2: "a"}, [(0, 1), (1, 2), (0, 2)])
        assert minimum_dfs_code(path) != minimum_dfs_code(triangle)

    def test_label_difference_changes_code(self):
        one = build_graph({0: "a", 1: "b"}, [(0, 1)])
        two = build_graph({0: "a", 1: "c"}, [(0, 1)])
        assert minimum_dfs_code(one) != minimum_dfs_code(two)

    def test_edge_labels_distinguish(self):
        one = LabeledGraph()
        one.add_vertex(0, "a")
        one.add_vertex(1, "a")
        one.add_edge(0, 1, "x")
        two = LabeledGraph()
        two.add_vertex(0, "a")
        two.add_vertex(1, "a")
        two.add_edge(0, 1, "y")
        assert minimum_dfs_code(one) != minimum_dfs_code(two)

    def test_disconnected_components_sorted(self):
        graph_a = build_graph(
            {0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1), (2, 3)]
        )
        graph_b = build_graph(
            {0: "c", 1: "d", 2: "a", 3: "b"}, [(0, 1), (2, 3)]
        )
        assert minimum_dfs_code(graph_a) == minimum_dfs_code(graph_b)

    def test_isolated_vertices_tracked(self):
        one = build_graph({0: "a", 1: "b", 2: "z"}, [(0, 1)])
        two = build_graph({0: "a", 1: "b"}, [(0, 1)])
        assert minimum_dfs_code(one) != minimum_dfs_code(two)

    def test_canonical_key_hashable(self, triangle_graph):
        key = canonical_key(triangle_graph)
        assert hash(key) == hash(canonical_key(triangle_graph))

    def test_codes_are_comparable(self):
        small = minimum_dfs_code(build_graph({0: "a", 1: "b"}, [(0, 1)]))
        assert isinstance(small, CanonicalCode)
        assert not (small < small)


class TestTreeCanonicalKey:
    def test_isomorphic_trees_same_key(self):
        one = build_graph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
        two = build_graph({7: "c", 8: "b", 9: "a"}, [(7, 8), (8, 9)])
        assert tree_canonical_key(one) == tree_canonical_key(two)

    def test_attachment_point_distinguishes(self):
        # A twig on the middle vs on the end of an a-a-a path.
        middle = build_graph({0: "a", 1: "a", 2: "a", 3: "z"}, [(0, 1), (1, 2), (1, 3)])
        end = build_graph({0: "a", 1: "a", 2: "a", 3: "z"}, [(0, 1), (1, 2), (0, 3)])
        assert tree_canonical_key(middle) != tree_canonical_key(end)
        assert not are_isomorphic(middle, end)

    def test_labels_distinguish(self):
        one = build_graph({0: "a", 1: "b"}, [(0, 1)])
        two = build_graph({0: "a", 1: "c"}, [(0, 1)])
        assert tree_canonical_key(one) != tree_canonical_key(two)

    def test_edge_labels_distinguish(self):
        one = LabeledGraph()
        one.add_vertex(0, "a")
        one.add_vertex(1, "a")
        one.add_edge(0, 1, "x")
        two = LabeledGraph()
        two.add_vertex(0, "a")
        two.add_vertex(1, "a")
        two.add_edge(0, 1, "y")
        assert tree_canonical_key(one) != tree_canonical_key(two)

    def test_bicentral_tree_invariant_under_relabeling(self):
        # An even path has two centres; the key must not depend on which
        # vertex ids they carry.
        one = build_graph({0: "a", 1: "b", 2: "b", 3: "a"}, [(0, 1), (1, 2), (2, 3)])
        two = build_graph({9: "a", 4: "b", 5: "b", 6: "a"}, [(9, 4), (4, 5), (5, 6)])
        assert tree_canonical_key(one) == tree_canonical_key(two)

    def test_single_vertex(self):
        assert tree_canonical_key(build_graph({5: "q"}, [])) == tree_canonical_key(
            build_graph({0: "q"}, [])
        )

    def test_rejects_cycles_and_disconnected(self):
        triangle = build_graph({0: "a", 1: "a", 2: "a"}, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            tree_canonical_key(triangle)
        # Right edge count for a tree, but disconnected (triangle + isolate).
        pseudo = build_graph({0: "a", 1: "a", 2: "a", 3: "a"}, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            tree_canonical_key(pseudo)
        with pytest.raises(ValueError):
            tree_canonical_key(LabeledGraph())

    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_key_invariant_under_relabeling(self, size, labels, seed, shuffle_seed):
        tree = random_tree_pattern(size, labels, seed=seed)
        rng = random.Random(shuffle_seed)
        ids = list(tree.vertices())
        targets = [i + 500 for i in ids]
        rng.shuffle(targets)
        renamed = tree.relabel_vertices(dict(zip(ids, targets)))
        assert tree_canonical_key(tree) == tree_canonical_key(renamed)

    @given(
        st.integers(min_value=4, max_value=8),
        st.integers(min_value=0, max_value=2_000),
        st.integers(min_value=0, max_value=2_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_key_equality_matches_isomorphism(self, size, seed_a, seed_b):
        left = random_tree_pattern(size, 2, seed=seed_a)
        right = random_tree_pattern(size, 2, seed=seed_b)
        assert (
            tree_canonical_key(left) == tree_canonical_key(right)
        ) == are_isomorphic(left, right)


def _random_pendant_chain(rng, length, num_labels, edge_labels=False):
    """Yield (graph, attach, new_vertex, vertex_label, edge_label) growth steps."""
    labels = "abcdef"[:num_labels]
    graph = build_graph({0: rng.choice(labels)}, [])
    for step in range(1, length):
        attach = rng.choice(list(graph.vertices()))
        vertex_label = rng.choice(labels)
        edge_label = rng.choice(["x", "y"]) if edge_labels and rng.random() < 0.5 else None
        graph.add_vertex(step, vertex_label)
        graph.add_edge(attach, step, edge_label)
        yield graph, attach, step, vertex_label, edge_label


class TestIncrementalTreeKey:
    """The ISSUE-5 parity contract: incremental keys equal the batch key."""

    @given(
        st.integers(min_value=3, max_value=14),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_chain_parity_with_batch_key(self, length, num_labels, edge_labels, seed):
        rng = random.Random(seed)
        encodings = None
        for graph, attach, new_vertex, vertex_label, edge_label in _random_pendant_chain(
            rng, length, num_labels, edge_labels
        ):
            if encodings is None:
                # Chain start: batch-build the 2-vertex tree's encodings.
                encodings = TreeEncodings.from_tree(graph)
                assert encodings.key == tree_canonical_key(graph)
                continue
            # The random attachments often lengthen the diameter, which
            # moves the centre: the peek must follow it without extending.
            peeked, leaf = encodings.extended_key(attach, new_vertex, vertex_label, edge_label)
            encodings = encodings.extend(leaf)
            assert peeked == encodings.key == tree_canonical_key(graph)

    def test_extended_key_never_builds_the_child(self, monkeypatch):
        steps = [
            (graph.copy(), *op)
            for graph, *op in _random_pendant_chain(random.Random(3), 12, 2, edge_labels=True)
        ]
        built = [TreeEncodings.from_tree(steps[0][0])]
        for _, *op in steps[1:]:
            built.append(built[-1].extend(built[-1].extended_key(*op)[1]))

        def refuse(*args, **kwargs):
            raise AssertionError("extended_key built the child")

        monkeypatch.setattr(TreeEncodings, "extend", refuse)
        lengthened = 0
        for parent, (graph, *op) in zip(built, steps[1:]):
            assert parent.extended_key(*op)[0] == tree_canonical_key(graph)
            lengthened += max(parent.d1[op[0]], parent.d2[op[0]]) == parent.diam
        assert lengthened > 0

    def test_extend_does_not_mutate_parent(self):
        graph = build_graph({0: "a", 1: "b"}, [(0, 1)])
        parent = TreeEncodings.from_tree(graph)
        key_before = parent.key
        root_before = parent.root
        child = parent.extend(parent.extended_key(0, 2, "c")[1])
        # Parent encodings untouched: growth states share them by reference.
        assert parent.key == key_before and parent.root == root_before
        assert 2 not in parent.parent
        graph.add_vertex(2, "c")
        graph.add_edge(0, 2)
        assert child.key == tree_canonical_key(graph)

    def test_rejects_bad_attachments(self):
        parent = TreeEncodings.from_tree(build_graph({0: "a", 1: "b"}, [(0, 1)]))
        with pytest.raises(ValueError):
            parent.extended_key(99, 2, "c")  # unknown attachment vertex
        with pytest.raises(ValueError):
            parent.extended_key(0, 1, "c")  # vertex already present


def _random_unicyclic(rng, size, num_labels, edge_labels=False):
    labels = "abcdef"[:num_labels]
    cycle = rng.randint(3, max(3, size - 1)) if size > 3 else 3
    cycle = min(cycle, size)
    graph = LabeledGraph()
    for vertex in range(cycle):
        graph.add_vertex(vertex, rng.choice(labels))
    for vertex in range(cycle):
        label = rng.choice("xy") if edge_labels and rng.random() < 0.5 else None
        graph.add_edge(vertex, (vertex + 1) % cycle, label)
    for vertex in range(cycle, size):
        graph.add_vertex(vertex, rng.choice(labels))
        label = rng.choice("xy") if edge_labels and rng.random() < 0.5 else None
        graph.add_edge(rng.randrange(vertex), vertex, label)
    return graph


class TestUnicyclicCanonicalKey:
    @given(
        st.integers(min_value=3, max_value=11),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=0, max_value=50_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_relabeling(self, size, num_labels, edge_labels, seed, shuffle):
        graph = _random_unicyclic(random.Random(seed), size, num_labels, edge_labels)
        rng = random.Random(shuffle)
        ids = list(graph.vertices())
        targets = [i + 500 for i in ids]
        rng.shuffle(targets)
        renamed = graph.relabel_vertices(dict(zip(ids, targets)))
        assert unicyclic_canonical_key(graph) == unicyclic_canonical_key(renamed)

    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=0, max_value=20_000),
        st.integers(min_value=0, max_value=20_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_key_equality_matches_isomorphism(self, size, seed_a, seed_b):
        left = _random_unicyclic(random.Random(seed_a), size, 2)
        right = _random_unicyclic(random.Random(seed_b), size, 2)
        assert (
            unicyclic_canonical_key(left) == unicyclic_canonical_key(right)
        ) == are_isomorphic(left, right)

    def test_rejects_trees_and_cycle_plus_component(self):
        with pytest.raises(ValueError):
            unicyclic_canonical_key(build_graph({0: "a", 1: "a"}, [(0, 1)]))
        # |E| == |V| but disconnected: triangle + a detached edge... needs
        # 5 vertices 5 edges: triangle (3e) + path of 3 vertices (2e).
        pseudo = build_graph(
            {0: "a", 1: "a", 2: "a", 3: "a", 4: "a", 5: "a"},
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        )
        with pytest.raises(ValueError):
            unicyclic_canonical_key(pseudo)


class TestIncrementalUnicyclicKey:
    """The ISSUE-9 parity contract: incremental unicyclic keys == batch key."""

    @given(
        st.integers(min_value=3, max_value=9),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_chain_parity_with_batch_key(
        self, base_size, pendants, num_labels, edge_labels, seed
    ):
        rng = random.Random(seed)
        labels = "abcdef"[:num_labels]
        graph = _random_unicyclic(rng, base_size, num_labels, edge_labels)
        encodings = UnicyclicEncodings.from_graph(graph)
        assert encodings.key == unicyclic_canonical_key(graph)
        next_vertex = max(graph.vertices()) + 1
        for _ in range(pendants):
            attach = rng.choice(sorted(graph.vertices()))
            vertex_label = rng.choice(labels)
            edge_label = (
                rng.choice("xy") if edge_labels and rng.random() < 0.5 else None
            )
            # The peek key (no dict copies) must agree with the full extend.
            peeked, leaf = encodings.extended_key(
                attach, next_vertex, vertex_label, edge_label
            )
            encodings = encodings.extend(leaf)
            graph.add_vertex(next_vertex, vertex_label)
            graph.add_edge(attach, next_vertex, edge_label)
            assert peeked == encodings.key
            assert encodings.key == unicyclic_canonical_key(graph)
            next_vertex += 1

    def test_extend_does_not_mutate_parent(self):
        graph = build_graph(
            {0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2), (0, 2)]
        )
        parent = UnicyclicEncodings.from_graph(graph)
        key_before = parent.key
        child = parent.extend(parent.extended_key(1, 3, "d")[1])
        assert parent.key == key_before
        assert 3 not in parent.parent
        graph.add_vertex(3, "d")
        graph.add_edge(1, 3)
        assert child.key == unicyclic_canonical_key(graph)

    def test_rejects_bad_attachments(self):
        parent = UnicyclicEncodings.from_graph(
            build_graph({0: "a", 1: "a", 2: "a"}, [(0, 1), (1, 2), (0, 2)])
        )
        with pytest.raises(ValueError):
            parent.extended_key(99, 3, "b")  # unknown attachment vertex
        with pytest.raises(ValueError):
            parent.extended_key(0, 2, "b")  # vertex already present
        with pytest.raises(ValueError):
            UnicyclicEncodings.from_graph(build_graph({0: "a", 1: "a"}, [(0, 1)]))


def _random_bicyclic(rng, size, num_labels, edge_labels=False):
    """A random connected graph with ``|E| = |V| + 1`` (exactly two cycles).

    With ``edge_labels`` every edge gets a label: ``are_isomorphic`` treats
    an unlabeled pattern edge as a wildcard (matching semantics), so the
    exactness oracle is only strict when no ``None`` labels are present.
    """
    labels = "abcdef"[:num_labels]
    graph = LabeledGraph()
    graph.add_vertex(0, rng.choice(labels))
    for vertex in range(1, size):
        graph.add_vertex(vertex, rng.choice(labels))
        label = rng.choice("xy") if edge_labels else None
        graph.add_edge(rng.randrange(vertex), vertex, label)
    added = 0
    while added < 2:
        u, v = rng.randrange(size), rng.randrange(size)
        if u == v or graph.has_edge(u, v):
            continue
        label = rng.choice("xy") if edge_labels else None
        graph.add_edge(u, v, label)
        added += 1
    return graph


class TestBicyclicCanonicalKey:
    """Two-cycle graphs (``|E| = |V| + 1``) through ``canonical_key``."""

    @given(
        st.integers(min_value=4, max_value=11),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=0, max_value=50_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_relabeling(
        self, size, num_labels, edge_labels, seed, shuffle
    ):
        graph = _random_bicyclic(random.Random(seed), size, num_labels, edge_labels)
        rng = random.Random(shuffle)
        ids = list(graph.vertices())
        targets = [i + 500 for i in ids]
        rng.shuffle(targets)
        renamed = graph.relabel_vertices(dict(zip(ids, targets)))
        assert canonical_key(graph) == canonical_key(renamed)

    @given(
        st.integers(min_value=4, max_value=7),
        st.integers(min_value=0, max_value=20_000),
        st.integers(min_value=0, max_value=20_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_key_equality_matches_isomorphism(self, size, seed_a, seed_b):
        left = _random_bicyclic(random.Random(seed_a), size, 2)
        right = _random_bicyclic(random.Random(seed_b), size, 2)
        assert (canonical_key(left) == canonical_key(right)) == are_isomorphic(
            left, right
        )

    @given(
        st.integers(min_value=4, max_value=8),
        st.integers(min_value=0, max_value=20_000),
        st.integers(min_value=0, max_value=20_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_edge_labels_keep_exactness(self, size, seed_a, seed_b):
        left = _random_bicyclic(random.Random(seed_a), size, 2, edge_labels=True)
        right = _random_bicyclic(random.Random(seed_b), size, 2, edge_labels=True)
        assert (canonical_key(left) == canonical_key(right)) == are_isomorphic(
            left, right
        )

    def test_covers_all_three_core_shapes(self):
        # figure-eight: two triangles sharing vertex 0.
        eight = build_graph(
            {0: "a", 1: "b", 2: "b", 3: "b", 4: "b"},
            [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)],
        )
        # theta: two branch vertices joined by three strands.
        theta = build_graph(
            {0: "a", 1: "a", 2: "b", 3: "b", 4: "b"},
            [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)],
        )
        # dumbbell: two triangles joined by a bridge edge.
        dumbbell = build_graph(
            {0: "a", 1: "a", 2: "a", 3: "a", 4: "a", 5: "a"},
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)],
        )
        shapes = (eight, theta, dumbbell)
        keys = [canonical_key(shape) for shape in shapes]
        assert {key[0] for key in keys} == {"r"}
        assert len(set(keys)) == 3
        for shape, key in zip(shapes, keys):
            assert canonical_key(_renumbered(shape, 3)) == key


def _random_connected(rng, size, rank, num_labels, num_edge_labels):
    """A random connected graph of cycle rank ``rank``, every edge labeled.

    A random spanning tree plus ``rank`` random chords.  Every edge carries a
    label because ``are_isomorphic`` matches an unlabeled pattern edge as a
    wildcard, which would make the isomorphism oracle weaker than the keys.
    """
    labels = "abc"[:num_labels]
    edge_labels = "xyz"[:num_edge_labels]
    graph = LabeledGraph()
    graph.add_vertex(0, rng.choice(labels))
    for vertex in range(1, size):
        graph.add_vertex(vertex, rng.choice(labels))
        graph.add_edge(rng.randrange(vertex), vertex, rng.choice(edge_labels))
    chords = [
        (u, v)
        for u in range(size)
        for v in range(u + 1, size)
        if not graph.has_edge(u, v)
    ]
    for u, v in rng.sample(chords, rank):
        graph.add_edge(u, v, rng.choice(edge_labels))
    return graph


#: Fewest vertices a simple connected graph of each cycle rank needs.
_MIN_ORDER = {0: 1, 1: 3, 2: 4, 3: 4, 4: 5}


def _cycle(order):
    return order, [(v, (v + 1) % order) for v in range(order)]


def _complete(order):
    return order, list(itertools.combinations(range(order), 2))


def _complete_bipartite(m, n):
    return m + n, [(u, m + v) for u in range(m) for v in range(n)]


_PRISM = (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
_CUBE = (8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])

#: Highly symmetric connected shapes: cycles, K_n, K_{m,n}, the prism and
#: the cube.  With one vertex label and one edge label, refinement leaves
#: them one or two cells, so only the search and its pruning tell them
#: apart.  K_n stops at 5 and K_{m,n} at six vertices because the minimum
#: DFS code, the second oracle, is exponential on such graphs.
_SYMMETRIC_SHAPES = (
    [_cycle(order) for order in range(3, 9)]
    + [_complete(order) for order in range(2, 6)]
    + [_complete_bipartite(m, n) for m in range(1, 4) for n in range(m, 7 - m)]
    + [_PRISM, _CUBE]
)


def _symmetric_union(parts):
    """Disjoint union of ``(order, edges)`` shapes, every edge labeled x."""
    graph = LabeledGraph()
    offset = 0
    for order, edges in parts:
        for vertex in range(order):
            graph.add_vertex(offset + vertex, "a")
        for u, v in edges:
            graph.add_edge(offset + u, offset + v, "x")
        offset += order
    return graph


def _union_size(parts):
    return sum(order for order, _ in parts), sum(len(edges) for _, edges in parts)


#: Each shape alone, and each union of two with at most ten vertices (on
#: larger unions the DFS code would dominate the test's time), grouped by
#: vertex and edge count: a group holds near misses such as C6 and two
#: triangles, K3,3 and the prism, or the cube and two copies of K4.
_SYMMETRIC_UNIONS = [[shape] for shape in _SYMMETRIC_SHAPES] + [
    [first, second]
    for first, second in itertools.combinations_with_replacement(_SYMMETRIC_SHAPES, 2)
    if first[0] + second[0] <= 10
]
_UNIONS_BY_SIZE = {}
for _parts in _SYMMETRIC_UNIONS:
    _UNIONS_BY_SIZE.setdefault(_union_size(_parts), []).append(_parts)


@st.composite
def _symmetric_pairs(draw):
    """A symmetric union and either itself, parts reordered, or a union of
    the same vertex and edge count; the second one renumbered.
    """
    left = draw(st.sampled_from(_SYMMETRIC_UNIONS))
    if draw(st.booleans()):
        right = left[::-1]
    else:
        right = draw(st.sampled_from(_UNIONS_BY_SIZE[_union_size(left)]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return _symmetric_union(left), _renumbered(_symmetric_union(right), seed)


@st.composite
def _graph_pairs(draw, max_order=7):
    """Two graphs drawn alike: connected of rank 0-4, a two-component union,
    or a pair from the symmetric family.

    The pair shares its shape parameters and small label alphabets, so it is
    isomorphic often enough to exercise both sides of every equality.  The
    union of two components of ranks ``r1`` and ``r2`` has cycle rank
    ``r1 + r2 - 1``, so the disconnected draws span ranks -1 to 4 — among
    them 0 and 1, where the tree and unicyclic rungs must step aside for the
    labeller.  Random draws are usually discrete after one refinement, so a
    quarter of the pairs come from the symmetric family instead.
    """
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(_symmetric_pairs())
    num_labels = draw(st.integers(min_value=1, max_value=2))
    num_edge_labels = draw(st.integers(min_value=1, max_value=2))
    shapes = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        rank = draw(st.integers(min_value=0, max_value=4 if not shapes else 1))
        low = _MIN_ORDER[rank]
        high = max_order if not shapes else low + 1
        shapes.append((draw(st.integers(min_value=low, max_value=high)), rank))

    def build(seed):
        rng = random.Random(seed)
        graph = LabeledGraph()
        offset = 0
        for size, rank in shapes:
            part = _random_connected(rng, size, rank, num_labels, num_edge_labels)
            graph = graph.merged_with(
                part.relabel_vertices({v: v + offset for v in part.vertices()})
            )
            offset += size
        return graph

    return (
        build(draw(st.integers(min_value=0, max_value=10_000))),
        build(draw(st.integers(min_value=0, max_value=10_000))),
    )


def _renumbered(graph, seed):
    """A copy with shuffled vertex ids, inserted in the order of the new ids.

    Shuffling the insertion order too matters: the labeller explores a
    cell's vertices in insertion order, so a copy that keeps it would hide
    a search that stops at its first leaf.
    """
    rng = random.Random(seed)
    ids = list(graph.vertices())
    targets = [i + 500 for i in ids]
    rng.shuffle(targets)
    return graph.relabel_vertices(dict(sorted(zip(ids, targets), key=lambda pair: pair[1])))


def _rank(graph):
    return graph.num_edges() - graph.num_vertices() + 1


class TestCanonicalCodeProperties:
    """``canonical_key``'s three cases against two independent oracles."""

    @given(_graph_pairs(), st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_code_invariant_under_relabeling(self, pair, shuffle_seed):
        graph, _ = pair
        renamed = _renumbered(graph, shuffle_seed)
        assert canonical_key(graph) == canonical_key(renamed)
        assert minimum_dfs_code(graph) == minimum_dfs_code(renamed)

    @given(_graph_pairs())
    @settings(max_examples=150, deadline=None)
    def test_code_equality_matches_isomorphism(self, pair):
        left, right = pair
        by_key = canonical_key(left) == canonical_key(right)
        by_dfs = minimum_dfs_code(left) == minimum_dfs_code(right)
        assert by_key == are_isomorphic(left, right) == by_dfs

    @given(_graph_pairs())
    @settings(max_examples=60, deadline=None)
    def test_dispatch_follows_cycle_rank(self, pair):
        graph, _ = pair
        rung = canonical_key(graph)[0]
        if graph.is_connected() and 0 <= _rank(graph) <= 1:
            assert rung == ("t", "u")[_rank(graph)]
        else:
            assert rung == "r"

    @pytest.mark.parametrize(
        "disconnected, connected",
        [
            # rank 0: triangle + isolated vertex vs a 4-vertex path
            (
                [(0, 1), (1, 2), (0, 2)],
                [(0, 1), (1, 2), (2, 3)],
            ),
            # rank 1: two triangles vs a 6-cycle
            (
                [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
            ),
            # rank 2: K4 + isolated vertex vs a theta graph
            (
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)],
            ),
        ],
        ids=["rank0", "rank1", "rank2"],
    )
    def test_disconnected_graphs_fall_through_to_the_labeller(
        self, disconnected, connected
    ):
        order = 1 + max(max(edge) for edge in disconnected + connected)
        vertices = {v: "a" for v in range(order)}
        split = build_graph(vertices, disconnected)
        whole = build_graph(vertices, connected)
        assert _rank(split) == _rank(whole)
        assert canonical_key(split)[0] == "r"
        assert canonical_key(split) == canonical_key(_renumbered(split, 7))
        assert canonical_key(split) != canonical_key(whole)
        assert not are_isomorphic(split, whole)
        assert minimum_dfs_code(split) != minimum_dfs_code(whole)

    def test_isolated_vertex_labels_distinguish(self):
        triangle = [(0, 1), (1, 2), (0, 2)]
        with_a = build_graph({0: "a", 1: "a", 2: "a", 3: "a"}, triangle)
        with_b = build_graph({0: "a", 1: "a", 2: "a", 3: "b"}, triangle)
        assert canonical_key(with_a) != canonical_key(with_b)
        assert not are_isomorphic(with_a, with_b)
        assert minimum_dfs_code(with_a) != minimum_dfs_code(with_b)

    def test_single_vertex_and_empty_graph(self):
        single = build_graph({3: "a"}, [])
        empty = LabeledGraph()
        assert canonical_key(single) == canonical_key(build_graph({9: "a"}, []))
        assert canonical_key(single) == ("t", "a")
        assert canonical_key(single) != canonical_key(build_graph({3: "b"}, []))
        assert canonical_key(empty) == canonical_key(LabeledGraph())
        assert canonical_key(empty)[0] == "r"
        assert canonical_key(empty) != canonical_key(single)
        assert are_isomorphic(empty, LabeledGraph())
        assert not are_isomorphic(empty, single)
        assert minimum_dfs_code(empty) == minimum_dfs_code(LabeledGraph())
        assert minimum_dfs_code(empty) != minimum_dfs_code(single)

    @given(
        st.integers(min_value=4, max_value=8),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=0, max_value=2_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_skinny_patterns_roundtrip(self, backbone, skinniness, seed):
        pattern = random_skinny_pattern(
            backbone, skinniness, backbone + 1 + 2 * skinniness, 3, seed=seed
        )
        compacted, _ = pattern.compact()
        assert minimum_dfs_code(pattern) == minimum_dfs_code(compacted)
        assert canonical_key(pattern) == canonical_key(compacted)


def _grid(rows, columns):
    edges = [
        (r * columns + c, r * columns + c + 1) for r in range(rows) for c in range(columns - 1)
    ] + [(r * columns + c, (r + 1) * columns + c) for r in range(rows - 1) for c in range(columns)]
    return rows * columns, edges


_PETERSEN = (
    10,
    [(v, (v + 1) % 5) for v in range(5)]
    + [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    + [(v, v + 5) for v in range(5)],
)
_STAR_WITH_CHORDS = (21, [(0, leaf) for leaf in range(1, 21)] + [(1, 2), (3, 4)])
#: Cubic with no automorphism but the identity (LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2]):
#: refinement leaves one cell, so the key rests on the search alone.
_FRUCHT = (
    12,
    sorted(
        {(min(v, (v + 1) % 12), max(v, (v + 1) % 12)) for v in range(12)}
        | {
            (min(v, (v + step) % 12), max(v, (v + step) % 12))
            for v, step in enumerate([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])
        }
    ),
)


class TestRefinementLabeller:
    """The labeller stays fast and exact where the DFS code was exponential."""

    @pytest.mark.parametrize(
        "graph",
        [
            _symmetric_union([_complete(6)]),
            _symmetric_union([_complete(8)]),
            _symmetric_union([_grid(3, 4)]),
            _symmetric_union([_PETERSEN]),
            _symmetric_union([_CUBE]),
            _symmetric_union([_complete_bipartite(3, 3)]),
            _symmetric_union([_PRISM]),
            _symmetric_union([_STAR_WITH_CHORDS]),
            _symmetric_union([_cycle(3)] * 6),
            _symmetric_union([_cycle(3), _cycle(5)]),
            _symmetric_union([_FRUCHT]),
        ],
        ids=["K6", "K8", "grid3x4", "petersen", "cube", "K3,3", "prism",
             "star20-chords", "six-triangles", "triangle+pentagon", "frucht"],
    )
    def test_symmetric_graph_keys_in_bounded_time(self, graph):
        started = time.perf_counter()
        key = canonical_key(graph)
        assert time.perf_counter() - started < 0.25
        assert key[0] == "r"
        for seed in range(3):
            assert canonical_key(_renumbered(graph, seed)) == key

    def test_k33_and_prism_differ(self):
        k33 = _symmetric_union([_complete_bipartite(3, 3)])
        prism = _symmetric_union([_PRISM])
        assert canonical_key(k33) != canonical_key(prism)
        assert not are_isomorphic(k33, prism)

    def test_every_graph_has_a_labeller_key(self):
        # The labeller is exact on the rungs' inputs too, with its own tag.
        path = build_graph({0: "a", 1: "b", 2: "a"}, [(0, 1), (1, 2)])
        renamed = build_graph({7: "a", 3: "b", 5: "a"}, [(3, 5), (7, 3)])
        assert refinement_canonical_key(path) == refinement_canonical_key(renamed)
        assert refinement_canonical_key(path)[0] == "r"
        assert refinement_canonical_key(path) != canonical_key(path)
