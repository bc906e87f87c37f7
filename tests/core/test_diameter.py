"""Tests for canonical diameters, vertex levels and skinny predicates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diameter import (
    canonical_diameter,
    diameter_length,
    is_delta_skinny,
    is_l_long_delta_skinny,
    skinniness,
    vertex_levels,
)
from repro.core.orders import canonical_orientation, path_sort_key
from repro.graph.generators import random_labeled_path, random_skinny_pattern
from repro.graph.labeled_graph import LabeledGraph, build_graph
from repro.graph.paths import all_diameter_paths


def reference_canonical_diameter(graph: LabeledGraph):
    """Definition 4 read literally: the smallest of every listed diameter path.

    Each path of ``all_diameter_paths`` is read in its smaller direction and
    the smallest reading under the total path order wins.
    """
    if graph.num_vertices() == 0:
        raise ValueError("the canonical diameter of an empty graph is undefined")
    if not graph.is_connected():
        raise ValueError("the canonical diameter of a disconnected graph is undefined")
    oriented = [canonical_orientation(graph, path) for path in all_diameter_paths(graph)]
    return min(oriented, key=lambda path: path_sort_key(graph, path))


@st.composite
def connected_graphs(draw, max_vertices=9):
    """A connected labelled graph of 1 to ``max_vertices`` vertices.

    Vertex ids are drawn apart and out of step with the shape, and two or
    three labels are few enough that equal label sequences leave the choice
    to the ids.  The shape is a random tree or a Hamiltonian cycle, plus
    random chords, so several shortest paths often tie; the labels may read
    the same from both ends of the build order.  Labels 9 and 10 order as
    strings, "10" before "9".
    """
    count = draw(st.integers(min_value=1, max_value=max_vertices))
    ids = draw(st.lists(st.integers(0, 99), min_size=count, max_size=count, unique=True))
    alphabet = draw(st.sampled_from([("a",), ("a", "b"), ("a", "b", "c"), (9, 10)]))
    labels = draw(st.lists(st.sampled_from(alphabet), min_size=count, max_size=count))
    if draw(st.booleans()):
        labels = labels[: (count + 1) // 2] + labels[: count // 2][::-1]
    if count >= 3 and draw(st.booleans()):
        edges = {(index, (index + 1) % count) for index in range(count)}
    else:
        edges = {
            (draw(st.integers(0, index - 1)), index) for index in range(1, count)
        }
    index = st.integers(0, count - 1)
    for u, v in draw(st.lists(st.tuples(index, index), max_size=count)):
        if u != v and (v, u) not in edges:
            edges.add((u, v))
    return build_graph(
        {ids[index]: labels[index] for index in range(count)},
        [(ids[u], ids[v]) for u, v in edges],
    )


class TestCanonicalDiameter:
    def test_path_graph_diameter_is_itself(self, path_graph):
        assert canonical_diameter(path_graph) == [0, 1, 2, 3, 4]
        assert diameter_length(path_graph) == 4

    def test_figure3_canonical_diameter(self, figure3_graph):
        # Labels along 1..7 are a..g; the competing path ending at vertex 11
        # (label k) is lexicographically larger, so the backbone wins.
        assert canonical_diameter(figure3_graph) == [1, 2, 3, 4, 5, 6, 7]

    def test_lexicographically_smaller_branch_wins(self):
        # Y-shaped graph: two diameter paths with different end labels.
        graph = build_graph(
            {0: "m", 1: "m", 2: "m", 3: "a", 4: "z"},
            [(0, 1), (1, 2), (2, 3), (2, 4)],
        )
        # Diameter = 3; candidate endpoints: 0..3 (labels m,m,m,a) and 0..4
        # (labels m,m,m,z).  The 'a' ending is smaller once oriented.
        result = canonical_diameter(graph)
        labels = [graph.label_of(v) for v in result]
        assert labels == ["a", "m", "m", "m"]

    def test_id_tiebreak_on_equal_labels(self):
        graph = build_graph(
            {0: "a", 1: "b", 2: "a", 3: "b", 4: "a"},
            [(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        # Palindromic labels: both orientations label-equal; ids break the tie.
        assert canonical_diameter(graph) == [0, 1, 2, 3, 4]

    def test_unique_for_any_connected_graph(self, triangle_graph):
        assert canonical_diameter(triangle_graph) in ([0, 1], [0, 2], [1, 2])
        assert len(canonical_diameter(triangle_graph)) == 2

    def test_disconnected_raises(self, two_triangles_graph):
        with pytest.raises(ValueError):
            canonical_diameter(two_triangles_graph)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            canonical_diameter(LabeledGraph())

    def test_single_vertex(self):
        graph = build_graph({0: "a"}, [])
        assert canonical_diameter(graph) == [0]
        assert diameter_length(graph) == 0

    @given(connected_graphs())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_smallest_listed_diameter_path(self, graph):
        assert canonical_diameter(graph) == reference_canonical_diameter(graph)

    @given(connected_graphs(max_vertices=5), connected_graphs(max_vertices=5))
    @settings(max_examples=30, deadline=None)
    def test_disconnected_raises_as_the_reference(self, first, second):
        graph = first.copy()
        offset = 100
        for vertex in second.vertices():
            graph.add_vertex(vertex + offset, second.label_of(vertex))
        for edge in second.edges():
            graph.add_edge(edge.u + offset, edge.v + offset)
        for diameter in (canonical_diameter, reference_canonical_diameter):
            with pytest.raises(ValueError, match="disconnected graph is undefined"):
                diameter(graph)

    def test_empty_raises_as_the_reference(self):
        for diameter in (canonical_diameter, reference_canonical_diameter):
            with pytest.raises(ValueError, match="empty graph is undefined"):
                diameter(LabeledGraph())

    def test_label_order_before_ids_on_a_cycle(self):
        # A 6-cycle: every vertex has one opposite vertex, reached by two
        # shortest paths.  Label a only at 2 and 5 puts the four readings
        # of the two paths between them first, all a-b-b-a; 2-1-0-5 has
        # the smallest ids.
        graph = build_graph(
            {0: "b", 1: "b", 2: "a", 3: "b", 4: "b", 5: "a"},
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        )
        assert canonical_diameter(graph) == [2, 1, 0, 5]
        assert canonical_diameter(graph) == reference_canonical_diameter(graph)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=30, deadline=None)
    def test_canonical_diameter_invariant_under_relabeling(self, length, seed):
        path = random_labeled_path(length, 3, seed=seed)
        mapping = {vertex: vertex + 50 for vertex in path.vertices()}
        renamed = path.relabel_vertices(mapping)
        original = [path.label_of(v) for v in canonical_diameter(path)]
        relabeled = [renamed.label_of(v) for v in canonical_diameter(renamed)]
        assert original == relabeled


class TestVertexLevels:
    def test_figure3_levels(self, figure3_graph):
        levels = vertex_levels(figure3_graph, [1, 2, 3, 4, 5, 6, 7])
        assert levels[8] == 1
        assert levels[9] == 2
        assert levels[10] == 1
        assert levels[11] == 1
        assert all(levels[v] == 0 for v in range(1, 8))

    def test_levels_of_path_are_zero(self, path_graph):
        levels = vertex_levels(path_graph, [0, 1, 2, 3, 4])
        assert set(levels.values()) == {0}


class TestSkinnyPredicates:
    def test_figure3_is_6_long_2_skinny(self, figure3_graph):
        assert is_l_long_delta_skinny(figure3_graph, 6, 2)
        assert not is_l_long_delta_skinny(figure3_graph, 6, 1)
        assert not is_l_long_delta_skinny(figure3_graph, 5, 2)

    def test_path_is_zero_skinny(self, path_graph):
        assert is_delta_skinny(path_graph, 0)
        assert is_l_long_delta_skinny(path_graph, 4, 0)

    def test_skinniness_value(self, figure3_graph, path_graph):
        assert skinniness(figure3_graph) == 2
        assert skinniness(path_graph) == 0

    def test_disconnected_graph_is_not_skinny(self, two_triangles_graph):
        assert not is_delta_skinny(two_triangles_graph, 3)
        assert not is_l_long_delta_skinny(two_triangles_graph, 1, 3)

    def test_empty_graph(self):
        assert is_delta_skinny(LabeledGraph(), 0)
        assert not is_l_long_delta_skinny(LabeledGraph(), 0, 0)

    def test_invalid_parameters(self, path_graph):
        with pytest.raises(ValueError):
            is_delta_skinny(path_graph, -1)
        with pytest.raises(ValueError):
            is_l_long_delta_skinny(path_graph, -1, 0)
        with pytest.raises(ValueError):
            is_l_long_delta_skinny(path_graph, 1, -1)

    def test_skinniness_disconnected_raises(self, two_triangles_graph):
        with pytest.raises(ValueError):
            skinniness(two_triangles_graph)

    @given(
        st.integers(min_value=4, max_value=10),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_generated_skinny_patterns_satisfy_predicate(self, backbone, delta, seed):
        if 2 * delta > backbone:
            return
        extra = 0 if delta == 0 else 2 * delta
        pattern = random_skinny_pattern(backbone, delta, backbone + 1 + extra, 3, seed=seed)
        assert is_l_long_delta_skinny(pattern, backbone, delta)
        assert skinniness(pattern) <= delta
