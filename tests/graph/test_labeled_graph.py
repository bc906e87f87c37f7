"""Unit tests for the LabeledGraph data structure."""

from __future__ import annotations

import pytest

from repro.graph.labeled_graph import Edge, LabeledGraph, build_graph, graph_from_paths


class TestVertexOperations:
    def test_add_vertex_and_label(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "a")
        assert graph.has_vertex(1)
        assert graph.label_of(1) == "a"
        assert graph.num_vertices() == 1

    def test_add_vertex_idempotent_same_label(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "a")
        graph.add_vertex(1, "a")
        assert graph.num_vertices() == 1

    def test_add_vertex_conflicting_label_raises(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "a")
        with pytest.raises(ValueError):
            graph.add_vertex(1, "b")

    def test_remove_vertex_removes_incident_edges(self):
        graph = build_graph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
        graph.remove_vertex(1)
        assert not graph.has_vertex(1)
        assert graph.num_edges() == 0
        assert graph.num_vertices() == 2

    def test_remove_missing_vertex_raises(self):
        graph = LabeledGraph()
        with pytest.raises(KeyError):
            graph.remove_vertex(5)

    def test_label_histogram(self):
        graph = build_graph({0: "a", 1: "a", 2: "b"}, [])
        assert graph.label_histogram() == {"a": 2, "b": 1}

    def test_labels_used(self):
        graph = build_graph({0: "a", 1: "a", 2: "b"}, [])
        assert graph.labels_used() == {"a", "b"}


class TestEdgeOperations:
    def test_add_edge(self):
        graph = build_graph({0: "a", 1: "b"}, [(0, 1)])
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.num_edges() == 1

    def test_add_edge_missing_endpoint_raises(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "a")
        with pytest.raises(KeyError):
            graph.add_edge(0, 1)

    def test_self_loop_rejected(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "a")
        with pytest.raises(ValueError):
            graph.add_edge(0, 0)

    def test_duplicate_edge_is_noop(self):
        graph = build_graph({0: "a", 1: "b"}, [(0, 1)])
        graph.add_edge(1, 0)
        assert graph.num_edges() == 1

    def test_edge_label_roundtrip(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "a")
        graph.add_vertex(1, "b")
        graph.add_edge(0, 1, "knows")
        assert graph.edge_label(0, 1) == "knows"
        assert graph.edge_label(1, 0) == "knows"

    def test_edge_labels_is_a_copy_of_the_labeled_edges(self):
        graph = build_graph({0: "a", 1: "b", 2: "c"}, [(1, 2)])
        graph.add_edge(1, 0, "knows")
        labels = graph.edge_labels()
        assert labels == {(0, 1): "knows"}
        labels.clear()
        assert graph.edge_label(0, 1) == "knows"

    def test_edge_relabel_conflict_raises(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "a")
        graph.add_vertex(1, "b")
        graph.add_edge(0, 1, "x")
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, "y")

    def test_remove_edge(self):
        graph = build_graph({0: "a", 1: "b"}, [(0, 1)])
        graph.remove_edge(0, 1)
        assert graph.num_edges() == 0
        assert not graph.has_edge(0, 1)

    def test_remove_missing_edge_raises(self):
        graph = build_graph({0: "a", 1: "b"}, [])
        with pytest.raises(KeyError):
            graph.remove_edge(0, 1)

    def test_edges_iteration_yields_each_once(self):
        graph = build_graph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2), (0, 2)])
        edges = list(graph.edges())
        assert len(edges) == 3
        assert all(edge.u < edge.v for edge in edges)

    def test_edge_normalises_endpoints(self):
        assert Edge(5, 2) == Edge(2, 5)
        assert Edge(5, 2).endpoints() == (2, 5)

    def test_edge_other(self):
        edge = Edge(1, 2)
        assert edge.other(1) == 2
        assert edge.other(2) == 1
        with pytest.raises(ValueError):
            edge.other(3)

    def test_degree(self):
        graph = build_graph({0: "a", 1: "b", 2: "c"}, [(0, 1), (0, 2)])
        assert graph.degree(0) == 2
        assert graph.degree(1) == 1


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        graph = build_graph({0: "a", 1: "b"}, [(0, 1)])
        clone = graph.copy()
        clone.add_vertex(2, "c")
        clone.add_edge(1, 2)
        assert graph.num_vertices() == 2
        assert graph.num_edges() == 1
        assert clone.num_vertices() == 3

    def test_induced_subgraph(self):
        graph = build_graph(
            {0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1), (1, 2), (2, 3), (0, 3)]
        )
        sub = graph.subgraph([0, 1, 2])
        assert sub.num_vertices() == 3
        assert sub.num_edges() == 2
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_edge(0, 3)

    def test_subgraph_missing_vertex_raises(self):
        graph = build_graph({0: "a"}, [])
        with pytest.raises(KeyError):
            graph.subgraph([0, 7])

    def test_edge_subgraph(self):
        graph = build_graph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2), (0, 2)])
        sub = graph.edge_subgraph([(0, 1), (1, 2)])
        assert sub.num_edges() == 2
        assert sub.num_vertices() == 3

    def test_relabel_vertices(self):
        graph = build_graph({0: "a", 1: "b"}, [(0, 1)])
        renamed = graph.relabel_vertices({0: 10, 1: 20})
        assert renamed.has_edge(10, 20)
        assert renamed.label_of(10) == "a"

    def test_relabel_requires_total_injective_mapping(self):
        graph = build_graph({0: "a", 1: "b"}, [(0, 1)])
        with pytest.raises(ValueError):
            graph.relabel_vertices({0: 10})
        with pytest.raises(ValueError):
            graph.relabel_vertices({0: 10, 1: 10})

    def test_compact(self):
        graph = build_graph({5: "a", 9: "b"}, [(5, 9)])
        compacted, mapping = graph.compact()
        assert set(compacted.vertices()) == {0, 1}
        assert compacted.has_edge(mapping[5], mapping[9])

    def test_merged_with(self):
        left = build_graph({0: "a", 1: "b"}, [(0, 1)])
        right = build_graph({1: "b", 2: "c"}, [(1, 2)])
        merged = left.merged_with(right)
        assert merged.num_vertices() == 3
        assert merged.num_edges() == 2


class TestConnectivity:
    def test_connected_path(self, path_graph):
        assert path_graph.is_connected()

    def test_disconnected_components(self, two_triangles_graph):
        assert not two_triangles_graph.is_connected()
        components = two_triangles_graph.connected_components()
        assert len(components) == 2
        assert all(len(component) == 3 for component in components)

    def test_empty_graph_is_connected(self):
        assert LabeledGraph().is_connected()


class TestBuilders:
    def test_graph_from_paths(self):
        graph = graph_from_paths([["a", "b", "c"], ["x", "y"]])
        assert graph.num_vertices() == 5
        assert graph.num_edges() == 3
        assert len(graph.connected_components()) == 2

    def test_add_labeled_path_returns_ids(self):
        graph = LabeledGraph()
        ids = graph.add_labeled_path(["a", "b", "c"])
        assert len(ids) == 3
        assert graph.has_edge(ids[0], ids[1])
        assert graph.has_edge(ids[1], ids[2])

    def test_dunder_protocols(self):
        graph = build_graph({0: "a", 1: "b"}, [(0, 1)])
        assert 0 in graph
        assert len(graph) == 2
        assert sorted(graph) == [0, 1]
        assert "LabeledGraph" in repr(graph)
