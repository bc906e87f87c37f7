"""Tests for LG / edge-list graph I/O."""

from __future__ import annotations

import json

import pytest

from repro.graph.generators import erdos_renyi_graph
from repro.graph.io import graph_from_edge_list, read_lg, write_lg
from repro.graph.isomorphism import are_isomorphic
from repro.graph.labeled_graph import build_graph


class TestLGFormat:
    def test_roundtrip_single_graph(self, tmp_path, triangle_graph):
        target = tmp_path / "one.lg"
        write_lg(triangle_graph, target)
        loaded = read_lg(target)
        assert len(loaded) == 1
        assert are_isomorphic(loaded[0], triangle_graph)

    def test_roundtrip_multiple_graphs(self, tmp_path, triangle_graph, path_graph):
        target = tmp_path / "many.lg"
        write_lg([triangle_graph, path_graph], target)
        loaded = read_lg(target)
        assert len(loaded) == 2
        assert are_isomorphic(loaded[0], triangle_graph)
        assert are_isomorphic(loaded[1], path_graph)

    def test_roundtrip_random_graph(self, tmp_path):
        graph = erdos_renyi_graph(40, 2, 3, seed=5)
        target = tmp_path / "random.lg"
        write_lg(graph, target)
        loaded = read_lg(target)[0]
        assert loaded.num_vertices() == graph.num_vertices()
        assert loaded.num_edges() == graph.num_edges()

    def test_edge_labels_roundtrip(self, tmp_path):
        graph = build_graph({0: "a", 1: "b"}, [])
        graph.add_edge(0, 1, "rel")
        target = tmp_path / "labeled.lg"
        write_lg(graph, target)
        loaded = read_lg(target)[0]
        assert loaded.edge_label(0, 1) == "rel"

    def test_malformed_vertex_line(self, tmp_path):
        target = tmp_path / "bad.lg"
        target.write_text("t # 0\nv 0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_lg(target)

    def test_vertex_before_transaction(self, tmp_path):
        target = tmp_path / "bad2.lg"
        target.write_text("v 0 a\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_lg(target)

    def test_unknown_line(self, tmp_path):
        target = tmp_path / "bad3.lg"
        target.write_text("t # 0\nq nonsense\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_lg(target)

    def test_blank_lines_and_comments_ignored(self, tmp_path):
        target = tmp_path / "ok.lg"
        target.write_text("# comment\n\nt # 0\nv 0 a\nv 1 b\ne 0 1\n", encoding="utf-8")
        loaded = read_lg(target)
        assert loaded[0].num_edges() == 1


class TestLGEdgeCases:
    """Regression tests: these inputs used to round-trip lossily."""

    def test_isolated_labeled_vertices_roundtrip(self, tmp_path):
        graph = build_graph({0: "a", 1: "b", 2: "lonely", 3: "alone"}, [(0, 1)])
        target = tmp_path / "isolated.lg"
        write_lg(graph, target)
        loaded = read_lg(target)[0]
        assert loaded.vertex_labels() == {0: "a", 1: "b", 2: "lonely", 3: "alone"}
        assert loaded.num_edges() == 1

    def test_gspan_trailing_sentinel_ignored(self, tmp_path):
        target = tmp_path / "sentinel.lg"
        target.write_text("t # 0\nv 0 a\nv 1 b\ne 0 1\nt # -1\n", encoding="utf-8")
        loaded = read_lg(target)
        assert len(loaded) == 1
        assert loaded[0].num_vertices() == 2

    def test_real_empty_graph_preserved(self, tmp_path):
        target = tmp_path / "empty-mid.lg"
        target.write_text("t # 0\nv 0 a\nt # 1\nt # 2\nv 0 b\n", encoding="utf-8")
        loaded = read_lg(target)
        assert [g.num_vertices() for g in loaded] == [1, 0, 1]

    def test_labels_with_whitespace_roundtrip(self, tmp_path):
        graph = build_graph({0: "has space", 1: "tab\there"}, [])
        graph.add_edge(0, 1, "edge label")
        target = tmp_path / "spaces.lg"
        write_lg(graph, target)
        loaded = read_lg(target)[0]
        assert loaded.vertex_labels() == {0: "has space", 1: "tab\there"}
        assert loaded.edge_label(0, 1) == "edge label"

    def test_percent_in_label_roundtrip(self, tmp_path):
        graph = build_graph({0: "50%", 1: "b"}, [(0, 1)])
        target = tmp_path / "percent.lg"
        write_lg(graph, target)
        loaded = read_lg(target)[0]
        assert loaded.label_of(0) == "50%"

    def test_legacy_percent_labels_load_verbatim(self, tmp_path):
        # Files from older writers / third-party tools may contain labels with
        # percent-looking text; only the writer's own escapes are decoded.
        target = tmp_path / "legacy.lg"
        target.write_text("t # 0\nv 0 %41\nv 1 C%3A\ne 0 1\n", encoding="utf-8")
        loaded = read_lg(target)[0]
        assert loaded.label_of(0) == "%41"
        assert loaded.label_of(1) == "C%3A"

    def test_escaped_percent_roundtrips_through_file_text(self, tmp_path):
        graph = build_graph({0: "%20", 1: "b"}, [(0, 1)])
        target = tmp_path / "tricky.lg"
        write_lg(graph, target)
        assert "%2520" in target.read_text(encoding="utf-8")
        assert read_lg(target)[0].label_of(0) == "%20"

    def test_empty_string_label_rejected(self, tmp_path):
        graph = build_graph({0: "", 1: "b"}, [(0, 1)])
        with pytest.raises(ValueError):
            write_lg(graph, tmp_path / "bad.lg")

    def test_multigraph_with_isolated_vertices_roundtrip(self, tmp_path):
        first = build_graph({0: "a", 5: "solo"}, [])
        second = build_graph({0: "x", 1: "y", 2: "z"}, [(0, 1)])
        target = tmp_path / "multi.lg"
        write_lg([first, second], target)
        loaded = read_lg(target)
        assert len(loaded) == 2
        assert loaded[0].num_vertices() == 2 and loaded[0].num_edges() == 0
        assert loaded[1].num_vertices() == 3 and loaded[1].num_edges() == 1


class TestJSONRecords:
    def test_graph_record_roundtrip_exact(self, figure3_graph):
        from repro.graph.io import graph_from_record, graph_to_record

        record = graph_to_record(figure3_graph)
        back = graph_from_record(json.loads(json.dumps(record)))
        assert back.vertex_labels() == figure3_graph.vertex_labels()
        assert {(e.u, e.v, e.label) for e in back.edges()} == {
            (e.u, e.v, e.label) for e in figure3_graph.edges()
        }
        assert back.name == figure3_graph.name

    def test_non_json_label_rejected(self):
        from repro.graph.io import graph_to_record

        graph = build_graph({0: ("tuple", "label"), 1: "b"}, [(0, 1)])
        with pytest.raises(TypeError):
            graph_to_record(graph)


class TestFingerprints:
    def test_insertion_order_does_not_matter(self):
        from repro.graph.io import graph_fingerprint
        from repro.graph.labeled_graph import LabeledGraph

        forward = LabeledGraph()
        forward.add_vertex(0, "a")
        forward.add_vertex(1, "b")
        forward.add_edge(0, 1)
        backward = LabeledGraph(name="other-name")
        backward.add_vertex(1, "b")
        backward.add_vertex(0, "a")
        backward.add_edge(1, 0)
        assert graph_fingerprint(forward) == graph_fingerprint(backward)

    def test_any_edit_changes_fingerprint(self, figure3_graph):
        from repro.graph.io import graph_fingerprint

        original = graph_fingerprint(figure3_graph)
        edited = figure3_graph.copy()
        edited.remove_edge(1, 2)
        assert graph_fingerprint(edited) != original
        edited.add_edge(1, 2)
        assert graph_fingerprint(edited) == original

    def test_digests_are_pinned(self):
        """Store keys embed these digests: a change orphans every stored entry."""
        from repro.graph.io import dataset_fingerprint, graph_fingerprint
        from repro.graph.labeled_graph import LabeledGraph

        plain = build_graph(
            {0: "a", 1: "b", 2: "a", 3: "c"}, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        )
        mixed = LabeledGraph()
        for vertex, label in ((7, 3), (2, 2.5), (11, "x y"), (4, None), (9, ("t", 1))):
            mixed.add_vertex(vertex, label)
        mixed.add_edge(11, 2, "knows")
        mixed.add_edge(7, 4, 5)
        mixed.add_edge(2, 7)
        mixed.add_edge(9, 11, ("w", 2))
        mixed.add_edge(4, 9)
        assert graph_fingerprint(plain) == (
            "4a17f984eccb40ba922ce7763301ac7e311a4d49838e06d2f53ad9bf3e1db550"
        )
        assert graph_fingerprint(mixed) == (
            "8f2299455abe6620ec43b4a58517fb30459fe2d3bebd16a58e9ca64da3315de1"
        )
        assert dataset_fingerprint([plain, mixed]) == (
            "8f7120b567e51eb2d96da12a6f67e5a91d1554bd978140b35569b163d23389da"
        )

    def test_dataset_fingerprint_is_order_sensitive(self, triangle_graph, path_graph):
        from repro.graph.io import dataset_fingerprint

        assert dataset_fingerprint([triangle_graph, path_graph]) != dataset_fingerprint(
            [path_graph, triangle_graph]
        )
        assert dataset_fingerprint(triangle_graph) == dataset_fingerprint([triangle_graph])


class TestEdgeList:
    def test_graph_from_edge_list(self):
        graph = graph_from_edge_list(
            [(0, "a", 1, "b"), (1, "b", 2, "c")], name="fixture"
        )
        assert graph.num_vertices() == 3
        assert graph.num_edges() == 2
        assert graph.label_of(2) == "c"
        assert graph.name == "fixture"
