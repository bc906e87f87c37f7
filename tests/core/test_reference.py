"""Tests for the enumerate-and-check reference miner."""

from __future__ import annotations

import pytest

from repro.core.database import MiningContext, SupportMeasure
from repro.core.diameter import is_l_long_delta_skinny
from repro.core.reference import (
    enumerate_and_check_spm,
    enumerate_frequent_connected_subgraphs,
)
from repro.graph.labeled_graph import LabeledGraph, graph_from_paths


class TestEnumeration:
    def test_frequent_single_edges(self):
        graph = graph_from_paths([list("ab"), list("ab"), list("cd")])
        context = MiningContext(graph, 2)
        frequent = enumerate_frequent_connected_subgraphs(context, max_edges=1)
        assert len(frequent) == 1
        pattern, occurrences, support = frequent[0]
        assert support == 2
        assert sorted(str(pattern.label_of(v)) for v in pattern.vertices()) == ["a", "b"]

    def test_larger_patterns_enumerated(self):
        graph = graph_from_paths([list("abc"), list("abc")])
        context = MiningContext(graph, 2)
        frequent = enumerate_frequent_connected_subgraphs(context, max_edges=2)
        sizes = sorted(p.num_edges() for p, _, _ in frequent)
        assert sizes == [1, 1, 2]

    def test_max_edges_validation(self):
        graph = graph_from_paths([list("ab")])
        with pytest.raises(ValueError):
            enumerate_frequent_connected_subgraphs(MiningContext(graph, 1), 0)

    def test_max_patterns_cap(self):
        graph = graph_from_paths([list("abcdef"), list("abcdef")])
        context = MiningContext(graph, 2)
        capped = enumerate_frequent_connected_subgraphs(context, max_edges=4, max_patterns=2)
        assert len(capped) == 2

    @pytest.mark.parametrize("measure", [SupportMeasure.MNI, SupportMeasure.EMBEDDINGS])
    def test_an_unlabelled_edge_does_not_match_a_labelled_one(self, measure):
        # An a-b edge labelled x beside an unlabelled a-b edge: each pattern
        # occurs once, under MNI too (VF2 alone maps the unlabelled one twice).
        graph = LabeledGraph()
        for vertex, label in enumerate("abab"):
            graph.add_vertex(vertex, label)
        graph.add_edge(0, 1, "x")
        graph.add_edge(2, 3)
        frequent = enumerate_frequent_connected_subgraphs(
            MiningContext(graph, 1, measure), max_edges=1
        )
        supports = {next(iter(p.edges())).label: support for p, _, support in frequent}
        assert supports == {"x": 1, None: 1}


class TestEnumerateAndCheck:
    def test_finds_skinny_patterns(self):
        graph = graph_from_paths([list("abcd"), list("abcd")])
        results = enumerate_and_check_spm(graph, 3, 1, 2)
        assert len(results) == 1
        assert results[0].support == 2
        assert is_l_long_delta_skinny(results[0].graph, 3, 1)

    def test_respects_delta(self):
        # Star with center b: path a-b-a plus a twig c on the center.
        graph = graph_from_paths([list("aba"), list("aba")])
        graph.add_vertex(50, "c")
        graph.add_vertex(51, "c")
        graph.add_edge(1, 50)
        graph.add_edge(4, 51)
        zero_skinny = enumerate_and_check_spm(graph, 2, 0, 2)
        one_skinny = enumerate_and_check_spm(graph, 2, 1, 2)
        assert all(p.num_vertices == 3 for p in zero_skinny)
        assert any(p.num_vertices == 4 for p in one_skinny)

    def test_empty_result_when_threshold_high(self):
        graph = graph_from_paths([list("abc")])
        assert enumerate_and_check_spm(graph, 2, 1, 5) == []
