"""Tests for LevelGrow (Stage II growth)."""

from __future__ import annotations

import pytest

from repro.core.database import MiningContext
from repro.core.diammine import DiamMine
from repro.core.levelgrow import (
    ExistingEdgeExtension,
    LevelGrower,
    NewVertexExtension,
)
from repro.core.patterns import initial_state_from_path
from repro.graph.labeled_graph import graph_from_paths


def star_data_graph():
    """Two copies of a path a-b-c whose middle vertex carries a 'z' twig."""
    graph = graph_from_paths([list("abc"), list("abc")])
    # vertices 0,1,2 and 3,4,5; add twigs on the middle vertices.
    twig_one = 100
    twig_two = 101
    graph.add_vertex(twig_one, "z")
    graph.add_vertex(twig_two, "z")
    graph.add_edge(1, twig_one)
    graph.add_edge(4, twig_two)
    return graph


def backbone_path(context, length=2, labels=("a", "b", "c")):
    """The DiamMine path whose label sequence equals ``labels``."""
    for path in DiamMine(context).mine(length):
        if path.labels == tuple(labels):
            return path
    raise AssertionError(f"no frequent path with labels {labels}")


class TestExtensionsOrdering:
    def test_sort_keys(self):
        new = NewVertexExtension(parent=2, label="z")
        edge = ExistingEdgeExtension(u=5, v=3)
        assert new.sort_key()[0] == 0
        assert edge.sort_key() == (1, 3, 5)


class TestLevelGrow:
    def test_grows_frequent_twig(self):
        graph = star_data_graph()
        context = MiningContext(graph, 2)
        root = initial_state_from_path(backbone_path(context))
        grower = LevelGrower(context)
        grower.register(root)
        grown = grower.grow_level(root, 1)
        assert len(grown) == 1
        result = grown[0]
        assert result.pattern.num_vertices() == 4
        assert result.support == 2
        assert result.levels[result.next_vertex_id() - 1] == 1

    def test_rejects_infrequent_twig(self):
        graph = star_data_graph()
        # Add a unique twig to only one copy: support 1 < 2.
        graph.add_vertex(200, "q")
        graph.add_edge(1, 200)
        context = MiningContext(graph, 2)
        root = initial_state_from_path(backbone_path(context))
        grower = LevelGrower(context)
        grower.register(root)
        grown = grower.grow_level(root, 1)
        labels_used = {
            str(state.pattern.label_of(v))
            for state in grown
            for v in state.pattern.vertices()
        }
        assert "q" not in labels_used
        assert grower.statistics.candidates_rejected_support >= 1

    def test_constraint_rejections_counted(self):
        # Endpoint twigs must be rejected by Constraint I.
        graph = graph_from_paths([list("abc"), list("abc")])
        graph.add_vertex(100, "z")
        graph.add_vertex(101, "z")
        graph.add_edge(0, 100)  # attach to the head vertex
        graph.add_edge(3, 101)
        context = MiningContext(graph, 2)
        root = initial_state_from_path(backbone_path(context))
        grower = LevelGrower(context)
        grower.register(root)
        grown = grower.grow_level(root, 1)
        assert grown == []
        assert grower.statistics.candidates_rejected_constraints >= 1

    def test_level_must_be_positive(self):
        graph = star_data_graph()
        context = MiningContext(graph, 2)
        root = initial_state_from_path(backbone_path(context))
        grower = LevelGrower(context)
        with pytest.raises(ValueError):
            grower.grow_level(root, 0)

    def test_max_patterns_cap(self):
        graph = star_data_graph()
        # Make many distinct frequent twigs by adding several labels to both copies.
        for offset, label in enumerate("defgh"):
            first, second = 300 + 2 * offset, 301 + 2 * offset
            graph.add_vertex(first, label)
            graph.add_vertex(second, label)
            graph.add_edge(1, first)
            graph.add_edge(4, second)
        context = MiningContext(graph, 2)
        root = initial_state_from_path(backbone_path(context))
        grower = LevelGrower(context, max_patterns=3)
        grower.register(root)
        grown = grower.grow_level(root, 1)
        assert 0 < len(grown) <= 4

    def test_duplicate_statistics(self):
        # Two frequent twigs on the same parent: patterns {x}, {y}, {x,y} are
        # reachable in two orders; the registry must collapse duplicates.
        graph = graph_from_paths([list("abc"), list("abc")])
        for base, label in ((400, "x"), (402, "y")):
            graph.add_vertex(base, label)
            graph.add_vertex(base + 1, label)
            graph.add_edge(1, base)
            graph.add_edge(4, base + 1)
        context = MiningContext(graph, 2)
        root = initial_state_from_path(backbone_path(context))
        grower = LevelGrower(context)
        grower.register(root)
        grown = grower.grow_level(root, 1)
        # Patterns: +x, +y, +x+y  (and +x twice is impossible: only one x per copy).
        assert len(grown) == 3
        assert grower.statistics.candidates_rejected_duplicate >= 1

    def test_existing_edge_extension_creates_cycle(self):
        # Data: path a-b-c with a twig 'z' on b and an edge from z to... we
        # need an (1,1)-level edge: two twigs z,y on the middle, connected.
        graph = graph_from_paths([list("abc"), list("abc")])
        for base in (0, 3):
            z, y = 500 + base, 520 + base
            graph.add_vertex(z, "z")
            graph.add_vertex(y, "y")
            graph.add_edge(base + 1, z)
            graph.add_edge(base + 1, y)
            graph.add_edge(z, y)
        context = MiningContext(graph, 2)
        root = initial_state_from_path(backbone_path(context))
        grower = LevelGrower(context)
        grower.register(root)
        grown = grower.grow_level(root, 1)
        # Expect at least one grown pattern containing the z-y edge (a triangle
        # hanging off the backbone).
        has_cycle = any(
            state.pattern.num_edges() > state.pattern.num_vertices() - 1
            for state in grown
        )
        assert has_cycle

    def test_statistics_merge(self):
        from repro.core.levelgrow import LevelGrowStatistics

        one = LevelGrowStatistics(1, 2, 3, 4, candidates_pending=5, patterns_emitted=6)
        two = LevelGrowStatistics(10, 20, 30, 40, candidates_pending=50, patterns_emitted=60)
        one.merge(two)
        assert (
            one.candidates_generated,
            one.candidates_rejected_constraints,
            one.candidates_rejected_support,
            one.candidates_rejected_duplicate,
            one.candidates_pending,
            one.patterns_emitted,
        ) == (11, 22, 33, 44, 55, 66)

    def test_fast_path_statistics_merge(self):
        from repro.core.levelgrow import LevelGrowStatistics

        one = LevelGrowStatistics(
            canonical_incremental_hits=1,
            invariant_cache_hits=2,
            probes_batched=3,
            canonical_seconds=0.25,
            invariant_seconds=0.5,
            probe_seconds=0.75,
        )
        one.merge(
            LevelGrowStatistics(
                canonical_incremental_hits=10,
                invariant_cache_hits=20,
                probes_batched=30,
                canonical_seconds=1.0,
                invariant_seconds=2.0,
                probe_seconds=3.0,
            )
        )
        assert (
            one.canonical_incremental_hits,
            one.invariant_cache_hits,
            one.probes_batched,
            one.canonical_seconds,
            one.invariant_seconds,
            one.probe_seconds,
        ) == (11, 22, 33, 1.25, 2.5, 3.75)
        payload = one.to_dict()
        assert payload["probes_batched"] == 33
        assert payload["canonical_seconds"] == 1.25

    def test_incremental_keys_and_batched_probes_on_growth(self):
        # Two labels hang off the *head* vertex of both copies: each pendant
        # violates Constraint I (distance D(P)+1 from the tail), so both
        # trigger viability probes against the same diameter images — one
        # shared frontier must answer them (probes_batched >= 2) — while the
        # frequent middle twigs exercise the incremental key derivation.
        graph = graph_from_paths([list("abc"), list("abc")])
        for base, labels in ((0, "zy"), (3, "zy")):
            for offset, label in enumerate(labels):
                vertex = 600 + 10 * base + offset
                graph.add_vertex(vertex, label)
                graph.add_edge(base, vertex)
        for base, vertex in ((1, 700), (4, 701)):
            graph.add_vertex(vertex, "w")
            graph.add_edge(base, vertex)
        context = MiningContext(graph, 2)
        root = initial_state_from_path(backbone_path(context))
        grower = LevelGrower(context)
        grower.register(root)
        grown = grower.grow_level(root, 1)
        assert grown  # the frequent 'w' twig
        assert grower.statistics.canonical_incremental_hits >= len(grown)
        assert grower.statistics.probes_batched >= 2
        assert grower.statistics.canonical_seconds >= 0.0
