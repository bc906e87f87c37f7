"""Tests for LevelGrow (Stage II growth)."""

from __future__ import annotations

import pytest

from repro.api import MiningEngine, Query
from repro.cli import load_dataset
from repro.core.database import MiningContext, SupportMeasure
from repro.core.diammine import DiamMine
from repro.core.levelgrow import LevelGrower, LevelGrowStatistics
from repro.core.patterns import initial_state_from_path
from repro.core.skinnymine import SkinnyMine
from repro.graph.embeddings import EmbeddingTable
from repro.graph.generators import erdos_renyi_graph, random_transaction_database
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


class TestLevelGrow:
    def test_grows_frequent_twig(self):
        graph = star_data_graph()
        context = MiningContext(graph, 2)
        root = initial_state_from_path(backbone_path(context))
        grower = LevelGrower(context)
        grower.register(root)
        grown = grower.grow_level_full(root, 1).emitted
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
        grown = grower.grow_level_full(root, 1).emitted
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
        grown = grower.grow_level_full(root, 1).emitted
        assert grown == []
        assert grower.statistics.candidates_rejected_constraints >= 1

    def test_level_must_be_positive(self):
        graph = star_data_graph()
        context = MiningContext(graph, 2)
        root = initial_state_from_path(backbone_path(context))
        grower = LevelGrower(context)
        with pytest.raises(ValueError):
            grower.grow_level_full(root, 0)

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
        grown = grower.grow_level_full(root, 1).emitted
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
        grown = grower.grow_level_full(root, 1).emitted
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
        grown = grower.grow_level_full(root, 1).emitted
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
        grown = grower.grow_level_full(root, 1).emitted
        assert grown  # the frequent 'w' twig
        assert grower.statistics.canonical_incremental_hits >= len(grown)
        assert grower.statistics.probes_batched >= 2
        assert grower.statistics.canonical_seconds >= 0.0


#: The fields that split the constraint rejections by reason, plus the
#: deferred closing edges.
REASONS = (
    "rejected_constraint_one",
    "rejected_constraint_two",
    "rejected_constraint_three",
    "rejected_unrepairable",
    "rejected_loop_invariant",
    "candidates_deferred",
)


def assert_reasons_add_up(stats: LevelGrowStatistics) -> None:
    assert stats.candidates_rejected_constraints == (
        stats.rejected_constraint_one
        + stats.rejected_constraint_two
        + stats.rejected_constraint_three
        + stats.rejected_unrepairable
        + stats.candidates_pending
        + stats.rejected_loop_invariant
    )
    assert stats.candidates_generated == (
        stats.patterns_emitted
        + stats.candidates_rejected_support
        + stats.candidates_rejected_duplicate
        + stats.candidates_rejected_constraints
        + stats.candidates_deferred
    )


def skinny_statistics(graphs, length, delta, measure) -> LevelGrowStatistics:
    miner = SkinnyMine(graphs, min_support=2, support_measure=measure)
    miner.mine(length, delta)
    return miner.last_report.level_statistics


class TestRejectionReasons:
    """Every generated candidate lands in exactly one outcome counter."""

    def test_demo_skinny_query(self):
        query = Query("skinny", {"length": 5, "delta": 1}, min_support=2)
        payload = MiningEngine(load_dataset("demo")).run(query).stats.level_statistics
        stats = LevelGrowStatistics(**payload)
        assert_reasons_add_up(stats)
        assert stats.rejected_constraint_one > 0
        assert stats.rejected_constraint_three > 0

    def test_seed_85_four_cycle_input(self):
        # The pending-repair 4-cycle input: its eight pending states are
        # the one constraint outcome that is explored rather than dropped.
        database = random_transaction_database(3, 12, 1.4, 4, seed=85)
        stats = skinny_statistics(database, 2, 1, SupportMeasure.TRANSACTIONS)
        assert stats.candidates_pending == 8
        assert_reasons_add_up(stats)

    def test_every_reason_counted(self):
        graph = erdos_renyi_graph(20, 2.0, 2, seed=1)
        stats = skinny_statistics(graph, 3, 1, SupportMeasure.MNI)
        assert_reasons_add_up(stats)
        assert all(getattr(stats, reason) > 0 for reason in REASONS), stats

    def test_pending_counts_the_states_held(self, monkeypatch):
        # A candidate that re-derives a pending state the registry holds is
        # a duplicate, settled before its viability probe: it was once
        # counted as pending too (274 for these 178 states).
        held = []
        grow_level_full = LevelGrower.grow_level_full

        def recording(grower, *args, **kwargs):
            growth = grow_level_full(grower, *args, **kwargs)
            held.extend(growth.pending)
            return growth

        monkeypatch.setattr(LevelGrower, "grow_level_full", recording)
        graph = erdos_renyi_graph(20, 2.0, 2, seed=1)
        stats = skinny_statistics(graph, 3, 1, SupportMeasure.MNI)
        assert len(held) == 178
        assert stats.candidates_pending == 178
        assert_reasons_add_up(stats)

    def test_a_join_with_fewer_rows_than_sigma_builds_no_table(self, monkeypatch):
        # Support is at most the row count under every measure, so such a
        # candidate is a support rejection settled before its table: 183 of
        # the 606 here, which once built a table each.
        sizes = []
        for name in ("extended", "subset"):

            def recording(table, *args, method=getattr(EmbeddingTable, name)):
                child = method(table, *args)
                sizes.append(len(child.graph_ids))
                return child

            monkeypatch.setattr(EmbeddingTable, name, recording)
        graph = erdos_renyi_graph(20, 2.0, 2, seed=1)
        stats = skinny_statistics(graph, 3, 1, SupportMeasure.MNI)
        assert_reasons_add_up(stats)
        assert (stats.rejected_rows, stats.candidates_rejected_support) == (183, 606)
        assert min(sizes) >= 2

    def test_merge_and_wire_form_carry_the_reasons(self):
        one = LevelGrowStatistics(**{reason: 1 for reason in REASONS})
        one.merge(LevelGrowStatistics(**{reason: 10 for reason in REASONS}))
        payload = one.to_dict()
        assert {reason: payload[reason] for reason in REASONS} == {
            reason: 11 for reason in REASONS
        }
        assert LevelGrowStatistics(**payload) == one
