"""Behavioural tests for the six baseline miners.

The assertions encode the *qualitative* behaviours the paper attributes to
each system (the behaviours the benchmark figures rely on), not exact output
sets: SUBDUE prefers small high-frequency substructures, SEuS reports small
patterns, SpiderMine finds large-but-fat patterns and misses long skinny
ones, ORIGAMI returns a scattered sample, gSpan/MoSS are complete but
cap-able.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    GSpanMiner,
    MossMiner,
    OrigamiSampler,
    SeusMiner,
    SpiderMiner,
    SubdueMiner,
)
from repro.graph.generators import (
    erdos_renyi_graph,
    inject_pattern,
    random_skinny_pattern,
    random_transaction_database,
)
from repro.graph.isomorphism import are_isomorphic, is_subgraph_isomorphic
from repro.graph.labeled_graph import build_graph, graph_from_paths
from repro.graph.paths import diameter


def label_summary(patterns):
    """(edges, sorted vertex labels, support) per pattern, sorted."""
    return sorted(
        (p.num_edges, "".join(sorted(p.graph.vertex_labels().values())), p.support)
        for p in patterns
    )


#: Both 3-regular on six one-label vertices, and not isomorphic.
K33 = build_graph({v: "a" for v in range(6)}, [(u, 3 + w) for u in range(3) for w in range(3)])
PRISM = build_graph(
    {v: "a" for v in range(6)},
    [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
)


def skinny_injected_graph(seed=1, copies=3, backbone=8):
    background = erdos_renyi_graph(120, 1.5, 20, seed=seed)
    pattern = random_skinny_pattern(backbone, 1, backbone + 3, 20, seed=seed + 1)
    inject_pattern(background, pattern, copies=copies, seed=seed + 2)
    return background, pattern


class TestGSpan:
    def test_complete_on_small_database(self):
        database = [graph_from_paths([list("abc")]) for _ in range(3)]
        miner = GSpanMiner(database, min_support=3)
        patterns = miner.mine()
        assert miner.completed
        assert sorted(p.num_edges for p in patterns) == [1, 1, 2]
        assert all(p.support == 3 for p in patterns)

    def test_single_graph_accepted(self):
        graph = graph_from_paths([list("abc")])
        patterns = GSpanMiner(graph, min_support=1).mine()
        assert len(patterns) == 3

    def test_caps_mark_incomplete(self):
        database = random_transaction_database(3, 30, 2.0, 3, seed=5)
        miner = GSpanMiner(database, min_support=2, max_patterns=3)
        miner.mine()
        assert not miner.completed

    def test_patterns_differing_only_in_labels_stay_apart(self):
        database = [graph_from_paths([list("abc")]), graph_from_paths([list("def")])]
        patterns = GSpanMiner(database, min_support=1).mine()
        assert label_summary(patterns) == [
            (1, "ab", 1), (1, "bc", 1), (1, "de", 1), (1, "ef", 1),
            (2, "abc", 1), (2, "def", 1),
        ]

    def test_same_degree_sequences_stay_apart(self):
        patterns = GSpanMiner([K33, PRISM], 1, max_edges=9).mine()
        nine_edges = [p for p in patterns if p.num_edges == 9]
        assert [p.support for p in nine_edges] == [1, 1]
        assert any(are_isomorphic(p.graph, K33) for p in nine_edges)
        assert any(are_isomorphic(p.graph, PRISM) for p in nine_edges)


class TestMoss:
    def test_complete_single_graph_mining(self):
        graph = graph_from_paths([list("abcd"), list("abcd")])
        miner = MossMiner(graph, min_support=2)
        patterns = miner.mine()
        assert miner.completed
        assert max(p.num_edges for p in patterns) == 3

    def test_time_budget(self):
        graph = erdos_renyi_graph(200, 3, 3, seed=9)
        miner = MossMiner(graph, min_support=2, time_budget_seconds=0.05)
        miner.mine()
        assert not miner.completed
        assert miner.elapsed_seconds >= 0.0

    def test_patterns_differing_only_in_labels_stay_apart(self):
        graph = graph_from_paths([list("abc"), list("def")])
        patterns = MossMiner(graph, min_support=1).mine()
        assert label_summary(patterns) == [
            (1, "ab", 1), (1, "bc", 1), (1, "de", 1), (1, "ef", 1),
            (2, "abc", 1), (2, "def", 1),
        ]


class TestSpiderMine:
    def test_finds_large_patterns(self):
        background, pattern = skinny_injected_graph(seed=3)
        miner = SpiderMiner(background, min_support=2, top_k=5, radius=1, d_max=4,
                            num_seeds=100, seed=7)
        results = miner.mine()
        assert results
        assert results[0].num_vertices >= results[-1].num_vertices

    def test_diameter_bounded_by_merging(self):
        # SpiderMine's output diameter is bounded by ~2 * radius * d_max, so a
        # very long path cannot be recovered with small radius and few rounds.
        graph = graph_from_paths([list("abcdefghijklmnop")] * 2)
        miner = SpiderMiner(graph, min_support=2, top_k=3, radius=1, d_max=1,
                            num_seeds=10, seed=1)
        results = miner.mine()
        assert all(diameter(p.graph) <= 4 for p in results if p.graph.is_connected())

    def test_invalid_parameters(self):
        graph = graph_from_paths([list("ab")])
        with pytest.raises(ValueError):
            SpiderMiner(graph, 1, top_k=0)
        with pytest.raises(ValueError):
            SpiderMiner(graph, 1, radius=0)
        with pytest.raises(ValueError):
            SpiderMiner(graph, 1, d_max=0)

    def test_empty_result_when_nothing_frequent(self):
        graph = graph_from_paths([list("ab"), list("cd")])
        assert SpiderMiner(graph, min_support=3, seed=2).mine() == []

    def test_spiders_differing_only_in_labels_stay_apart(self):
        # a-b and c-d occur once each: neither is frequent at support 2.
        graph = graph_from_paths([list("ab"), list("cd")])
        assert SpiderMiner(graph, min_support=2).mine() == []


class TestSubdue:
    def test_prefers_frequent_small_substructures(self):
        # Many copies of a small star, one copy of a long path: the star
        # compresses better and must rank first.
        graph = graph_from_paths([list("xy")] * 8 + [list("abcdefgh")])
        miner = SubdueMiner(graph, min_support=2, beam_width=4, iterations=4)
        results = miner.mine()
        assert results
        best = results[0]
        assert best.num_edges <= 3
        assert best.support >= 8 or best.score >= results[-1].score

    def test_results_sorted_by_score(self):
        graph = graph_from_paths([list("abc")] * 4)
        results = SubdueMiner(graph, min_support=2).mine()
        scores = [p.score for p in results]
        assert scores == sorted(scores, reverse=True)

    def test_invalid_parameters(self):
        graph = graph_from_paths([list("ab")])
        with pytest.raises(ValueError):
            SubdueMiner(graph, beam_width=0)
        with pytest.raises(ValueError):
            SubdueMiner(graph, iterations=0)


class TestSeus:
    def test_reports_small_patterns(self):
        background, _ = skinny_injected_graph(seed=11)
        miner = SeusMiner(background, min_support=2)
        results = miner.mine()
        assert results
        assert all(p.num_vertices <= 3 for p in results)
        assert miner.summary_nodes > 0
        assert miner.summary_edges > 0

    def test_supports_are_exact(self):
        graph = graph_from_paths([list("ab")] * 3)
        results = SeusMiner(graph, min_support=2).mine()
        assert len(results) == 1
        assert results[0].support == 3

    def test_invalid_parameters(self):
        graph = graph_from_paths([list("ab")])
        with pytest.raises(ValueError):
            SeusMiner(graph, max_candidate_edges=0)


class TestOrigami:
    def test_returns_sample_of_maximal_patterns(self):
        background, _ = skinny_injected_graph(seed=13)
        sampler = OrigamiSampler(background, min_support=2, num_walks=10, seed=3)
        results = sampler.mine()
        assert results
        # Every sampled pattern is frequent and occurs in the data.
        for pattern in results:
            assert pattern.support >= 2
            assert is_subgraph_isomorphic(pattern.graph, background)

    def test_deterministic_with_seed(self):
        graph = graph_from_paths([list("abcde")] * 3)
        first = OrigamiSampler(graph, min_support=2, num_walks=5, seed=42).mine()
        second = OrigamiSampler(graph, min_support=2, num_walks=5, seed=42).mine()
        assert [p.num_edges for p in first] == [p.num_edges for p in second]

    def test_alpha_filter_reduces_duplicates(self):
        graph = graph_from_paths([list("abcde")] * 3)
        loose = OrigamiSampler(graph, min_support=2, num_walks=12, alpha=1.0, seed=1).mine()
        strict = OrigamiSampler(graph, min_support=2, num_walks=12, alpha=0.3, seed=1).mine()
        assert len(strict) <= len(loose)

    def test_invalid_parameters(self):
        graph = graph_from_paths([list("ab")])
        with pytest.raises(ValueError):
            OrigamiSampler(graph, num_walks=0)
        with pytest.raises(ValueError):
            OrigamiSampler(graph, alpha=2.0)

    def test_empty_when_nothing_frequent(self):
        graph = graph_from_paths([list("ab"), list("cd")])
        assert OrigamiSampler(graph, min_support=5, seed=1).mine() == []


class TestQualitativeComparison:
    def test_skinnymine_recovers_long_pattern_spidermine_misses(self):
        """The paper's core effectiveness claim, scaled down: with a long
        skinny injected pattern, SkinnyMine finds a pattern realising the full
        backbone length while SpiderMine (small radius / few merge rounds)
        does not.
        """
        from repro.core import SkinnyMine

        background, pattern = skinny_injected_graph(seed=17, backbone=10)
        # Pruned Stage 1 keeps this qualitative check fast: the exact mode
        # additionally surfaces ~160 cross-copy diameters (real frequent
        # paths whose sub-paths collapse to one image), which only add
        # runtime here — the claim under test needs just the planted one.
        skinny_results = SkinnyMine(
            background, min_support=2, stage1_mode="pruned"
        ).mine(10, 1)
        assert any(p.diameter_length == 10 for p in skinny_results)

        spider_results = SpiderMiner(
            background, min_support=2, top_k=5, radius=1, d_max=1, num_seeds=50, seed=5
        ).mine()
        assert all(
            diameter(p.graph) < 10
            for p in spider_results
            if p.graph.is_connected()
        )
