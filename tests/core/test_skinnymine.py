"""End-to-end tests for SkinnyMine (Algorithm 1) and its direct-mining index."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SkinnyMine, SupportMeasure
from repro.core.diameter import is_l_long_delta_skinny
from repro.core.reference import enumerate_and_check_spm
from repro.graph.generators import (
    erdos_renyi_graph,
    inject_pattern,
    random_skinny_pattern,
    random_transaction_database,
)
from repro.graph.isomorphism import are_isomorphic
from repro.graph.labeled_graph import graph_from_paths
from repro.obs import Tracer


def injected_background(seed: int = 1, copies: int = 3):
    """ER background with three injected copies of a known skinny pattern.

    Tests that mine this at σ = 2 exercise the exact Stage-1 default on the
    cross-copy path family too (pairs of copies share background structure,
    so many support-2 diameters exist); the heavier tests mine at σ = 3,
    which keeps only the within-copy (planted) family and stays fast.
    """
    background = erdos_renyi_graph(140, 1.5, 25, seed=seed)
    pattern = random_skinny_pattern(6, 1, 9, 25, seed=seed + 1)
    inject_pattern(background, pattern, copies=copies, seed=seed + 2)
    return background, pattern


class TestBasicMining:
    def test_recovers_injected_pattern(self):
        background, pattern = injected_background()
        miner = SkinnyMine(background, min_support=3)
        results = miner.mine(length=6, delta=1, validate=True)
        assert any(are_isomorphic(p.graph, pattern) for p in results)

    def test_all_outputs_satisfy_constraint(self):
        background, _ = injected_background(seed=7)
        results = SkinnyMine(background, min_support=2).mine(6, 1)
        for pattern in results:
            assert is_l_long_delta_skinny(pattern.graph, 6, 1)
            assert pattern.support >= 2

    def test_unique_generation(self):
        background, _ = injected_background(seed=9)
        results = SkinnyMine(background, min_support=2).mine(6, 1)
        keys = [p.canonical_form() for p in results]
        assert len(keys) == len(set(keys))

    def test_include_minimal_toggle(self):
        graph = graph_from_paths([list("abcd"), list("abcd")])
        with_minimal = SkinnyMine(graph, min_support=2).mine(3, 1)
        without_minimal = SkinnyMine(graph, min_support=2).mine(
            3, 1, include_minimal=False
        )
        assert len(with_minimal) == 1  # the bare path, nothing to grow
        assert without_minimal == []

    def test_delta_zero_returns_paths_only(self):
        background, _ = injected_background(seed=11)
        results = SkinnyMine(background, min_support=2).mine(6, 0)
        assert all(p.num_edges == 6 and p.num_vertices == 7 for p in results)

    def test_invalid_parameters(self):
        graph = graph_from_paths([list("ab")])
        miner = SkinnyMine(graph, min_support=1)
        with pytest.raises(ValueError):
            miner.mine(0, 1)
        with pytest.raises(ValueError):
            miner.mine(1, -1)

    def test_report_populated(self):
        background, _ = injected_background(seed=13)
        miner = SkinnyMine(background, min_support=3)
        miner.mine(6, 1)
        report = miner.last_report
        assert report is not None
        assert report.num_diameters >= 1
        assert report.num_patterns >= 1
        assert report.total_seconds >= 0
        assert report.diammine_seconds >= 0
        assert report.levelgrow_seconds >= 0

    def test_standalone_spans(self):
        background, _ = injected_background(seed=13)
        tracer = Tracer()
        miner = SkinnyMine(background, min_support=3, tracer=tracer)
        results = miner.mine(5, 2)
        roots = tracer.drain()
        assert [root["name"] for root in roots] == ["stage1", "stage2"]
        stage1, stage2 = roots
        assert stage1["attrs"]["diameters"] == miner.last_report.num_diameters >= 1
        assert stage2["attrs"]["patterns"] == len(results)
        # One run of level spans per cluster: levels 1, 2, ... up to δ, cut
        # short only after a level that grew nothing.
        runs = []
        for child in stage2["children"]:
            if child["name"] == "stage2.level":
                if child["attrs"]["level"] == 1:
                    runs.append([])
                runs[-1].append(child["attrs"])
        assert len(runs) == miner.last_report.num_diameters
        for run in runs:
            assert [attrs["level"] for attrs in run] == list(range(1, len(run) + 1))
            assert all(attrs["grown"] > 0 for attrs in run[:-1])
            assert len(run) == 2 or run[-1]["grown"] == 0
        phases = {child["name"] for child in stage2["children"]} - {"stage2.level"}
        assert phases == {"stage2.phase." + p for p in ("canonical", "invariant", "probe")}


class TestDirectMiningIndex:
    def test_precompute_serves_later_requests(self):
        background, _ = injected_background(seed=17)
        miner = SkinnyMine(background, min_support=3)
        counts = miner.precompute([4, 5, 6])
        assert set(counts) == {4, 5, 6}
        assert miner.indexed_lengths() == [4, 5, 6]
        # Serving a request for an indexed length must not re-run Stage I:
        results = miner.mine(6, 1)
        assert miner.last_report.num_diameters == counts[6]
        assert len(results) >= counts[6]

    def test_mine_range(self):
        background, _ = injected_background(seed=19)
        miner = SkinnyMine(background, min_support=3)
        by_length = miner.mine_range(5, 6, delta=1)
        assert set(by_length) == {5, 6}
        for length, patterns in by_length.items():
            assert all(p.diameter_length == length for p in patterns)

    def test_mine_range_invalid(self):
        graph = graph_from_paths([list("ab")])
        with pytest.raises(ValueError):
            SkinnyMine(graph, min_support=1).mine_range(3, 2, 1)


class TestTransactionSetting:
    def test_transaction_mining_finds_planted_pattern(self):
        database = random_transaction_database(6, 60, 1.5, 20, seed=23)
        planted = random_skinny_pattern(5, 1, 8, 20, seed=29)
        for index, graph in enumerate(database):
            inject_pattern(graph, planted, copies=1, seed=300 + index)
        miner = SkinnyMine(database, min_support=5)
        results = miner.mine(5, 1)
        assert any(are_isomorphic(p.graph, planted) for p in results)
        assert miner.context.support_measure is SupportMeasure.TRANSACTIONS

    @given(st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=4, deadline=None)
    def test_matches_reference_under_transaction_support(self, seed):
        """Completeness + soundness against enumerate-and-check (anti-monotone support)."""
        database = random_transaction_database(3, 12, 1.4, 4, seed=seed)
        mined = SkinnyMine(database, min_support=2).mine(2, 1)
        reference = enumerate_and_check_spm(database, 2, 1, 2, max_edges=8)
        mined_keys = {p.canonical_form() for p in mined if p.num_edges <= 8}
        reference_keys = {p.canonical_form() for p in reference}
        assert mined_keys == reference_keys


class TestSingleGraphReferenceComparison:
    @given(st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=4, deadline=None)
    def test_soundness_under_embedding_support(self, seed):
        """Under |E[P]| support every output is independently verifiable: the
        l-long δ-skinny predicate holds (``validate=True``) and the reported
        support matches a from-scratch embedding count.

        No completeness assertion is made under this measure: embedding-count
        support is not anti-monotone, so Stage-2 growth pruning infrequent
        intermediates can miss a pattern whose sub-patterns collapse below
        the threshold (documented in docs/CORRECTNESS.md).  Completeness is
        asserted under the anti-monotone measures in
        ``test_matches_reference_under_transaction_support`` and the
        completeness matrix.
        """
        from repro.graph.isomorphism import find_subgraph_embeddings

        graph = erdos_renyi_graph(14, 1.5, 3, seed=seed)
        miner = SkinnyMine(graph, min_support=2)
        mined = miner.mine(2, 1, validate=True)
        for pattern in mined:
            recounted = len(find_subgraph_embeddings(pattern.graph, graph))
            assert recounted == pattern.support
            assert recounted >= 2
        # Unique generation: no pattern is reported twice.
        keys = [p.canonical_form() for p in mined]
        assert len(keys) == len(set(keys))

    def test_support_values_match_reference(self):
        graph = erdos_renyi_graph(14, 1.5, 3, seed=77)
        mined = SkinnyMine(graph, min_support=2).mine(2, 1)
        reference = {
            p.canonical_form(): p.support
            for p in enumerate_and_check_spm(graph, 2, 1, 2, max_edges=8)
        }
        overlap = 0
        for pattern in mined:
            key = pattern.canonical_form()
            if key in reference:
                overlap += 1
                assert reference[key] == pattern.support
        assert overlap >= 1
