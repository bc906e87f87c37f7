"""Tests for DiamMine (Stage I: frequent simple path mining)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import MiningContext, SupportMeasure
from repro.core.diammine import (
    DiamMine,
    Stage1Mode,
    _DirectedPathSet,
    _edge_readings,
    brute_force_frequent_paths,
)
from repro.core.orders import canonical_label_orientation
from repro.graph.generators import (
    erdos_renyi_graph,
    inject_pattern,
    random_labeled_path,
    random_transaction_database,
)
from repro.graph.labeled_graph import graph_from_paths
from repro.graph.paths import is_simple_path
from repro.obs.trace import Tracer


class _ReferenceDiamMine(DiamMine):
    """DiamMine with the length-1 rung as a plain per-edge loop.

    Every edge adds both readings to a directed occurrence set, and every
    set gets an exact support count; the count-then-build rung must agree
    with it on the rung itself and on everything mined above it.
    """

    def _frequent_edges(self):
        if 1 in self._ladder:
            return self._ladder[1]
        collected = {}
        for graph_index in self._context.graph_indices():
            graph = self._context.frozen_graph(graph_index)
            label_strs = graph.label_strs
            for edge in graph.edges():
                label_u = label_strs[edge.u]
                label_v = label_strs[edge.v]
                for sequence, vertices in (
                    ((label_u, label_v), (edge.u, edge.v)),
                    ((label_v, label_u), (edge.v, edge.u)),
                ):
                    entry = collected.setdefault(sequence, _DirectedPathSet(labels=sequence))
                    entry.occurrences.add((graph_index, vertices))
        frequent = {
            labels: paths
            for labels, paths in collected.items()
            if self._intermediate_frequent(paths.undirected_support(self._context))
        }
        self._ladder[1] = frequent
        return frequent


class _PerPairBoundDiamMine(DiamMine):
    """DiamMine whose length-1 rung asks the support bound of every pair.

    Each label pair passes :meth:`MiningContext.path_support_upper_bound`
    and :meth:`DiamMine._intermediate_frequent` on its own, as the rung did
    before it derived one edge count per kind of pair; the rest of the rung
    is unchanged, so the two must agree on keys, key order and occurrences.
    """

    def _frequent_edges(self):
        if 1 in self._ladder:
            return self._ladder[1]
        context = self._context
        with self._tracer.span("stage1.ladder", length=1) as span:
            by_pair, edges = self._edges_by_label_pair()
            kept = []
            label_pairs = counted = 0
            for first, partners in by_pair.items():
                label_pairs += len(partners)
                for second, flat in partners.items():
                    bound = context.path_support_upper_bound(
                        len(flat) // 3, (first, second)
                    )
                    if not self._intermediate_frequent(bound):
                        continue
                    counted += 1
                    readings = _edge_readings(first, second, flat)
                    if self._intermediate_frequent(
                        readings[0].undirected_support(context)
                    ):
                        graph_index, x, y = flat[:3]
                        kept.append(((graph_index, min(x, y), max(x, y)), x > y, readings))
            kept.sort(key=lambda entry: entry[0])
            frequent = {}
            for _, flipped, readings in kept:
                for path_set in reversed(readings) if flipped else readings:
                    frequent[path_set.labels] = path_set
            span.annotate(
                paths=len(frequent),
                edges=edges,
                label_pairs=label_pairs,
                label_pairs_counted=counted,
            )
        self._ladder[1] = frequent
        return frequent


def _rung_one(miner):
    """Length-1 rung as (labels, occurrences), both in iteration order."""
    return [
        (labels, list(path_set.occurrences))
        for labels, path_set in miner._paths_of_length(1).items()
    ]


def _mined(miner, length):
    return [(path.labels, path.support, path.embeddings) for path in miner.mine(length)]


def assert_matches_reference(graphs):
    for measure in SupportMeasure:
        for mode in Stage1Mode:
            for sigma in (1, 2, 3, 4, 6, 8):
                miner = DiamMine(MiningContext(graphs, sigma, measure), mode=mode)
                reference = _ReferenceDiamMine(
                    MiningContext(graphs, sigma, measure), mode=mode
                )
                assert _rung_one(miner) == _rung_one(reference)
                for length in (1, 2, 3):
                    assert _mined(miner, length) == _mined(reference, length)


class TestFrequentEdges:
    def test_single_edge_paths(self):
        graph = graph_from_paths([["a", "b"], ["a", "b"], ["a", "c"]])
        context = MiningContext(graph, 2)
        paths = DiamMine(context).mine(1)
        assert len(paths) == 1
        assert paths[0].labels == ("a", "b")
        assert paths[0].support == 2

    def test_threshold_filters(self):
        graph = graph_from_paths([["a", "b"], ["a", "c"]])
        context = MiningContext(graph, 2)
        assert DiamMine(context).mine(1) == []

    def test_invalid_length(self, triangle_graph):
        with pytest.raises(ValueError):
            DiamMine(MiningContext(triangle_graph, 1)).mine(0)

    def test_support_is_counted_only_for_pairs_that_can_pass(self, monkeypatch):
        graph = erdos_renyi_graph(3000, 4.0, 60, seed=11)
        sigma = 8
        edges_per_pair = Counter(
            canonical_label_orientation((graph.label_of(edge.u), graph.label_of(edge.v)))
            for edge in graph.edges()
        )
        can_pass = sum(count >= sigma for count in edges_per_pair.values())
        assert (graph.num_edges(), len(edges_per_pair), can_pass) == (5900, 1716, 52)
        calls = []
        count_support = MiningContext.support_of_path_occurrences

        def counted(self, *args, **kwargs):
            calls.append(args)
            return count_support(self, *args, **kwargs)

        monkeypatch.setattr(MiningContext, "support_of_path_occurrences", counted)
        frequent = DiamMine(MiningContext(graph, sigma), mode="pruned").mine(1)
        assert len(frequent) == 52
        assert len(calls) <= 3 * can_pass

    @pytest.mark.parametrize(
        "measure, counted, paths",
        [(SupportMeasure.EMBEDDINGS, 1, 2), (SupportMeasure.MNI, 2, 3)],
    )
    def test_rung_span_reports_the_sweep(self, measure, counted, paths):
        # Under MNI both readings of the lone c-c edge are images, so its
        # bound (and its support) is 2 and it passes σ=2.
        graph = graph_from_paths([["a", "b"], ["a", "b"], ["b", "a"], ["a", "c"], ["c", "c"]])
        tracer = Tracer()
        DiamMine(MiningContext(graph, 2, measure), mode="pruned", tracer=tracer).mine(1)
        [rung] = tracer.drain()
        assert rung["name"] == "stage1.ladder"
        assert rung["attrs"] == {
            "length": 1,
            "paths": paths,
            "edges": 5,
            "label_pairs": 3,
            "label_pairs_counted": counted,
        }


def _rung_and_span(miner_class, graphs, sigma, measure, mode):
    tracer = Tracer()
    miner = miner_class(MiningContext(graphs, sigma, measure), mode=mode, tracer=tracer)
    rung = [
        (labels, path_set.occurrences)
        for labels, path_set in miner._frequent_edges().items()
    ]
    [span] = tracer.drain()
    return rung, span["attrs"]


#: Inputs for the threshold parity: few labels make palindromic pairs and
#: edge counts near σ common, which is where a threshold can be off by one.
THRESHOLD_INPUTS = [
    erdos_renyi_graph(vertices, degree, labels, seed=seed)
    for seed, (vertices, degree, labels) in enumerate(
        [(8, 1.5, 1), (10, 2.0, 2), (12, 2.5, 2), (14, 1.8, 3), (20, 3.0, 3)] * 3
    )
] + [
    random_transaction_database(graphs, vertices, degree, labels, seed=seed)
    for seed, (graphs, vertices, degree, labels) in enumerate(
        [(2, 6, 1.5, 1), (3, 8, 2.0, 2), (4, 10, 2.5, 3)] * 3
    )
]


class TestEdgeCountThreshold:
    """The rung's one edge count per kind of pair equals the per-pair bound."""

    @pytest.mark.parametrize("index", range(len(THRESHOLD_INPUTS)))
    def test_matches_the_per_pair_bound(self, index):
        graphs = THRESHOLD_INPUTS[index]
        for measure in SupportMeasure:
            for mode in Stage1Mode:
                for sigma in (1, 2, 3, 4):
                    rung, attrs = _rung_and_span(DiamMine, graphs, sigma, measure, mode)
                    expected = _rung_and_span(
                        _PerPairBoundDiamMine, graphs, sigma, measure, mode
                    )
                    assert (rung, attrs) == expected, (measure, mode, sigma)

    def test_palindromic_pairs_pass_through_the_doubled_bound(self):
        # Two a-a edges and two a-b edges at σ=3 under MNI: the a-a pair's
        # bound is 2 * 2 = 4 (both readings of an edge are images), so it
        # is counted and kept with support 4; the a-b pair's bound is 2.
        graph = graph_from_paths([["a", "a"], ["a", "a"], ["a", "b"], ["a", "b"]])
        for miner_class in (DiamMine, _PerPairBoundDiamMine):
            rung, attrs = _rung_and_span(
                miner_class, graph, 3, SupportMeasure.MNI, Stage1Mode.PRUNED
            )
            assert [labels for labels, _ in rung] == [("a", "a")]
            assert attrs["label_pairs"] == 2
            assert attrs["label_pairs_counted"] == 1
        [path] = DiamMine(MiningContext(graph, 3, SupportMeasure.MNI)).mine(1)
        assert (path.labels, path.support) == (("a", "a"), 4)


class TestPowersOfTwo:
    def test_length_two_paths(self):
        graph = graph_from_paths([["a", "b", "c"], ["a", "b", "c"]])
        context = MiningContext(graph, 2)
        paths = DiamMine(context).mine(2)
        assert len(paths) == 1
        assert paths[0].labels == ("a", "b", "c")
        assert paths[0].support == 2

    def test_length_four_paths(self):
        graph = graph_from_paths([list("abcde"), list("abcde"), list("vwxyz")])
        context = MiningContext(graph, 2)
        paths = DiamMine(context).mine(4)
        assert [p.labels for p in paths] == [("a", "b", "c", "d", "e")]

    def test_embeddings_are_simple_paths(self):
        graph = erdos_renyi_graph(50, 2.5, 3, seed=11)
        context = MiningContext(graph, 2)
        for path in DiamMine(context).mine(4):
            for graph_index, vertices in path.embeddings:
                assert graph_index == 0
                assert is_simple_path(graph, list(vertices))
                labels = tuple(str(graph.label_of(v)) for v in vertices)
                assert labels == path.labels


class TestMerging:
    def test_length_three_by_merging(self):
        graph = graph_from_paths([list("abcd"), list("abcd")])
        context = MiningContext(graph, 2)
        paths = DiamMine(context).mine(3)
        assert [p.labels for p in paths] == [("a", "b", "c", "d")]

    def test_odd_lengths_match_bruteforce(self):
        graph = erdos_renyi_graph(35, 2.2, 3, seed=3)
        context = MiningContext(graph, 2)
        for length in (3, 5, 6, 7):
            mined = DiamMine(context).mine(length)
            brute = brute_force_frequent_paths(context, length)
            assert sorted(p.labels for p in mined) == sorted(p.labels for p in brute)
            mined_support = {p.labels: p.support for p in mined}
            brute_support = {p.labels: p.support for p in brute}
            assert mined_support == brute_support


class TestCanonicalisation:
    def test_labels_are_canonical_orientation(self):
        graph = graph_from_paths([["c", "b", "a"], ["c", "b", "a"]])
        context = MiningContext(graph, 2)
        paths = DiamMine(context).mine(2)
        assert paths[0].labels == ("a", "b", "c")
        for _, vertices in paths[0].embeddings:
            labels = tuple(str(graph.label_of(v)) for v in vertices)
            assert labels == ("a", "b", "c")

    def test_palindromic_path_counted_once(self):
        graph = graph_from_paths([["a", "b", "a"], ["a", "b", "a"]])
        context = MiningContext(graph, 2)
        paths = DiamMine(context).mine(2)
        assert len(paths) == 1
        assert paths[0].support == 2

    def test_path_pattern_to_graph(self):
        graph = graph_from_paths([list("abc"), list("abc")])
        context = MiningContext(graph, 2)
        path = DiamMine(context).mine(2)[0]
        materialised = path.to_graph()
        assert materialised.num_vertices() == 3
        assert materialised.num_edges() == 2
        assert [materialised.label_of(v) for v in (0, 1, 2)] == ["a", "b", "c"]

    def test_path_pattern_embedding_objects(self):
        graph = graph_from_paths([list("abc"), list("abc")])
        context = MiningContext(graph, 2)
        path = DiamMine(context).mine(2)[0]
        embeddings = path.to_embedding_objects()
        assert len(embeddings) == 2
        for embedding in embeddings:
            assert set(embedding.as_dict().keys()) == {0, 1, 2}


class TestTransactionSetting:
    def test_transaction_support(self):
        database = [
            graph_from_paths([list("abc")]),
            graph_from_paths([list("abc"), list("abc")]),
            graph_from_paths([list("xyz")]),
        ]
        context = MiningContext(database, 2)
        paths = DiamMine(context).mine(2)
        assert len(paths) == 1
        # Transaction support counts graphs, not embeddings.
        assert paths[0].support == 2

    def test_injected_paths_found_across_transactions(self):
        database = random_transaction_database(4, 40, 1.5, 6, seed=1)
        planted = random_labeled_path(5, 6, seed=9)
        for index, graph in enumerate(database):
            inject_pattern(graph, planted, copies=1, seed=100 + index)
        context = MiningContext(database, 4)
        paths = DiamMine(context).mine(5)
        planted_labels = canonical_label_orientation(
            tuple(str(planted.label_of(v)) for v in sorted(planted.vertices()))
        )
        assert planted_labels in {p.labels for p in paths}


class TestConvenienceAPIs:
    def test_one_miner_serves_several_lengths(self):
        # The doubling ladder is cached across calls: mining lengths out of
        # order on one miner gives what a fresh miner gives per length.
        graph = erdos_renyi_graph(40, 2, 3, seed=7)
        context = MiningContext(graph, 2)
        miner = DiamMine(context)
        by_length = {length: miner.mine(length) for length in (2, 4, 3)}
        for length, mined in by_length.items():
            assert mined == DiamMine(context).mine(length)

    def test_lengths_beyond_the_data_are_empty(self):
        graph = graph_from_paths([list("abc"), list("abc")])
        miner = DiamMine(MiningContext(graph, 2))
        assert [len(miner.mine(length)) for length in (1, 2, 3)] == [2, 1, 0]

    def test_max_paths_per_length_caps_output(self):
        graph = erdos_renyi_graph(60, 3, 2, seed=13)
        context = MiningContext(graph, 2)
        capped = DiamMine(context, max_paths_per_length=3).mine(2)
        uncapped = DiamMine(context).mine(2)
        assert len(capped) <= len(uncapped)
        assert len(capped) <= 4  # cap counts undirected sequences


class TestAgainstBruteForce:
    @given(
        st.integers(min_value=20, max_value=45),
        st.floats(min_value=1.0, max_value=2.5),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_bruteforce_on_random_graphs(
        self, vertices, degree, labels, seed, length
    ):
        graph = erdos_renyi_graph(vertices, degree, labels, seed=seed)
        for measure in (SupportMeasure.EMBEDDINGS, SupportMeasure.MNI):
            context = MiningContext(graph, 2, measure)
            mined = DiamMine(context).mine(length)
            brute = brute_force_frequent_paths(context, length)
            assert {p.labels: p.support for p in mined} == {
                p.labels: p.support for p in brute
            }

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_transaction_setting_matches_bruteforce(self, seed):
        database = random_transaction_database(3, 25, 2.0, 3, seed=seed)
        context = MiningContext(database, 2)
        mined = DiamMine(context).mine(3)
        brute = brute_force_frequent_paths(context, 3)
        assert {p.labels: p.support for p in mined} == {p.labels: p.support for p in brute}


class TestAgainstReferenceRung:
    """Count-then-build against the per-edge loop: same rung, same output.

    Few labels make palindromic pairs common, which is where the reported
    reading of an embedding follows set insertion order.
    """

    @given(
        st.integers(min_value=2, max_value=30),
        st.floats(min_value=1.0, max_value=3.5),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_single_graph(self, vertices, degree, labels, seed):
        assert_matches_reference(erdos_renyi_graph(vertices, degree, labels, seed=seed))

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=3, max_value=12),
        st.floats(min_value=1.0, max_value=3.0),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_transaction_database(self, graphs, vertices, degree, labels, seed):
        assert_matches_reference(
            random_transaction_database(graphs, vertices, degree, labels, seed=seed)
        )
