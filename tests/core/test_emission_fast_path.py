"""Emission-fast-path parity and regression pins (ISSUE 5).

The Stage-2 fast path — incremental AHU keys carried on growth states,
memoised Loop-Invariant descriptors, the pendant incremental verification,
and batched viability probes — must be *observably invisible*: every scenario
must mine the same pattern set, supports and embeddings as the reference
semantics (batch canonical keys, per-emission descriptor recomputation, solo
probe walks).  This file pins that contract:

* a scenario matrix (single graphs and transaction databases across lengths,
  deltas, thresholds and support measures) mined twice — fast path on vs
  monkeypatched off — and compared by full raw serialisation;
* the PR-4 soundness/completeness pins re-asserted *through the memoised
  engine*: the seed-85 transaction 4-cycle must still be found and the
  seed-80 twig-twig canonical-diameter violation must still be rejected —
  memoisation must never revive a closed gap;
* cross-request behaviour of the shared descriptor cache (hits accumulate,
  per-request counters reset).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import levelgrow as levelgrow_module
from repro.core import patterns as patterns_module
from repro.core.database import SupportMeasure
from repro.core.levelgrow import DiameterDescriptorCache, diameter_descriptor
from repro.core.reference import enumerate_and_check_spm
from repro.core.skinnymine import SkinnyMine
from repro.graph.canonical import canonical_key
from repro.graph.generators import (
    erdos_renyi_graph,
    inject_pattern,
    random_skinny_pattern,
    random_transaction_database,
)
from repro.graph.labeled_graph import LabeledGraph


def serialised(patterns):
    """Order-independent full serialisation (graphs, supports, embeddings)."""
    return sorted(
        json.dumps(
            {
                "labels": sorted(
                    (v, str(p.graph.label_of(v))) for v in p.graph.vertices()
                ),
                "edges": sorted(
                    (*e.endpoints(), str(e.label)) for e in p.graph.edges()
                ),
                "diameter": list(p.diameter),
                "support": p.support,
                "embeddings": sorted(
                    (e.graph_index, e.mapping) for e in p.embeddings
                ),
            },
            sort_keys=True,
            default=list,
        )
        for p in patterns
    )


def disable_fast_path(monkeypatch):
    """Monkeypatch the growth engine back to its reference semantics."""
    # No carried encodings: every registry key is batch-recomputed.
    monkeypatch.setattr(patterns_module.TreeEncodings, "from_tree", lambda graph: None)

    # No descriptor memoisation, no pendant incremental verification: every
    # emission recomputes the exact descriptor from scratch, unseeded.
    def reference_invariant(self, state, key=None, parent_state=None, extension=None):
        return diameter_descriptor(state.pattern) == (
            state.diameter_len,
            state.diameter_label_sequence(),
        )

    monkeypatch.setattr(
        levelgrow_module.LevelGrower, "_holds_loop_invariant", reference_invariant
    )

    # No shared probe frontiers: every probe walks its own BFS.
    monkeypatch.setattr(
        levelgrow_module.LevelGrower,
        "_batch_pendant_probes",
        lambda self, state, extensions, level, max_level, deficient=None: None,
    )


SCENARIOS = [
    # (kind, seed, graph params, length, delta, sigma, measure)
    ("single", 7, (24, 1.6, 3), 2, 1, 2, SupportMeasure.EMBEDDINGS),
    ("single", 23, (24, 1.6, 3), 2, 2, 2, SupportMeasure.EMBEDDINGS),
    ("single", 80, (12, 1.5, 3), 2, 1, 2, SupportMeasure.EMBEDDINGS),
    ("single", 85, (12, 1.5, 3), 2, 1, 2, SupportMeasure.MNI),
    ("single", 3, (30, 1.8, 4), 3, 1, 2, SupportMeasure.EMBEDDINGS),
    ("single", 11, (30, 1.8, 4), 3, 2, 2, SupportMeasure.MNI),
    ("single", 5, (40, 1.7, 5), 4, 1, 3, SupportMeasure.EMBEDDINGS),
    ("planted", 1, (60, 1.5, 6), 4, 1, 3, SupportMeasure.EMBEDDINGS),
    ("planted", 2, (60, 1.5, 6), 5, 1, 2, SupportMeasure.MNI),
    ("transactions", 85, (3, 12, 1.4, 4), 2, 1, 2, SupportMeasure.TRANSACTIONS),
    ("transactions", 42, (3, 12, 1.4, 4), 2, 2, 2, SupportMeasure.TRANSACTIONS),
    ("transactions", 199, (4, 14, 1.5, 4), 3, 1, 2, SupportMeasure.MNI),
    # ISSUE-9: edge labels flow through the interned-row join and the
    # canonical keys (tree / unicyclic / bicyclic all encode edge labels).
    ("transactions-elabel", 57, (3, 12, 1.4, 3), 2, 1, 2, SupportMeasure.TRANSACTIONS),
]


def _with_edge_labels(database, seed):
    """Clone a transaction DB, stamping a deterministic label on every edge."""
    rng = random.Random(seed)
    labelled = []
    for graph in database:
        clone = LabeledGraph(name=graph.name)
        for vertex in graph.vertices():
            clone.add_vertex(vertex, graph.label_of(vertex))
        for edge in graph.edges():
            u, v = edge.endpoints()
            clone.add_edge(u, v, rng.choice("xy"))
        labelled.append(clone)
    return labelled


def build_scenario(kind, seed, params):
    if kind == "single":
        return erdos_renyi_graph(*params, seed=seed)
    if kind == "planted":
        graph = erdos_renyi_graph(*params, seed=seed)
        planted = random_skinny_pattern(5, 1, 8, params[2], seed=seed + 1)
        inject_pattern(graph, planted, copies=3, seed=seed + 2)
        return graph
    if kind == "transactions":
        return random_transaction_database(*params, seed=seed)
    if kind == "transactions-elabel":
        return _with_edge_labels(
            random_transaction_database(*params, seed=seed), seed + 1
        )
    raise AssertionError(kind)


class TestFastPathParity:
    @pytest.mark.parametrize(
        "kind, seed, params, length, delta, sigma, measure", SCENARIOS
    )
    def test_output_identical_with_fast_path_disabled(
        self, monkeypatch, kind, seed, params, length, delta, sigma, measure
    ):
        graphs = build_scenario(kind, seed, params)
        fast = SkinnyMine(graphs, min_support=sigma, support_measure=measure).mine(
            length, delta
        )
        with monkeypatch.context() as context:
            disable_fast_path(context)
            reference = SkinnyMine(
                graphs, min_support=sigma, support_measure=measure
            ).mine(length, delta)
        assert serialised(fast) == serialised(reference)


class TestRowStorageParity:
    """Interned (arena) rows must be observably identical to tuple rows.

    Every scenario is mined on the default arena storage and again with
    every root table moved onto tuple rows (the ``tuple_storage`` helper),
    and compared by full raw serialisation — the flat-arena join, subset
    slicing and merge-scan support counting must never change a pattern,
    support value or embedding.
    """

    @pytest.mark.parametrize(
        "kind, seed, params, length, delta, sigma, measure", SCENARIOS
    )
    def test_array_and_tuple_storage_mine_identically(
        self, monkeypatch, tuple_storage, kind, seed, params, length, delta, sigma, measure
    ):
        graphs = build_scenario(kind, seed, params)
        interned = SkinnyMine(
            graphs, min_support=sigma, support_measure=measure
        ).mine(length, delta)
        with monkeypatch.context() as context:
            converted = tuple_storage.mining(context)
            tupled = SkinnyMine(
                graphs, min_support=sigma, support_measure=measure
            ).mine(length, delta)
        assert converted or not interned
        assert serialised(interned) == serialised(tupled)


class TestMemoisationSoundness:
    """Memoised verdicts must not revive the PR-4 soundness/completeness gaps."""

    def test_seed_85_transaction_four_cycle_still_found(self):
        # ROADMAP's historical completeness gap: a frequent 4-cycle reachable
        # only through constraint-pending intermediates.  The memoised
        # invariant path must keep emitting it.
        database = random_transaction_database(3, 12, 1.4, 4, seed=85)
        miner = SkinnyMine(
            database, min_support=2, support_measure=SupportMeasure.TRANSACTIONS
        )
        mined = miner.mine(2, 1, validate=True)
        oracle = enumerate_and_check_spm(
            database, 2, 1, 2, max_edges=6,
            support_measure=SupportMeasure.TRANSACTIONS,
        )
        mined_keys = {canonical_key(p.graph.compact()[0]) for p in mined}
        oracle_keys = {canonical_key(p.graph.compact()[0]) for p in oracle}
        assert oracle_keys <= mined_keys
        assert any(
            p.graph.num_edges() == 4 and p.graph.num_vertices() == 4 for p in mined
        ), "the pending-repair 4-cycle disappeared"

    def test_seed_80_twig_twig_soundness_hole_stays_closed(self):
        # PR 4's second gap: a twig-to-twig diameter path with a smaller
        # label sequence, invisible to the per-edge Constraint III.  Every
        # emission must still verify the exact invariant (validate=True
        # re-checks the l-long δ-skinny predicate on each output).
        graph = erdos_renyi_graph(12, 1.5, 3, seed=80)
        miner = SkinnyMine(graph, min_support=2)
        mined = miner.mine(2, 1, validate=True)
        oracle = enumerate_and_check_spm(graph, 2, 1, 2, max_edges=6)
        mined_keys = {canonical_key(p.graph.compact()[0]) for p in mined}
        oracle_keys = {canonical_key(p.graph.compact()[0]) for p in oracle}
        unsound = {
            key
            for key, p in (
                (canonical_key(p.graph.compact()[0]), p) for p in mined
            )
            if p.num_edges <= 6
        } - oracle_keys
        assert not unsound, "memoisation revived the seed-80 soundness hole"
        assert mined_keys  # non-degenerate scenario

    def test_descriptor_cache_hits_across_requests_counters_reset(self):
        # The descriptor cache persists on the miner (verdicts are pure
        # functions of the abstract pattern); the per-request counters must
        # not.  A repeated mine() sees cache hits, reported independently.
        graph = erdos_renyi_graph(30, 1.8, 4, seed=3)
        miner = SkinnyMine(graph, min_support=2)
        miner.mine(3, 1)
        first = miner.last_report.level_statistics
        first_snapshot = dict(first.to_dict())
        miner.mine(3, 1)
        second = miner.last_report.level_statistics
        # The persistent cache answers the re-run's verifications.
        assert second.invariant_cache_hits >= second.patterns_emitted > 0
        # Counters are per-request: the second run neither merged into the
        # first report (the PR-3 SkinnyMine statistics bug class) nor
        # accumulated on top of it.
        assert second is not first
        assert first.to_dict() == first_snapshot
        assert (
            second.candidates_generated == first.candidates_generated
        ), "re-mining the same request must generate the same candidates"

    def test_descriptor_cache_is_exact_across_shapes(self):
        cache = DiameterDescriptorCache()
        from repro.graph.labeled_graph import build_graph

        path = build_graph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
        descriptor = diameter_descriptor(path)
        assert descriptor == (2, ("a", "b", "c"))
        cache.store(("t", "key"), descriptor)
        assert cache.lookup(("t", "key")) == descriptor
        assert cache.lookup(("t", "other")) is None
