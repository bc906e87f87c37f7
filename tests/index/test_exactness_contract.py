"""The Stage-1 exactness contract: repair == rebuild, byte for byte.

Incremental repair counts occurrences exhaustively, and DiamMine's default
:class:`repro.core.diammine.Stage1Mode.EXACT` mode computes the same object —
so for exact-mode store entries a repaired entry and a freshly rebuilt one
must be identical down to the serialised record.  This was the ROADMAP's
"DiamMine pruning vs repair exactness" open item: under the old pruned
default, the repaired entry could (correctly) hold frequent paths a pruned
rebuild missed, and the scenario pinned here is the ROADMAP's own —
``erdos_renyi_graph(30, 2.0, 4, seed=2)`` at l=3 σ=2 after
``remove(1, 16)`` + ``add(27, 1)``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.database import EdgeDelta, MiningContext
from repro.core.diammine import DiamMine, Stage1Mode
from repro.graph.generators import erdos_renyi_graph
from repro.graph.io import dataset_fingerprint
from repro.index.codec import encode_record
from repro.index.incremental import IndexMaintainer
from repro.index.sqlite_store import SqlitePatternStore
from repro.index.store import IndexEntry, MemoryPatternStore, StoreKey

BACKENDS = ("memory", "sqlite")


def make_store(backend, tmp_path):
    if backend == "memory":
        return MemoryPatternStore()
    return SqlitePatternStore(tmp_path / "sqlite")

LENGTH = 3
MIN_SUPPORT = 2


def scenario_graph():
    return erdos_renyi_graph(30, 2.0, 4, seed=2)


def scenario_delta():
    return [EdgeDelta.remove_edge(1, 16), EdgeDelta.add_edge(27, 1)]


def exact_parameter(measure: str):
    return {
        "length": LENGTH,
        "min_support": MIN_SUPPORT,
        "support_measure": measure,
        "stage1_mode": Stage1Mode.EXACT.value,
    }


def serialised(patterns):
    """Canonical byte form of an entry's patterns (the stored record bodies)."""
    return [
        json.dumps(encode_record(pattern), sort_keys=True) for pattern in patterns
    ]


class TestRepairVsRebuildEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_roadmap_delta_scenario_matches_exact_rebuild(self, backend, tmp_path):
        # The repair==rebuild pin must hold on the persistent store too:
        # IndexMaintainer round-trips entries through put/get, so a store
        # that loses information would break exactness here.
        graph = scenario_graph()
        context = MiningContext(graph, MIN_SUPPORT)
        store = make_store(backend, tmp_path)
        key = StoreKey.make(
            dataset_fingerprint([graph]),
            "skinny",
            exact_parameter(context.support_measure.value),
        )
        store.put(
            IndexEntry(key=key, patterns=DiamMine(context).mine(LENGTH))
        )

        graphs = [graph]
        report = IndexMaintainer(store).apply_delta(graphs, scenario_delta())
        assert report.entries_repaired == 1

        repaired_key = StoreKey.make(
            report.new_fingerprint,
            "skinny",
            exact_parameter(context.support_measure.value),
        )
        if backend == "sqlite":
            # Read the repaired entry back from the database, not the
            # writer's entry cache.
            store.close()
            store = make_store(backend, tmp_path)
        repaired = store.get(repaired_key).patterns

        rebuilt = DiamMine(MiningContext(graphs[0], MIN_SUPPORT)).mine(LENGTH)
        assert serialised(repaired) == serialised(rebuilt)

    def test_pruned_rebuild_would_diverge(self):
        # The scenario is only a meaningful regression pin if the old pruned
        # default actually disagrees with the exhaustive result on it.
        graph = scenario_graph()
        graphs = [graph]
        for operation in scenario_delta():
            from repro.core.database import apply_edge_delta

            apply_edge_delta(graphs, operation)
        context = MiningContext(graphs[0], MIN_SUPPORT)
        exact = DiamMine(context, mode=Stage1Mode.EXACT).mine(LENGTH)
        pruned = DiamMine(context, mode=Stage1Mode.PRUNED).mine(LENGTH)
        assert {p.labels for p in pruned} < {p.labels for p in exact}

    def test_pruned_entries_are_invalidated_not_repaired(self):
        graph = scenario_graph()
        context = MiningContext(graph, MIN_SUPPORT)
        store = MemoryPatternStore()
        parameter = exact_parameter(context.support_measure.value)
        parameter["stage1_mode"] = Stage1Mode.PRUNED.value
        key = StoreKey.make(dataset_fingerprint([graph]), "skinny", parameter)
        store.put(
            IndexEntry(
                key=key,
                patterns=DiamMine(context, mode=Stage1Mode.PRUNED).mine(LENGTH),
            )
        )
        report = IndexMaintainer(store).apply_delta([graph], scenario_delta())
        assert report.entries_invalidated == 1
        assert report.entries_repaired == 0
        assert store.keys() == []

    def test_legacy_entries_without_mode_are_invalidated(self):
        # Entries that predate the exactness contract were built pruned;
        # repair must not pretend they are exhaustive.
        graph = scenario_graph()
        context = MiningContext(graph, MIN_SUPPORT)
        store = MemoryPatternStore()
        legacy = {
            "length": LENGTH,
            "min_support": MIN_SUPPORT,
            "support_measure": context.support_measure.value,
        }
        key = StoreKey.make(dataset_fingerprint([graph]), "skinny", legacy)
        store.put(IndexEntry(key=key, patterns=[]))
        report = IndexMaintainer(store).apply_delta([graph], scenario_delta())
        assert report.entries_invalidated == 1
        assert store.keys() == []
