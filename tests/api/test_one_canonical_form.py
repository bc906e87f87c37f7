"""The minimum DFS code stays off the runtime path.

``canonical_key`` answers every connected pattern of cycle rank <= 2 from the
exact cycle-rank ladder, so the built-in constraints' queries never reach the
gSpan minimum DFS code: with it patched to raise, the same queries still
answer, with the same patterns.  The DFS code is no longer part of the
``repro.graph`` package surface either.
"""

from __future__ import annotations

import pytest

import repro.graph
from repro.api import MiningEngine, Query
from repro.cli import load_dataset
from repro.graph import canonical
from repro.graph.generators import erdos_renyi_graph

DIAM_LE = Query("diam-le", {"k": 2, "max_edges": 5}, min_support=2)
SKINNY = Query("skinny", {"length": 6, "delta": 1}, min_support=2)

DATASETS = {
    "demo": lambda: load_dataset("demo"),
    # Its diam-le answer holds trees, unicyclic and bicyclic patterns, so
    # every rung of the ladder serves the engine's deduplication.
    "cyclic": lambda: erdos_renyi_graph(20, 3.0, 2, seed=1),
}


def _answer(data, query):
    result = MiningEngine(data).run(query)
    assert result.error is None
    return result.to_dict(include_patterns=True)["patterns"]


@pytest.mark.parametrize(
    "dataset, query",
    [("demo", DIAM_LE), ("demo", SKINNY), ("cyclic", DIAM_LE)],
    ids=["demo-diam-le", "demo-skinny", "cyclic-diam-le"],
)
def test_queries_answer_without_the_dfs_code(monkeypatch, dataset, query):
    data = DATASETS[dataset]()
    expected = _answer(data, query)
    assert expected

    def unreachable(graph):
        raise AssertionError("minimum_dfs_code reached on the runtime path")

    monkeypatch.setattr(canonical, "minimum_dfs_code", unreachable)
    assert _answer(data, query) == expected


def test_cyclic_dataset_reaches_every_ladder_rung():
    patterns = MiningEngine(DATASETS["cyclic"]()).run(DIAM_LE).patterns
    assert {p.num_edges - p.num_vertices + 1 for p in patterns} == {0, 1, 2}


def test_dfs_code_is_not_exported_from_repro_graph():
    for name in ("DFSCode", "CanonicalCode", "minimum_dfs_code"):
        assert name not in repro.graph.__all__
        assert not hasattr(repro.graph, name)
    assert repro.graph.canonical_key is canonical.canonical_key
