"""The minimum DFS code stays off the runtime path.

``canonical_key`` answers every pattern from its tree rung, its unicyclic
rung or the individualisation-refinement labeller, so the built-in
constraints' queries never reach the gSpan minimum DFS code, which only the
reference oracle keys by: with it patched to raise, the same queries still
answer, with the same patterns.  The DFS code is not part of the
``repro.graph`` package surface either.
"""

from __future__ import annotations

import itertools
import time

import pytest

import repro.core.reference as reference
import repro.graph
from repro.api import MiningEngine, Query
from repro.cli import load_dataset
from repro.graph import canonical
from repro.graph.generators import erdos_renyi_graph
from repro.graph.labeled_graph import build_graph

DIAM_LE = Query("diam-le", {"k": 2, "max_edges": 5}, min_support=2)
SKINNY = Query("skinny", {"length": 6, "delta": 1}, min_support=2)

DATASETS = {
    "demo": lambda: load_dataset("demo"),
    # Its diam-le answer holds trees, unicyclic and bicyclic patterns, so
    # all three cases of canonical_key serve the driver's duplicate registry.
    "cyclic": lambda: erdos_renyi_graph(20, 3.0, 2, seed=1),
}


def _answer(data, query):
    result = MiningEngine(data).run(query)
    assert result.error is None
    return result.to_dict(include_patterns=True)["patterns"]


def _forbid_the_dfs_code(monkeypatch):
    def unreachable(graph):
        raise AssertionError("minimum_dfs_code reached on the runtime path")

    monkeypatch.setattr(reference, "minimum_dfs_code", unreachable)


@pytest.mark.parametrize(
    "dataset, query",
    [("demo", DIAM_LE), ("demo", SKINNY), ("cyclic", DIAM_LE)],
    ids=["demo-diam-le", "demo-skinny", "cyclic-diam-le"],
)
def test_queries_answer_without_the_dfs_code(monkeypatch, dataset, query):
    data = DATASETS[dataset]()
    expected = _answer(data, query)
    assert expected

    _forbid_the_dfs_code(monkeypatch)
    assert _answer(data, query) == expected


def test_cyclic_dataset_reaches_every_canonical_case():
    patterns = MiningEngine(DATASETS["cyclic"]()).run(DIAM_LE).patterns
    assert {p.num_edges - p.num_vertices + 1 for p in patterns} == {0, 1, 2}


def test_two_k6_copies_answer_in_bounded_time(monkeypatch):
    """Every frequent pattern of two one-label K6 copies is a clique.

    From K4 on they have cycle rank >= 3 and a single vertex orbit: the
    inputs on which the minimum DFS code's branch and bound is exponential.
    The labeller's automorphism pruning keys them in milliseconds.
    """
    edges = [
        (u, v)
        for base in (0, 6)
        for u, v in itertools.combinations(range(base, base + 6), 2)
    ]
    data = build_graph({vertex: "a" for vertex in range(12)}, edges)
    query = Query("diam-le", {"k": 1, "max_edges": 12}, min_support=2)
    _forbid_the_dfs_code(monkeypatch)

    started = time.perf_counter()
    result = MiningEngine(data).run(query)
    elapsed = time.perf_counter() - started

    assert result.error is None
    assert sorted((p.num_vertices, p.num_edges) for p in result.patterns) == [
        (2, 1), (3, 3), (4, 6), (5, 10),
    ]
    assert elapsed < 20


def test_dfs_code_is_not_exported_from_repro_graph():
    for name in ("DFSCode", "CanonicalCode", "minimum_dfs_code"):
        assert name not in repro.graph.__all__
        assert not hasattr(repro.graph, name)
        assert not hasattr(canonical, name)
    assert repro.graph.canonical_key is canonical.canonical_key
