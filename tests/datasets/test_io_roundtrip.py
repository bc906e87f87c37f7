"""Round-trip coverage: every dataset generator survives LG / index-store I/O.

The persistent index is only trustworthy if serialisation is lossless, so for
each generator in :mod:`repro.datasets` we check that writing the graphs with
``write_lg`` and reloading yields (a) identical structure and labels under the
writer's deterministic renumbering, (b) identical canonical keys for the
(small) injected ground-truth patterns, and (c) identical Stage-1 supports —
the quantities mining actually consumes.
"""

from __future__ import annotations

import pytest

from repro.core.database import MiningContext
from repro.core.diammine import DiamMine
from repro.graph.canonical import canonical_key
from repro.graph.io import read_lg, write_lg
from repro.index import IndexEntry, MemoryPatternStore, SqlitePatternStore, StoreKey


def stringified(graph):
    """Vertex labels as the LG text format stores them (str)."""
    return {vertex: str(label) for vertex, label in graph.vertex_labels().items()}


def assert_lossless(graphs, tmp_path, mine_length=2, min_support=2):
    """write_lg → read_lg must preserve structure, labels and path supports."""
    target = tmp_path / "dataset.lg"
    write_lg(graphs, target)
    reloaded = read_lg(target)
    assert len(reloaded) == len(graphs)
    for original, loaded in zip(graphs, reloaded):
        compact, _ = original.compact()
        assert stringified(compact) == stringified(loaded)
        assert {e.endpoints() for e in compact.edges()} == {
            e.endpoints() for e in loaded.edges()
        }

    # Stage-1 supports computed on the reloaded data must match exactly.
    original_paths = DiamMine(MiningContext(list(graphs), min_support)).mine(mine_length)
    reloaded_paths = DiamMine(MiningContext(reloaded, min_support)).mine(mine_length)
    assert [(p.labels, p.support) for p in original_paths] == [
        (p.labels, p.support) for p in reloaded_paths
    ]
    return reloaded


class TestSyntheticGenerators:
    @pytest.mark.parametrize("gid", [1, 2, 3, 4, 5])
    def test_gid_dataset_roundtrip(self, gid, tmp_path):
        from repro.datasets.synthetic import build_gid_dataset

        dataset = build_gid_dataset(gid, seed=3, scale=0.15)
        assert_lossless([dataset.graph], tmp_path)
        # Injected ground-truth patterns are small: canonical keys must survive.
        for pattern in dataset.long_patterns + dataset.short_patterns:
            (reloaded,) = assert_roundtrip_single(pattern, tmp_path)
            assert canonical_key(reloaded) == canonical_key(stringify_labels(pattern))

    def test_skinniness_series_roundtrip(self, tmp_path):
        from repro.datasets.synthetic import build_skinniness_series

        series = build_skinniness_series(seed=3, scale=0.1)
        assert_lossless([series.graph], tmp_path)

    def test_transaction_dataset_roundtrip(self, tmp_path):
        from repro.datasets.synthetic import build_transaction_dataset

        dataset = build_transaction_dataset(seed=3, scale=0.1, num_graphs=4)
        assert_lossless(dataset.graphs, tmp_path)


class TestRealDataAnalogues:
    def test_dblp_roundtrip(self, tmp_path):
        from repro.datasets.dblp import DBLPConfig, generate_dblp_dataset

        dataset = generate_dblp_dataset(
            DBLPConfig(num_authors=12, career_length=8, authors_per_archetype=1, seed=3)
        )
        assert_lossless(dataset.graphs, tmp_path)

    def test_weibo_roundtrip(self, tmp_path):
        from repro.datasets.weibo import WeiboConfig, generate_weibo_dataset

        dataset = generate_weibo_dataset(
            WeiboConfig(num_conversations=6, planted_conversations=2, chain_length=5, seed=3)
        )
        assert_lossless(dataset.graphs, tmp_path)

    def test_trajectories_roundtrip(self, tmp_path):
        from repro.datasets.trajectories import (
            TrajectoryConfig,
            generate_trajectory_dataset,
        )

        dataset = generate_trajectory_dataset(
            TrajectoryConfig(num_users=8, route_length=4, users_per_route=3, seed=3)
        )
        assert_lossless(dataset.graphs, tmp_path)


class TestIndexStoreRoundtrip:
    """Generator → DiamMine → disk store → reload: keys and supports identical."""

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_stage_one_entries_survive_the_store(self, backend, tmp_path):
        from repro.datasets.synthetic import build_gid_dataset
        from repro.graph.io import dataset_fingerprint

        dataset = build_gid_dataset(1, seed=3, scale=0.15)
        context = MiningContext(dataset.graph, 2)
        patterns = DiamMine(context).mine(3)
        assert patterns, "expected frequent length-3 paths in GID 1"

        store = (
            MemoryPatternStore() if backend == "memory" else SqlitePatternStore(tmp_path)
        )
        key = StoreKey.make(
            dataset_fingerprint([dataset.graph]),
            "skinny",
            {"length": 3, "min_support": 2, "support_measure": "embeddings"},
        )
        store.put(IndexEntry(key=key, patterns=patterns))

        reader = store if backend == "memory" else SqlitePatternStore(tmp_path)
        reloaded = reader.get(key).patterns
        assert [(p.labels, p.support) for p in reloaded] == [
            (p.labels, p.support) for p in patterns
        ]
        assert [p.embeddings for p in reloaded] == [p.embeddings for p in patterns]


# ------------------------------------------------------------------ #
# helpers for the injected-pattern canonical-key checks
# ------------------------------------------------------------------ #
def stringify_labels(graph):
    """The LG text format stores labels as text; compare in that domain."""
    from repro.graph.labeled_graph import LabeledGraph

    out = LabeledGraph(name=graph.name)
    for vertex in graph.vertices():
        out.add_vertex(vertex, str(graph.label_of(vertex)))
    for edge in graph.edges():
        out.add_edge(edge.u, edge.v, None if edge.label is None else str(edge.label))
    return out


def assert_roundtrip_single(graph, tmp_path):
    target = tmp_path / "single.lg"
    write_lg(graph, target)
    return read_lg(target)
