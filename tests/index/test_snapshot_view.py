"""SnapshotStoreView: copy-on-write isolation over a frozen base store."""

import pytest

from repro.core.database import MiningContext
from repro.core.diammine import DiamMine
from repro.graph.labeled_graph import build_graph
from repro.index.sqlite_store import SqlitePatternStore
from repro.index.store import (
    IndexEntry,
    MemoryPatternStore,
    SnapshotStoreView,
    StoreKey,
)


def entry(fingerprint="fp", constraint="path", parameter=None, patterns=("p1",)):
    key = StoreKey.make(fingerprint, constraint, parameter or {"length": 2})
    return IndexEntry(key=key, patterns=list(patterns))


def codec_safe_entry():
    """An entry whose patterns survive the store codec (real mined paths)."""
    graph = build_graph(
        {0: "a", 1: "b", 2: "c", 3: "b", 4: "a"},
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    paths = DiamMine(MiningContext(graph, 1)).mine(2)
    key = StoreKey.make("fp", "path", {"length": 2})
    return IndexEntry(key=key, patterns=list(paths))


class TestSnapshotStoreView:
    def test_reads_fall_through_to_base(self):
        base = MemoryPatternStore()
        stored = entry()
        base.put(stored)
        view = base.snapshot_view()
        assert view.get(stored.key) is stored
        assert view.keys() == [stored.key]
        assert len(view) == 1

    def test_put_shadows_without_touching_base(self):
        base = MemoryPatternStore()
        original = entry(patterns=["p1"])
        base.put(original)
        view = base.snapshot_view()
        replacement = IndexEntry(key=original.key, patterns=["p1", "p2"])
        view.put(replacement)
        assert view.get(original.key) is replacement
        assert base.get(original.key) is original
        assert view.overlay_size == 1

    def test_delete_is_a_tombstone(self):
        base = MemoryPatternStore()
        stored = entry()
        base.put(stored)
        view = base.snapshot_view()
        assert view.delete(stored.key) is True
        assert view.get(stored.key) is None
        assert stored.key not in view
        assert view.keys() == []
        # The base still serves the entry to everyone else.
        assert base.get(stored.key) is stored
        # Deleting an absent key reports absence but still tombstones it.
        missing = StoreKey.make("fp", "skinny", {"length": 9})
        assert view.delete(missing) is False

    def test_overlay_only_keys_appear(self):
        base = MemoryPatternStore()
        view = base.snapshot_view()
        fresh = entry(constraint="skinny", parameter={"length": 4})
        view.put(fresh)
        assert view.keys() == [fresh.key]
        assert base.keys() == []

    def test_views_nest(self):
        base = MemoryPatternStore()
        stored = entry()
        base.put(stored)
        first = base.snapshot_view()
        second = first.snapshot_view()
        assert second.base is first
        second.delete(stored.key)
        assert second.get(stored.key) is None
        assert first.get(stored.key) is stored
        assert base.get(stored.key) is stored

    def test_sibling_views_are_independent(self):
        base = MemoryPatternStore()
        stored = entry()
        base.put(stored)
        gen1 = base.snapshot_view()
        gen2 = base.snapshot_view()
        gen2.put(IndexEntry(key=stored.key, patterns=["p1", "p2", "p3"]))
        assert len(gen1.get(stored.key).patterns) == 1
        assert len(gen2.get(stored.key).patterns) == 3

    def test_view_over_sqlite_store(self, tmp_path):
        base = SqlitePatternStore(tmp_path / "index")
        stored = codec_safe_entry()
        base.put(stored)
        view = base.snapshot_view()
        assert isinstance(view, SnapshotStoreView)
        view.delete(stored.key)
        assert view.get(stored.key) is None
        # No database mutation happened: a fresh store over the same root
        # still reads the entry.
        reread = SqlitePatternStore(tmp_path / "index").get(stored.key)
        assert reread is not None
        assert reread.patterns == stored.patterns

    def test_view_put_over_sqlite_store_stays_off_disk(self, tmp_path):
        base = SqlitePatternStore(tmp_path / "index")
        stored = codec_safe_entry()
        view = base.snapshot_view()
        view.put(stored)
        assert view.get(stored.key) is stored
        # The overlay lives in the view only: neither the base instance nor
        # a fresh store over the same database sees the entry.
        assert base.get(stored.key) is None
        fresh = SqlitePatternStore(tmp_path / "index")
        assert fresh.keys() == []
        fresh.close()
        base.close()

    def test_info_reflects_the_view(self):
        base = MemoryPatternStore()
        stored = entry()
        base.put(stored)
        view = base.snapshot_view()
        view.delete(stored.key)
        assert view.info() == []
        assert len(base.info()) == 1


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_clear_on_view_leaves_base_intact(tmp_path, backend):
    if backend == "memory":
        base = MemoryPatternStore()
    else:
        base = SqlitePatternStore(tmp_path / "index")
    stored = entry() if backend == "memory" else codec_safe_entry()
    base.put(stored)
    view = base.snapshot_view()
    view.clear()
    assert view.keys() == []
    assert base.get(stored.key) is not None
