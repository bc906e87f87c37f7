"""SqlitePatternStore: CRUD, WAL mode, format guards, indexed queries.

The contract under test: the one persistent store is a drop-in
:class:`PatternStore` — same entries, same snapshot views, same repair
semantics as the in-memory store — whose corpus queries are answered from
indexed metadata columns *without deserialising non-matching pattern
bodies* (pinned via :func:`repro.index.codec.decode_count`), and which
refuses databases and directories it cannot serve correctly.
"""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest

from repro.core.database import MiningContext
from repro.core.diammine import DiamMine
from repro.core.patterns import PathPattern, SkinnyPattern
from repro.graph.labeled_graph import build_graph
from repro.index import (
    CodecError,
    IndexEntry,
    MemoryPatternStore,
    SqlitePatternStore,
    StoreFormatError,
    StoreKey,
    decode_count,
)
from repro.index.sqlite_store import SQLITE_SCHEMA_VERSION
from repro.index.store import FORMAT_NAME


def path_pattern(labels, support):
    return PathPattern(tuple(labels), (), support=support)


def skinny_pattern(support=5):
    graph = build_graph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
    return SkinnyPattern(graph=graph, diameter=[0, 1, 2], embeddings=[], support=support)


def mined_paths():
    """Real Stage-1 output: frequent 2-paths with their embeddings."""
    graph = build_graph(
        {0: "a", 1: "b", 2: "c", 3: "b", 4: "a"},
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    return DiamMine(MiningContext(graph, 1)).mine(2)


def write_jsonl_era_entry(root):
    """One entry file of a 2.x JSONL store: a header line, no patterns."""
    header = {
        "format": "repro-pattern-index",
        "version": 1,
        "fingerprint": "fp",
        "constraint_id": "skinny",
        "parameter": '{"length":3}',
        "num_patterns": 0,
        "build_seconds": 0.0,
        "created_at": 0.0,
    }
    path = root / "fp" / "skinny" / "abc.jsonl"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(header) + "\n", encoding="utf-8")


KEY_A = StoreKey.make("fp-one", "path", {"length": 2})
KEY_B = StoreKey.make("fp-one", "skinny", {"length": 3, "delta": 1})
KEY_C = StoreKey.make("fp-two", "path", {"length": 2})


def fill(store):
    store.put(
        IndexEntry(
            key=KEY_A,
            patterns=[path_pattern("abc", 4), path_pattern("aa", 9)],
            build_seconds=1.5,
        )
    )
    store.put(IndexEntry(key=KEY_B, patterns=[skinny_pattern(support=5)]))
    store.put(IndexEntry(key=KEY_C, patterns=[path_pattern("bcd", 2)]))


class TestCrudRoundtrip:
    def test_put_get_roundtrip_across_instances(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        fill(store)
        store.close()
        reopened = SqlitePatternStore(tmp_path)
        entry = reopened.get(KEY_A)
        assert [p.labels for p in entry.patterns] == [("a", "b", "c"), ("a", "a")]
        assert entry.build_seconds == 1.5
        assert entry.key == KEY_A
        skinny = reopened.get(KEY_B).patterns[0]
        assert skinny.support == 5 and skinny.diameter == [0, 1, 2]
        assert reopened.get(StoreKey.make("fp-one", "path", {"length": 99})) is None
        reopened.close()

    def test_mined_entry_roundtrip_keeps_embeddings(self, tmp_path):
        # Embeddings are Stage 2's input: they must come back off disk intact.
        store = SqlitePatternStore(tmp_path)
        mined = mined_paths()
        key = StoreKey.make("fp-two", "skinny", {"length": 2, "min_support": 1})
        store.put(IndexEntry(key=key, patterns=mined, build_seconds=1.25))
        store.close()
        reopened = SqlitePatternStore(tmp_path)
        entry = reopened.get(key)
        assert entry.build_seconds == 1.25
        assert [p.labels for p in entry.patterns] == [p.labels for p in mined]
        assert [p.embeddings for p in entry.patterns] == [p.embeddings for p in mined]
        assert [p.support for p in entry.patterns] == [p.support for p in mined]
        assert reopened.keys() == [key]
        reopened.close()

    def test_warm_get_is_served_from_the_entry_cache(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        fill(store)
        store.close()
        reopened = SqlitePatternStore(tmp_path)
        before = decode_count()
        cold = reopened.get(KEY_A)
        assert decode_count() - before == 2
        # The second get decodes nothing and hands back the cached entry.
        assert reopened.get(KEY_A) is cold
        assert decode_count() - before == 2
        reopened.close()

    def test_put_replaces_and_delete_removes(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        fill(store)
        store.put(IndexEntry(key=KEY_A, patterns=[path_pattern("z", 1)]))
        assert len(store.get(KEY_A).patterns) == 1
        assert set(store.keys()) == {KEY_A, KEY_B, KEY_C}
        assert store.delete(KEY_A) is True
        assert store.delete(KEY_A) is False
        assert store.get(KEY_A) is None
        assert len(store) == 2
        store.close()

    def test_delete_is_durable(self, tmp_path):
        # A delete removes the rows, not just the entry-cache slot.
        store = SqlitePatternStore(tmp_path)
        fill(store)
        assert store.delete(KEY_A)
        store.close()
        reopened = SqlitePatternStore(tmp_path)
        assert reopened.get(KEY_A) is None
        assert set(reopened.keys()) == {KEY_B, KEY_C}
        reopened.close()

    def test_failed_put_leaves_previous_entry(self, tmp_path):
        # Every body is encoded before the write transaction opens, so an
        # unencodable pattern fails the put without touching the stored entry.
        store = SqlitePatternStore(tmp_path)
        fill(store)
        with pytest.raises(CodecError):
            store.put(IndexEntry(key=KEY_A, patterns=[path_pattern("z", 1), object()]))
        assert [p.labels for p in store.get(KEY_A).patterns] == [("a", "b", "c"), ("a", "a")]
        store.close()
        reopened = SqlitePatternStore(tmp_path)
        assert [p.support for p in reopened.get(KEY_A).patterns] == [4, 9]
        reopened.close()

    def test_empty_fingerprint_entries_are_enumerable(self, tmp_path):
        # StoreKey allows fingerprint=""; such an entry must still be listed
        # by keys()/info() and served by get() after a reopen.
        store = SqlitePatternStore(tmp_path)
        key = StoreKey.make("", "generic", (5, 1))
        store.put(IndexEntry(key=key, patterns=mined_paths()))
        store.close()
        reopened = SqlitePatternStore(tmp_path)
        assert reopened.keys() == [key]
        assert reopened.get(key) is not None
        assert len(reopened.info()) == 1
        reopened.close()

    def test_replaced_entry_leaves_no_orphan_rows(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        fill(store)
        store.put(IndexEntry(key=KEY_A, patterns=[path_pattern("z", 1)]))
        store.delete(KEY_B)
        counts = store._connection().execute(
            "SELECT (SELECT count(*) FROM patterns), (SELECT count(*) FROM pattern_labels)"
        ).fetchone()
        # KEY_A now holds 1 path (1 label), KEY_C 1 path (3 labels).
        assert counts == (2, 4)
        store.close()

    def test_put_statement_count_does_not_grow_with_the_entry(self, tmp_path, monkeypatch):
        # The rows and their labels go in with one executemany each, so a
        # 400-pattern put issues as many statements as a 1-pattern one.
        store = SqlitePatternStore(tmp_path)
        connection = store._connection()
        calls = []

        class Counting:
            def execute(self, *args):
                calls.append("execute")
                return connection.execute(*args)

            def executemany(self, *args):
                calls.append("executemany")
                return connection.executemany(*args)

        monkeypatch.setattr(store, "_connection", Counting)
        counts = {}
        for size in (1, 400):
            calls.clear()
            patterns = [path_pattern(("a", f"l{index % 7}", "b"), index) for index in range(size)]
            store.put(IndexEntry(key=KEY_A, patterns=patterns))
            counts[size] = len(calls)
        assert counts[1] == counts[400]
        monkeypatch.undo()
        assert [p.support for p in store.get(KEY_A).patterns] == list(range(400))
        store.close()
        reopened = SqlitePatternStore(tmp_path)
        assert [p.support for p in reopened.get(KEY_A).patterns] == list(range(400))
        assert reopened.query(labels_contain="l3", order_by="support")[0].support == 3
        reopened.close()

    def test_info_reads_columns_only(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        fill(store)
        before = decode_count()
        rows = store.info()
        assert decode_count() == before
        assert [row["num_patterns"] for row in rows] == [2, 1, 1]
        assert rows[0]["parameter"] == {"length": 2}
        store.close()

    def test_direct_sqlite_path_root(self, tmp_path):
        store = SqlitePatternStore(tmp_path / "corpus.sqlite")
        fill(store)
        assert store.path.name == "corpus.sqlite"
        assert len(store) == 3
        store.close()


class TestWalAndFormat:
    def test_database_runs_in_wal_mode(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        mode = store._connection().execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        store.close()

    def test_meta_records_format_and_version(self, tmp_path):
        SqlitePatternStore(tmp_path).close()
        connection = sqlite3.connect(str(tmp_path / "patterns.sqlite"))
        meta = dict(connection.execute("SELECT key, value FROM meta").fetchall())
        connection.close()
        assert meta == {"format": FORMAT_NAME, "version": str(SQLITE_SCHEMA_VERSION)}

    def test_close_leaves_only_the_database_file(self, tmp_path):
        # close() must release the connections of every thread that used the
        # store; the last one to go checkpoints and removes the WAL files.
        store = SqlitePatternStore(tmp_path)
        fill(store)
        store._cache.clear()
        reader = threading.Thread(target=store.get, args=(KEY_A,))
        reader.start()
        reader.join()
        assert (tmp_path / "patterns.sqlite-wal").exists()
        store.close()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["patterns.sqlite"]
        reopened = SqlitePatternStore(tmp_path)
        assert set(reopened.keys()) == {KEY_A, KEY_B, KEY_C}
        reopened.close()

    def test_corrupt_database_file_is_rejected(self, tmp_path):
        (tmp_path / "patterns.sqlite").write_bytes(b"not a database\n" * 64)
        with pytest.raises(StoreFormatError, match="not a readable SQLite database"):
            SqlitePatternStore(tmp_path)

    def test_foreign_format_database_is_rejected(self, tmp_path):
        alien = tmp_path / "patterns.sqlite"
        connection = sqlite3.connect(str(alien))
        connection.executescript(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
            "INSERT INTO meta VALUES ('format', 'something-else'), ('version', '1');"
        )
        connection.commit()
        connection.close()
        with pytest.raises(StoreFormatError, match="not a repro-pattern-index"):
            SqlitePatternStore(tmp_path)

    def test_future_schema_version_is_rejected(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        store._connection().execute("UPDATE meta SET value = '999' WHERE key = 'version'")
        store.close()
        with pytest.raises(StoreFormatError, match="version"):
            SqlitePatternStore(tmp_path)

    def test_jsonl_era_root_is_refused(self, tmp_path):
        # A 2.x JSONL store: entry files, no database.  Opening it must not
        # create an empty database beside them (every query would go cold
        # with no explanation); it must say how to rebuild.
        write_jsonl_era_entry(tmp_path)
        with pytest.raises(StoreFormatError, match="repro index build"):
            SqlitePatternStore(tmp_path)
        assert not (tmp_path / "patterns.sqlite").exists()

    def test_existing_database_beside_jsonl_files_still_opens(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        fill(store)
        store.close()
        write_jsonl_era_entry(tmp_path)
        reopened = SqlitePatternStore(tmp_path)
        assert len(reopened) == 3
        reopened.close()

    def test_jsonl_files_off_the_entry_layout_do_not_trip_the_guard(self, tmp_path):
        # Only <fingerprint>/<constraint>/<file>.jsonl is a 2.x entry; query
        # logs or traces written elsewhere under the root are not.
        (tmp_path / "trace.jsonl").write_text("{}\n", encoding="utf-8")
        (tmp_path / "logs").mkdir()
        (tmp_path / "logs" / "queries.jsonl").write_text("{}\n", encoding="utf-8")
        store = SqlitePatternStore(tmp_path)
        assert (tmp_path / "patterns.sqlite").exists()
        assert len(store) == 0
        store.close()


class TestIndexedQueries:
    def test_matching_rows_only_are_decoded(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        fill(store)  # 4 pattern bodies total
        before = decode_count()
        matches = store.query(min_support=9)
        assert [m.support for m in matches] == [9]
        assert decode_count() - before == 1, (
            "sqlite corpus query decoded non-matching bodies"
        )
        before = decode_count()
        assert store.query(labels_contain="nowhere") == []
        assert decode_count() == before
        store.close()

    def test_filters_and_ordering(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        fill(store)
        assert [m.support for m in store.query(order_by="-support")] == [9, 5, 4, 2]
        assert [m.support for m in store.query(order_by="support", limit=2)] == [2, 4]
        assert [m.kind for m in store.query(kind="skinny")] == ["skinny"]
        assert [m.support for m in store.query(labels_contain=["b", "c"])] == [4, 5, 2]
        assert [m.support for m in store.query(fingerprint="fp-two")] == [2]
        assert [m.support for m in store.query(constraint_id="path", min_size=2)] == [4, 2]
        assert [m.support for m in store.query(max_size=1)] == [9]
        store.close()

    def test_unknown_filter_rejected_like_scan_backends(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        with pytest.raises(TypeError, match="labels_containz"):
            store.query(labels_containz="a")
        with pytest.raises(ValueError, match="order by"):
            store.query(order_by="beauty")
        with pytest.raises(ValueError, match="limit"):
            store.query(limit=-1)
        store.close()

    def test_match_metadata_agrees_with_scan_backend(self, tmp_path):
        sqlite_store = SqlitePatternStore(tmp_path / "s")
        memory_store = MemoryPatternStore()
        fill(sqlite_store)
        fill(memory_store)
        for filters in (
            {},
            {"order_by": "-support", "limit": 3},
            {"labels_contain": "b", "order_by": "size"},
            {"kind": "path", "min_support": 3},
        ):
            got = [m.to_dict(include_pattern=True) for m in sqlite_store.query(**filters)]
            want = [m.to_dict(include_pattern=True) for m in memory_store.query(**filters)]
            assert got == want, filters
        sqlite_store.close()

    def test_support_none_sorts_like_sqlite_null(self, tmp_path):
        # Bare graphs have support=None: first ascending, last descending,
        # on both the SQL path and the Python scan path.
        graph = build_graph({0: "q"}, [])
        key = StoreKey.make("fp-one", "graph", {"n": 1})
        stores = [SqlitePatternStore(tmp_path / "s"), MemoryPatternStore()]
        for store in stores:
            fill(store)
            store.put(IndexEntry(key=key, patterns=[graph]))
        expected_asc = [None, 2, 4, 5, 9]
        expected_desc = [9, 5, 4, 2, None]
        for store in stores:
            assert [m.support for m in store.query(order_by="support")] == expected_asc
            assert [m.support for m in store.query(order_by="-support")] == expected_desc
        stores[0].close()


class TestSnapshotViewOverlay:
    def test_view_query_merges_overlay_and_base(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        fill(store)
        view = store.snapshot_view()
        assert [m.support for m in view.query(order_by="support")] == [2, 4, 5, 9]
        view.delete(KEY_A)
        view.put(IndexEntry(key=KEY_C, patterns=[path_pattern("bq", 7)]))
        assert [m.support for m in view.query(order_by="support")] == [5, 7]
        # The base store is untouched.
        assert [m.support for m in store.query(order_by="support")] == [2, 4, 5, 9]
        store.close()


class TestTruncationGuard:
    def test_missing_pattern_rows_raise_store_format_error(self, tmp_path):
        store = SqlitePatternStore(tmp_path)
        fill(store)
        store._cache.clear()
        store._connection().execute(
            "DELETE FROM patterns WHERE position = 1"
        )
        with pytest.raises(StoreFormatError, match="truncated"):
            store.get(KEY_A)
        store.close()


class TestMetrics:
    def test_query_metrics_published(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        store = SqlitePatternStore(tmp_path, metrics=registry)
        fill(store)
        store.query(min_support=1)
        store.query(labels_contain="a")
        snapshot = json.dumps(registry.snapshot())
        assert "repro_store_query_seconds" in snapshot
        assert "repro_store_queries_total" in snapshot
        counter = registry.counter("repro_store_queries_total")
        assert counter.value == 2
        store.close()

    def test_cold_reads_and_writes_publish_latencies(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        store = SqlitePatternStore(tmp_path, metrics=registry)
        fill(store)
        writes = registry.histogram("repro_store_write_seconds")
        reads = registry.histogram("repro_store_read_seconds")
        assert writes.count == 3
        store._cache.clear()
        store.get(KEY_A)
        store.get(KEY_A)  # an entry-cache hit reads no database
        assert reads.count == 1
        store.close()


def test_jsonl_store_and_backend_selector_are_not_exported():
    import repro
    import repro.index
    import repro.index.store

    assert repro.SqlitePatternStore is SqlitePatternStore
    for name in (
        "DiskPatternStore",
        "open_pattern_store",
        "resolve_store_backend",
        "detect_store_backend",
        "STORE_BACKENDS",
        "BACKEND_ENV_VAR",
    ):
        assert not hasattr(repro, name)
        assert name not in repro.index.__all__
        assert not hasattr(repro.index, name)
    assert not hasattr(repro.index.store, "DiskPatternStore")
    assert not hasattr(repro.index.store, "FORMAT_VERSION")
