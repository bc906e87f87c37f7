"""WAL publication: concurrent SQLite readers never see torn entries.

``SqlitePatternStore.put`` replaces an entry inside one immediate
transaction, and ``get`` reads the entry row and its pattern rows inside
one deferred transaction, so a reader racing a writer must observe either
the previous complete entry or the new complete one — WAL mode is what
lets the readers proceed while the writer commits.  A torn read would
surface as a ``StoreFormatError`` (the entries row's ``num_patterns``
promise) or as an entry matching neither version.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.core.database import MiningContext
from repro.core.diammine import DiamMine
from repro.graph.labeled_graph import build_graph
from repro.index.sqlite_store import SqlitePatternStore
from repro.index.store import IndexEntry, StoreFormatError, StoreKey

KEY = StoreKey.make("f" * 64, "skinny", {"length": 2, "min_support": 1})
WRITE_ROUNDS = 150


def _mined_patterns():
    graph = build_graph(
        {0: "a", 1: "b", 2: "c", 3: "b", 4: "a"},
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    return DiamMine(MiningContext(graph, 1)).mine(2)


def _entry_versions():
    patterns = _mined_patterns()
    assert len(patterns) >= 2, "fixture graph must mine at least two patterns"
    small = IndexEntry(key=KEY, patterns=patterns[:1], build_seconds=1.0)
    full = IndexEntry(key=KEY, patterns=list(patterns), build_seconds=2.0)
    return small, full


def _classify(entry, small, full):
    """Which complete version a read observed; raises on a mixed entry."""
    if entry is None:
        return "missing"
    if entry.build_seconds == small.build_seconds and len(entry.patterns) == len(
        small.patterns
    ):
        return "small"
    if entry.build_seconds == full.build_seconds and len(entry.patterns) == len(
        full.patterns
    ):
        return "full"
    raise AssertionError(
        f"mixed entry observed: build_seconds={entry.build_seconds} "
        f"num_patterns={len(entry.patterns)}"
    )


def _read_until(root, stop_event, small, full):
    """Read the key repeatedly until ``stop_event``; tally what was seen.

    A fresh ``SqlitePatternStore`` per read defeats the in-memory entry
    cache, forcing every ``get`` through a real database transaction.
    """
    counts = {"missing": 0, "small": 0, "full": 0, "torn": 0}
    while not stop_event.is_set():
        store = SqlitePatternStore(root)
        try:
            entry = store.get(KEY)
        except StoreFormatError:
            counts["torn"] += 1
            continue
        finally:
            store.close()
        counts[_classify(entry, small, full)] += 1
    return counts


def _process_reader(root, stop_event, queue):
    small, full = _entry_versions()
    queue.put(_read_until(root, stop_event, small, full))


class TestSqliteConcurrentReaders:
    def test_thread_readers_never_see_torn_entries(self, tmp_path):
        small, full = _entry_versions()
        writer_store = SqlitePatternStore(tmp_path)
        stop = threading.Event()
        results = []
        errors = []

        def reader():
            try:
                results.append(_read_until(str(tmp_path), stop, small, full))
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for round_index in range(WRITE_ROUNDS):
                writer_store.put(small if round_index % 2 else full)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        writer_store.close()
        assert not errors, errors
        assert len(results) == 4
        merged = {
            name: sum(counts[name] for counts in results)
            for name in ("missing", "small", "full", "torn")
        }
        assert merged["torn"] == 0, merged
        assert merged["small"] + merged["full"] > 0, (
            f"readers never observed a published entry: {merged}"
        )

    def test_one_shared_store_across_reader_threads(self, tmp_path):
        # Same hammer through ONE store instance: per-thread connections
        # must isolate readers from the writer without a fresh store object.
        small, full = _entry_versions()
        store = SqlitePatternStore(tmp_path)
        stop = threading.Event()
        results = []
        errors = []

        def reader():
            counts = {"missing": 0, "small": 0, "full": 0, "torn": 0}
            try:
                while not stop.is_set():
                    store._cache.clear()  # force a database read
                    try:
                        entry = store.get(KEY)
                    except StoreFormatError:
                        counts["torn"] += 1
                        continue
                    counts[_classify(entry, small, full)] += 1
                results.append(counts)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for round_index in range(WRITE_ROUNDS):
                store.put(small if round_index % 2 else full)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        store.close()
        assert not errors, errors
        merged = {
            name: sum(counts[name] for counts in results)
            for name in ("missing", "small", "full", "torn")
        }
        assert merged["torn"] == 0, merged
        assert merged["small"] + merged["full"] > 0, merged

    def test_process_readers_never_see_torn_entries(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable on this platform")
        context = multiprocessing.get_context("fork")
        small, full = _entry_versions()
        writer_store = SqlitePatternStore(tmp_path)
        writer_store.put(small)  # readers start against a published entry
        stop = context.Event()
        queue = context.Queue()
        readers = [
            context.Process(target=_process_reader, args=(str(tmp_path), stop, queue))
            for _ in range(2)
        ]
        for process in readers:
            process.start()
        try:
            for round_index in range(WRITE_ROUNDS):
                writer_store.put(small if round_index % 2 else full)
        finally:
            stop.set()
        results = [queue.get(timeout=30) for _ in readers]
        for process in readers:
            process.join(timeout=30)
            assert process.exitcode == 0
        writer_store.close()
        merged = {
            name: sum(counts[name] for counts in results)
            for name in ("missing", "small", "full", "torn")
        }
        assert merged["torn"] == 0, merged
        assert merged["small"] + merged["full"] > 0, (
            f"reader processes never observed a published entry: {merged}"
        )
