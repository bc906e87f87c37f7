"""Crash consistency: a writer killed mid-``put`` never leaves a torn entry.

``SqlitePatternStore.put`` replaces an entry inside one immediate
transaction (delete the old rows, insert the new ones, commit), and in WAL
mode the commit is atomic: a process killed before its commit record is in
the log leaves the previous entry in place, one killed after it leaves the
new entry.  This test forks a writer that alternates ``put``s of two
versions of one entry, SIGKILLs it after a random delay, reopens the store
and requires ``get`` to return exactly one of the two versions — never a
mix, a truncation or an exception.  A second test kills a writer that
alternates ``put`` and ``delete``: every reopen must read one whole version
or no entry.  The kills are sequential: one child at a time, each reaped
before the next is forked.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import random
import signal
import time

import pytest

from repro.core.patterns import PathPattern
from repro.index.codec import encode_record
from repro.index.sqlite_store import SqlitePatternStore
from repro.index.store import IndexEntry, StoreKey

KEY = StoreKey.make("f" * 64, "path", {"length": 2})
#: Writer processes forked and killed, one after another.
KILLS = 20
#: Patterns per entry version: enough rows that a kill often lands mid-put.
PATTERNS_PER_VERSION = 400
#: Range of the delay before each SIGKILL, in seconds.
KILL_DELAY = (0.01, 0.2)


def entry_version(tag: int) -> IndexEntry:
    """Version ``tag`` of the one entry: its labels, supports and build time differ."""
    patterns = [
        PathPattern(
            ("a", f"v{tag}", f"l{index % 13}"),
            ((0, (index, index + 1, index + 2)),),
            support=tag * 1000 + index,
        )
        for index in range(PATTERNS_PER_VERSION)
    ]
    return IndexEntry(key=KEY, patterns=patterns, build_seconds=float(tag))


def fingerprint(entry: IndexEntry):
    """Everything a reader observes of an entry, in comparable form."""
    return (
        entry.build_seconds,
        [json.dumps(encode_record(pattern), sort_keys=True) for pattern in entry.patterns],
    )


def write_forever(root: str, versions) -> None:
    store = SqlitePatternStore(root)
    for entry in itertools.cycle(versions):
        store.put(entry)


def put_and_delete_forever(root: str, entry: IndexEntry) -> None:
    store = SqlitePatternStore(root)
    while True:
        store.put(entry)
        store.delete(entry.key)


def test_killed_writer_leaves_old_or_new_entry(tmp_path):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable on this platform")
    context = multiprocessing.get_context("fork")
    old, new = entry_version(1), entry_version(2)
    expected = {"old": fingerprint(old), "new": fingerprint(new)}

    seed = SqlitePatternStore(tmp_path)
    seed.put(old)
    seed.close()

    rng = random.Random(0)
    seen = {"old": 0, "new": 0}
    for _ in range(KILLS):
        # The writer puts `new` first, then alternates.
        writer = context.Process(target=write_forever, args=(str(tmp_path), (new, old)))
        writer.start()
        time.sleep(rng.uniform(*KILL_DELAY))
        writer.kill()
        writer.join(timeout=30)
        assert writer.exitcode == -signal.SIGKILL, writer.exitcode

        reader = SqlitePatternStore(tmp_path)
        entry = reader.get(KEY)
        reader.close()
        assert entry is not None
        observed = fingerprint(entry)
        version = next((name for name, value in expected.items() if value == observed), None)
        assert version is not None, (
            f"torn entry after SIGKILL: build_seconds={entry.build_seconds}, "
            f"{len(entry.patterns)} patterns"
        )
        seen[version] += 1
    assert seen["new"] > 0, f"no writer committed a put before its kill: {seen}"


def test_killed_deleting_writer_leaves_a_whole_entry_or_none(tmp_path):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable on this platform")
    context = multiprocessing.get_context("fork")
    old, new = entry_version(1), entry_version(2)
    expected = {"old": fingerprint(old), "new": fingerprint(new)}

    seed = SqlitePatternStore(tmp_path)
    seed.put(old)
    seed.close()

    rng = random.Random(1)
    seen = {"old": 0, "new": 0, "none": 0}
    for _ in range(KILLS):
        writer = context.Process(target=put_and_delete_forever, args=(str(tmp_path), new))
        writer.start()
        time.sleep(rng.uniform(*KILL_DELAY))
        writer.kill()
        writer.join(timeout=30)
        assert writer.exitcode == -signal.SIGKILL, writer.exitcode

        reader = SqlitePatternStore(tmp_path)
        entry = reader.get(KEY)
        keys = reader.keys()
        reader.close()
        if entry is None:
            assert keys == []
            seen["none"] += 1
            continue
        assert keys == [KEY]
        observed = fingerprint(entry)
        version = next((name for name, value in expected.items() if value == observed), None)
        assert version is not None, (
            f"torn entry after SIGKILL: build_seconds={entry.build_seconds}, "
            f"{len(entry.patterns)} patterns"
        )
        seen[version] += 1
    assert seen["none"] > 0, f"no writer committed a delete before its kill: {seen}"
