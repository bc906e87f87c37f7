"""Corpus-query speedup: SQLite's indexed query vs a full scan of the same store.

The SQLite store keeps pattern metadata in indexed columns so "patterns
containing label X, support ≥ σ" never pays for the patterns it does *not*
return.  This gate builds one corpus of ``TOTAL_PATTERNS`` path patterns
(split across many store entries) in one SQLite store and times the same
selective corpus query cold, two ways:

* the base-class :meth:`PatternStore.query` — the scan the memory store
  runs — must decode **every** body to answer;
* :meth:`SqlitePatternStore.query` filters on the indexed metadata columns
  and must decode **only the matching bodies** — both counts pinned
  exactly via the codec's decode counter, not just inferred from timing;
* the indexed query must be at least ``SPEEDUP_FLOOR``× faster than the
  scan, and both must return byte-identical matches.

Runs under ``-m bench`` (CI's bench-smoke job); not part of the tier-1
suite.
"""

from __future__ import annotations

import time

from repro.core.patterns import PathPattern
from repro.index.codec import decode_count
from repro.index.sqlite_store import SqlitePatternStore
from repro.index.store import IndexEntry, PatternStore, StoreKey

#: Corpus size the ISSUE names: indexed lookup must win at this scale.
TOTAL_PATTERNS = 10_000
#: Entries the corpus is spread across (TOTAL_PATTERNS / ENTRIES each).
ENTRIES = 50
#: Patterns carrying the rare "needle" label (the query's target).
NEEDLE_EVERY = 500
#: Required cold-query advantage of the indexed backend over the scan.
SPEEDUP_FLOOR = 5.0
#: Timing repetitions; the minimum is compared (steadiest estimate).
ROUNDS = 3

QUERY = {"labels_contain": "needle", "min_support": 10, "order_by": "-support"}


def corpus_pattern(index: int) -> PathPattern:
    """Deterministic synthetic pattern #``index`` (no RNG: stable corpus)."""
    labels = (
        f"l{index % 17}",
        "needle" if index % NEEDLE_EVERY == 0 else f"l{(index * 7) % 23}",
        f"l{(index * 11) % 29}",
    )
    embeddings = ((0, (index, index + 1, index + 2)),)
    return PathPattern(labels, embeddings, support=index % 40 + 1)


def populate(store) -> None:
    per_entry = TOTAL_PATTERNS // ENTRIES
    for entry_index in range(ENTRIES):
        start = entry_index * per_entry
        key = StoreKey.make("bench-fp", "path", {"length": 2, "entry": entry_index})
        store.put(
            IndexEntry(
                key=key,
                patterns=[corpus_pattern(i) for i in range(start, start + per_entry)],
            )
        )


def timed_cold_query(root, run_query):
    """Min-of-ROUNDS cold query latency and decode count, fresh store per round.

    A fresh instance per round means no round answers from the store's
    in-process entry cache.
    """
    best, matches = None, None
    decodes_before = decode_count()
    for _ in range(ROUNDS):
        store = SqlitePatternStore(root)
        started = time.perf_counter()
        matches = run_query(store)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        store.close()
    return best, matches, decode_count() - decodes_before


def test_indexed_corpus_query_beats_full_scan(tmp_path):
    seed = SqlitePatternStore(tmp_path)
    populate(seed)
    seed.close()

    scan_seconds, scan_matches, scan_decodes = timed_cold_query(
        tmp_path, lambda store: PatternStore.query(store, **QUERY)
    )
    sqlite_seconds, sqlite_matches, sqlite_decodes = timed_cold_query(
        tmp_path, lambda store: store.query(**QUERY)
    )

    expected = len(
        [
            i
            for i in range(0, TOTAL_PATTERNS, NEEDLE_EVERY)
            if corpus_pattern(i).support >= QUERY["min_support"]
        ]
    )
    assert expected > 0
    assert len(sqlite_matches) == expected

    # Correctness first: the scan and the indexed query agree byte for byte.
    as_dicts = lambda ms: [m.to_dict(include_pattern=True) for m in ms]  # noqa: E731
    assert as_dicts(scan_matches) == as_dicts(sqlite_matches)

    # The scan decoded the whole corpus every round; the indexed path decoded
    # only what it returned: exactly the matching bodies, never the corpus.
    assert scan_decodes == ROUNDS * TOTAL_PATTERNS
    assert sqlite_decodes == ROUNDS * expected

    speedup = scan_seconds / sqlite_seconds
    print(
        f"\ncorpus query over {TOTAL_PATTERNS} patterns: "
        f"full scan {scan_seconds * 1000:.1f} ms, "
        f"sqlite indexed {sqlite_seconds * 1000:.1f} ms, "
        f"speedup {speedup:.1f}x (floor {SPEEDUP_FLOOR}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"indexed corpus query only {speedup:.1f}x faster than the full scan "
        f"(required ≥ {SPEEDUP_FLOOR}x): scan {scan_seconds:.4f}s "
        f"vs sqlite {sqlite_seconds:.4f}s"
    )
