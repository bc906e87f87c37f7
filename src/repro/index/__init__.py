"""Persistent minimal-pattern index: stores, codec, incremental repair.

This package turns the paper's offline Stage 1 (Figure 2) into a durable
subsystem:

* :mod:`repro.index.store` — the abstract :class:`PatternStore`, keyed by
  ``(dataset fingerprint, constraint id, parameter)``, with the in-memory
  store the engine defaults to and the copy-on-write snapshot view, plus
  the corpus-query surface (:meth:`PatternStore.query`, :class:`PatternMatch`);
* :mod:`repro.index.sqlite_store` — the persistent store: one SQLite
  database per store root, pattern metadata in indexed columns (WAL mode
  for concurrent readers) so corpus queries never deserialise non-matching
  bodies;
* :mod:`repro.index.codec` — lossless record serialisation for minimal
  patterns and their embeddings, plus the shared
  :func:`pattern_metadata` extraction every store filters on;
* :mod:`repro.index.incremental` — delta-driven repair so edge edits do not
  force a full Stage-1 rebuild.
"""

from repro.index.codec import (
    CodecError,
    decode_count,
    decode_record,
    encode_record,
    pattern_metadata,
)
from repro.index.incremental import (
    SKINNY_CONSTRAINT_ID,
    IndexMaintainer,
    RepairReport,
    find_labeled_path_occurrences,
    paths_through_edge,
    repair_path_entry,
)
from repro.index.sqlite_store import SqlitePatternStore
from repro.index.store import (
    IndexEntry,
    MemoryPatternStore,
    PatternMatch,
    PatternStore,
    SnapshotStoreView,
    StoreFormatError,
    StoreKey,
    decode_parameter,
    encode_parameter,
)

__all__ = [
    "CodecError",
    "IndexEntry",
    "IndexMaintainer",
    "MemoryPatternStore",
    "PatternMatch",
    "PatternStore",
    "RepairReport",
    "SKINNY_CONSTRAINT_ID",
    "SnapshotStoreView",
    "SqlitePatternStore",
    "StoreFormatError",
    "StoreKey",
    "decode_count",
    "decode_parameter",
    "decode_record",
    "encode_parameter",
    "encode_record",
    "find_labeled_path_occurrences",
    "paths_through_edge",
    "pattern_metadata",
    "repair_path_entry",
]
