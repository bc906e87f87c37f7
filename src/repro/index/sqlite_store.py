"""The persistent pattern-index store, on SQLite.

The base-class :meth:`repro.index.store.PatternStore.query` answers a corpus
query by decoding every entry it holds; this store persists the *metadata*
of every pattern — kind, support, size, vertex count, labels, diameter
descriptor — as indexed columns at ``put`` time, so
:meth:`SqlitePatternStore.query` filters and orders inside SQLite and only
deserialises the pattern bodies that actually match.  Bodies stay in the
codec's record form (:mod:`repro.index.codec`), stored one JSON text per
row, so a decoded entry equals the one the in-memory store holds.

Concurrency model: the database runs in WAL (write-ahead log) mode, so any
number of readers see consistent snapshots while one writer appends.  Every
``put`` replaces an entry inside one immediate transaction and every ``get``
wraps its two SELECTs (entry header, pattern bodies) in one deferred read
transaction, so neither a concurrent ``put`` nor a writer killed mid-``put``
can produce a torn entry.  Connections are per-thread; a single store
instance may be shared across threads.

Schema (see ``docs/STORE.md`` for the diagram and index rationale)::

    meta(key PRIMARY KEY, value)                 -- format name + version
    entries(entry_id, fingerprint, constraint_id, parameter,
            num_patterns, build_seconds, created_at,
            UNIQUE(fingerprint, constraint_id, parameter))
    patterns(pattern_id, entry_id -> entries, position, kind,
             support, size, num_vertices, diameter_len, diameter_labels,
             labels, body, UNIQUE(entry_id, position))
    pattern_labels(pattern_id -> patterns, label,
                   PRIMARY KEY(pattern_id, label))

Examples
--------
>>> import tempfile
>>> from repro.core.patterns import PathPattern
>>> from repro.index.store import IndexEntry, StoreKey
>>> root = tempfile.mkdtemp()
>>> store = SqlitePatternStore(root)
>>> key = StoreKey.make("fp", "path", {"length": 2})
>>> store.put(IndexEntry(key=key, patterns=[PathPattern(("a", "b"), (), support=3)]))
>>> [m.support for m in store.query(labels_contain="a")]
[3]
>>> store.get(key).key == key
True
>>> store.close()
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.index.codec import decode_record, encode_record, pattern_metadata
from repro.index.store import (
    FORMAT_NAME,
    IndexEntry,
    PathLike,
    PatternMatch,
    PatternStore,
    StoreFormatError,
    StoreKey,
    decode_parameter,
    normalise_query_filters,
    observe_query_metrics,
)
from repro.obs.metrics import MetricsRegistry, default_registry

#: Database file name inside a store root directory.
DB_FILENAME = "patterns.sqlite"

#: Schema version recorded in the ``meta`` table; bump on breaking changes.
SQLITE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    entry_id      INTEGER PRIMARY KEY,
    fingerprint   TEXT NOT NULL,
    constraint_id TEXT NOT NULL,
    parameter     TEXT NOT NULL,
    num_patterns  INTEGER NOT NULL,
    build_seconds REAL NOT NULL DEFAULT 0.0,
    created_at    REAL NOT NULL DEFAULT 0.0,
    UNIQUE (fingerprint, constraint_id, parameter)
);
CREATE TABLE IF NOT EXISTS patterns (
    pattern_id      INTEGER PRIMARY KEY,
    entry_id        INTEGER NOT NULL REFERENCES entries(entry_id) ON DELETE CASCADE,
    position        INTEGER NOT NULL,
    kind            TEXT NOT NULL,
    support         INTEGER,
    size            INTEGER NOT NULL,
    num_vertices    INTEGER NOT NULL,
    diameter_len    INTEGER,
    diameter_labels TEXT,
    labels          TEXT NOT NULL,
    body            TEXT NOT NULL,
    UNIQUE (entry_id, position)
);
CREATE TABLE IF NOT EXISTS pattern_labels (
    pattern_id INTEGER NOT NULL REFERENCES patterns(pattern_id) ON DELETE CASCADE,
    label      TEXT NOT NULL,
    PRIMARY KEY (pattern_id, label)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_patterns_support ON patterns(support);
CREATE INDEX IF NOT EXISTS idx_patterns_size ON patterns(size);
CREATE INDEX IF NOT EXISTS idx_patterns_num_vertices ON patterns(num_vertices);
CREATE INDEX IF NOT EXISTS idx_patterns_entry ON patterns(entry_id, position);
CREATE INDEX IF NOT EXISTS idx_pattern_labels_label ON pattern_labels(label, pattern_id);
"""

_MATCH_COLUMNS = (
    "e.fingerprint, e.constraint_id, e.parameter, p.position, p.kind, p.support, "
    "p.size, p.num_vertices, p.labels, p.diameter_len, p.diameter_labels, p.body"
)


def resolve_database_path(root: PathLike) -> Path:
    """Where the database lives for a given store root.

    A root ending in ``.sqlite`` is used verbatim; anything else is treated
    as a directory holding ``patterns.sqlite``, which is what ``--store DIR``
    names on the command line.

    Examples
    --------
    >>> resolve_database_path("/tmp/idx").name
    'patterns.sqlite'
    >>> str(resolve_database_path("/tmp/idx/corpus.sqlite"))
    '/tmp/idx/corpus.sqlite'
    """
    path = Path(root)
    if path.suffix == ".sqlite":
        return path
    return path / DB_FILENAME


class SqlitePatternStore(PatternStore):
    """The persistent :class:`PatternStore`, with indexed corpus queries.

    ``root`` is a directory (database at ``<root>/patterns.sqlite``) or a
    ``*.sqlite`` file path.  ``metrics`` is the registry query/read/write
    latencies are published into (defaults to the process-wide one).

    The store is safe to share across threads: each thread gets its own
    WAL-mode connection.  ``close()`` releases every connection the
    instance opened.

    Opening raises :class:`StoreFormatError` when the database file is
    damaged, foreign or from another schema version, and when it would be
    created in a directory that holds a 2.x JSONL store (``*/*/*.jsonl``
    entry files): that format is no longer read, and a database beside it
    would leave every query cold without saying why.
    """

    def __init__(self, root: PathLike, metrics: Optional[MetricsRegistry] = None) -> None:
        self._path = resolve_database_path(root)
        if not self._path.exists() and any(self.root.glob("*/*/*.jsonl")):
            raise StoreFormatError(
                f"{self.root}: holds JSONL index entries, a format removed in repro 3.0; "
                "Stage-1 entries are derived data, so rebuild the index into a fresh "
                "directory with `repro index build --store NEW_DIR ...`"
            )
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._metrics = metrics if metrics is not None else default_registry()
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self._cache: Dict[StoreKey, IndexEntry] = {}
        try:
            self._initialise()
        except sqlite3.DatabaseError as error:
            self.close()
            if isinstance(error, sqlite3.OperationalError):
                raise
            # SQLITE_NOTADB / SQLITE_CORRUPT: a damaged file is a format
            # fault like a foreign handshake, not an internal error.
            raise StoreFormatError(
                f"{self._path}: not a readable SQLite database ({error})"
            ) from error

    # -------------------------------------------------------------- #
    # connection management
    # -------------------------------------------------------------- #
    @property
    def path(self) -> Path:
        """The database file."""
        return self._path

    @property
    def root(self) -> Path:
        """The store root directory (the database file's parent)."""
        return self._path.parent

    def _connection(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            return connection
        # check_same_thread=False lets close() release connections opened
        # by other threads; each connection is still used by one thread
        # only (thread-local storage).
        connection = sqlite3.connect(
            str(self._path), timeout=10.0, isolation_level=None, check_same_thread=False
        )
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute("PRAGMA foreign_keys=ON")
        connection.execute("PRAGMA busy_timeout=10000")
        self._local.connection = connection
        with self._connections_lock:
            self._connections.append(connection)
        return connection

    def close(self) -> None:
        """Release every connection this instance opened."""
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()
        self._local = threading.local()

    def _initialise(self) -> None:
        connection = self._connection()
        # executescript() commits any open transaction first, so the schema
        # runs in its own implicit transaction (CREATE ... IF NOT EXISTS
        # makes it idempotent); the meta handshake then gets an explicit one.
        connection.executescript(_SCHEMA)
        connection.execute("BEGIN IMMEDIATE")
        try:
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'format'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('format', ?), ('version', ?)",
                    (FORMAT_NAME, str(SQLITE_SCHEMA_VERSION)),
                )
            else:
                if row[0] != FORMAT_NAME:
                    raise StoreFormatError(
                        f"{self._path}: not a {FORMAT_NAME} database (format {row[0]!r})"
                    )
                version = connection.execute(
                    "SELECT value FROM meta WHERE key = 'version'"
                ).fetchone()
                if version is None or version[0] != str(SQLITE_SCHEMA_VERSION):
                    raise StoreFormatError(
                        f"{self._path}: schema version "
                        f"{version[0] if version else None!r} is not supported "
                        f"(this build reads version {SQLITE_SCHEMA_VERSION})"
                    )
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise

    # -------------------------------------------------------------- #
    # PatternStore interface
    # -------------------------------------------------------------- #
    def get(self, key: StoreKey) -> Optional[IndexEntry]:
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        connection = self._connection()
        started = time.perf_counter()
        # One deferred transaction covers both SELECTs, so a concurrent
        # put() can never pair an old entry header with new pattern rows.
        connection.execute("BEGIN DEFERRED")
        try:
            row = connection.execute(
                "SELECT entry_id, num_patterns, build_seconds, created_at FROM entries "
                "WHERE fingerprint = ? AND constraint_id = ? AND parameter = ?",
                (key.fingerprint, key.constraint_id, key.parameter),
            ).fetchone()
            if row is None:
                return None
            entry_id, num_patterns, build_seconds, created_at = row
            bodies = connection.execute(
                "SELECT body FROM patterns WHERE entry_id = ? ORDER BY position",
                (entry_id,),
            ).fetchall()
        finally:
            connection.execute("COMMIT")
        patterns = [decode_record(json.loads(body)) for (body,) in bodies]
        if len(patterns) != num_patterns:
            raise StoreFormatError(
                f"{self._path}: truncated entry {key} — entries row promises "
                f"{num_patterns} patterns, {len(patterns)} rows found"
            )
        entry = IndexEntry(
            key=key, patterns=patterns, build_seconds=build_seconds, created_at=created_at
        )
        self._metrics.histogram(
            "repro_store_read_seconds", "Cold index-entry decode latency (pattern store)"
        ).observe(time.perf_counter() - started)
        self._cache[key] = entry
        return entry

    def put(self, entry: IndexEntry) -> None:
        key = entry.key
        rows = []
        for position, pattern in enumerate(entry.patterns):
            meta = pattern_metadata(pattern)
            rows.append((position, meta, json.dumps(encode_record(pattern), sort_keys=True)))
        connection = self._connection()
        started = time.perf_counter()
        connection.execute("BEGIN IMMEDIATE")
        try:
            connection.execute(
                "DELETE FROM entries WHERE fingerprint = ? AND constraint_id = ? "
                "AND parameter = ?",
                (key.fingerprint, key.constraint_id, key.parameter),
            )
            cursor = connection.execute(
                "INSERT INTO entries (fingerprint, constraint_id, parameter, num_patterns, "
                "build_seconds, created_at) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    key.fingerprint,
                    key.constraint_id,
                    key.parameter,
                    len(entry.patterns),
                    entry.build_seconds,
                    entry.created_at,
                ),
            )
            entry_id = cursor.lastrowid
            # Explicit pattern ids, so the rows and their labels go in with
            # one executemany each: the write lock is held, so no other
            # writer can take these ids.
            (first,) = connection.execute(
                "SELECT COALESCE(MAX(pattern_id), 0) + 1 FROM patterns"
            ).fetchone()
            connection.executemany(
                "INSERT INTO patterns (pattern_id, entry_id, position, kind, support, "
                "size, num_vertices, diameter_len, diameter_labels, labels, body) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        first + position,
                        entry_id,
                        position,
                        meta["kind"],
                        meta["support"],
                        meta["size"],
                        meta["num_vertices"],
                        meta["diameter_len"],
                        (
                            json.dumps(list(meta["diameter_labels"]))
                            if meta["diameter_labels"] is not None
                            else None
                        ),
                        json.dumps(list(meta["labels"])),
                        body,
                    )
                    for position, meta, body in rows
                ],
            )
            connection.executemany(
                "INSERT INTO pattern_labels (pattern_id, label) VALUES (?, ?)",
                [
                    (first + position, label)
                    for position, meta, _ in rows
                    for label in meta["labels"]
                ],
            )
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        self._metrics.histogram(
            "repro_store_write_seconds", "Index-entry write-transaction latency (pattern store)"
        ).observe(time.perf_counter() - started)
        self._cache[key] = entry

    def delete(self, key: StoreKey) -> bool:
        self._cache.pop(key, None)
        connection = self._connection()
        connection.execute("BEGIN IMMEDIATE")
        try:
            cursor = connection.execute(
                "DELETE FROM entries WHERE fingerprint = ? AND constraint_id = ? "
                "AND parameter = ?",
                (key.fingerprint, key.constraint_id, key.parameter),
            )
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        return cursor.rowcount > 0

    def keys(self) -> List[StoreKey]:
        rows = self._connection().execute(
            "SELECT fingerprint, constraint_id, parameter FROM entries "
            "ORDER BY fingerprint, constraint_id, parameter"
        ).fetchall()
        return [StoreKey(*row) for row in rows]

    def info(self) -> List[Dict]:
        """Per-entry metadata straight from the ``entries`` table (no decoding)."""
        summaries: List[Dict] = []
        rows = self._connection().execute(
            "SELECT fingerprint, constraint_id, parameter, num_patterns, build_seconds, "
            "created_at FROM entries ORDER BY fingerprint, constraint_id, parameter"
        ).fetchall()
        for fingerprint, constraint_id, parameter, num_patterns, build_seconds, created in rows:
            summaries.append(
                {
                    "fingerprint": fingerprint,
                    "constraint_id": constraint_id,
                    "parameter": decode_parameter(parameter),
                    "num_patterns": num_patterns,
                    "build_seconds": build_seconds,
                    "created_at": created,
                    "path": str(self._path),
                }
            )
        return summaries

    # -------------------------------------------------------------- #
    # indexed corpus queries
    # -------------------------------------------------------------- #
    def query(self, **filters) -> List[PatternMatch]:
        """Indexed corpus query (see :meth:`PatternStore.query` for filters).

        Filtering and ordering happen inside SQLite on the metadata
        columns; only the rows that survive the WHERE clause have their
        ``body`` JSON decoded.  Ordering matches the base-class scan exactly:
        SQLite's BINARY collation is code-point order (what Python ``str``
        comparison uses) and its NULL placement — first ascending, last
        descending — is replicated by
        :func:`repro.index.store.ordered_matches`.
        """
        spec = normalise_query_filters(filters)
        started = time.perf_counter()
        sql, parameters = self._build_query(spec)
        rows = self._connection().execute(sql, parameters).fetchall()
        matches = [self._row_to_match(row) for row in rows]
        observe_query_metrics(self._metrics, time.perf_counter() - started)
        return matches

    @staticmethod
    def _build_query(spec: Dict) -> "tuple":
        conditions: List[str] = []
        parameters: List[object] = []
        if spec["kind"] is not None:
            conditions.append("p.kind = ?")
            parameters.append(spec["kind"])
        if spec["min_support"] is not None:
            conditions.append("p.support IS NOT NULL AND p.support >= ?")
            parameters.append(spec["min_support"])
        if spec["min_size"] is not None:
            conditions.append("p.size >= ?")
            parameters.append(spec["min_size"])
        if spec["max_size"] is not None:
            conditions.append("p.size <= ?")
            parameters.append(spec["max_size"])
        if spec["fingerprint"] is not None:
            conditions.append("e.fingerprint = ?")
            parameters.append(spec["fingerprint"])
        if spec["constraint_id"] is not None:
            conditions.append("e.constraint_id = ?")
            parameters.append(spec["constraint_id"])
        for label in spec["labels_contain"] or ():
            conditions.append(
                "EXISTS (SELECT 1 FROM pattern_labels pl "
                "WHERE pl.pattern_id = p.pattern_id AND pl.label = ?)"
            )
            parameters.append(label)
        sql = f"SELECT {_MATCH_COLUMNS} FROM patterns p JOIN entries e ON e.entry_id = p.entry_id"
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        order = ["e.fingerprint", "e.constraint_id", "e.parameter", "p.position"]
        order_by = spec["order_by"]
        if order_by is not None:
            descending = order_by.startswith("-")
            field = order_by[1:] if descending else order_by
            # SQLite sorts NULL first ascending / last descending, which is
            # exactly what ordered_matches() does on the scan path.
            order.insert(0, f"p.{field} {'DESC' if descending else 'ASC'}")
        sql += " ORDER BY " + ", ".join(order)
        if spec["limit"] is not None:
            sql += " LIMIT ?"
            parameters.append(spec["limit"])
        return sql, parameters

    @staticmethod
    def _row_to_match(row) -> PatternMatch:
        (fingerprint, constraint_id, parameter, position, kind, support, size,
         num_vertices, labels, diameter_len, diameter_labels, body) = row
        return PatternMatch(
            key=StoreKey(fingerprint, constraint_id, parameter),
            position=position,
            kind=kind,
            support=support,
            size=size,
            num_vertices=num_vertices,
            labels=tuple(json.loads(labels)),
            diameter_len=diameter_len,
            diameter_labels=(
                tuple(json.loads(diameter_labels)) if diameter_labels is not None else None
            ),
            pattern=decode_record(json.loads(body)),
        )
