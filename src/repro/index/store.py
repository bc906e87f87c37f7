"""Persistent pattern-index store: Stage-1 results keyed by dataset content.

The paper's direct-mining architecture (Figure 2) pre-computes the *minimal
constraint-satisfying patterns* offline and serves every mining request from
that index.  This module makes the index a real subsystem instead of a plain
in-memory dict:

* :class:`StoreKey` — entries are keyed by ``(dataset fingerprint,
  constraint id, canonical parameter)``.  The fingerprint hashes graph
  *content* (see :func:`repro.graph.io.dataset_fingerprint`), so an index on
  disk can never silently be served for the wrong data.
* :class:`PatternStore` — the abstract interface; :class:`MemoryPatternStore`
  and :class:`DiskPatternStore` are the two backends.  The disk backend
  writes one JSON-lines file per entry with a versioned header line and
  atomic replace-on-write, and keeps a decoded read cache.
* ``encode_parameter`` / ``decode_parameter`` — canonical, reversible text
  encoding of constraint parameters (tuples such as SkinnyMine's ``(l, δ)``
  survive the JSON round-trip).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Union
from urllib.parse import quote

from repro.index.codec import decode_record, encode_record, pattern_metadata
from repro.obs.metrics import MetricsRegistry, default_registry

FORMAT_NAME = "repro-pattern-index"
FORMAT_VERSION = 1

PathLike = Union[str, Path]


class StoreFormatError(ValueError):
    """Raised when an on-disk index file is corrupt or from an unknown version."""


# --------------------------------------------------------------------- #
# parameter encoding
# --------------------------------------------------------------------- #
def _tag_parameter(value):
    if isinstance(value, tuple):
        return {"__tuple__": [_tag_parameter(item) for item in value]}
    if isinstance(value, dict):
        if "__tuple__" in value:
            raise TypeError("parameter dicts may not use the reserved key '__tuple__'")
        if not all(isinstance(key, str) for key in value):
            raise TypeError("parameter dict keys must be strings")
        return {key: _tag_parameter(item) for key, item in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"constraint parameter {value!r} is not encodable; use scalars, tuples and dicts"
    )


def _untag_parameter(value):
    if isinstance(value, dict):
        if set(value) == {"__tuple__"}:
            return tuple(_untag_parameter(item) for item in value["__tuple__"])
        return {key: _untag_parameter(item) for key, item in value.items()}
    return value


def encode_parameter(parameter: Hashable) -> str:
    """Canonical text form of a constraint parameter (reversible)."""
    return json.dumps(_tag_parameter(parameter), sort_keys=True, separators=(",", ":"))


def decode_parameter(text: str) -> Hashable:
    """Inverse of :func:`encode_parameter`."""
    return _untag_parameter(json.loads(text))


# --------------------------------------------------------------------- #
# keys and entries
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class StoreKey:
    """Identity of one index entry: which data, which constraint, which parameter.

    The parameter is stored in its canonical text encoding so equal
    parameters always produce equal keys; for the path-indexed constraints
    it includes the Stage-1 exactness mode, so exact and pruned entries
    never alias (see ``docs/CORRECTNESS.md``).

    Examples
    --------
    >>> key = StoreKey.make("fp", "skinny", {"length": 5, "min_support": 2,
    ...                                      "support_measure": "embeddings",
    ...                                      "stage1_mode": "exact"})
    >>> key.decoded_parameter()["stage1_mode"]
    'exact'
    >>> StoreKey.make("fp", "skinny", (5, 1)).decoded_parameter()
    (5, 1)
    """

    fingerprint: str
    constraint_id: str
    parameter: str  # canonical text from encode_parameter

    @classmethod
    def make(cls, fingerprint: str, constraint_id: str, parameter: Hashable) -> "StoreKey":
        return cls(fingerprint, constraint_id, encode_parameter(parameter))

    def decoded_parameter(self) -> Hashable:
        return decode_parameter(self.parameter)


@dataclass
class IndexEntry:
    """One stored Stage-1 result: minimal patterns plus build accounting."""

    key: StoreKey
    patterns: List[object]
    build_seconds: float = 0.0
    created_at: float = field(default_factory=time.time)


# --------------------------------------------------------------------- #
# corpus queries
# --------------------------------------------------------------------- #
#: Fields corpus queries may order on (prefix with ``-`` for descending).
ORDERABLE_FIELDS = ("support", "size", "num_vertices")

#: Every keyword :meth:`PatternStore.query` understands.
QUERY_FILTERS = (
    "labels_contain",
    "min_support",
    "min_size",
    "max_size",
    "kind",
    "constraint_id",
    "fingerprint",
    "order_by",
    "limit",
)


@dataclass(frozen=True)
class PatternMatch:
    """One corpus-query hit: a stored pattern plus its indexed metadata.

    ``key``/``position`` locate the pattern inside its store entry;
    the metadata fields mirror :func:`repro.index.codec.pattern_metadata`
    exactly, whichever backend produced the match.  ``pattern`` is the
    decoded object — on the SQLite backend only *matching* rows are ever
    decoded, which is the backend's reason to exist.
    """

    key: StoreKey
    position: int
    kind: str
    support: Optional[int]
    size: int
    num_vertices: int
    labels: tuple
    diameter_len: Optional[int]
    diameter_labels: Optional[tuple]
    pattern: object

    def to_dict(self, include_pattern: bool = False) -> Dict:
        """JSON-compatible form (the ``repro index query --json`` row)."""
        payload = {
            "fingerprint": self.key.fingerprint,
            "constraint_id": self.key.constraint_id,
            "parameter": self.key.decoded_parameter(),
            "position": self.position,
            "kind": self.kind,
            "support": self.support,
            "size": self.size,
            "num_vertices": self.num_vertices,
            "labels": list(self.labels),
            "diameter_len": self.diameter_len,
            "diameter_labels": (
                list(self.diameter_labels) if self.diameter_labels is not None else None
            ),
        }
        if include_pattern:
            payload["pattern"] = encode_record(self.pattern)
        return payload


def normalise_query_filters(filters: Dict) -> Dict:
    """Validate corpus-query keywords; returns a dict with every key present.

    Raises ``TypeError`` on unknown keywords and ``ValueError`` on
    malformed values, so every backend (and the CLI) rejects a bad query
    identically instead of silently ignoring a misspelt filter.
    """
    unknown = set(filters) - set(QUERY_FILTERS)
    if unknown:
        raise TypeError(
            f"unknown corpus-query filter(s) {sorted(unknown)}; "
            f"expected a subset of {list(QUERY_FILTERS)}"
        )
    spec = {name: filters.get(name) for name in QUERY_FILTERS}
    labels = spec["labels_contain"]
    if labels is not None:
        if isinstance(labels, str):
            labels = (labels,)
        labels = tuple(str(label) for label in labels)
        spec["labels_contain"] = labels
    for name in ("min_support", "min_size", "max_size", "limit"):
        value = spec[name]
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"corpus-query filter {name} must be an integer")
            if name == "limit" and value < 0:
                raise ValueError("corpus-query limit must be >= 0")
    order_by = spec["order_by"]
    if order_by is not None:
        field = order_by[1:] if order_by.startswith("-") else order_by
        if field not in ORDERABLE_FIELDS:
            raise ValueError(
                f"cannot order by {order_by!r}; orderable fields are "
                f"{list(ORDERABLE_FIELDS)} (prefix with '-' for descending)"
            )
    if spec["kind"] is not None and spec["kind"] not in ("path", "skinny", "graph"):
        raise ValueError(f"unknown pattern kind {spec['kind']!r}")
    return spec


def metadata_matches(meta: Dict, spec: Dict) -> bool:
    """Does one pattern's metadata satisfy a normalised filter spec?"""
    if spec["kind"] is not None and meta["kind"] != spec["kind"]:
        return False
    if spec["min_support"] is not None:
        if meta["support"] is None or meta["support"] < spec["min_support"]:
            return False
    if spec["min_size"] is not None and meta["size"] < spec["min_size"]:
        return False
    if spec["max_size"] is not None and meta["size"] > spec["max_size"]:
        return False
    if spec["labels_contain"]:
        have = set(meta["labels"])
        if not all(label in have for label in spec["labels_contain"]):
            return False
    return True


def _key_passes(key: StoreKey, spec: Dict) -> bool:
    if spec["fingerprint"] is not None and key.fingerprint != spec["fingerprint"]:
        return False
    if spec["constraint_id"] is not None and key.constraint_id != spec["constraint_id"]:
        return False
    return True


def _entry_matches(key: StoreKey, entry: "IndexEntry", spec: Dict) -> List[PatternMatch]:
    matches: List[PatternMatch] = []
    for position, pattern in enumerate(entry.patterns):
        meta = pattern_metadata(pattern)
        if metadata_matches(meta, spec):
            matches.append(PatternMatch(key=key, position=position, pattern=pattern, **meta))
    return matches


def ordered_matches(
    matches: List[PatternMatch], order_by: Optional[str], limit: Optional[int]
) -> List[PatternMatch]:
    """Deterministic ordering shared by every backend.

    The tiebreak — ``(fingerprint, constraint_id, parameter, position)`` —
    always applies, so two backends holding the same corpus return
    byte-identical result sequences.  ``None`` metadata values (a bare
    graph's support) sort the way SQLite sorts ``NULL``: first ascending,
    last descending.
    """
    descending = bool(order_by) and order_by.startswith("-")
    field = order_by[1:] if descending else order_by

    def sort_key(match: PatternMatch):
        tie = (match.key.fingerprint, match.key.constraint_id, match.key.parameter,
               match.position)
        if field is None:
            return tie
        value = getattr(match, field)
        if descending:
            primary = (1, 0) if value is None else (0, -value)
        else:
            primary = (0, 0) if value is None else (1, value)
        return (primary,) + tie

    result = sorted(matches, key=sort_key)
    return result if limit is None else result[:limit]


def observe_query_metrics(metrics: MetricsRegistry, seconds: float) -> None:
    """Publish one corpus-query observation (shared by the disk/SQLite backends)."""
    metrics.histogram(
        "repro_store_query_seconds", "Corpus-query latency over the pattern store"
    ).observe(seconds)
    metrics.counter(
        "repro_store_queries_total", "Corpus queries answered by the pattern store"
    ).inc()


# --------------------------------------------------------------------- #
# the abstract store
# --------------------------------------------------------------------- #
class PatternStore(ABC):
    """Interface shared by the in-memory and on-disk index backends."""

    @abstractmethod
    def get(self, key: StoreKey) -> Optional[IndexEntry]:
        """Return the entry for ``key`` or ``None``."""

    @abstractmethod
    def put(self, entry: IndexEntry) -> None:
        """Insert or replace an entry."""

    @abstractmethod
    def delete(self, key: StoreKey) -> bool:
        """Remove an entry; return whether it existed."""

    @abstractmethod
    def keys(self) -> List[StoreKey]:
        """All entry keys currently stored."""

    def __contains__(self, key: StoreKey) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self.keys())

    def snapshot_view(self) -> "SnapshotStoreView":
        """A copy-on-write view of this store: reads fall through, writes stay private.

        This is the serving tier's snapshot-isolation primitive: each
        snapshot generation owns one view, incremental repair writes into
        the view's overlay, and readers of older generations (or of the
        base store itself) never observe those writes.  Views nest — taking
        a view of a view layers a fresh overlay on top.
        """
        return SnapshotStoreView(self)

    def clear(self) -> None:
        for key in self.keys():
            self.delete(key)

    def query(self, **filters) -> List[PatternMatch]:
        """Corpus query: every stored pattern matching the given filters.

        Filters (all optional, combined with AND):

        * ``labels_contain`` — label or iterable of labels the pattern's
          vertex-label set must include;
        * ``min_support`` — minimum support (patterns without a support,
          i.e. bare graphs, never match);
        * ``min_size`` / ``max_size`` — bounds on edge count;
        * ``kind`` — ``"path"`` / ``"skinny"`` / ``"graph"``;
        * ``fingerprint`` / ``constraint_id`` — restrict to entries of one
          dataset or constraint;
        * ``order_by`` — ``"support"``, ``"size"`` or ``"num_vertices"``,
          prefix ``-`` for descending; ties (and the unordered case) break
          on ``(fingerprint, constraint_id, parameter, position)``;
        * ``limit`` — keep only the first N after ordering.

        Every backend returns the identical :class:`PatternMatch` sequence
        for the same corpus; only the cost differs (the base implementation
        scans and decodes every entry, the SQLite backend answers from
        indexed columns).

        Examples
        --------
        >>> from repro.core.patterns import PathPattern
        >>> store = MemoryPatternStore()
        >>> key = StoreKey.make("fp", "path", {"length": 2})
        >>> store.put(IndexEntry(key=key, patterns=[
        ...     PathPattern(("a", "b", "c"), (), support=4),
        ...     PathPattern(("a", "a"), (), support=9),
        ... ]))
        >>> [m.support for m in store.query(order_by="-support")]
        [9, 4]
        >>> [m.position for m in store.query(labels_contain="b")]
        [0]
        >>> store.query(min_support=5, limit=1)[0].labels
        ('a',)
        """
        spec = normalise_query_filters(filters)
        matches: List[PatternMatch] = []
        for key in self.keys():
            if not _key_passes(key, spec):
                continue
            entry = self.get(key)
            if entry is None:
                continue
            matches.extend(_entry_matches(key, entry, spec))
        return ordered_matches(matches, spec["order_by"], spec["limit"])

    def info(self) -> List[Dict]:
        """Per-entry metadata (for ``repro index info`` and tests)."""
        summaries: List[Dict] = []
        for key in sorted(self.keys(), key=lambda k: (k.fingerprint, k.constraint_id, k.parameter)):
            entry = self.get(key)
            if entry is None:
                continue
            summaries.append(
                {
                    "fingerprint": key.fingerprint,
                    "constraint_id": key.constraint_id,
                    "parameter": key.decoded_parameter(),
                    "num_patterns": len(entry.patterns),
                    "build_seconds": entry.build_seconds,
                    "created_at": entry.created_at,
                }
            )
        return summaries


class MemoryPatternStore(PatternStore):
    """Process-local dict backend (the seed repo's behaviour, now pluggable).

    Examples
    --------
    >>> store = MemoryPatternStore()
    >>> key = StoreKey.make("fp", "path", {"length": 2})
    >>> store.put(IndexEntry(key=key, patterns=["p1", "p2"]))
    >>> len(store.get(key).patterns)
    2
    >>> store.delete(key), store.get(key)
    (True, None)
    """

    def __init__(self) -> None:
        self._entries: Dict[StoreKey, IndexEntry] = {}

    def get(self, key: StoreKey) -> Optional[IndexEntry]:
        return self._entries.get(key)

    def put(self, entry: IndexEntry) -> None:
        self._entries[entry.key] = entry

    def delete(self, key: StoreKey) -> bool:
        return self._entries.pop(key, None) is not None

    def keys(self) -> List[StoreKey]:
        return list(self._entries)


class SnapshotStoreView(PatternStore):
    """Copy-on-write overlay over a frozen base store.

    ``get``/``keys`` consult a private overlay first and fall through to the
    base; ``put``/``delete`` only ever touch the overlay (a ``None`` overlay
    value is a tombstone).  The base store is never mutated through a view,
    so any number of views — one per snapshot generation — can share one
    base while a writer repairs the newest view in place.

    Examples
    --------
    >>> base = MemoryPatternStore()
    >>> key = StoreKey.make("fp", "path", {"length": 2})
    >>> base.put(IndexEntry(key=key, patterns=["p1"]))
    >>> view = base.snapshot_view()
    >>> view.put(IndexEntry(key=key, patterns=["p1", "p2"]))
    >>> len(view.get(key).patterns), len(base.get(key).patterns)
    (2, 1)
    >>> view.delete(key), key in view, key in base
    (True, False, True)
    """

    def __init__(self, base: PatternStore) -> None:
        self._base = base
        self._overlay: Dict[StoreKey, Optional[IndexEntry]] = {}

    @property
    def base(self) -> PatternStore:
        return self._base

    @property
    def overlay_size(self) -> int:
        """Number of keys shadowed by this view (writes plus tombstones)."""
        return len(self._overlay)

    def get(self, key: StoreKey) -> Optional[IndexEntry]:
        if key in self._overlay:
            return self._overlay[key]
        return self._base.get(key)

    def put(self, entry: IndexEntry) -> None:
        self._overlay[entry.key] = entry

    def delete(self, key: StoreKey) -> bool:
        existed = self.get(key) is not None
        self._overlay[key] = None
        return existed

    def keys(self) -> List[StoreKey]:
        found = [key for key in self._base.keys() if key not in self._overlay]
        found.extend(key for key, entry in self._overlay.items() if entry is not None)
        return found

    def query(self, **filters) -> List[PatternMatch]:
        """Corpus query with overlay semantics.

        An untouched view delegates straight to the base store, so SQLite
        indexing keeps doing the work for read-only snapshot generations.
        Once the overlay holds writes or tombstones, the base's matches for
        shadowed keys are discarded, overlay entries are scanned in Python,
        and the combined set is re-ordered/limited — identical results to
        querying a store that had the overlay applied.
        """
        if not self._overlay:
            return self._base.query(**filters)
        spec = normalise_query_filters(filters)
        base_filters = dict(filters)
        base_filters.pop("order_by", None)
        base_filters.pop("limit", None)
        matches = [m for m in self._base.query(**base_filters) if m.key not in self._overlay]
        for key, entry in self._overlay.items():
            if entry is None or not _key_passes(key, spec):
                continue
            matches.extend(_entry_matches(key, entry, spec))
        return ordered_matches(matches, spec["order_by"], spec["limit"])


class DiskPatternStore(PatternStore):
    """JSON-lines disk backend with versioned headers and atomic writes.

    Layout: ``<root>/<fingerprint>/<constraint_id>/<param-digest>.jsonl``.
    The first line of each file is a header record carrying the format name,
    version and the full key; subsequent lines are one encoded pattern each
    (see :mod:`repro.index.codec`).  Writes land in a temporary file in the
    same directory and are published with ``os.replace``, so readers never
    observe a half-written entry.  Decoded entries are cached in memory until
    invalidated by ``put``/``delete``.

    ``metrics`` (optional) is the :class:`repro.obs.MetricsRegistry` the
    store publishes I/O latencies into — ``repro_store_read_seconds`` per
    cold entry decode and ``repro_store_write_seconds`` per ``put``;
    defaults to the process-wide registry.  Cache-served ``get`` calls are
    not observed (they cost a dict lookup).
    """

    def __init__(self, root: PathLike, metrics: Optional[MetricsRegistry] = None) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._cache: Dict[StoreKey, IndexEntry] = {}
        self._metrics = metrics if metrics is not None else default_registry()

    @property
    def root(self) -> Path:
        return self._root

    # -------------------------------------------------------------- #
    # paths
    # -------------------------------------------------------------- #
    def _path_for(self, key: StoreKey) -> Path:
        param_digest = hashlib.sha256(key.parameter.encode("utf-8")).hexdigest()[:24]
        # An empty fingerprint (StoreKey does not forbid one) or a
        # path-hostile one must still occupy exactly one directory level, or
        # keys()/info() globbing would miss the entry.
        fingerprint_dir = quote(key.fingerprint, safe="-_.") or "_no-fingerprint"
        constraint_dir = quote(key.constraint_id, safe="-_.") or "_no-constraint"
        return self._root / fingerprint_dir / constraint_dir / f"{param_digest}.jsonl"

    # -------------------------------------------------------------- #
    # PatternStore interface
    # -------------------------------------------------------------- #
    def get(self, key: StoreKey) -> Optional[IndexEntry]:
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        path = self._path_for(key)
        if not path.exists():
            return None
        started = time.perf_counter()
        entry = self._read_entry(path, expected_key=key)
        self._metrics.histogram(
            "repro_store_read_seconds", "Cold index-entry decode latency (disk store)"
        ).observe(time.perf_counter() - started)
        self._cache[key] = entry
        return entry

    def put(self, entry: IndexEntry) -> None:
        started = time.perf_counter()
        path = self._path_for(entry.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "fingerprint": entry.key.fingerprint,
            "constraint_id": entry.key.constraint_id,
            "parameter": entry.key.parameter,
            "num_patterns": len(entry.patterns),
            "build_seconds": entry.build_seconds,
            "created_at": entry.created_at,
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(
            json.dumps(encode_record(pattern), sort_keys=True) for pattern in entry.patterns
        )
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, path)
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise
        self._metrics.histogram(
            "repro_store_write_seconds", "Index-entry encode+fsync latency (disk store)"
        ).observe(time.perf_counter() - started)
        self._cache[entry.key] = entry

    def delete(self, key: StoreKey) -> bool:
        self._cache.pop(key, None)
        path = self._path_for(key)
        if not path.exists():
            return False
        path.unlink()
        return True

    def keys(self) -> List[StoreKey]:
        found: List[StoreKey] = []
        for path in sorted(self._root.glob("*/*/*.jsonl")):
            header = self._read_header(path)
            found.append(
                StoreKey(header["fingerprint"], header["constraint_id"], header["parameter"])
            )
        return found

    def query(self, **filters) -> List[PatternMatch]:
        """Full-scan corpus query (see :meth:`PatternStore.query`), timed.

        The JSONL layout has no secondary indexes, so this decodes every
        entry that survives the key-level filters; latency lands in the
        ``repro_store_query_seconds`` histogram and each call increments
        ``repro_store_queries_total`` (same names the SQLite backend
        publishes, so dashboards compare backends directly).
        """
        started = time.perf_counter()
        matches = super().query(**filters)
        observe_query_metrics(self._metrics, time.perf_counter() - started)
        return matches

    # -------------------------------------------------------------- #
    # file parsing
    # -------------------------------------------------------------- #
    def _read_header(self, path: Path) -> Dict:
        with path.open("r", encoding="utf-8") as handle:
            return self._parse_header(path, handle.readline())

    def _parse_header(self, path: Path, first: str) -> Dict:
        try:
            header = json.loads(first)
        except json.JSONDecodeError as error:
            raise StoreFormatError(f"{path}: header is not valid JSON") from error
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise StoreFormatError(f"{path}: not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise StoreFormatError(
                f"{path}: format version {header.get('version')!r} is not supported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        return header

    def _read_entry(self, path: Path, expected_key: Optional[StoreKey] = None) -> IndexEntry:
        # Header and body come from ONE open handle: ``put`` publishes via
        # os.replace, so a single open always sees one complete file
        # version, but two opens racing a writer could pair the old
        # header's num_patterns promise with the new body (or vice versa)
        # and report a phantom truncation.
        patterns: List[object] = []
        with path.open("r", encoding="utf-8") as handle:
            header = self._parse_header(path, handle.readline())
            key = StoreKey(header["fingerprint"], header["constraint_id"], header["parameter"])
            if expected_key is not None and key != expected_key:
                raise StoreFormatError(
                    f"{path}: header key {key} does not match requested {expected_key}"
                )
            for line_number, line in enumerate(handle, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    patterns.append(decode_record(json.loads(line)))
                except (json.JSONDecodeError, KeyError, ValueError) as error:
                    raise StoreFormatError(
                        f"{path}:{line_number}: corrupt pattern record ({error})"
                    ) from error
        if len(patterns) != header.get("num_patterns", len(patterns)):
            raise StoreFormatError(
                f"{path}: truncated entry — header promises {header['num_patterns']} "
                f"patterns, file holds {len(patterns)}"
            )
        return IndexEntry(
            key=key,
            patterns=patterns,
            build_seconds=header.get("build_seconds", 0.0),
            created_at=header.get("created_at", 0.0),
        )

    def info(self) -> List[Dict]:
        summaries: List[Dict] = []
        for path in sorted(self._root.glob("*/*/*.jsonl")):
            header = self._read_header(path)
            summaries.append(
                {
                    "fingerprint": header["fingerprint"],
                    "constraint_id": header["constraint_id"],
                    "parameter": decode_parameter(header["parameter"]),
                    "num_patterns": header["num_patterns"],
                    "build_seconds": header["build_seconds"],
                    "created_at": header["created_at"],
                    "size_bytes": path.stat().st_size,
                    "path": str(path),
                }
            )
        return summaries
