"""Tests for the persistent pattern-index store (memory and disk backends)."""

from __future__ import annotations

import json

import pytest

from repro.core.database import MiningContext
from repro.core.diammine import DiamMine
from repro.graph.labeled_graph import build_graph
from repro.index.codec import CodecError, decode_record, encode_record
from repro.index.store import (
    FORMAT_VERSION,
    DiskPatternStore,
    IndexEntry,
    MemoryPatternStore,
    StoreFormatError,
    StoreKey,
    decode_parameter,
    encode_parameter,
)


@pytest.fixture
def sample_paths():
    graph = build_graph(
        {0: "a", 1: "b", 2: "c", 3: "b", 4: "a"},
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    return DiamMine(MiningContext(graph, 1)).mine(2)


def make_key(parameter=None):
    return StoreKey.make("f" * 64, "skinny", parameter or {"length": 2, "min_support": 1})


class TestParameterCodec:
    @pytest.mark.parametrize(
        "parameter",
        [
            5,
            "l6",
            (5, 1),
            ("a", (1, 2), None),
            {"length": 6, "min_support": 2, "support_measure": "embeddings"},
            {"nested": (1, ("x", 2))},
        ],
    )
    def test_roundtrip(self, parameter):
        assert decode_parameter(encode_parameter(parameter)) == parameter

    def test_canonical_text_is_order_insensitive_for_dicts(self):
        a = encode_parameter({"x": 1, "y": 2})
        b = encode_parameter({"y": 2, "x": 1})
        assert a == b

    def test_reserved_key_rejected(self):
        with pytest.raises(TypeError):
            encode_parameter({"__tuple__": 1})

    def test_unencodable_parameter_rejected(self):
        with pytest.raises(TypeError):
            encode_parameter(object())


class TestMemoryStore:
    def test_put_get_delete(self, sample_paths):
        store = MemoryPatternStore()
        key = make_key()
        assert store.get(key) is None
        store.put(IndexEntry(key=key, patterns=list(sample_paths), build_seconds=0.5))
        assert key in store
        assert store.get(key).build_seconds == 0.5
        assert len(store) == 1
        assert store.delete(key)
        assert not store.delete(key)
        assert store.get(key) is None

    def test_info(self, sample_paths):
        store = MemoryPatternStore()
        store.put(IndexEntry(key=make_key(), patterns=list(sample_paths)))
        (summary,) = store.info()
        assert summary["num_patterns"] == len(sample_paths)
        assert summary["parameter"] == {"length": 2, "min_support": 1}


class TestDiskStore:
    def test_roundtrip_across_instances(self, tmp_path, sample_paths):
        store = DiskPatternStore(tmp_path / "idx")
        key = make_key()
        store.put(IndexEntry(key=key, patterns=list(sample_paths), build_seconds=1.25))

        reopened = DiskPatternStore(tmp_path / "idx")
        entry = reopened.get(key)
        assert entry is not None
        assert entry.build_seconds == 1.25
        assert [p.labels for p in entry.patterns] == [p.labels for p in sample_paths]
        assert [p.embeddings for p in entry.patterns] == [
            p.embeddings for p in sample_paths
        ]
        assert [p.support for p in entry.patterns] == [p.support for p in sample_paths]
        assert reopened.keys() == [key]

    def test_header_is_versioned(self, tmp_path, sample_paths):
        store = DiskPatternStore(tmp_path)
        store.put(IndexEntry(key=make_key(), patterns=list(sample_paths)))
        (path,) = list((tmp_path).glob("*/*/*.jsonl"))
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert header["format"] == "repro-pattern-index"
        assert header["version"] == FORMAT_VERSION
        assert header["num_patterns"] == len(sample_paths)

    def test_no_temp_files_left_behind(self, tmp_path, sample_paths):
        store = DiskPatternStore(tmp_path)
        for _ in range(3):
            store.put(IndexEntry(key=make_key(), patterns=list(sample_paths)))
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_unsupported_version_rejected(self, tmp_path, sample_paths):
        store = DiskPatternStore(tmp_path)
        key = make_key()
        store.put(IndexEntry(key=key, patterns=list(sample_paths)))
        (path,) = list(tmp_path.glob("*/*/*.jsonl"))
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["version"] = FORMAT_VERSION + 10
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n", encoding="utf-8")
        with pytest.raises(StoreFormatError):
            DiskPatternStore(tmp_path).get(key)

    def test_truncated_entry_rejected(self, tmp_path, sample_paths):
        store = DiskPatternStore(tmp_path)
        key = make_key()
        store.put(IndexEntry(key=key, patterns=list(sample_paths)))
        (path,) = list(tmp_path.glob("*/*/*.jsonl"))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(StoreFormatError):
            DiskPatternStore(tmp_path).get(key)

    def test_corrupt_header_rejected(self, tmp_path):
        store = DiskPatternStore(tmp_path)
        bad = tmp_path / ("a" * 64) / "skinny" / "deadbeef.jsonl"
        bad.parent.mkdir(parents=True)
        bad.write_text("not json\n", encoding="utf-8")
        with pytest.raises(StoreFormatError):
            store.keys()

    def test_delete_removes_file(self, tmp_path, sample_paths):
        store = DiskPatternStore(tmp_path)
        key = make_key()
        store.put(IndexEntry(key=key, patterns=list(sample_paths)))
        assert store.delete(key)
        assert list(tmp_path.glob("*/*/*.jsonl")) == []
        assert DiskPatternStore(tmp_path).get(key) is None

    def test_empty_fingerprint_entries_are_enumerable(self, tmp_path, sample_paths):
        # StoreKey allows fingerprint=""; the disk layout must still occupy
        # one directory level so keys()/info() find the entry.
        store = DiskPatternStore(tmp_path)
        key = StoreKey.make("", "generic", (5, 1))
        store.put(IndexEntry(key=key, patterns=list(sample_paths)))
        reopened = DiskPatternStore(tmp_path)
        assert reopened.keys() == [key]
        assert reopened.get(key) is not None
        assert len(reopened.info()) == 1

    def test_info_reports_sizes(self, tmp_path, sample_paths):
        store = DiskPatternStore(tmp_path)
        store.put(IndexEntry(key=make_key(), patterns=list(sample_paths)))
        (summary,) = store.info()
        assert summary["size_bytes"] > 0
        assert summary["num_patterns"] == len(sample_paths)


class TestCodec:
    def test_graph_record_roundtrip(self, figure3_graph):
        record = encode_record(figure3_graph)
        back = decode_record(record)
        assert back.vertex_labels() == figure3_graph.vertex_labels()
        assert {e.endpoints() for e in back.edges()} == {
            e.endpoints() for e in figure3_graph.edges()
        }

    def test_skinny_pattern_roundtrip(self):
        from repro.core.skinnymine import SkinnyMine
        from repro.graph.labeled_graph import build_graph

        graph = build_graph(
            {0: "a", 1: "b", 2: "c", 3: "d", 4: "x", 10: "a", 11: "b", 12: "c", 13: "d", 14: "x"},
            [(0, 1), (1, 2), (2, 3), (1, 4), (10, 11), (11, 12), (12, 13), (11, 14)],
        )
        patterns = SkinnyMine(graph, min_support=2).mine(3, 1)
        assert patterns
        for pattern in patterns:
            back = decode_record(encode_record(pattern))
            assert back.support == pattern.support
            assert back.diameter == pattern.diameter
            assert back.canonical_form() == pattern.canonical_form()
            assert sorted(e.mapping for e in back.embeddings) == sorted(
                e.mapping for e in pattern.embeddings
            )

    def test_unknown_record_type_rejected(self):
        with pytest.raises(CodecError):
            decode_record({"type": "mystery"})

    def test_unencodable_object_rejected(self):
        with pytest.raises(CodecError):
            encode_record(42)
