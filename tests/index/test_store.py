"""Tests for the pattern-index store: parameter codec, memory store, record codec.

The persistent SQLite store has its own suite, ``test_sqlite_store.py``.
"""

from __future__ import annotations

import pytest

from repro.core.database import MiningContext
from repro.core.diammine import DiamMine
from repro.graph.labeled_graph import build_graph
from repro.index.codec import CodecError, decode_record, encode_record
from repro.index.store import (
    IndexEntry,
    MemoryPatternStore,
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
