"""Tests for embedding bookkeeping and support measures."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.embeddings import (
    Embedding,
    EmbeddingList,
    EmbeddingTable,
    embedding_support,
    embeddings_from_maps,
    mni_support,
    path_embedding,
    transaction_support,
)
from repro.graph.isomorphism import find_subgraph_embeddings
from repro.graph.labeled_graph import build_graph


def hashed_image_keys(table: EmbeddingTable) -> set:
    """The hashing reference for :meth:`EmbeddingTable.embedding_support`.

    Distinct occurrence keys (transaction, sorted data-vertex tuple) in a
    set: embeddings are injective, so the sorted tuple is a canonical form
    of the image.
    """
    return set(zip(table.graph_ids, table.row_keys()))


class TestEmbedding:
    def test_from_dict_roundtrip(self):
        embedding = Embedding.from_dict({0: 10, 1: 11})
        assert embedding.as_dict() == {0: 10, 1: 11}
        assert embedding.graph_index == 0

    def test_image_and_key(self):
        embedding = Embedding.from_dict({0: 10, 1: 11}, graph_index=3)
        assert embedding.image() == frozenset({10, 11})
        assert embedding.image_key() == (3, frozenset({10, 11}))

    def test_target_of(self):
        embedding = Embedding.from_dict({0: 10, 1: 11})
        assert embedding.target_of(1) == 11
        with pytest.raises(KeyError):
            embedding.target_of(9)

    def test_extended(self):
        embedding = Embedding.from_dict({0: 10})
        extended = embedding.extended(1, 20)
        assert extended.as_dict() == {0: 10, 1: 20}
        assert len(embedding) == 1  # original untouched
        with pytest.raises(KeyError):
            embedding.extended(0, 30)

    def test_embeddings_are_hashable(self):
        a = Embedding.from_dict({0: 1, 1: 2})
        b = Embedding.from_dict({1: 2, 0: 1})
        assert a == b
        assert len({a, b}) == 1


class TestEmbeddingList:
    def test_embedding_support_counts_distinct_images(self):
        collection = EmbeddingList()
        collection.add(Embedding.from_dict({0: 1, 1: 2}))
        collection.add(Embedding.from_dict({0: 2, 1: 1}))  # same image set
        collection.add(Embedding.from_dict({0: 3, 1: 4}))
        assert len(collection) == 3
        assert collection.embedding_support() == 2

    def test_transaction_support(self):
        collection = EmbeddingList()
        collection.add(Embedding.from_dict({0: 1}, graph_index=0))
        collection.add(Embedding.from_dict({0: 2}, graph_index=0))
        collection.add(Embedding.from_dict({0: 1}, graph_index=4))
        assert collection.transaction_support() == 2
        assert collection.transactions() == {0, 4}

    def test_deduplicated(self):
        collection = EmbeddingList()
        collection.add(Embedding.from_dict({0: 1, 1: 2}))
        collection.add(Embedding.from_dict({0: 2, 1: 1}))
        deduplicated = collection.deduplicated()
        assert len(deduplicated) == 1

    def test_images(self):
        collection = embeddings_from_maps([{0: 5, 1: 6}], graph_index=2)
        assert collection.images() == [frozenset({5, 6})]
        assert list(collection)[0].graph_index == 2


def _parity_pair(embeddings):
    """The same occurrences as legacy list and as a columnar table."""
    collection = EmbeddingList(list(embeddings))
    table = EmbeddingTable.from_embeddings(embeddings)
    return collection, table


class TestEmbeddingTable:
    def test_prefixes_cached_per_width(self):
        embeddings = [
            Embedding.from_dict({0: 10, 1: 11, 2: 12}, graph_index=0),
            Embedding.from_dict({0: 20, 1: 21, 2: 22}, graph_index=1),
        ]
        table = EmbeddingTable.from_embeddings(embeddings)
        prefixes = table.prefixes(2)
        assert prefixes == [(10, 11), (20, 21)]
        # Cached: the same list object answers repeat queries.
        assert table.prefixes(2) is prefixes
        assert table.prefixes(3) == [(10, 11, 12), (20, 21, 22)]

    def test_round_trip_preserves_embeddings(self):
        embeddings = [
            Embedding.from_dict({0: 10, 1: 11, 2: 12}, graph_index=0),
            Embedding.from_dict({0: 20, 1: 21, 2: 22}, graph_index=3),
        ]
        table = EmbeddingTable.from_embeddings(embeddings)
        assert len(table) == 2
        assert table.columns == (0, 1, 2)
        assert table.to_embeddings() == embeddings
        assert list(table) == embeddings

    def test_from_path_occurrences_matches_wire_format(self):
        table = EmbeddingTable.from_path_occurrences(
            [(0, (10, 11, 12)), (2, (5, 6, 7))], length=2
        )
        assert table.to_embeddings() == [
            Embedding.from_dict({0: 10, 1: 11, 2: 12}, graph_index=0),
            Embedding.from_dict({0: 5, 1: 6, 2: 7}, graph_index=2),
        ]

    def test_mixed_domains_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable.from_embeddings(
                [Embedding.from_dict({0: 1}), Embedding.from_dict({0: 1, 1: 2})]
            )
        with pytest.raises(ValueError):  # equal size, different vertex sets
            EmbeddingTable.from_embeddings(
                [Embedding.from_dict({0: 1, 1: 2}), Embedding.from_dict({0: 3, 2: 4})]
            )
        with pytest.raises(ValueError):
            EmbeddingTable((0, 1), rows=[(5,)], graph_ids=[0])
        with pytest.raises(ValueError):
            EmbeddingTable((0, 1), rows=[(5, 6)], graph_ids=[])

    def test_embedding_support_parity_with_duplicate_images(self):
        # Two embeddings over the same vertex image (a symmetric occurrence)
        # plus one distinct occurrence: |E[P]| must be 2 under both
        # representations.
        embeddings = [
            Embedding.from_dict({0: 1, 1: 2}),
            Embedding.from_dict({0: 2, 1: 1}),  # same image, flipped mapping
            Embedding.from_dict({0: 3, 1: 4}),
        ]
        collection, table = _parity_pair(embeddings)
        assert table.embedding_support() == collection.embedding_support() == 2

    def test_embedding_support_duplicate_image_across_transactions(self):
        # The same vertex image in two *different* transactions is two
        # occurrences, not one — the graph index is part of the image key.
        embeddings = [
            Embedding.from_dict({0: 1, 1: 2}, graph_index=0),
            Embedding.from_dict({0: 1, 1: 2}, graph_index=1),
            Embedding.from_dict({0: 2, 1: 1}, graph_index=1),
        ]
        collection, table = _parity_pair(embeddings)
        assert table.embedding_support() == collection.embedding_support() == 2
        assert hashed_image_keys(table) == {(0, (1, 2)), (1, (1, 2))}

    def test_transaction_support_parity(self):
        embeddings = [
            Embedding.from_dict({0: 1}, graph_index=0),
            Embedding.from_dict({0: 2}, graph_index=0),
            Embedding.from_dict({0: 1}, graph_index=4),
        ]
        collection, table = _parity_pair(embeddings)
        assert table.transaction_support() == collection.transaction_support() == 2
        assert table.transactions() == collection.transactions() == {0, 4}

    def test_mni_support_parity_single_graph(self):
        pattern = build_graph({0: "a", 1: "b"}, [(0, 1)])
        graph = build_graph(
            {0: "a", 1: "b", 2: "b", 3: "a"}, [(0, 1), (0, 2), (3, 1)]
        )
        embeddings = [
            Embedding.from_dict(mapping)
            for mapping in find_subgraph_embeddings(pattern, graph)
        ]
        table = EmbeddingTable.from_embeddings(embeddings)
        assert table.mni_support() == mni_support(pattern, embeddings) == 2

    def test_mni_support_parity_transaction_database(self):
        # Minimum-image counting treats (transaction, vertex) pairs as the
        # images; occurrences of the same data vertex in different
        # transactions must count separately under both representations.
        pattern = build_graph({0: "a", 1: "b"}, [(0, 1)])
        embeddings = [
            Embedding.from_dict({0: 1, 1: 2}, graph_index=0),
            Embedding.from_dict({0: 1, 1: 2}, graph_index=1),
            Embedding.from_dict({0: 1, 1: 3}, graph_index=1),
        ]
        table = EmbeddingTable.from_embeddings(embeddings)
        assert table.mni_support() == mni_support(pattern, embeddings) == 2

    def test_supports_cached_and_empty_table(self):
        table = EmbeddingTable((0, 1))
        assert table.embedding_support() == 0
        assert table.transaction_support() == 0
        assert table.mni_support() == 0
        filled = EmbeddingTable.from_embeddings([Embedding.from_dict({0: 1, 1: 2})])
        assert filled.embedding_support() == 1
        filled.rows.append((3, 4))  # mutation after caching is not re-counted
        filled.graph_ids.append(0)
        assert filled.embedding_support() == 1

    def test_extended_joins_rows(self):
        table = EmbeddingTable.from_embeddings(
            [
                Embedding.from_dict({0: 10, 1: 11}, graph_index=0),
                Embedding.from_dict({0: 20, 1: 21}, graph_index=1),
            ]
        )
        extended = table.extended(2, [(0, 12), (1, 22), (1, 23)])
        assert extended.columns == (0, 1, 2)
        assert extended.rows == [(10, 11, 12), (20, 21, 22), (20, 21, 23)]
        assert extended.graph_ids == [0, 1, 1]
        # The parent table is untouched.
        assert table.columns == (0, 1) and len(table) == 2

    def test_subset_shares_row_tuples(self):
        table = EmbeddingTable.from_embeddings(
            [
                Embedding.from_dict({0: 10, 1: 11}, graph_index=0),
                Embedding.from_dict({0: 20, 1: 21}, graph_index=2),
            ]
        )
        subset = table.subset([1])
        assert subset.rows[0] is table.rows[1]
        assert subset.graph_ids == [2]

    def test_column_layouts_are_interned(self):
        one = EmbeddingTable.from_embeddings([Embedding.from_dict({0: 1, 1: 2})])
        two = EmbeddingTable.from_embeddings([Embedding.from_dict({0: 7, 1: 8})])
        assert one.columns is two.columns


class TestTupleFallback:
    """Tables keep eager per-row tuples for ids an int64 arena cannot hold."""

    @pytest.mark.parametrize(
        "row, mode",
        [
            ((2**63 - 1, 0), "array"),
            ((2**63, 0), "tuple"),
            ((-(2**63), 0), "array"),
            ((-(2**63) - 1, 0), "tuple"),
            (("u", "v"), "tuple"),
            ((0.5, 1.5), "tuple"),
        ],
        ids=["int64-max", "above-int64", "int64-min", "below-int64", "str", "float"],
    )
    def test_storage_follows_the_vertex_domain(self, row, mode):
        table = EmbeddingTable((0, 1), rows=[row, row[::-1]], graph_ids=[0, 1])
        assert table.storage_mode() == mode
        assert table.rows == [row, row[::-1]]
        assert table.row_keys() == [tuple(sorted(row))] * 2
        assert table.embedding_support() == 2
        assert table.transaction_support() == 2

    def test_derived_tables_inherit_tuple_storage(self):
        # Rows 0 and 1 cover the same vertices in one transaction.
        table = EmbeddingTable(
            (0, 1), rows=[("a", "b"), ("b", "a"), ("a", "d")], graph_ids=[0, 0, 1]
        )
        child = table.extended(2, [(0, "c"), (1, "c"), (2, "b")])
        grandchild = child.subset([0, 2])
        assert table.storage_mode() == child.storage_mode() == grandchild.storage_mode() == "tuple"
        assert child.rows == [("a", "b", "c"), ("b", "a", "c"), ("a", "d", "b")]
        assert grandchild.rows == [("a", "b", "c"), ("a", "d", "b")]
        assert grandchild.graph_ids == [0, 1]
        assert table.embedding_support() == child.embedding_support() == 2
        assert grandchild.embedding_support() == grandchild.mni_support() == 2


class TestSupportMeasures:
    def test_mni_support_simple(self):
        pattern = build_graph({0: "a", 1: "b"}, [(0, 1)])
        graph = build_graph(
            {0: "a", 1: "b", 2: "b", 3: "a"}, [(0, 1), (0, 2), (3, 1)]
        )
        maps = find_subgraph_embeddings(pattern, graph)
        embeddings = [Embedding.from_dict(m) for m in maps]
        # Vertex 0 (label a) maps to {0, 3}; vertex 1 (label b) maps to {1, 2}.
        assert mni_support(pattern, embeddings) == 2

    def test_mni_support_empty(self):
        pattern = build_graph({0: "a"}, [])
        assert mni_support(pattern, []) == 0

    def test_embedding_and_transaction_support_helpers(self):
        embeddings = [
            Embedding.from_dict({0: 1}, graph_index=0),
            Embedding.from_dict({0: 1}, graph_index=1),
            Embedding.from_dict({0: 2}, graph_index=1),
        ]
        assert transaction_support(embeddings) == 2
        assert embedding_support(embeddings) == 3

    def test_path_embedding_valid(self):
        embedding = path_embedding([0, 1, 2], [10, 11, 12], graph_index=1)
        assert embedding.as_dict() == {0: 10, 1: 11, 2: 12}
        assert embedding.graph_index == 1

    def test_path_embedding_length_mismatch(self):
        with pytest.raises(ValueError):
            path_embedding([0, 1], [10])

    def test_path_embedding_duplicate_data_vertices(self):
        with pytest.raises(ValueError):
            path_embedding([0, 1, 2], [10, 11, 10])

    def test_path_embedding_duplicate_pattern_vertices(self):
        with pytest.raises(ValueError):
            path_embedding([0, 1, 1], [10, 11, 12])


def _random_table_embeddings(rng, width, num_rows, vertex_pool, num_graphs):
    """Random injective rows over a small pool — duplicate images likely."""
    columns = tuple(range(width))
    embeddings = []
    for _ in range(num_rows):
        images = rng.sample(vertex_pool, width)
        embeddings.append(
            Embedding(
                mapping=tuple(zip(columns, images)),
                graph_index=rng.randrange(num_graphs),
            )
        )
    return embeddings


class TestSupportCounterDifferential:
    """The merge-scan support counter vs the hashing reference.

    :meth:`EmbeddingTable.embedding_support` counts distinct (transaction,
    image) occurrences by a sort + adjacent-distinct scan (byte slices of
    the flat key arena under array storage); :func:`hashed_image_keys` is
    the hashing path it replaced.  Both must agree on every table shape, and
    arena and tuple storage must produce identical supports and identically
    *ordered* ``row_keys``.
    """

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_merge_scan_matches_hashing_across_storage_modes(
        self, tuple_storage, width, num_rows, num_graphs, seed
    ):
        rng = random.Random(seed)
        pool = list(range(width + 3))  # small pool → permuted duplicate images
        embeddings = _random_table_embeddings(rng, width, num_rows, pool, num_graphs)

        def build(mode):
            table = EmbeddingTable.from_embeddings(embeddings)
            return tuple_storage.table(table) if mode == "tuple" else table

        results = {}
        for mode in ("array", "tuple"):
            table = build(mode)
            assert table.storage_mode() == mode
            # Hashing reference on a fresh copy so the merge-scan cannot
            # read a cached value derived from the hashing path (or vice versa).
            hashed = len(hashed_image_keys(build(mode)))
            results[mode] = (
                table.embedding_support(),
                table.mni_support(),
                table.transaction_support(),
                table.row_keys(),
            )
            assert results[mode][0] == hashed
        assert results["array"] == results["tuple"]

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_parity_survives_extend_and_subset(self, tuple_storage, width, num_rows, seed):
        rng = random.Random(seed)
        pool = list(range(width + 4))
        embeddings = _random_table_embeddings(rng, width, num_rows, pool, 2)
        new_vertex = width  # next pattern column
        results = {}
        for mode in ("array", "tuple"):
            table = EmbeddingTable.from_embeddings(embeddings)
            if mode == "tuple":
                tuple_storage.table(table)
            table.row_keys()  # force the sorted-key path in extended()
            join_rng = random.Random(seed + 1)
            join_pairs = []
            for row_index, row in enumerate(table.rows):
                free = [v for v in pool if v not in row]
                if free and join_rng.random() < 0.8:
                    join_pairs.append((row_index, join_rng.choice(free)))
            child = table.extended(new_vertex, join_pairs)
            keep = [
                i
                for i in range(len(child.graph_ids))
                if random.Random(seed + 2 + i).random() < 0.7
            ]
            grandchild = child.subset(keep)
            assert child.storage_mode() == grandchild.storage_mode() == mode
            results[mode] = (
                child.embedding_support(),
                child.row_keys(),
                len(hashed_image_keys(child)),
                grandchild.embedding_support(),
                grandchild.row_keys(),
                grandchild.mni_support(),
            )
            assert results[mode][0] == results[mode][2]
        assert results["array"] == results["tuple"]
