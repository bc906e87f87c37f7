"""End-to-end tests for the MiningEngine facade: one code path, any constraint."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.api import MiningEngine, ParamSpec, Query, register_constraint, unregister_constraint
from repro.core.database import EdgeDelta
from repro.core.framework import bounded_diameter_constraint, path_shape_constraint
from repro.core.skinnymine import SkinnyMine
from repro.graph.embeddings import EmbeddingTable
from repro.graph.generators import (
    erdos_renyi_graph,
    inject_pattern,
    random_skinny_pattern,
    random_transaction_database,
)
from repro.graph.labeled_graph import build_graph
from repro.index import MemoryPatternStore, SqlitePatternStore


@pytest.fixture(scope="module")
def data_graph():
    background = erdos_renyi_graph(120, 1.4, 25, seed=41)
    pattern = random_skinny_pattern(5, 1, 8, 25, seed=43)
    inject_pattern(background, pattern, copies=3, seed=47)
    return background


def chains_graph():
    return build_graph(
        {
            0: "a", 1: "b", 2: "c", 3: "d",
            10: "a", 11: "b", 12: "c", 13: "d",
            20: "x", 21: "y",
        },
        [(0, 1), (1, 2), (2, 3), (10, 11), (11, 12), (12, 13), (20, 21), (3, 20)],
    )


SKINNY = Query("skinny", {"length": 5, "delta": 1}, min_support=2)


def transaction_database():
    database = random_transaction_database(6, 60, 1.5, 20, seed=23)
    planted = random_skinny_pattern(5, 1, 8, 20, seed=29)
    for index, graph in enumerate(database):
        inject_pattern(graph, planted, copies=1, seed=300 + index)
    return database


def full_serialisations(patterns, vertex=lambda v: v) -> Counter:
    """The multiset of complete pattern serialisations.

    Vertex labels, edges, diameter, support and sorted embeddings: two query
    paths agree only when their answers agree as bags, not just as sets of
    canonical forms.  ``vertex`` maps each embedded data vertex first, so
    answers mined on renamed data can be compared with the original's.
    """
    return Counter(
        json.dumps(
            {
                "labels": sorted((v, str(p.graph.label_of(v))) for v in p.graph.vertices()),
                "edges": sorted((*e.endpoints(), str(e.label)) for e in p.graph.edges()),
                "diameter": list(p.diameter),
                "support": p.support,
                "embeddings": sorted(
                    (e.graph_index, tuple((source, vertex(target)) for source, target in e.mapping))
                    for e in p.embeddings
                ),
            },
            sort_keys=True,
            default=list,
        )
        for p in patterns
    )


def mined_both_ways(monkeypatch, graphs, query, **caps):
    """Run one skinny query through ``MiningEngine`` and through ``SkinnyMine``.

    Both are built with the same ``caps``.  Returns the engine's result,
    SkinnyMine's patterns and the ``EmbeddingTable.extended`` joins each made.
    """
    joins = Counter()
    extended = EmbeddingTable.extended
    caller = "engine"

    def counted(table, *args, **kwargs):
        joins[caller] += 1
        return extended(table, *args, **kwargs)

    monkeypatch.setattr(EmbeddingTable, "extended", counted)
    result = MiningEngine(graphs, **caps).run(query)
    caller = "skinnymine"
    miner = SkinnyMine(
        graphs, min_support=query.min_support, support_measure=query.measure, **caps
    )
    reference = miner.mine(
        query.params["length"], query.params["delta"], include_minimal=query.include_minimal
    )
    return result, reference, joins


class TestSkinnyThroughEngine:
    @pytest.mark.parametrize("length, delta", [(5, 1), (4, 2), (3, 2)])
    def test_engine_and_skinnymine_grow_identically(
        self, data_graph, monkeypatch, length, delta
    ):
        """One skinny growth loop: same answers as bags, same join work."""
        result, reference, joins = mined_both_ways(
            monkeypatch,
            data_graph,
            Query("skinny", {"length": length, "delta": delta}, min_support=2),
        )

        assert full_serialisations(result.patterns) == full_serialisations(reference)
        assert joins["engine"] == joins["skinnymine"] > 0
        assert not result.stats.served_from_store
        assert result.stats.num_minimal_patterns >= 1

    @pytest.mark.parametrize("length, delta", [(5, 1), (4, 2), (3, 2)])
    def test_without_minimal_patterns(self, data_graph, monkeypatch, length, delta):
        """``include_minimal=False`` drops exactly the bare diameters, on both paths."""
        result, reference, joins = mined_both_ways(
            monkeypatch,
            data_graph,
            Query(
                "skinny", {"length": length, "delta": delta}, min_support=2,
                include_minimal=False,
            ),
        )
        assert full_serialisations(result.patterns) == full_serialisations(reference)
        assert joins["engine"] == joins["skinnymine"]
        # Only grown patterns are left: each has an edge off its diameter.
        assert all(p.num_edges > length for p in result.patterns)
        with_minimal = MiningEngine(data_graph).run(
            Query("skinny", {"length": length, "delta": delta}, min_support=2)
        )
        assert (
            len(with_minimal.patterns) - len(result.patterns)
            == with_minimal.stats.num_minimal_patterns
        )

    @pytest.mark.parametrize("measure", ["mni", "transactions"])
    def test_engine_and_skinnymine_agree_under_measure(
        self, data_graph, monkeypatch, measure
    ):
        graphs = transaction_database() if measure == "transactions" else data_graph
        query = Query(
            "skinny", {"length": 4, "delta": 2}, min_support=3, support_measure=measure
        )
        result, reference, joins = mined_both_ways(monkeypatch, graphs, query)
        assert result.patterns
        assert full_serialisations(result.patterns) == full_serialisations(reference)
        assert joins["engine"] == joins["skinnymine"]

    @pytest.mark.parametrize(
        "caps",
        [
            {"max_patterns_per_diameter": 3},
            {"max_paths_per_length": 100},
            {"stage1_mode": "pruned"},
        ],
        ids=["pattern-cap", "path-cap", "pruned-stage1"],
    )
    def test_engine_and_skinnymine_agree_under_caps(self, data_graph, monkeypatch, caps):
        """The engine hands its caps and Stage-1 mode to the same driver SkinnyMine uses."""
        query = Query("skinny", {"length": 4, "delta": 2}, min_support=2)
        result, reference, joins = mined_both_ways(monkeypatch, data_graph, query, **caps)
        assert result.patterns
        assert full_serialisations(result.patterns) == full_serialisations(reference)
        assert joins["engine"] == joins["skinnymine"]
        # The cap or mode changed the answer: it really reached the driver.
        uncapped = MiningEngine(data_graph).run(query)
        assert len(result.patterns) < len(uncapped.patterns)

    def test_mine_range_matches_engine_per_length(self, data_graph):
        ranged = SkinnyMine(data_graph, min_support=2).mine_range(3, 5, 1)
        assert sorted(ranged) == [3, 4, 5]
        engine = MiningEngine(data_graph)
        for length, patterns in ranged.items():
            result = engine.run(
                Query("skinny", {"length": length, "delta": 1}, min_support=2)
            )
            assert full_serialisations(result.patterns) == full_serialisations(patterns)

    def test_engine_queries_grow_without_child_accounting(
        self, data_graph, child_accounting_flags
    ):
        # Only the closed/maximal filters read the child counters, and no
        # query runs them, so every cluster takes the duplicate fast path.
        result = MiningEngine(data_graph).run(SKINNY)
        assert len(child_accounting_flags) == result.stats.num_minimal_patterns
        assert not any(child_accounting_flags)

    def test_result_cache(self, data_graph):
        engine = MiningEngine(data_graph)
        engine.run(SKINNY)
        second = engine.run(SKINNY)
        assert second.stats.result_cache_hit
        assert not second.stats.served_from_store  # the store was never consulted
        assert len(engine.stats_log) == 2

    def test_cache_hit_over_warm_store_claims_only_the_cache(self, data_graph):
        engine = MiningEngine(data_graph, store=MemoryPatternStore())
        engine.precompute_queries([SKINNY])
        first = engine.run(SKINNY)
        assert first.stats.served_from_store
        second = engine.run(SKINNY)
        # The store still holds the entry, but the answer came from the cache.
        assert engine.stage_one_key(SKINNY) in engine.store
        assert second.stats.result_cache_hit
        assert not second.stats.served_from_store
        assert full_serialisations(second.patterns) == full_serialisations(first.patterns)

    def test_top_k_truncates_by_support(self, data_graph):
        engine = MiningEngine(data_graph)
        full = engine.run(SKINNY)
        top = engine.run(Query("skinny", {"length": 5, "delta": 1}, min_support=2, top_k=2))
        assert len(top.patterns) == min(2, len(full.patterns))
        supports = [p.support for p in full.patterns]
        assert [p.support for p in top.patterns] == sorted(supports, reverse=True)[
            : len(top.patterns)
        ]


class TestNonSkinnyConstraints:
    def test_path_constraint_end_to_end(self):
        engine = MiningEngine(chains_graph())
        result = engine.run(Query("path", {"length": 3}, min_support=2))
        assert result.patterns
        predicate = path_shape_constraint(3)
        for pattern in result.patterns:
            assert predicate(pattern.graph)
            assert pattern.support >= 2

    def test_diam_constraint_end_to_end(self):
        engine = MiningEngine(chains_graph())
        result = engine.run(Query("diam-le", {"k": 2}, min_support=2))
        assert result.patterns
        predicate = bounded_diameter_constraint(2)
        for pattern in result.patterns:
            assert predicate(pattern.graph)
            assert pattern.support >= 2
        # Growth reached beyond the single-edge minimal patterns.
        assert any(p.num_edges >= 2 for p in result.patterns)
        # Overlapping clusters were deduplicated.
        forms = [p.canonical_form() for p in result.patterns]
        assert len(forms) == len(set(forms))

    def test_run_batch_mixes_constraints_in_order(self):
        engine = MiningEngine(chains_graph())
        queries = [
            Query("path", {"length": 3}, min_support=2),
            Query("skinny", {"length": 3, "delta": 1}, min_support=2),
            Query("diam-le", {"k": 2}, min_support=2),
            Query("path", {"length": 3}, min_support=2),
        ]
        results = engine.run_batch(queries)
        assert [result.query for result in results] == queries
        assert all(result.patterns for result in results)
        # The duplicate is answered from the result cache, nothing else is.
        assert [result.stats.result_cache_hit for result in results] == [
            False, False, False, True,
        ]


class TestStoreIntegration:
    def test_constraints_coexist_in_one_disk_store(self, tmp_path):
        store_root = tmp_path / "idx"
        graph = chains_graph()
        engine = MiningEngine(graph, store=SqlitePatternStore(store_root))
        queries = [
            Query("skinny", {"length": 3, "delta": 1}, min_support=2),
            Query("path", {"length": 3}, min_support=2),
            Query("diam-le", {"k": 2}, min_support=2),
        ]
        cold = [engine.run(query) for query in queries]
        assert all(not result.stats.served_from_store for result in cold)
        constraint_ids = {key.constraint_id for key in engine.store.keys()}
        assert constraint_ids == {"skinny", "path", "diam-le"}

        # A fresh engine over the same directory serves every constraint warm.
        warm_engine = MiningEngine(graph, store=SqlitePatternStore(store_root))
        for query, cold_result in zip(queries, cold):
            warm = warm_engine.run(query)
            assert warm.stats.served_from_store
            assert {p.canonical_form() for p in warm.patterns} == {
                p.canonical_form() for p in cold_result.patterns
            }

    def test_apply_delta_repairs_path_indexed_and_invalidates_others(self, tmp_path):
        graph = chains_graph()
        engine = MiningEngine(graph, store=SqlitePatternStore(tmp_path / "idx"))
        engine.run(Query("skinny", {"length": 3, "delta": 1}, min_support=2))
        engine.run(Query("path", {"length": 3}, min_support=2))
        engine.run(Query("diam-le", {"k": 2}, min_support=2))

        report = engine.apply_delta([EdgeDelta.remove_edge(20, 21)])
        assert report.entries_repaired + report.entries_migrated == 2
        assert report.entries_invalidated == 1  # the diam-le entry
        remaining = {key.constraint_id for key in engine.store.keys()}
        assert "diam-le" not in remaining
        assert {"skinny", "path"} <= remaining
        # Both repaired entries serve the new fingerprint from the store.
        for query in (
            Query("skinny", {"length": 3, "delta": 1}, min_support=2),
            Query("path", {"length": 3}, min_support=2),
        ):
            assert engine.run(query).stats.served_from_store
        # The invalidated constraint recomputes and still answers correctly.
        result = engine.run(Query("diam-le", {"k": 2}, min_support=2))
        assert not result.stats.served_from_store
        assert all(
            bounded_diameter_constraint(2)(p.graph) for p in result.patterns
        )

    def test_apply_delta_repairs_identically_on_sqlite(self, tmp_path):
        # Incremental repair must behave the same over the relational
        # backend — same repaired/invalidated counts, warm serves after.
        from repro.index.sqlite_store import SqlitePatternStore

        graph = chains_graph()
        engine = MiningEngine(graph, store=SqlitePatternStore(tmp_path / "idx"))
        engine.run(Query("skinny", {"length": 3, "delta": 1}, min_support=2))
        engine.run(Query("path", {"length": 3}, min_support=2))
        engine.run(Query("diam-le", {"k": 2}, min_support=2))

        report = engine.apply_delta([EdgeDelta.remove_edge(20, 21)])
        assert report.entries_repaired + report.entries_migrated == 2
        assert report.entries_invalidated == 1
        remaining = {key.constraint_id for key in engine.store.keys()}
        assert "diam-le" not in remaining
        assert {"skinny", "path"} <= remaining
        for query in (
            Query("skinny", {"length": 3, "delta": 1}, min_support=2),
            Query("path", {"length": 3}, min_support=2),
        ):
            assert engine.run(query).stats.served_from_store

    def test_query_corpus_defaults_to_engine_fingerprint(self, tmp_path):
        from repro.index import IndexEntry, StoreKey
        from repro.index.sqlite_store import SqlitePatternStore

        graph = chains_graph()
        store = SqlitePatternStore(tmp_path / "idx")
        engine = MiningEngine(graph, store=store)
        engine.run(Query("path", {"length": 3}, min_support=2))
        # Plant an entry under a foreign fingerprint: the default corpus
        # view must not include it, fingerprint=None must.
        foreign = engine.store.get(engine.store.keys()[0])
        store.put(
            IndexEntry(
                key=StoreKey("other-data", "path", foreign.key.parameter),
                patterns=list(foreign.patterns),
            )
        )
        own = engine.query_corpus(order_by="-support")
        assert own and all(m.key.fingerprint == engine.fingerprint for m in own)
        everything = engine.query_corpus(fingerprint=None)
        assert {m.key.fingerprint for m in everything} == {
            engine.fingerprint,
            "other-data",
        }
        # The abcd chain appears twice; its labels must be queryable.
        chained = engine.query_corpus(labels_contain=["a", "d"], min_support=2)
        assert chained and all({"a", "d"} <= set(m.labels) for m in chained)

    def test_warm_disk_store_skips_stage_one(self, data_graph, tmp_path, monkeypatch):
        MiningEngine(data_graph, store=SqlitePatternStore(tmp_path / "idx")).run(SKINNY)
        reference = SkinnyMine(data_graph, min_support=2).mine(5, 1)

        # A fresh engine over the same directory must never re-run DiamMine.
        import repro.core.diammine as diammine

        def explode(self, length):  # pragma: no cover - only on regression
            raise AssertionError("Stage 1 was recomputed despite a warm store")

        monkeypatch.setattr(diammine.DiamMine, "mine", explode)
        warm = MiningEngine(data_graph, store=SqlitePatternStore(tmp_path / "idx")).run(SKINNY)
        assert warm.stats.served_from_store
        assert not warm.stats.result_cache_hit
        assert full_serialisations(warm.patterns) == full_serialisations(reference)

    def test_store_miss_on_different_data(self, data_graph, tmp_path):
        MiningEngine(data_graph, store=SqlitePatternStore(tmp_path / "idx")).run(SKINNY)
        other = erdos_renyi_graph(60, 1.2, 9, seed=5)
        engine = MiningEngine(other, store=SqlitePatternStore(tmp_path / "idx"))
        result = engine.run(Query("skinny", {"length": 2, "delta": 1}, min_support=2))
        assert not result.stats.served_from_store

    def test_capped_stage_one_not_served_to_uncapped_engine(self, tmp_path):
        graph = chains_graph()
        store_root = tmp_path / "idx"
        capped = MiningEngine(
            graph, store=SqlitePatternStore(store_root), max_paths_per_length=1
        )
        capped.run(Query("path", {"length": 3}, min_support=2))
        uncapped = MiningEngine(graph, store=SqlitePatternStore(store_root))
        result = uncapped.run(Query("path", {"length": 3}, min_support=2))
        assert not result.stats.served_from_store


class TestPrecomputeQueries:
    def test_serial_and_parallel_agree_across_constraints(self):
        graph = chains_graph()
        queries = [
            Query("skinny", {"length": 3, "delta": 0}, min_support=2),
            Query("path", {"length": 3}, min_support=2),
            Query("path", {"length": 2}, min_support=2),
            Query("diam-le", {"k": 2}, min_support=2),
        ]
        serial = MiningEngine(graph).precompute_queries(queries)
        parallel = MiningEngine(graph).precompute_queries(queries, processes=2)
        assert [s["num_patterns"] for s in serial] == [
            s["num_patterns"] for s in parallel
        ]
        assert all(not s["served_from_store"] for s in parallel)

    def test_duplicate_stage_one_keys_mined_once(self):
        engine = MiningEngine(chains_graph())
        queries = [
            # Same Stage-1 key (δ does not participate), two queries.
            Query("skinny", {"length": 3, "delta": 0}, min_support=2),
            Query("skinny", {"length": 3, "delta": 2}, min_support=2),
        ]
        summaries = engine.precompute_queries(queries, processes=2)
        assert len(engine.store.keys()) == 1
        assert summaries[0]["num_patterns"] == summaries[1]["num_patterns"]

    def test_precomputed_entries_serve_queries(self, data_graph):
        engine = MiningEngine(data_graph, store=MemoryPatternStore())
        engine.precompute_queries(
            [
                Query("skinny", {"length": 5, "delta": 1}, min_support=2),
                Query("skinny", {"length": 4, "delta": 1}, min_support=2),
            ]
        )
        assert len(engine.store.keys()) == 2
        result = engine.run(SKINNY)
        assert result.stats.served_from_store
        assert result.stats.num_patterns == len(result.patterns)

    def test_warm_entries_not_recomputed(self, tmp_path):
        graph = chains_graph()
        store = SqlitePatternStore(tmp_path)
        query = Query("path", {"length": 3}, min_support=2)
        MiningEngine(graph, store=store).precompute_queries([query])
        created = store.get(store.keys()[0]).created_at
        (summary,) = MiningEngine(
            graph, store=SqlitePatternStore(tmp_path)
        ).precompute_queries([query], processes=2)
        assert summary["served_from_store"]
        assert store.get(store.keys()[0]).created_at == created


class TestLevelStatistics:
    """Per-query Stage-2 counters (the emission fast path)."""

    def test_result_carries_level_statistics(self, data_graph):
        result = MiningEngine(data_graph).run(SKINNY)
        stats = result.stats.level_statistics
        assert stats is not None
        assert stats["patterns_emitted"] > 0
        assert stats["canonical_incremental_hits"] > 0
        for counter in ("invariant_cache_hits", "probes_batched"):
            assert stats[counter] >= 0
        for phase in ("canonical_seconds", "invariant_seconds", "probe_seconds"):
            assert stats[phase] >= 0.0
        # The wire form includes the counters too.
        assert (
            result.stats.to_dict()["level_statistics"]["canonical_incremental_hits"]
            == stats["canonical_incremental_hits"]
        )

    def test_back_to_back_queries_report_independent_counters(self, data_graph):
        # SkinnyMine once merged LevelGrow counters into the *previous*
        # request's report.  Two fresh engine queries must each report their
        # own canonical_incremental_hits — equal work, not zero, and not
        # accumulated across requests.
        engine = MiningEngine(data_graph)
        first = engine.run(Query("skinny", {"length": 5, "delta": 1}, min_support=2))
        second = engine.run(Query("skinny", {"length": 4, "delta": 1}, min_support=2))
        third = engine.run(Query("skinny", {"length": 5, "delta": 1}, min_support=2))
        stats_one = first.stats.level_statistics
        stats_two = second.stats.level_statistics
        assert stats_one["canonical_incremental_hits"] > 0
        assert stats_two["canonical_incremental_hits"] > 0
        # Different requests did different work under different counters.
        assert stats_one is not stats_two
        # The repeat of the first request was served from the result cache:
        # no Stage 2 ran, so no counters — rather than a stale merged copy.
        assert third.stats.result_cache_hit
        assert third.stats.level_statistics is None

    def test_identical_cold_queries_report_identical_counters(self, data_graph):
        # Two engines, same query: the counters are a pure function of the
        # request, so nothing from the first run may leak into the second.
        one = MiningEngine(data_graph).run(SKINNY).stats.level_statistics
        two = MiningEngine(data_graph).run(SKINNY).stats.level_statistics
        counters = (
            "candidates_generated",
            "candidates_rejected_constraints",
            "candidates_rejected_support",
            "candidates_rejected_duplicate",
            "candidates_pending",
            "patterns_emitted",
            "canonical_incremental_hits",
            "invariant_cache_hits",
            "probes_batched",
        )
        assert {k: one[k] for k in counters} == {k: two[k] for k in counters}


class TestDeltas:
    def test_apply_delta_keeps_results_consistent(self, data_graph):
        graph = data_graph.copy()
        engine = MiningEngine(graph)
        engine.run(SKINNY)
        edge = next(iter(graph.edges()))
        report = engine.apply_delta([EdgeDelta.remove_edge(edge.u, edge.v)])
        assert report.operations == 1
        assert engine.fingerprint == report.new_fingerprint
        result = engine.run(SKINNY)
        assert not result.stats.result_cache_hit  # cache was invalidated
        reference = SkinnyMine(graph, min_support=2).mine(5, 1)
        assert full_serialisations(result.patterns) == full_serialisations(reference)

    def test_apply_delta_repairs_store_in_place(self, data_graph, tmp_path):
        graph = data_graph.copy()
        engine = MiningEngine(graph, store=SqlitePatternStore(tmp_path))
        engine.run(SKINNY)
        edge = next(iter(graph.edges()))
        report = engine.apply_delta([EdgeDelta.remove_edge(edge.u, edge.v)])
        assert report.entries_seen == 1
        # The repaired entry now serves the new fingerprint from disk.
        assert engine.run(SKINNY).stats.served_from_store


class TestCustomConstraintThroughEngine:
    def test_registered_constraint_serves_end_to_end(self):
        """register_constraint(id, driver_factory) is all a new constraint needs."""
        from repro.core.framework import BoundedDiameterDriver

        try:
            register_constraint(
                "diam-loose",
                lambda params, caps, include_minimal: BoundedDiameterDriver(
                    max_edges=3, include_minimal=include_minimal
                ),
                params=(ParamSpec("k", int, required=True, minimum=1),),
                description="diam-le with a tighter growth cap",
                deduplicate=True,
            )
            engine = MiningEngine(chains_graph())
            result = engine.run(Query("diam-loose", {"k": 2}, min_support=2))
            assert result.patterns
            assert all(p.num_edges <= 3 for p in result.patterns)
        finally:
            unregister_constraint("diam-loose")


class TestNonWordVertexIds:
    """Vertex ids an int64 arena cannot hold mine on tuple rows.

    ``EmbeddingTable`` keeps eager per-row tuples for them; a whole query on
    such ids must give the answer the arena gives on the integer ids.
    """

    RENAMINGS = {
        "str": (lambda v: f"v{v}", lambda v: int(v[1:])),
        "beyond-int64": (lambda v: v + 2**64, lambda v: v - 2**64),
    }

    @pytest.mark.parametrize("ids", sorted(RENAMINGS))
    @pytest.mark.parametrize(
        "query",
        [
            Query("skinny", {"length": 4, "delta": 2}, min_support=2),
            Query("path", {"length": 3}, min_support=2),
            Query("diam-le", {"k": 2}, min_support=2),
        ],
        ids=lambda query: query.constraint_id,
    )
    def test_same_answer_as_integer_ids(self, data_graph, monkeypatch, ids, query):
        rename, restore = self.RENAMINGS[ids]
        renamed = build_graph(
            {rename(v): data_graph.label_of(v) for v in data_graph.vertices()},
            [(rename(e.u), rename(e.v)) for e in data_graph.edges()],
        )
        expected = MiningEngine(data_graph).run(query).patterns

        tables = []
        init = EmbeddingTable.__init__

        def recording(table, *args, **kwargs):
            init(table, *args, **kwargs)
            tables.append(table)

        monkeypatch.setattr(EmbeddingTable, "__init__", recording)
        result = MiningEngine(renamed).run(query)

        assert expected
        assert full_serialisations(result.patterns, restore) == full_serialisations(expected)
        assert {table.storage_mode() for table in tables if len(table)} == {"tuple"}
