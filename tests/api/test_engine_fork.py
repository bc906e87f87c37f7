"""MiningEngine.fork() and stage_one_key(): the serving tier's engine hooks."""

import pytest

from repro.api import MiningEngine, Query
from repro.api.errors import UnknownConstraintError
from repro.graph.labeled_graph import graph_from_paths
from repro.index.store import SnapshotStoreView
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def engine():
    graphs = graph_from_paths([list("abcde"), list("abcde"), list("abcde")])
    return MiningEngine(graphs, max_paths_per_length=500, metrics=MetricsRegistry())


QUERY = Query("skinny", {"length": 3, "delta": 1}, min_support=2)


class TestStageOneKey:
    def test_matches_private_key_and_store_contents(self, engine):
        key = engine.stage_one_key(QUERY)
        assert key.fingerprint == engine.fingerprint
        assert key.constraint_id == "skinny"
        assert key not in engine.store
        engine.run(QUERY)
        assert key in engine.store

    def test_skinny_key_ignores_delta_and_top_k(self, engine):
        # Stage 1 mines the length-l paths: δ and top-k only shape Stage 2
        # and the answer, so they share one store entry.
        key = engine.stage_one_key(
            Query("skinny", {"length": 3, "delta": 1}, min_support=2, top_k=3)
        )
        assert key == engine.stage_one_key(
            Query("skinny", {"length": 3, "delta": 2}, min_support=2)
        )
        assert key != engine.stage_one_key(
            Query("skinny", {"length": 4, "delta": 1}, min_support=2)
        )
        assert key != engine.stage_one_key(
            Query("skinny", {"length": 3, "delta": 1}, min_support=3)
        )

    def test_unknown_constraint_raises_typed_error(self, engine):
        with pytest.raises(UnknownConstraintError):
            engine.stage_one_key(Query("nope", {}, min_support=2))


class TestFork:
    def test_fork_shares_data_and_caps_but_not_caches(self, engine):
        fork = engine.fork(metrics=MetricsRegistry())
        assert type(fork) is MiningEngine
        assert fork.graphs is engine.graphs or fork.graphs == engine.graphs
        assert fork.fingerprint == engine.fingerprint
        assert fork.stage1_mode == engine.stage1_mode
        assert fork.store is engine.store
        assert fork.metrics is not engine.metrics
        assert fork._descriptor_cache is engine._descriptor_cache
        assert fork.stats_log is not engine.stats_log

    def test_fork_answers_identically(self, engine):
        expected = engine.run(QUERY)
        fork = engine.fork(metrics=MetricsRegistry())
        result = fork.run(QUERY)
        assert [p.canonical_form() for p in result.patterns] == [
            p.canonical_form() for p in expected.patterns
        ]
        assert [p.support for p in result.patterns] == [
            p.support for p in expected.patterns
        ]
        # The first engine populated the shared store, so the fork's Stage 1
        # was warm.
        assert result.stats.served_from_store is True

    def test_fork_onto_snapshot_view_isolates_writes(self, engine):
        view = engine.store.snapshot_view()
        fork = engine.fork(store=view, metrics=MetricsRegistry())
        assert isinstance(fork.store, SnapshotStoreView)
        fork.run(QUERY)
        key = engine.stage_one_key(QUERY)
        # The fork persisted its Stage-1 entry into the view's overlay only.
        assert key in fork.store
        assert key not in engine.store

    def test_fork_metrics_stay_private(self, engine):
        fork = engine.fork(metrics=MetricsRegistry())
        fork.run(QUERY)
        fork_counters = {row["name"] for row in fork.metrics.snapshot()["counters"]}
        assert "repro_queries_total" in fork_counters
        engine_counters = {row["name"] for row in engine.metrics.snapshot()["counters"]}
        assert "repro_queries_total" not in engine_counters
