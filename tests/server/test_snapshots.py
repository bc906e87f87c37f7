"""SnapshotManager: atomic generation publish, copy-on-write isolation."""

import pytest

from repro.api import MiningEngine, Query
from repro.core.database import EdgeDelta
from repro.graph.labeled_graph import graph_from_paths
from repro.index.store import MemoryPatternStore
from repro.obs.metrics import MetricsRegistry
from repro.server.snapshots import SnapshotManager

QUERY = Query("skinny", {"length": 3, "delta": 1}, min_support=2)


def make_manager():
    graphs = graph_from_paths([list("abcde"), list("abcde"), list("abcde")])
    store = MemoryPatternStore()
    return SnapshotManager(
        graphs,
        store,
        lambda g, s: MiningEngine(g, store=s, metrics=MetricsRegistry()),
    )


class TestGenerationZero:
    def test_initial_snapshot(self):
        manager = make_manager()
        snapshot = manager.current
        assert snapshot.generation == 0
        assert manager.generation == 0
        assert snapshot.engine.store is snapshot.store
        assert snapshot.repair_report is None


class TestApplyDelta:
    def test_publishes_next_generation(self):
        manager = make_manager()
        before = manager.current.fingerprint
        snapshot, report = manager.apply_delta([EdgeDelta.remove_edge(0, 1)])
        assert snapshot.generation == 1
        assert manager.current is snapshot
        assert report.operations == 1
        assert snapshot.repair_report is report
        assert snapshot.fingerprint != before

    def test_old_generation_is_untouched(self):
        manager = make_manager()
        old = manager.current
        old.engine.run(QUERY)  # populate the generation-0 store
        old_keys = set(old.store.keys())
        assert old_keys

        new, _ = manager.apply_delta([EdgeDelta.remove_edge(0, 1)])
        # The old generation's graphs still carry the removed edge; the new
        # generation's copies do not.
        assert old.graphs[0].has_edge(0, 1)
        assert not new.graphs[0].has_edge(0, 1)
        assert old.graphs[0] is not new.graphs[0]
        # The repair wrote only into the new generation's overlay view: the
        # base store still holds exactly the generation-0 entries.
        assert set(old.store.keys()) == old_keys
        assert all(key.fingerprint == old.fingerprint for key in old.store.keys())
        assert new.store.base is old.store
        # The repaired/migrated entries in the view carry the new fingerprint.
        new_keys = set(new.store.keys()) - old_keys
        assert new_keys
        assert all(key.fingerprint == new.fingerprint for key in new_keys)

    def test_old_and_new_generations_answer_consistently(self):
        manager = make_manager()
        old = manager.current
        before = old.engine.run(QUERY)
        new, _ = manager.apply_delta([EdgeDelta.remove_edge(0, 1)])
        after = new.engine.run(QUERY)
        # Generation 0 still answers exactly as before the delta.
        again = old.engine.fork(metrics=MetricsRegistry()).run(QUERY)
        assert {p.canonical_form() for p in again.patterns} == {
            p.canonical_form() for p in before.patterns
        }
        # The delta removed an edge, so generation 1 lost support.
        assert len(after.patterns) <= len(before.patterns)

    def test_failed_delta_publishes_nothing(self):
        manager = make_manager()
        current = manager.current
        with pytest.raises(KeyError):
            manager.apply_delta([EdgeDelta.remove_edge(998, 999)])
        assert manager.current is current
        assert manager.generation == 0


class TestLongDeltaStreams:
    """Generations stay one view above the base store, however many deltas."""

    QUERIES = (QUERY, Query("diam-le", {"k": 2}, min_support=2))

    def answers(self, engine):
        return [
            [(p.canonical_form(), p.support) for p in engine.run(query).patterns]
            for query in self.QUERIES
        ]

    def test_every_generation_keeps_its_answers_and_entries(self):
        manager = make_manager()
        base = manager.current.store
        generations = [manager.current]
        answers = [self.answers(manager.current.engine)]
        keys = [set(base.keys())]
        for step in range(100):
            # Remove and re-add one edge: repaired skinny entries and
            # invalidated diam-le entries pile up in the overlays.
            operation = (EdgeDelta.add_edge if step % 2 else EdgeDelta.remove_edge)(0, 1)
            snapshot, _ = manager.apply_delta([operation])
            assert snapshot.store.base is base
            generations.append(snapshot)
            answers.append(self.answers(snapshot.engine))
            keys.append(set(snapshot.store.keys()))
        assert manager.generation == 100
        assert answers[0] != answers[1]
        for index, snapshot in enumerate(generations):
            assert set(snapshot.store.keys()) == keys[index]
            fresh = snapshot.engine.fork(metrics=MetricsRegistry())
            assert self.answers(fresh) == answers[index]
            assert answers[index] == answers[index % 2]
        assert set(base.keys()) == keys[0]


class TestSqliteBackedGenerations:
    """Snapshot generations behave identically over the relational backend."""

    def make_manager(self, tmp_path):
        from repro.index.sqlite_store import SqlitePatternStore

        graphs = graph_from_paths([list("abcde"), list("abcde"), list("abcde")])
        store = SqlitePatternStore(tmp_path / "idx")
        return SnapshotManager(
            graphs,
            store,
            lambda g, s: MiningEngine(g, store=s, metrics=MetricsRegistry()),
        )

    def test_repair_writes_stay_in_the_overlay(self, tmp_path):
        manager = self.make_manager(tmp_path)
        old = manager.current
        old.engine.run(QUERY)
        old_keys = set(old.store.keys())
        assert old_keys

        new, _ = manager.apply_delta([EdgeDelta.remove_edge(0, 1)])
        # The database itself holds only generation-0 entries; the repair
        # landed in the new generation's copy-on-write view.
        assert set(old.store.keys()) == old_keys
        assert new.store.base is old.store
        new_keys = set(new.store.keys()) - old_keys
        assert new_keys
        assert all(key.fingerprint == new.fingerprint for key in new_keys)

    def test_corpus_queries_follow_the_generation(self, tmp_path):
        manager = self.make_manager(tmp_path)
        old = manager.current
        old.engine.run(QUERY)
        new, _ = manager.apply_delta([EdgeDelta.remove_edge(0, 1)])
        old_matches = old.engine.query_corpus(min_support=2)
        new_matches = new.engine.query_corpus(min_support=2)
        assert old_matches
        assert all(m.key.fingerprint == old.fingerprint for m in old_matches)
        assert all(m.key.fingerprint == new.fingerprint for m in new_matches)


class TestFrozenViewAdoption:
    """Frozen CSR views of untouched transactions carry across generations."""

    def make_multigraph_manager(self):
        graphs = [
            graph_from_paths([list("abcde")]),
            graph_from_paths([list("abcde")]),
        ]
        store = MemoryPatternStore()
        return SnapshotManager(
            graphs,
            store,
            lambda g, s: MiningEngine(g, store=s, metrics=MetricsRegistry()),
        )

    def test_untouched_views_survive_apply_delta(self):
        from repro.core.database import SupportMeasure

        manager = self.make_multigraph_manager()
        old_engine = manager.current.engine
        context = old_engine._context(2, SupportMeasure.TRANSACTIONS)
        kept = context.frozen_graph(0)
        dropped = context.frozen_graph(1)
        snapshot, _ = manager.apply_delta(
            [EdgeDelta.remove_edge(0, 1, graph_index=1)]
        )
        new_engine = snapshot.engine
        assert new_engine is not old_engine
        assert new_engine._frozen_views[0] is kept  # adopted, not re-frozen
        assert 1 not in new_engine._frozen_views  # edited: must re-freeze
        assert new_engine._frozen_palette is old_engine._frozen_palette
        refrozen = new_engine._context(
            2, SupportMeasure.TRANSACTIONS
        ).frozen_graph(1)
        assert refrozen is not dropped
        assert not refrozen.has_edge(0, 1)
        # The old generation still answers from its own intact views.
        assert context.frozen_graph(1) is dropped
        assert dropped.has_edge(0, 1)

    def test_adoption_is_refused_once_views_exist(self):
        from repro.core.database import SupportMeasure

        manager = self.make_multigraph_manager()
        old_engine = manager.current.engine
        old_engine._context(2, SupportMeasure.TRANSACTIONS).frozen_graph(0)
        fresh = MiningEngine(
            [graph.copy() for graph in manager.current.graphs],
            metrics=MetricsRegistry(),
        )
        fresh._context(2, SupportMeasure.TRANSACTIONS).frozen_graph(0)
        adopted = fresh.adopt_frozen_views(old_engine, [])
        assert adopted == 0  # pool already populated: palettes must not mix
