"""Store parity: the memory and SQLite stores answer byte-identically.

The SQLite store changes *where* Stage-1 entries and pattern metadata live
(indexed columns on disk vs a process-local dict), never *what* a query
answers.  This suite runs the 13-scenario corpus from
``tests/core/test_emission_fast_path.py`` through :class:`MiningEngine`
twice — once over a :class:`MemoryPatternStore`, once over a
:class:`SqlitePatternStore` — and requires byte-identical ``Result``
serialisations (timings excluded: ``stats`` is wall-clock), identical
warm re-serves, and identical corpus-query answers.  The SQLite warm leg
reopens the database, so the persisted entry itself is what round-trips.
The edge-labelled scenario is refused alike by both stores, and leaves
neither holding an entry: ``skinny`` reads vertex labels only.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.api import EdgeLabelledDataError, MiningEngine, Query
from repro.index import MemoryPatternStore, SqlitePatternStore, decode_count

_scenarios_spec = importlib.util.spec_from_file_location(
    "_emission_fast_path_scenarios",
    Path(__file__).resolve().parents[1] / "core" / "test_emission_fast_path.py",
)
_scenarios = importlib.util.module_from_spec(_scenarios_spec)
_scenarios_spec.loader.exec_module(_scenarios)
SCENARIOS = _scenarios.SCENARIOS
build_scenario = _scenarios.build_scenario


def scenario_graphs(kind, seed, params):
    graphs = build_scenario(kind, seed, params)
    return graphs if isinstance(graphs, list) else [graphs]


def scenario_query(length, delta, sigma, measure):
    return Query(
        constraint_id="skinny",
        params={"length": length, "delta": delta},
        min_support=sigma,
        support_measure=measure.value,
    )


def result_bytes(result):
    """Canonical byte form of a Result, with wall-clock timings stripped."""
    payload = result.to_dict(include_patterns=True)
    payload.pop("stats", None)
    return json.dumps(payload, sort_keys=True)


def query_bytes(matches):
    return json.dumps(
        [match.to_dict(include_pattern=True) for match in matches], sort_keys=True
    )


class TestBackendParity:
    @pytest.mark.parametrize("kind, seed, params, length, delta, sigma, measure", SCENARIOS)
    def test_results_byte_identical_across_backends(
        self, tmp_path, kind, seed, params, length, delta, sigma, measure
    ):
        query = scenario_query(length, delta, sigma, measure)
        if kind == "transactions-elabel":
            sqlite = SqlitePatternStore(tmp_path)
            for store in (MemoryPatternStore(), sqlite):
                with pytest.raises(EdgeLabelledDataError):
                    MiningEngine(scenario_graphs(kind, seed, params), store=store).run(query)
                assert list(store.keys()) == []
            sqlite.close()
            return

        memory = MemoryPatternStore()
        cold_memory = result_bytes(
            MiningEngine(scenario_graphs(kind, seed, params), store=memory).run(query)
        )
        # A fresh engine over the same store serves Stage 1 warm.
        warm = MiningEngine(scenario_graphs(kind, seed, params), store=memory).run(query)
        assert warm.stats.served_from_store
        warm_memory = result_bytes(warm)

        sqlite = SqlitePatternStore(tmp_path)
        cold_sqlite = result_bytes(
            MiningEngine(scenario_graphs(kind, seed, params), store=sqlite).run(query)
        )
        sqlite.close()
        # A reopened store has an empty entry cache: the warm leg must decode
        # the persisted entry, so it is the database that round-trips.
        sqlite = SqlitePatternStore(tmp_path)
        decodes_before = decode_count()
        warm = MiningEngine(scenario_graphs(kind, seed, params), store=sqlite).run(query)
        assert warm.stats.served_from_store
        assert warm.stats.num_minimal_patterns > 0
        assert decode_count() - decodes_before == warm.stats.num_minimal_patterns
        warm_sqlite = result_bytes(warm)

        assert cold_memory == cold_sqlite
        assert warm_memory == warm_sqlite
        assert cold_memory == warm_memory
        assert query_bytes(memory.query(order_by="-support", min_size=1)) == query_bytes(
            sqlite.query(order_by="-support", min_size=1)
        )
        sqlite.close()
