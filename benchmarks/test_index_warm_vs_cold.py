"""Warm-index serving vs cold mining: the payoff of the persistent store.

The paper's direct-mining pitch (Figure 2) is that the expensive Stage 1 is
paid once, offline; the seed reproduction kept the index in memory, so every
process restart repaid it.  This benchmark measures the new disk-backed
subsystem on a Table-1 dataset:

* **cold**  — empty store: the request pays Stage 1 (DiamMine) + Stage 2;
* **warm**  — a *fresh* engine over the same store directory: Stage 1 is
  served from disk with zero recomputation;
* **repeat** — the same request again: answered from the result cache.

Acceptance: warm Stage-1 cost < 20% of cold Stage-1 cost, and the repeated
request completes in < 20% of the cold total.
"""

from __future__ import annotations

import time

from conftest import GID_SCALE, MIN_SUPPORT, run_once

from repro.analysis.reporting import print_figure_series
from repro.api import MiningEngine, Query
from repro.datasets.synthetic import build_gid_dataset
from repro.index import SqlitePatternStore

DELTA = 1


def _timed_run(engine: MiningEngine, query: Query):
    started = time.perf_counter()
    response = engine.run(query)
    return response, time.perf_counter() - started


def _sweep(store_root):
    dataset = build_gid_dataset(1, seed=7, scale=GID_SCALE)
    length = dataset.setting.long_pattern_diameter
    query = Query("skinny", {"length": length, "delta": DELTA}, min_support=MIN_SUPPORT)

    cold_engine = MiningEngine(dataset.graph, store=SqlitePatternStore(store_root))
    cold_response, cold_total = _timed_run(cold_engine, query)
    assert not cold_response.stats.served_from_store

    # A brand-new engine over the same directory: simulates a process restart.
    warm_engine = MiningEngine(dataset.graph, store=SqlitePatternStore(store_root))
    warm_response, warm_total = _timed_run(warm_engine, query)
    assert warm_response.stats.served_from_store
    assert not warm_response.stats.result_cache_hit

    repeat_response, repeat_total = _timed_run(warm_engine, query)
    assert repeat_response.stats.result_cache_hit

    assert {p.canonical_form() for p in warm_response.patterns} == {
        p.canonical_form() for p in cold_response.patterns
    }
    return {
        "length": length,
        "num_patterns": len(cold_response.patterns),
        "cold_stage_one": cold_response.stats.stage_one_seconds,
        "warm_stage_one": warm_response.stats.stage_one_seconds,
        "cold_total": cold_total,
        "warm_total": warm_total,
        "repeat_total": repeat_total,
    }


def test_warm_index_latency_under_20_percent_of_cold(benchmark, tmp_path):
    result = run_once(benchmark, _sweep, tmp_path / "index-store")

    print_figure_series(
        "Index store: cold vs warm request latency "
        f"(GID 1, l={result['length']}, δ={DELTA}, σ={MIN_SUPPORT}, "
        f"{result['num_patterns']} patterns)",
        {
            "cold stage 1 (DiamMine)": [(1, result["cold_stage_one"])],
            "warm stage 1 (disk read)": [(1, result["warm_stage_one"])],
            "cold total": [(1, result["cold_total"])],
            "warm total": [(1, result["warm_total"])],
            "repeat total (result cache)": [(1, result["repeat_total"])],
        },
    )

    # Zero Stage-1 recomputation: loading from disk must be far cheaper than
    # mining — the acceptance threshold is 20%, typical measurements are <5%.
    assert result["warm_stage_one"] < 0.2 * result["cold_stage_one"], result
    # A repeated request never re-runs either stage.
    assert result["repeat_total"] < 0.2 * result["cold_total"], result
    # And the end-to-end warm path is never slower than cold.
    assert result["warm_total"] <= result["cold_total"], result
