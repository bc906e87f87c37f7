"""Persistent index + mining engine: build once, serve many, update in place.

This example exercises the serving path end to end:

1. build a synthetic data graph with injected skinny patterns;
2. precompute Stage 1 for several diameter lengths into a **disk store**
   (parallel across lengths);
3. answer a batch of :class:`Query` objects — the second pass is served
   entirely from the warm store and result cache;
4. edit the graph through an edge delta and watch the index get **repaired**,
   not rebuilt.

Run with::

    python examples/index_service.py

The equivalent CLI session::

    repro index build --data demo --store /tmp/repro-index --lengths 4-6 --min-support 2
    repro mine --data demo --store /tmp/repro-index -l 6 -d 1 --min-support 2 --top-k 5
"""

from __future__ import annotations

import tempfile

from repro import EdgeDelta, MiningEngine, Query
from repro.graph.generators import (
    erdos_renyi_graph,
    inject_pattern,
    random_skinny_pattern,
)
from repro.index import SqlitePatternStore


def skinny(length: int, top_k=None) -> Query:
    return Query("skinny", {"length": length, "delta": 1}, min_support=2, top_k=top_k)


def main() -> None:
    background = erdos_renyi_graph(150, 1.5, 25, seed=1)
    planted = random_skinny_pattern(6, 1, 9, 25, seed=2)
    inject_pattern(background, planted, copies=3, seed=3)

    with tempfile.TemporaryDirectory(prefix="repro-index-") as store_root:
        engine = MiningEngine(background, store=SqlitePatternStore(store_root))

        # 1. Offline: Stage 1 for several lengths, in parallel, persisted to disk.
        lengths = [4, 5, 6]
        summaries = engine.precompute_queries(
            [skinny(length) for length in lengths], processes=2
        )
        print(f"index store at {store_root}")
        for length, summary in zip(lengths, summaries):
            print(f"  l={length}: {summary['num_patterns']} minimal pattern(s)")

        # 2. Online: a batch of queries; repeats hit the result cache.
        batch = [skinny(6, top_k=5), skinny(5), skinny(6, top_k=5)]
        for result in engine.run_batch(batch):
            stats = result.stats
            source = (
                "result cache"
                if stats.result_cache_hit
                else ("warm index" if stats.served_from_store else "cold")
            )
            params = dict(result.query.params)
            print(
                f"l={params['length']} δ={params['delta']}: "
                f"{len(result.patterns)} pattern(s) in {stats.total_seconds:.4f}s [{source}]"
            )
            assert source != "cold", "a precomputed query recomputed Stage 1"
        assert engine.stats_log[-1].result_cache_hit, "the repeated query ran again"

        # 3. The data changes — an edge on a frequent 6-path disappears:
        #    repair the index instead of rebuilding it.
        entry = engine.store.get(engine.stage_one_key(skinny(6)))
        _, path = entry.patterns[0].embeddings[0]
        report = engine.apply_delta([EdgeDelta.remove_edge(path[0], path[1])])
        print(
            f"delta applied: {report.entries_repaired} entr(ies) repaired, "
            f"{report.entries_migrated} migrated untouched, "
            f"{report.patterns_dropped} pattern(s) dropped"
        )
        assert report.entries_repaired >= 1, report
        result = engine.run(skinny(6, top_k=5))
        print(
            f"post-delta l=6 answer: {len(result.patterns)} pattern(s) "
            f"[{'warm index' if result.stats.served_from_store else 'cold'}]"
        )
        assert result.stats.served_from_store, "the repaired entry was not served"


if __name__ == "__main__":
    main()
