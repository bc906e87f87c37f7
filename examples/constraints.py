"""Two different constraints through one engine: the unified query API.

The paper's Section-5 point is that SkinnyMine is one instance of a generic
two-stage recipe for any reducible + continuous constraint.  This example
makes that concrete at the API level:

1. one :class:`repro.api.MiningEngine` over one data graph and one disk
   store;
2. three :class:`repro.api.Query` objects — the skinny constraint, l-long
   path patterns and bounded-diameter patterns — answered through the same
   ``engine.run`` code path;
3. the store afterwards holds entries for every constraint, keyed by
   ``StoreKey.constraint_id`` — with the engine's Stage-1 exactness mode
   (``docs/CORRECTNESS.md``) recorded in every path-indexed parameter, so
   exact and pruned entries never alias;
4. a custom constraint registered on the fly with
   :func:`repro.api.register_constraint` and served like the built-ins.

The printed pattern counts are asserted, so this example doubles as a smoke
test (CI runs it in the docs job).  Run with::

    python examples/constraints.py

The equivalent CLI session::

    repro mine --data demo --store /tmp/repro-idx -l 6 -d 1 --min-support 2
    repro mine --data demo --store /tmp/repro-idx --constraint path --param length=5 --min-support 2
    repro mine --data demo --store /tmp/repro-idx --constraint diam-le --param k=2 --min-support 3
    repro index info --store /tmp/repro-idx
"""

from __future__ import annotations

import tempfile

from repro.api import MiningEngine, ParamSpec, Query, register_constraint
from repro.core.framework import BoundedDiameterDriver
from repro.graph.generators import (
    erdos_renyi_graph,
    inject_pattern,
    random_skinny_pattern,
)
from repro.index import SqlitePatternStore


def main() -> None:
    background = erdos_renyi_graph(150, 1.5, 25, seed=1)
    planted = random_skinny_pattern(6, 1, 9, 25, seed=2)
    inject_pattern(background, planted, copies=3, seed=3)

    store_root = tempfile.mkdtemp(prefix="repro-constraints-")
    engine = MiningEngine(background, store=SqlitePatternStore(store_root))
    print(f"engine stage-1 mode: {engine.stage1_mode.value}")

    # 1. Three constraints, one entry point.
    queries = [
        Query("skinny", {"length": 6, "delta": 1}, min_support=2, top_k=5),
        Query("path", {"length": 5}, min_support=2, top_k=5),
        Query("diam-le", {"k": 2}, min_support=3, top_k=5),
    ]
    counts = {}
    for query in queries:
        result = engine.run(query)
        stats = result.stats
        counts[query.constraint_id] = len(result.patterns)
        print(
            f"{query.constraint_id:<8s} {dict(query.params)}: "
            f"{len(result.patterns)} pattern(s) "
            f"(stage 1 {stats.stage_one_seconds:.4f}s, "
            f"stage 2 {stats.stage_two_seconds:.4f}s)"
        )
        for pattern in result.patterns[:3]:
            print(
                f"    support={pattern.support:<4d} |V|={pattern.num_vertices:<3d}"
                f" |E|={pattern.num_edges}"
            )
    assert counts == {"skinny": 5, "path": 5, "diam-le": 5}, counts

    # 2. Every constraint now owns entries in the same store directory; the
    #    path-indexed ones carry the exactness mode in their parameter.
    print(f"\nstore at {store_root}:")
    entries = engine.store.info()
    for entry in entries:
        print(
            f"  [{entry['constraint_id']}] {entry['parameter']} — "
            f"{entry['num_patterns']} minimal pattern(s)"
        )
    assert {entry["constraint_id"] for entry in entries} == {
        "skinny", "path", "diam-le",
    }
    assert all(
        entry["parameter"].get("stage1_mode") == "exact"
        for entry in entries
        if entry["constraint_id"] in ("skinny", "path")
    ), entries

    # 3. A custom constraint plugs into the same machinery.
    register_constraint(
        "diam-tiny",
        lambda params, caps, include_minimal: BoundedDiameterDriver(
            max_edges=3, include_minimal=include_minimal
        ),
        params=(ParamSpec("k", int, required=True, minimum=1),),
        description="bounded diameter with at most 3 edges",
        deduplicate=True,
        replace=True,
    )
    result = engine.run(Query("diam-tiny", {"k": 2}, min_support=3, top_k=5))
    print(f"\ncustom 'diam-tiny' constraint: {len(result.patterns)} pattern(s)")
    assert len(result.patterns) == 5, len(result.patterns)


if __name__ == "__main__":
    main()
