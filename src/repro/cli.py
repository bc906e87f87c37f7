"""``repro`` — the reproduction's command-line interface.

Subcommands mirror the two-stage architecture, now served through the
unified constraint-plugin API (:mod:`repro.api`):

* ``repro constraints``   — list the registered constraints and their schemas
* ``repro index build``   — run Stage 1 offline and persist it to a store
* ``repro index info``    — inspect a store (entries, pattern counts, build times)
* ``repro index query``   — indexed corpus queries over a store's patterns
* ``repro mine``          — answer one query (warm store = no Stage 1)
* ``repro serve-batch``   — answer a JSON file of Query envelopes
* ``repro serve``         — run the long-lived concurrent mining service (TCP)
* ``repro stats``         — render a metrics snapshot written by ``--emit-metrics``

``--store DIR`` names a SQLite pattern store (``DIR/patterns.sqlite``, created
on first use; see ``docs/STORE.md``).

Telemetry (see ``docs/OBSERVABILITY.md``): ``mine`` and ``serve-batch``
accept ``--trace-out PATH`` (append per-query span trees as JSONL) and
``--emit-metrics PATH`` (write a metrics-registry snapshot as JSON);
``mine --stats`` prints a human-readable per-query statistics table.

Every mining command takes ``--constraint <id>`` (default ``skinny``) and
constraint parameters as repeatable ``--param name=value`` flags; ``-l`` and
``-d`` remain as conveniences for the ``length``/``delta`` parameters of the
built-in constraints::

    repro mine --data demo --constraint skinny  -l 6 -d 1 --min-support 2
    repro mine --data demo --constraint path    --param length=4 --min-support 2
    repro mine --data demo --constraint diam-le --param k=2 --min-support 2

Datasets are given with ``--data`` as either a path to an LG file (see
:mod:`repro.graph.io`) or a generator spec:

* ``synthetic:GID`` (Table-1 setting, GIDs 1-5), optionally
  ``synthetic:GID:scale:seed`` — e.g. ``synthetic:1:0.3:7``;
* ``demo`` — the small quickstart graph used in the examples.

Exit codes: 0 on success, 2 on bad usage (argparse), 1 on runtime errors —
including typed query errors (unknown constraint, missing/extra/mistyped
parameters), which are reported on stderr with the offending field named.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.graph.labeled_graph import LabeledGraph

PROG = "repro"


# --------------------------------------------------------------------- #
# dataset loading
# --------------------------------------------------------------------- #
def load_dataset(spec: str) -> List[LabeledGraph]:
    """Resolve a ``--data`` spec to a list of graphs."""
    if spec == "demo":
        from repro.graph.generators import (
            erdos_renyi_graph,
            inject_pattern,
            random_skinny_pattern,
        )

        background = erdos_renyi_graph(150, 1.5, 25, seed=1)
        pattern = random_skinny_pattern(6, 1, 9, 25, seed=2)
        inject_pattern(background, pattern, copies=3, seed=3)
        return [background]
    if spec.startswith("synthetic:"):
        from repro.datasets.synthetic import build_gid_dataset

        parts = spec.split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise ValueError(
                f"bad synthetic spec {spec!r}; expected synthetic:GID[:scale[:seed]]"
            )
        gid = int(parts[1])
        scale = float(parts[2]) if len(parts) > 2 else 0.3
        seed = int(parts[3]) if len(parts) > 3 else 7
        return [build_gid_dataset(gid, seed=seed, scale=scale).graph]
    path = Path(spec)
    if path.exists():
        from repro.graph.io import read_lg

        graphs = read_lg(path)
        if not graphs:
            raise ValueError(f"{spec}: LG file contains no graphs")
        return graphs
    raise ValueError(
        f"--data {spec!r} is neither an existing LG file, 'demo', nor a synthetic: spec"
    )


def _parse_lengths(text: str) -> List[int]:
    lengths: List[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk[1:]:
            low, high = chunk.split("-", 1)
            lengths.extend(range(int(low), int(high) + 1))
        else:
            lengths.append(int(chunk))
    if not lengths:
        raise ValueError(f"no lengths in {text!r}")
    return sorted(set(lengths))


def _collect_params(args: argparse.Namespace) -> Dict[str, object]:
    """Constraint parameters from ``--param name=value`` plus ``-l``/``-d``.

    Values are parsed as JSON when possible (so ``k=2`` is the integer 2)
    and kept as strings otherwise; the Query layer validates types.
    """
    params: Dict[str, object] = {}
    for item in args.param or []:
        name, separator, raw = item.partition("=")
        if not separator or not name:
            raise ValueError(f"--param expects name=value, got {item!r}")
        try:
            params[name] = json.loads(raw)
        except json.JSONDecodeError:
            params[name] = raw
    if getattr(args, "length", None) is not None:
        params.setdefault("length", args.length)
    if getattr(args, "delta", None) is not None:
        params.setdefault("delta", args.delta)
    return params


def _format_params(params: Dict[str, object]) -> str:
    return " ".join(f"{name}={value}" for name, value in sorted(params.items()))


# --------------------------------------------------------------------- #
# store plumbing
# --------------------------------------------------------------------- #
def _open_store(args: argparse.Namespace, metrics=None):
    """Open (creating if needed) the store named by ``--store``."""
    from repro.index import SqlitePatternStore

    return SqlitePatternStore(args.store, metrics=metrics)


# --------------------------------------------------------------------- #
# telemetry plumbing
# --------------------------------------------------------------------- #
def _telemetry(args: argparse.Namespace):
    """(tracer, registry) for a mining command, or (None, None) when unused.

    ``--trace-out`` switches on an enabled tracer; ``--emit-metrics`` gets a
    *fresh* registry so the written snapshot covers exactly this invocation
    (the process-wide default registry is shared and unbounded).
    """
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer() if getattr(args, "trace_out", None) else None
    registry = MetricsRegistry() if getattr(args, "emit_metrics", None) else None
    return tracer, registry


def _export_telemetry(args: argparse.Namespace, engine, event: str, **payload) -> None:
    """Write the trace JSONL and/or metrics snapshot a command asked for."""
    if getattr(args, "trace_out", None):
        from repro.obs import TraceJsonlWriter

        with TraceJsonlWriter(args.trace_out) as writer:
            writer.write_event(event, **payload)
            for root in engine.tracer.drain():
                writer.write_trace(root)
    if getattr(args, "emit_metrics", None):
        snapshot = engine.metrics.snapshot()
        Path(args.emit_metrics).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _print_stats_table(stats) -> None:
    """Human-readable per-query statistics (the ``mine --stats`` table)."""
    rows: List[tuple] = [
        ("stage 1 seconds", f"{stats.stage_one_seconds:.4f}"),
        ("stage 2 seconds", f"{stats.stage_two_seconds:.4f}"),
        ("overhead seconds", f"{stats.overhead_seconds:.4f}"),
        ("total seconds", f"{stats.total_seconds:.4f}"),
        ("minimal patterns", str(stats.num_minimal_patterns)),
        ("patterns", str(stats.num_patterns)),
        ("served from store", "yes" if stats.served_from_store else "no"),
        ("result cache hit", "yes" if stats.result_cache_hit else "no"),
    ]
    for name, value in (stats.level_statistics or {}).items():
        label = name.replace("_", " ")
        if isinstance(value, float):
            rows.append((label, f"{value:.4f}"))
        else:
            rows.append((label, str(value)))
    width = max(len(name) for name, _ in rows)
    print("query statistics:")
    for name, value in rows:
        print(f"  {name:<{width}}  {value}")


# --------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------- #
def _cmd_constraints(args: argparse.Namespace) -> int:
    from repro.api import constraint_specs

    specs = constraint_specs()
    if args.json:
        print(json.dumps([spec.describe() for spec in specs], indent=2, sort_keys=True))
        return 0
    for spec in specs:
        print(f"{spec.constraint_id}: {spec.description}")
        for param in spec.params:
            default = "" if param.required else f" (default {param.default})"
            bound = f", >= {param.minimum}" if param.minimum is not None else ""
            kind = "required" if param.required else "optional"
            print(
                f"  --param {param.name}=<{param.type.__name__}>"
                f"  [{kind}{bound}]{default}  {param.doc}"
            )
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.api import MiningEngine, Query, get_constraint

    spec = get_constraint(args.constraint)
    graphs = load_dataset(args.data)
    store = _open_store(args)
    length_keyed = any(
        param.name == "length" and param.stage_one for param in spec.params
    )

    payload: Dict[str, object] = {
        "store": str(store.root),
        "constraint": spec.constraint_id,
        "min_support": args.min_support,
        "support_measure": args.support_measure,
    }
    if length_keyed:
        if not args.lengths:
            raise ValueError(
                f"constraint {spec.constraint_id!r} indexes Stage 1 by length; "
                "pass --lengths"
            )
        lengths = _parse_lengths(args.lengths)
        engine = MiningEngine(graphs, store=store)
        # Required growth-only params (e.g. skinny's δ, which Stage 1
        # ignores) may come from --param; absent ones default to their
        # minimum so the query validates.  Stage-one params are never
        # fabricated — a made-up value would silently key the store — so a
        # missing one surfaces as the usual MissingParameterError.
        base = _collect_params(args)
        for param in spec.params:
            if (
                param.required
                and not param.stage_one
                and param.name not in base
            ):
                base[param.name] = param.minimum if param.minimum is not None else 0
        queries = [
            Query(
                constraint_id=spec.constraint_id,
                params={**base, "length": length},
                min_support=args.min_support,
                support_measure=args.support_measure,
            )
            for length in lengths
        ]
        summaries = engine.precompute_queries(queries, processes=args.processes)
        counts = {
            length: summary["num_patterns"]
            for length, summary in zip(lengths, summaries)
        }
        fingerprint = engine.fingerprint
        payload["fingerprint"] = fingerprint
        payload["lengths"] = {str(length): counts[length] for length in sorted(counts)}
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"index store : {store.root}")
            print(f"constraint  : {spec.constraint_id}")
            print(f"fingerprint : {fingerprint[:16]}…")
            for length in sorted(counts):
                print(f"  l={length:<3d} -> {counts[length]} minimal pattern(s)")
        return 0

    engine = MiningEngine(graphs, store=store)
    params = _collect_params(args)
    query = Query(
        constraint_id=spec.constraint_id,
        params=params,
        min_support=args.min_support,
        support_measure=args.support_measure,
    )
    (summary,) = engine.precompute_queries([query])
    payload["fingerprint"] = engine.fingerprint
    payload["num_patterns"] = summary["num_patterns"]
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"index store : {store.root}")
        print(f"constraint  : {spec.constraint_id}")
        print(f"fingerprint : {engine.fingerprint[:16]}…")
        print(f"  {summary['num_patterns']} minimal pattern(s)")
    return 0


def _cmd_index_info(args: argparse.Namespace) -> int:
    store = _open_store(args)
    entries = store.info()
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"{store.root}: empty index store")
        return 0
    print(f"{store.root}: {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}")
    for entry in entries:
        print(
            f"  [{entry['constraint_id']}] {json.dumps(entry['parameter'], sort_keys=True)}"
            f" — {entry['num_patterns']} pattern(s),"
            f" built in {entry['build_seconds']:.3f}s"
            f" (data {entry['fingerprint'][:12]}…)"
        )
    return 0


def _cmd_index_query(args: argparse.Namespace) -> int:
    store = _open_store(args)
    filters: Dict[str, object] = {}
    if args.labels_contain:
        filters["labels_contain"] = tuple(args.labels_contain)
    for name in ("min_support", "min_size", "max_size", "kind", "fingerprint", "limit"):
        value = getattr(args, name)
        if value is not None:
            filters[name] = value
    if args.constraint is not None:
        filters["constraint_id"] = args.constraint
    if args.order_by is not None:
        filters["order_by"] = args.order_by
    matches = store.query(**filters)
    if args.json:
        rows = [match.to_dict(include_pattern=args.include_patterns) for match in matches]
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    backend = type(store).__name__
    print(f"{store.root}: {len(matches)} match(es) [{backend}]")
    for match in matches:
        support = "-" if match.support is None else str(match.support)
        print(
            f"  [{match.key.constraint_id}] #{match.position}"
            f" kind={match.kind} support={support} |E|={match.size}"
            f" |V|={match.num_vertices} labels={','.join(match.labels)}"
            f" (data {match.key.fingerprint[:12]}…)"
        )
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    from repro.api import MiningEngine, Query

    graphs = load_dataset(args.data)
    tracer, registry = _telemetry(args)
    store = _open_store(args, metrics=registry) if args.store else None
    engine = MiningEngine(graphs, store=store, tracer=tracer, metrics=registry)
    query = Query(
        constraint_id=args.constraint,
        params=_collect_params(args),
        min_support=args.min_support,
        top_k=args.top_k,
        support_measure=args.support_measure,
    )
    result = engine.run(query)
    _export_telemetry(
        args,
        engine,
        "mine",
        constraint=query.constraint_id,
        params=dict(query.params),
        min_support=query.min_support,
    )
    if args.json:
        print(
            json.dumps(
                result.to_dict(include_patterns=True), indent=2, sort_keys=True
            )
        )
        return 0
    stats = result.stats
    provenance = "warm index" if stats.served_from_store else "cold (Stage 1 computed)"
    print(
        f"{len(result.patterns)} pattern(s) for constraint={query.constraint_id} "
        f"{_format_params(dict(query.params))} σ={query.min_support} [{provenance}]"
    )
    print(
        f"stage 1: {stats.stage_one_seconds:.4f}s   stage 2: {stats.stage_two_seconds:.4f}s"
        f"   total: {stats.total_seconds:.4f}s"
    )
    for rank, pattern in enumerate(result.patterns, start=1):
        print(
            f"  #{rank:<3d} support={pattern.support:<4d} |V|={pattern.num_vertices:<3d}"
            f" |E|={pattern.num_edges:<3d} diameter={'-'.join(pattern.diameter_labels())}"
        )
    if args.stats:
        _print_stats_table(stats)
    return 0


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    from repro.api import MiningEngine, Query

    graphs = load_dataset(args.data)
    tracer, registry = _telemetry(args)
    store = _open_store(args, metrics=registry) if args.store else None
    engine = MiningEngine(graphs, store=store, tracer=tracer, metrics=registry)
    payload = json.loads(Path(args.requests).read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise ValueError(f"{args.requests}: expected a JSON list of request objects")
    queries = [Query.from_dict(item) for item in payload]
    responses = engine.run_batch(queries)
    _export_telemetry(args, engine, "serve-batch", size=len(queries))
    results = [
        response.to_dict(include_patterns=args.include_patterns)
        for response in responses
    ]
    text = json.dumps(results, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {len(results)} response(s) to {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.server import MiningServer

    graphs = load_dataset(args.data)
    store = _open_store(args) if args.store else None
    server = MiningServer(
        graphs,
        store=store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        per_constraint=args.per_constraint,
        default_budget_ms=args.budget_ms,
        cache_size=args.cache_size,
        cache_ttl_seconds=args.cache_ttl,
    )

    async def _run() -> None:
        await server.start()
        # One NDJSON event on stdout so drivers can scrape the bound port.
        print(
            json.dumps(
                {
                    "event": "listening",
                    "host": args.host,
                    "port": server.port,
                    "pid": os.getpid(),
                    "generation": server.generation,
                    "workers": args.workers,
                },
                sort_keys=True,
            ),
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _metric_series_name(metric) -> str:
    if not metric.labels:
        return metric.name
    body = ",".join(f'{key}="{value}"' for key, value in metric.labels)
    return "%s{%s}" % (metric.name, body)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry

    payload = json.loads(Path(args.metrics).read_text(encoding="utf-8"))
    registry = MetricsRegistry.from_snapshot(payload)
    if args.format == "json":
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
        return 0
    if args.format == "prom":
        sys.stdout.write(registry.render_text())
        return 0
    sections = {"counter": [], "gauge": [], "histogram": []}
    for kind, metric in registry.iter_metrics():
        if kind == "histogram":
            summary = metric.summary()
            sections[kind].append(
                (
                    _metric_series_name(metric),
                    "count=%d sum=%.4fs p50=%.4fs p95=%.4fs p99=%.4fs"
                    % (
                        summary["count"],
                        summary["sum"],
                        summary["p50"],
                        summary["p95"],
                        summary["p99"],
                    ),
                )
            )
        else:
            value = metric.value
            rendered = str(int(value)) if value == int(value) else f"{value:.4f}"
            sections[kind].append((_metric_series_name(metric), rendered))
    if not any(sections.values()):
        print(f"{args.metrics}: no metrics recorded")
        return 0
    for kind, title in (
        ("counter", "counters"),
        ("gauge", "gauges"),
        ("histogram", "histograms"),
    ):
        rows = sections[kind]
        if not rows:
            continue
        print(f"{title}:")
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            print(f"  {name:<{width}}  {value}")
    return 0


# --------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------- #
def _add_data_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--data",
        required=True,
        help="LG file path, 'demo', or synthetic:GID[:scale[:seed]]",
    )


def _add_measure_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--support-measure",
        default="embeddings",
        choices=["embeddings", "transactions", "mni"],
        help="support measure (default: embeddings)",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="append per-query span traces to this JSONL file",
    )
    parser.add_argument(
        "--emit-metrics",
        default=None,
        metavar="PATH",
        help="write a metrics-registry snapshot (JSON) to this file",
    )


def _add_constraint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--constraint",
        default="skinny",
        help="registered constraint id (see `repro constraints`; default: skinny)",
    )
    parser.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="constraint parameter (repeatable), e.g. --param k=2",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "SkinnyMine reproduction: persistent pattern index + constraint-"
            "plugin mining engine"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"{PROG} {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    constraints = subparsers.add_parser(
        "constraints", help="list registered constraints and their parameters"
    )
    constraints.add_argument("--json", action="store_true", help="machine-readable output")
    constraints.set_defaults(handler=_cmd_constraints)

    index_parser = subparsers.add_parser("index", help="manage the Stage-1 index store")
    index_sub = index_parser.add_subparsers(dest="index_command", required=True)

    build = index_sub.add_parser("build", help="precompute minimal patterns into a store")
    _add_data_argument(build)
    build.add_argument("--store", required=True, help="index store directory")
    _add_constraint_arguments(build)
    build.add_argument(
        "--lengths",
        default=None,
        help="comma list / ranges, e.g. '4,6' or '3-6' (length-indexed constraints)",
    )
    build.add_argument("--min-support", type=int, default=2)
    _add_measure_argument(build)
    build.add_argument(
        "--processes", type=int, default=None, help="parallel Stage-1 workers"
    )
    build.add_argument("--json", action="store_true", help="machine-readable output")
    build.set_defaults(handler=_cmd_index_build)

    info = index_sub.add_parser("info", help="inspect an index store")
    info.add_argument("--store", required=True, help="index store directory")
    info.add_argument("--json", action="store_true", help="machine-readable output")
    info.set_defaults(handler=_cmd_index_info)

    query = index_sub.add_parser(
        "query", help="indexed corpus query over a store's patterns"
    )
    query.add_argument("--store", required=True, help="index store directory")
    query.add_argument(
        "--labels-contain",
        action="append",
        metavar="LABEL",
        help="keep patterns whose label set contains LABEL (repeatable = AND)",
    )
    query.add_argument("--min-support", type=int, default=None)
    query.add_argument("--min-size", type=int, default=None, help="minimum edge count")
    query.add_argument("--max-size", type=int, default=None, help="maximum edge count")
    query.add_argument(
        "--kind", default=None, choices=["path", "skinny", "graph"],
        help="restrict to one record kind",
    )
    query.add_argument(
        "--constraint", default=None, help="restrict to one constraint id"
    )
    query.add_argument(
        "--fingerprint", default=None, help="restrict to one dataset fingerprint"
    )
    query.add_argument(
        "--order-by",
        default=None,
        choices=["support", "-support", "size", "-size", "num_vertices", "-num_vertices"],
        help="sort field ('-' prefix = descending)",
    )
    query.add_argument("--limit", type=int, default=None)
    query.add_argument("--json", action="store_true", help="machine-readable output")
    query.add_argument(
        "--include-patterns",
        action="store_true",
        help="include encoded pattern bodies in --json output",
    )
    query.set_defaults(handler=_cmd_index_query)

    mine = subparsers.add_parser("mine", help="answer one mining query")
    _add_data_argument(mine)
    mine.add_argument("--store", default=None, help="index store directory (optional)")
    _add_constraint_arguments(mine)
    mine.add_argument(
        "--length", "-l", type=int, default=None,
        help="shorthand for --param length=N",
    )
    mine.add_argument(
        "--delta", "-d", type=int, default=None,
        help="shorthand for --param delta=N",
    )
    mine.add_argument("--min-support", type=int, default=2)
    mine.add_argument("--top-k", type=int, default=None)
    _add_measure_argument(mine)
    mine.add_argument("--json", action="store_true", help="machine-readable output")
    mine.add_argument(
        "--stats",
        action="store_true",
        help="print a per-query statistics summary table",
    )
    _add_telemetry_arguments(mine)
    mine.set_defaults(handler=_cmd_mine)

    batch = subparsers.add_parser("serve-batch", help="answer a JSON batch of queries")
    _add_data_argument(batch)
    batch.add_argument("--store", default=None, help="index store directory (optional)")
    batch.add_argument(
        "--requests",
        required=True,
        help="JSON file: list of Query envelopes",
    )
    batch.add_argument(
        "--output", default=None, help="write responses to this file instead of stdout"
    )
    batch.add_argument(
        "--include-patterns",
        action="store_true",
        help="include full pattern graphs in the responses",
    )
    _add_telemetry_arguments(batch)
    batch.set_defaults(handler=_cmd_serve_batch)

    serve = subparsers.add_parser(
        "serve", help="run the long-lived NDJSON-over-TCP mining service"
    )
    _add_data_argument(serve)
    serve.add_argument("--store", default=None, help="index store directory (optional)")
    serve.add_argument("--host", default="127.0.0.1", help="listen address")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = pick a free one; see the 'listening' event)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="worker threads (= in-flight limit)"
    )
    serve.add_argument(
        "--max-queue", type=int, default=256, help="admission queue bound"
    )
    serve.add_argument(
        "--per-constraint",
        type=int,
        default=None,
        help="per-constraint in-flight limit (default: none)",
    )
    serve.add_argument(
        "--budget-ms",
        type=int,
        default=None,
        help="default per-query deadline in ms (default: none)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024, help="result-cache entry bound"
    )
    serve.add_argument(
        "--cache-ttl", type=float, default=30.0, help="result-cache TTL in seconds"
    )
    serve.set_defaults(handler=_cmd_serve)

    stats = subparsers.add_parser(
        "stats", help="render a metrics snapshot written by --emit-metrics"
    )
    stats.add_argument("metrics", help="metrics snapshot JSON file")
    stats.add_argument(
        "--format",
        default="table",
        choices=["table", "prom", "json"],
        help="output format (default: table; 'prom' is Prometheus text exposition)",
    )
    stats.set_defaults(handler=_cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (ValueError, OSError, KeyError) as error:
        print(f"{PROG}: error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
