"""End-to-end and per-layer benchmark of the two-stage constrained miner.

One workload per process::

    python3 perfbench/run.py --workload skinny-blowup --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload with unmodified code and prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` is the separate
traced run, which wraps the layers' public calls in spans and prints every
per-layer metric.  A layer that does no work on a workload reads 0; so
does, with ``n=0``, one that runs inside the serve-updates server but that
the protocol does not report.  Each
metric is printed with its unit and sample count, then a diagnostics line
(the host yardstick before and after the run and the CPU steal share),
then the result line the last.  Without ``--workload`` every workload runs
in its own process, one after another.

The workloads, why each was chosen and which end-to-end metric each layer
should move are recorded in ``perfbench/design.json``.  The benchmark
reaches the program only through ``src/``; it exits non-zero without a
result line when ``src/`` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("skinny-blowup", "diamle-growth", "large-stage1", "serve-updates")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if completed.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            status = 1
        print(f"{workload}: correct={result and result['correct']} attempted={result and result['attempted']} failed={result and result['failed']}")
    return status


def run_one(args: argparse.Namespace, design: dict) -> int:
    sys.path.insert(0, str(SRC))
    if args.workload == "serve-updates":
        import serving as workload

        shape = workload.SHAPE
    else:
        import mining as workload

        shape = workload.WORKLOADS[args.workload][0]
    # The input is generated in a child process, so neither its time nor
    # its memory lands on this one.
    common.WORK.mkdir(exist_ok=True)
    lg_path = str(common.WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}.lg")
    generated = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), shape, str(args.seed), lg_path],
        stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)), text=True, check=True,
    )
    meta = json.loads(generated.stdout)
    seconds = args.seconds if args.seconds is not None else design["run_seconds"]

    host = common.HostDiagnostic()
    try:
        outcome = workload.run(args.workload, lg_path, args.seed, meta, seconds, bool(args.trace))
    finally:
        os.remove(lg_path)
    diagnostics = host.finish()

    extras = {}
    if args.trace:
        values = outcome["per_layer"]
        wanted = design["per_layer"]
        trace_path = common.WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as handle:
            for record in outcome["trace_records"]:
                handle.write(json.dumps(record) + "\n")
        diagnostics["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        values = outcome["end_to_end"]
        wanted = design["end_to_end"]
        # Serving-only figures: printed, not in the result line, because
        # the mining workloads have no deltas and too few queries for a p99.
        extras = {name: (value, "ms", n) for name, (value, n) in outcome.get("extra", {}).items()}
    # A metric with no samples on this workload reports 0 (printed n=0).
    metrics = {}
    for spec in wanted:
        value, samples = values.get(spec["name"], (0.0, 0))
        metrics[spec["name"]] = (float(value), spec["unit"], samples)
    common.report(
        args.workload, metrics, extras, diagnostics,
        outcome["failed"] == 0, outcome["attempted"], outcome["failed"],
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources under {SRC}", file=sys.stderr)
        return 2
    design = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload is None:
        return run_all(args)
    return run_one(args, design)


if __name__ == "__main__":
    sys.exit(main())
