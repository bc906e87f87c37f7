"""Shared helpers: sample statistics, the host yardstick, peak RSS and output."""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Generated inputs and trace files; listed in the root .gitignore.
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 0


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tail_percentile(values: Iterable[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` unless ten or more samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def yardstick_seconds() -> float:
    """Wall time of a frozen stdlib-only kernel: BFS, dict and sort work.

    It imports nothing from ``repro``, so a change to the program cannot move
    it; a slower reading means a slower host, not a slower program.
    """
    started = time.perf_counter()
    rng = random.Random(20261016)
    size = 20_000
    adjacency: List[List[int]] = [[] for _ in range(size)]
    for _ in range(3 * size):
        u, v = rng.randrange(size), rng.randrange(size)
        adjacency[u].append(v)
        adjacency[v].append(u)
    reached = 0
    for source in (0, 1, 2):
        depth = {source: 0}
        frontier = deque([source])
        while frontier:
            vertex = frontier.popleft()
            for neighbor in adjacency[vertex]:
                if neighbor not in depth:
                    depth[neighbor] = depth[vertex] + 1
                    frontier.append(neighbor)
        reached += len(depth)
    histogram: Dict[int, int] = {}
    for neighbors in adjacency:
        histogram[len(neighbors)] = histogram.get(len(neighbors), 0) + 1
    ordered = sorted((len(neighbors), -index) for index, neighbors in enumerate(adjacency))
    if reached == 0 or not histogram or not ordered:
        raise RuntimeError("yardstick kernel did no work")
    return time.perf_counter() - started


def cpu_counters() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` jiffies from ``/proc/stat``, or ``None`` off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def yardstick_in_child() -> float:
    """The yardstick timed in its own process, so its memory is not the run's."""
    completed = subprocess.run(
        [sys.executable, __file__], stdout=subprocess.PIPE, text=True, check=True
    )
    return float(completed.stdout)


class HostDiagnostic:
    """Yardstick timings and the CPU steal share around one run.

    Recorded beside the run's metrics so host drift is visible; never used
    as a metric or to normalise one.
    """

    def __init__(self) -> None:
        self.before_s = yardstick_in_child()
        self._counters = cpu_counters()

    def finish(self) -> Dict[str, object]:
        after_s = yardstick_in_child()
        counters = cpu_counters()
        steal = None
        if self._counters is not None and counters is not None:
            steal = ratio(counters[0] - self._counters[0], counters[1] - self._counters[1])
        return {"yardstick_before_s": self.before_s, "yardstick_after_s": after_s, "steal_share": steal}


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_forked_child(function, *args):
    """``function(*args)`` computed in a forked child and returned as JSON.

    The child shares the parent's memory copy-on-write, so it can read a
    large result without pickling it, and whatever it allocates never
    counts toward the parent's peak RSS.  Only call it while the process
    runs no other threads.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_end)
            try:
                payload = {"value": function(*args)}
            except Exception:  # report it to the parent, which counts it
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_end, "w", encoding="utf-8") as out:
                json.dump(payload, out)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as handle:
        text = handle.read()
    os.waitpid(pid, 0)
    payload = json.loads(text) if text else {"error": "the checking child wrote nothing"}
    if "error" in payload:
        raise RuntimeError(payload["error"])
    return payload["value"]


def report(
    workload: str,
    metrics: Dict[str, Tuple[float, str, int]],
    extras: Dict[str, Tuple[float, str, int]],
    diagnostics: Dict[str, object],
    correct: bool,
    attempted: int,
    failed: int,
) -> None:
    """Print each metric with unit and sample count, then the result line last.

    ``extras`` are printed like metrics but left out of the result line.
    """
    for name, (value, unit, samples) in {**metrics, **extras}.items():
        print(f"{workload:14s} {name:38s} {value:14.4f} {unit:6s} n={samples}")
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _samples) in metrics.items()
                },
            }
        )
    )


if __name__ == "__main__":
    print(yardstick_seconds())
