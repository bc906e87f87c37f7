"""repro — a reproduction of "A Direct Mining Approach To Efficient
Constrained Graph Pattern Discovery" (Zhu, Zhang, Qu; SIGMOD 2013).

The package provides:

* :mod:`repro.graph` — the labeled-graph substrate (data structures,
  isomorphism, canonical forms, generators, I/O);
* :mod:`repro.core` — the paper's contribution: the SkinnyMine miner for
  l-long δ-skinny patterns and the generic direct-mining framework;
* :mod:`repro.api` — the unified constraint-plugin query surface: a
  constraint registry and the :class:`MiningEngine` facade serving generic
  :class:`Query` objects for any registered constraint;
* :mod:`repro.baselines` — reimplementations of the systems the paper
  compares against (gSpan, MoSS, SpiderMine, SUBDUE, SEuS, ORIGAMI);
* :mod:`repro.datasets` — synthetic workloads reproducing the paper's
  evaluation datasets, including DBLP-like and Weibo-like analogues;
* :mod:`repro.analysis` — distribution/recovery metrics and report printers
  used by the benchmark harness.

Quickstart
----------
>>> from repro import SkinnyMine
>>> from repro.graph.generators import erdos_renyi_graph, inject_pattern, random_skinny_pattern
>>> background = erdos_renyi_graph(150, 1.5, 25, seed=1)
>>> pattern = random_skinny_pattern(6, 1, 9, 25, seed=2)
>>> _ = inject_pattern(background, pattern, copies=3, seed=3)
>>> results = SkinnyMine(background, min_support=2).mine(length=6, delta=1)
>>> any(p.diameter_length == 6 for p in results)
True
"""

from repro.api import (
    MiningEngine,
    ParameterError,
    Query,
    QueryError,
    Result,
    UnknownConstraintError,
    available_constraints,
    get_constraint,
    register_constraint,
)
from repro.core import (
    DiamMine,
    MiningContext,
    MiningReport,
    SkinnyConstraintDriver,
    SkinnyMine,
    SkinnyPattern,
    SupportMeasure,
    canonical_diameter,
    is_delta_skinny,
    is_l_long_delta_skinny,
)
from repro.core.database import EdgeDelta, GraphDelta
from repro.graph import LabeledGraph
from repro.index import DiskPatternStore, IndexMaintainer, MemoryPatternStore, PatternStore


def _detect_version() -> str:
    """Single-source the package version.

    The source of truth is ``[project] version`` in ``pyproject.toml``.  A
    source-tree checkout reads it directly (guarded by the project name so an
    unrelated pyproject two directories up is never trusted); installed
    copies fall back to the metadata that was generated from the very same
    field at build time.
    """
    import re
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    if pyproject.is_file():
        text = pyproject.read_text(encoding="utf-8")
        if re.search(r'^name\s*=\s*"repro-skinnymine"', text, flags=re.MULTILINE):
            match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
            if match:
                return match.group(1)
    try:
        from importlib import metadata

        return metadata.version("repro-skinnymine")
    except Exception:  # pragma: no cover - no metadata, no source tree
        return "0.0.0+unknown"


__version__ = _detect_version()

__all__ = [
    "DiamMine",
    "DiskPatternStore",
    "EdgeDelta",
    "GraphDelta",
    "IndexMaintainer",
    "LabeledGraph",
    "MemoryPatternStore",
    "MiningContext",
    "MiningEngine",
    "MiningReport",
    "ParameterError",
    "PatternStore",
    "Query",
    "QueryError",
    "Result",
    "SkinnyConstraintDriver",
    "SkinnyMine",
    "SkinnyPattern",
    "SupportMeasure",
    "UnknownConstraintError",
    "available_constraints",
    "canonical_diameter",
    "get_constraint",
    "is_delta_skinny",
    "is_l_long_delta_skinny",
    "register_constraint",
    "__version__",
]
