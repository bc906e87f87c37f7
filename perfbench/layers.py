"""Traced-run instrumentation: the benchmark's own spans around layer calls.

Only the traced run (``--trace 1``) installs these wrappers, and only around
its traced queries; every timed query runs unmodified code.  The engine's
own ``query``/``store.*``/``stage1.*``/``stage2.*`` spans come from the
:class:`repro.obs.Tracer` given to each ``MiningEngine``; the wrappers below
open spans on the same tracer, so they nest into one tree per query:

* a :class:`TracedStore` proxy passed as ``store=`` (``index.get``/``index.put``);
* ``CSRGraph.from_labeled`` (``csr.freeze``);
* ``canonical_key`` and ``diameter_at_most`` at the module attributes the
  ``diam-le`` driver reads (``canonical.key``, ``paths.diameter_at_most``),
  plus ``BoundedDiameterDriver.grow`` (``diamle.grow``), whose per-call
  duplicate registry the key wrapper mirrors to count duplicates.

A span's self time is its duration minus its children's.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional

from repro.core import framework
from repro.graph import paths
from repro.graph.csr import CSRGraph
from repro.index.store import MemoryPatternStore, PatternStore


class TracedStore(PatternStore):
    """A ``PatternStore`` proxy that spans and counts the engine's gets and puts."""

    def __init__(self, tracer, counts: Counter) -> None:
        self._inner = MemoryPatternStore()
        self._tracer = tracer
        self._counts = counts

    def get(self, key):
        with self._tracer.span("index.get"):
            entry = self._inner.get(key)
        self._counts["index.gets"] += 1
        self._counts["index.hits"] += entry is not None
        return entry

    def put(self, entry) -> None:
        with self._tracer.span("index.put"):
            self._inner.put(entry)
        self._counts["index.puts"] += 1

    def delete(self, key) -> bool:
        return self._inner.delete(key)

    def keys(self):
        return self._inner.keys()


class Probes:
    """Installs and removes the layer wrappers for one traced query."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._saved: List[tuple] = []
        self._grow: Optional[dict] = None

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self, tracer) -> None:
        counts = self.counts
        canonical_key = framework.canonical_key
        diameter_at_most = paths.diameter_at_most
        from_labeled = CSRGraph.from_labeled
        grow = framework.BoundedDiameterDriver.grow

        def traced_canonical_key(graph):
            with tracer.span("canonical.key"):
                key = canonical_key(graph)
            state = self._grow
            if state is not None:
                if state["first"]:
                    state["first"] = False
                else:
                    counts["diamle.extensions"] += 1
                    counts["diamle.duplicates"] += key in state["seen"]
                state["seen"].add(key)
            return key

        def traced_diameter_at_most(graph, bound):
            with tracer.span("paths.diameter_at_most"):
                return diameter_at_most(graph, bound)

        def traced_from_labeled(cls, *args, **kwargs):
            with tracer.span("csr.freeze"):
                view = from_labeled(*args, **kwargs)
            counts["csr.bytes"] += view.memory_bytes()
            return view

        def traced_grow(driver, context, minimal, parameter):
            self._grow = {"first": True, "seen": set()}
            try:
                with tracer.span("diamle.grow"):
                    grown = grow(driver, context, minimal, parameter)
            finally:
                self._grow = None
            counts["diamle.emitted"] += len(grown)
            return grown

        self._patch(framework, "canonical_key", traced_canonical_key)
        self._patch(paths, "diameter_at_most", traced_diameter_at_most)
        self._patch(CSRGraph, "from_labeled", classmethod(traced_from_labeled))
        self._patch(framework.BoundedDiameterDriver, "grow", traced_grow)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def span_totals(trees: Iterable[dict]) -> Dict[str, List[float]]:
    """Span name -> ``[count, total seconds, self seconds]`` over span trees."""
    totals: Dict[str, List[float]] = {}

    def visit(span: dict) -> None:
        children = span["children"]
        row = totals.setdefault(span["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span["seconds"]
        row[2] += span["seconds"] - sum(child["seconds"] for child in children)
        for child in children:
            visit(child)

    for tree in trees:
        visit(tree)
    return totals


def flatten(tree: dict, query_id: int) -> Iterable[dict]:
    """One record per span, tagged with the query it belongs to."""
    stack = [tree]
    while stack:
        span = stack.pop()
        stack.extend(span["children"])
        yield {
            "query": query_id,
            "span": span["span_id"],
            "parent": span["parent_id"],
            "name": span["name"],
            "seconds": span["seconds"],
            "self_seconds": span["seconds"] - sum(c["seconds"] for c in span["children"]),
        }
