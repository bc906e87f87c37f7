"""The diam-le answer against the per-seed growth it replaced.

``BoundedDiameterDriver`` shares one duplicate registry across the ``grow``
calls of a query and keys tree extensions from carried encodings before the
join.  The reference below is the earlier algorithm, kept here as the
oracle: a ``seen`` set per seed edge, the batch ``canonical_key`` for every
extension, the ``diameter_at_most`` gates, then a pass that drops
duplicates across seeds (keeping the first occurrence, or a later one with
larger support) before the engine's ranking.  The engine must return the
same answer element by element: vertex numbering, edges, diameter, support,
embeddings and order.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Tuple

import pytest

from repro.api import MiningEngine, Query
from repro.cli import load_dataset
from repro.core import framework
from repro.core.database import MiningContext, SupportMeasure
from repro.core.diameter import canonical_diameter
from repro.core.framework import BoundedDiameterDriver
from repro.core.patterns import SkinnyPattern
from repro.graph.canonical import canonical_key
from repro.graph.embeddings import EmbeddingTable
from repro.graph.generators import erdos_renyi_graph, random_transaction_database
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.paths import diameter_at_most


# --------------------------------------------------------------------- #
# the reference: per-seed growth plus a cross-seed dedupe pass
# --------------------------------------------------------------------- #
def reference_extensions(context, graph, table):
    """Every one-edge extension with its joined table, built before any key."""
    pattern_edges = {frozenset(edge.endpoints()) for edge in graph.edges()}
    columns = table.columns
    new_vertex_ops: Dict[Tuple, List[Tuple[int, int]]] = {}
    new_vertex_labels: Dict[Tuple, Tuple[object, object]] = {}
    close_edge_ops: Dict[Tuple, List[int]] = {}
    close_edge_labels: Dict[Tuple, object] = {}
    for row_index, (graph_index, row) in enumerate(zip(table.graph_ids, table.rows)):
        data = context.frozen_graph(graph_index)
        mapped_get = dict(zip(row, columns)).get
        for position, pattern_vertex in enumerate(columns):
            data_vertex = row[position]
            for neighbor in data.adjacency[data_vertex]:
                edge_label = data.edge_label(data_vertex, neighbor)
                mapped = mapped_get(neighbor)
                if mapped is not None:
                    if (
                        pattern_vertex < mapped
                        and frozenset((pattern_vertex, mapped)) not in pattern_edges
                    ):
                        op = (pattern_vertex, mapped, str(edge_label))
                        close_edge_labels.setdefault(op, edge_label)
                        close_edge_ops.setdefault(op, []).append(row_index)
                else:
                    op = (pattern_vertex, data.label_strs[neighbor], str(edge_label))
                    new_vertex_labels.setdefault(op, (data.label_of(neighbor), edge_label))
                    new_vertex_ops.setdefault(op, []).append((row_index, neighbor))
    new_id = max(graph.vertices()) + 1
    for op in sorted(new_vertex_ops):
        label, edge_label = new_vertex_labels[op]
        extended = graph.copy()
        extended.add_vertex(new_id, label)
        extended.add_edge(op[0], new_id, edge_label)
        yield extended, table.extended(new_id, new_vertex_ops[op])
    for op in sorted(close_edge_ops):
        extended = graph.copy()
        extended.add_edge(op[0], op[1], close_edge_labels[op])
        yield extended, table.subset(close_edge_ops[op])


def reference_grow(context, minimal, bound, max_edges, include_minimal):
    results = [minimal] if include_minimal else []
    seen = {canonical_key(minimal.graph)}
    frontier = [(minimal.graph, EmbeddingTable.from_embeddings(minimal.embeddings))]
    while frontier:
        graph, table = frontier.pop()
        if max_edges is not None and graph.num_edges() >= max_edges:
            continue
        for extended, extended_table in reference_extensions(context, graph, table):
            key = canonical_key(extended)
            if key in seen:
                continue
            seen.add(key)
            support = context.support_of_table(extended_table)
            if not context.is_frequent(support):
                continue
            if not diameter_at_most(extended, bound):
                if diameter_at_most(extended, 2 * bound):
                    frontier.append((extended, extended_table))
                continue
            results.append(
                SkinnyPattern(
                    extended,
                    canonical_diameter(extended),
                    extended_table.to_embeddings(),
                    support,
                )
            )
            frontier.append((extended, extended_table))
    return results


def reference_answer(graphs, query):
    context = MiningContext(graphs, query.min_support, query.measure)
    bound = query.params["k"]
    grown = []
    for minimal in BoundedDiameterDriver().mine_minimal(context, bound):
        grown.extend(
            reference_grow(
                context, minimal, bound, query.params["max_edges"], query.include_minimal
            )
        )
    best: Dict[tuple, SkinnyPattern] = {}
    for pattern in grown:
        key = pattern.canonical_form()
        if key not in best or pattern.support > best[key].support:
            best[key] = pattern
    return sorted(
        best.values(),
        key=lambda p: (-p.support, p.num_edges, p.diameter_labels()),
    )


def serialised(patterns) -> List[str]:
    """Each pattern as it was numbered and embedded, in answer order."""
    return [
        json.dumps(
            {
                "vertices": [(v, str(p.graph.label_of(v))) for v in p.graph.vertices()],
                "edges": [(*e.endpoints(), str(e.label)) for e in p.graph.edges()],
                "diameter": list(p.diameter),
                "support": p.support,
                "embeddings": [(e.graph_index, list(e.mapping)) for e in p.embeddings],
            },
            default=list,
        )
        for p in patterns
    ]


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def edge_labelled(seed):
    """An ER graph whose edges carry one of two labels."""
    plain = erdos_renyi_graph(16, 2.5, 2, seed=seed)
    rng = random.Random(seed)
    graph = LabeledGraph(name="edge-labelled")
    for vertex in plain.vertices():
        graph.add_vertex(vertex, plain.label_of(vertex))
    for edge in plain.edges():
        graph.add_edge(edge.u, edge.v, rng.choice("xy"))
    return graph


def query(k, max_edges, sigma, measure=SupportMeasure.EMBEDDINGS, include_minimal=True):
    return Query(
        "diam-le",
        {"k": k, "max_edges": max_edges},
        min_support=sigma,
        support_measure=measure.value,
        include_minimal=include_minimal,
    )


CASES = {
    **{
        f"er{seed}-k{k}-e{max_edges}": (
            lambda seed=seed: erdos_renyi_graph(20, 2.5, 3, seed=seed),
            query(k, max_edges, 2),
        )
        for seed in (1, 5, 9)
        for k in (1, 2, 3)
        for max_edges in (3, 5)
    },
    # 33 patterns, 16 of them cyclic, up to 7 edges.
    "small-k2-uncapped": (
        lambda: erdos_renyi_graph(10, 2.5, 3, seed=4),
        query(2, None, 2),
    ),
    # Triangles, reached only through pending 2-paths.
    "dense-k1": (lambda: erdos_renyi_graph(14, 6.0, 2, seed=2), query(1, 5, 2)),
    "er5-k2-mni": (
        lambda: erdos_renyi_graph(20, 2.5, 3, seed=5),
        query(2, 5, 2, SupportMeasure.MNI),
    ),
    "er7-k3-mni": (
        lambda: erdos_renyi_graph(24, 3.0, 3, seed=7),
        query(3, 5, 3, SupportMeasure.MNI),
    ),
    "transactions-k2": (
        lambda: random_transaction_database(4, 12, 2.0, 3, seed=11),
        query(2, 5, 2, SupportMeasure.TRANSACTIONS),
    ),
    "transactions-k2-mni": (
        lambda: random_transaction_database(4, 12, 2.0, 3, seed=42),
        query(2, 5, 2, SupportMeasure.MNI),
    ),
    "edge-labelled-k2": (lambda: edge_labelled(4), query(2, 5, 2)),
    "edge-labelled-k1-mni": (lambda: edge_labelled(8), query(1, 5, 2, SupportMeasure.MNI)),
    "er9-k2-no-minimal": (
        lambda: erdos_renyi_graph(20, 2.5, 3, seed=9),
        query(2, 5, 2, include_minimal=False),
    ),
    "demo-k2": (lambda: load_dataset("demo"), query(2, 6, 3)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_answer_equals_the_reference(case):
    make_data, diam_query = CASES[case]
    data = make_data()
    expected = serialised(reference_answer(data, diam_query))
    assert expected
    assert serialised(MiningEngine(data).run(diam_query).patterns) == expected


# --------------------------------------------------------------------- #
# work pins on the demo graph's k=2 σ=3 query
# --------------------------------------------------------------------- #
def counted_run(monkeypatch, data, diam_query):
    """Run the query, counting embedding joins and keys by candidate shape."""
    counts = {"joins": 0, "tree keys": 0, "cyclic keys": 0}
    extended = EmbeddingTable.extended
    batch_key = framework.canonical_key

    def counting_extended(table, *args):
        counts["joins"] += 1
        return extended(table, *args)

    def counting_key(graph):
        tree = graph.num_edges() == graph.num_vertices() - 1
        counts["tree keys" if tree else "cyclic keys"] += 1
        return batch_key(graph)

    monkeypatch.setattr(EmbeddingTable, "extended", counting_extended)
    monkeypatch.setattr(framework, "canonical_key", counting_key)
    result = MiningEngine(data).run(diam_query)
    return result, counts


def test_demo_query_joins_each_new_extension_once(monkeypatch):
    demo_query = Query("diam-le", {"k": 2}, min_support=3)
    result, counts = counted_run(monkeypatch, load_dataset("demo"), demo_query)
    assert len(result.patterns) == 25
    # Per-seed growth joined every extension of every seed: 792 joins.
    assert counts["joins"] == 229
    assert counts["tree keys"] == 0


def test_cyclic_candidates_are_keyed_through_the_module_attribute(monkeypatch):
    data = erdos_renyi_graph(20, 3.0, 2, seed=1)
    result, counts = counted_run(
        monkeypatch, data, Query("diam-le", {"k": 2, "max_edges": 5}, min_support=2)
    )
    assert any(p.num_edges >= p.num_vertices for p in result.patterns)
    assert counts["cyclic keys"] > 0
    assert counts["tree keys"] == 0
