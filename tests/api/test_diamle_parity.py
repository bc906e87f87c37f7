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

import itertools
import json
import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MiningEngine, Query
from repro.cli import load_dataset
from repro.core import framework, levelgrow
from repro.core.database import MiningContext, SupportMeasure
from repro.core.diameter import canonical_diameter
from repro.core.framework import BoundedDiameterDriver
from repro.core.levelgrow import LevelGrower
from repro.core.patterns import SkinnyPattern
from repro.graph import canonical
from repro.graph.canonical import TreeEncodings, canonical_key
from repro.graph.embeddings import EmbeddingTable
from repro.graph.generators import (
    erdos_renyi_graph,
    inject_pattern,
    random_skinny_pattern,
    random_transaction_database,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.paths import diameter, diameter_at_most
from repro.obs import MetricsRegistry


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
def edge_labelled(seed, plain=None, choices="xy"):
    """An ER graph whose edges carry one of ``choices`` (``None`` leaves an edge unlabelled)."""
    if plain is None:
        plain = erdos_renyi_graph(16, 2.5, 2, seed=seed)
    rng = random.Random(seed)
    graph = LabeledGraph(name="edge-labelled")
    for vertex in plain.vertices():
        graph.add_vertex(vertex, plain.label_of(vertex))
    for edge in plain.edges():
        graph.add_edge(edge.u, edge.v, rng.choice(choices))
    return graph


def blowup_graph():
    """The Stage-2 blow-up graph: ER(200, 1.8, 25) with three planted skinny copies."""
    graph = erdos_renyi_graph(200, 1.8, 25, seed=1)
    planted = random_skinny_pattern(
        backbone_length=7, skinniness=1, num_vertices=11, num_labels=25, seed=2
    )
    inject_pattern(graph, planted, copies=3, seed=3)
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
    # perfbench's diamle-growth query, on the same graph.
    "blowup-k2-e5": (blowup_graph, query(2, 5, 2)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_answer_equals_the_reference(case):
    make_data, diam_query = CASES[case]
    data = make_data()
    expected = serialised(reference_answer(data, diam_query))
    assert expected
    assert serialised(MiningEngine(data).run(diam_query).patterns) == expected


@st.composite
def random_cases(draw):
    """Small ER databases (edge labels off, on, or on some edges) and a diam-le query.

    Dense data and wide budgets are where pending states get repaired.
    Such draws take at most two graphs of at most six vertices and σ ≥ 2,
    which keeps the reference's enumeration to a few seconds.
    """
    seed = draw(st.integers(0, 2**16))
    max_edges = draw(st.sampled_from((2, 3, 4, 5, 6, 8, None)))
    avg_degree = draw(st.sampled_from((1.5, 2.0, 2.5, 3.0, 4.0)))
    large = max_edges is None or max_edges > 6 or avg_degree > 2.5
    count = draw(st.integers(1, 2 if large else 3))
    num_vertices = draw(st.integers(4 if large else 5, 6 if large else 10))
    num_labels = draw(st.integers(1, 3))
    edge_labels = draw(st.sampled_from((None, "xy", ("x", None))))
    graphs = [
        erdos_renyi_graph(num_vertices, avg_degree, num_labels, seed=seed + index)
        for index in range(count)
    ]
    if edge_labels is not None:
        graphs = [
            edge_labelled(seed + index, graph, edge_labels)
            for index, graph in enumerate(graphs)
        ]
    diam_query = query(
        draw(st.integers(1, 3)),
        max_edges,
        draw(st.integers(2 if large else 1, 3)),
        draw(st.sampled_from(list(SupportMeasure))),
    )
    return graphs, diam_query


@settings(max_examples=160, deadline=None)
@given(random_cases())
def test_random_inputs_match_the_reference(case):
    graphs, diam_query = case
    expected = serialised(reference_answer(graphs, diam_query))
    assert serialised(MiningEngine(graphs).run(diam_query).patterns) == expected


# --------------------------------------------------------------------- #
# work pins on the demo graph's k=2 σ=3 query
# --------------------------------------------------------------------- #
def counted_run(monkeypatch, data, diam_query):
    """Run the query, counting joins, keys by shape, path splices and tree encodings built."""
    counts = {
        "joins": 0,
        "tree keys": 0,
        "cyclic keys": 0,
        "_splice": 0,
        "extend": 0,
        "extended_key": 0,
    }
    batch_key = framework.canonical_key

    def counting(name, method):
        def counted(*args):
            counts[name] += 1
            return method(*args)

        return counted

    def counting_key(graph):
        tree = graph.num_edges() == graph.num_vertices() - 1
        counts["tree keys" if tree else "cyclic keys"] += 1
        return batch_key(graph)

    monkeypatch.setattr(EmbeddingTable, "extended", counting("joins", EmbeddingTable.extended))
    monkeypatch.setattr(framework, "canonical_key", counting_key)
    monkeypatch.setattr(canonical, "_splice", counting("_splice", canonical._splice))
    for name in ("extend", "extended_key"):
        monkeypatch.setattr(TreeEncodings, name, counting(name, getattr(TreeEncodings, name)))
    result = MiningEngine(data).run(diam_query)
    return result, counts


def test_demo_query_joins_each_new_extension_once(monkeypatch):
    demo_query = Query("diam-le", {"k": 2}, min_support=3)
    result, counts = counted_run(monkeypatch, load_dataset("demo"), demo_query)
    assert len(result.patterns) == 25
    # Per-seed growth joined every extension of every seed: 792 joins.  One
    # registry per query took that to 229; deciding a pendant's diameter
    # before its key (the budget and the 2K margin) took it to 183,
    # dropping the pending children no row can repair took it to 86, and
    # dropping a child whose join holds fewer rows than σ, before any other
    # check, takes it to 12.
    assert counts["joins"] == 12
    assert counts["tree keys"] == 0
    # Every tree pendant is keyed by extended_key, also one that lengthens
    # the diameter, and only a frequent child pushed to the frontier gets
    # its encodings, built from the path its key was spliced from: one
    # splice per key.
    assert (counts["extend"], counts["extended_key"]) == (12, 29)
    hits = result.stats.level_statistics["canonical_incremental_hits"]
    assert counts["extended_key"] == counts["_splice"] == hits


def test_cyclic_candidates_are_keyed_through_the_module_attribute(monkeypatch):
    data = erdos_renyi_graph(20, 3.0, 2, seed=1)
    result, counts = counted_run(
        monkeypatch, data, Query("diam-le", {"k": 2, "max_edges": 5}, min_support=2)
    )
    assert any(p.num_edges >= p.num_vertices for p in result.patterns)
    assert counts["cyclic keys"] > 0
    assert counts["tree keys"] == 0


# --------------------------------------------------------------------- #
# the edge budget, and the driver's counters
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "make_data, drops, joins",
    [
        # 4,121 pendant joins before the budget cut, 2,545 of them such
        # children; 1,576 after it, 555 once a pending child that no row
        # can repair is dropped, and 273 once a child with fewer rows than
        # σ is dropped first (which also drops the 2 closing joins).
        (blowup_graph, (135, 0), (273, 0)),
        (lambda: erdos_renyi_graph(20, 3.0, 2, seed=1), (133, 166), (98, 23)),
    ],
    ids=["blowup", "er-closing"],
)
def test_no_join_builds_an_unreportable_child_at_the_budget(
    monkeypatch, make_data, drops, joins
):
    k, max_edges, sigma = 2, 5, 2
    scanned = {}
    offered = {"pendant": 0, "closing": 0}
    joined = {"pendant": [], "closing": []}
    scan = levelgrow.scan_extensions
    extended, subset = EmbeddingTable.extended, EmbeddingTable.subset

    def shape_of(table, pairs):
        """The scanned pattern, unlabelled: every column pair the driver does not offer."""
        shape = LabeledGraph()
        for vertex in table.columns:
            shape.add_vertex(vertex, "v")
        offered_pairs = {pair for pair, _, _ in pairs}
        for u, v in itertools.combinations(sorted(table.columns), 2):
            if (u, v) not in offered_pairs:
                shape.add_edge(u, v)
        return shape

    def child_of(graph, op):
        anchor, other, label, edge_label, _ = op
        new_id = max(graph.vertices()) + 1
        return framework._with_edge(graph, anchor, other, new_id, label, edge_label)

    def recording_scan(context, table, sprouts, pairs, *, edge_labels):
        graph = shape_of(table, pairs)
        for op in scan(context, table, sprouts, pairs, edge_labels=edge_labels):
            scanned["op"] = (graph, op)
            # The row count comes first: a join with fewer rows than σ is
            # a support drop, whatever the budget says.
            if (
                len(op[4]) >= sigma
                and graph.num_edges() == max_edges - 1
                and diameter(child_of(graph, op)) > k
            ):
                offered["pendant" if op[1] is None else "closing"] += 1
            yield op

    def recording_extended(table, new_id, join):
        joined["pendant"].append(child_of(*scanned["op"]))
        return extended(table, new_id, join)

    def recording_subset(table, rows):
        joined["closing"].append(child_of(*scanned["op"]))
        return subset(table, rows)

    monkeypatch.setattr(levelgrow, "scan_extensions", recording_scan)
    monkeypatch.setattr(EmbeddingTable, "extended", recording_extended)
    monkeypatch.setattr(EmbeddingTable, "subset", recording_subset)
    diam_query = Query("diam-le", {"k": k, "max_edges": max_edges}, min_support=sigma)
    result = MiningEngine(make_data()).run(diam_query)
    assert [
        child
        for child in joined["pendant"] + joined["closing"]
        if child.num_edges() == max_edges and diameter(child) > k
    ] == []
    # Pendants reach the budget on both inputs, closing edges on the ER
    # graph only (one edge below the budget a pending state offers closing
    # edges only, and on the blow-up graph none that is kept offers one),
    # and every such child with σ rows or more is a budget drop, taken
    # before the key.
    assert (offered["pendant"], offered["closing"]) == drops
    assert result.stats.level_statistics["rejected_budget"] == sum(drops)
    assert (len(joined["pendant"]), len(joined["closing"])) == joins


def assert_counts_add_up(stats):
    """The driver's split of its candidates, and LevelGrow's two identities."""
    assert stats["candidates_generated"] == (
        stats["rejected_rows"]
        + stats["rejected_budget"]
        + stats["rejected_margin"]
        + stats["rejected_unrepairable"]
        + stats["candidates_keyed"]
    )
    assert stats["candidates_keyed"] == (
        stats["candidates_rejected_duplicate"] + stats["candidates_joined"]
    )
    assert stats["candidates_joined"] + stats["rejected_rows"] == (
        stats["candidates_rejected_support"]
        + stats["candidates_pending"]
        + stats["patterns_emitted"]
    )
    assert stats["candidates_rejected_constraints"] == (
        stats["rejected_constraint_one"]
        + stats["rejected_constraint_two"]
        + stats["rejected_constraint_three"]
        + stats["rejected_unrepairable"]
        + stats["candidates_pending"]
        + stats["rejected_loop_invariant"]
        + stats["rejected_budget"]
        + stats["rejected_margin"]
    )
    assert stats["candidates_generated"] == (
        stats["patterns_emitted"]
        + stats["candidates_rejected_support"]
        + stats["candidates_rejected_duplicate"]
        + stats["candidates_rejected_constraints"]
        + stats["candidates_deferred"]
    )


@pytest.mark.parametrize(
    "make_data, diam_query, decided",
    [
        (blowup_graph, query(2, 5, 2), ("rejected_budget", "rejected_unrepairable")),
        (blowup_graph, query(2, 8, 2), ("rejected_margin", "rejected_unrepairable")),
        (
            lambda: erdos_renyi_graph(20, 3.0, 2, seed=1),
            query(2, 5, 2),
            ("rejected_budget", "rejected_unrepairable"),
        ),
    ],
    ids=["blowup-budget", "blowup-margin", "er-closing"],
)
def test_level_statistics_count_every_candidate_once(make_data, diam_query, decided):
    registry = MetricsRegistry()
    result = MiningEngine(make_data(), metrics=registry).run(diam_query)
    stats = result.stats.level_statistics
    assert_counts_add_up(stats)
    assert all(stats[reason] > 0 for reason in decided)
    assert stats["candidates_pending"] > 0
    # Grown patterns only: the seed edges come from Stage 1.
    assert stats["patterns_emitted"] == len(result.patterns) - result.stats.num_minimal_patterns
    emitted = registry.counter(
        "repro_patterns_emitted_total", labels={"constraint": "diam-le"}
    ).value
    assert emitted == stats["patterns_emitted"]


# --------------------------------------------------------------------- #
# the repair drop: a pending child grows only while some row maps every
# pair it holds more than K apart onto data vertices at most K apart
# --------------------------------------------------------------------- #
SQUARE = ("abcd", [(0, 1), (1, 2), (2, 3), (3, 0)])
PATH = ("abcd", [(0, 1), (1, 2), (2, 3)])


def graph_of(*components):
    """One graph holding each ``(labels, edges)`` component, numbered apart."""
    graph = LabeledGraph(name="components")
    offset = 0
    for labels, edges in components:
        for index, label in enumerate(labels):
            graph.add_vertex(offset + index, label)
        for u, v in edges:
            graph.add_edge(offset + u, offset + v)
        offset += len(labels)
    return graph


def assert_answers_as_the_reference(data, diam_query):
    result = MiningEngine(data).run(diam_query)
    assert serialised(result.patterns) == serialised(reference_answer(data, diam_query))
    stats = result.stats.level_statistics
    assert_counts_add_up(stats)
    return result, stats


def test_a_cycle_reached_only_through_a_pending_path_is_still_reported():
    # Two squares a-b-c-d with a tail e on a.  Under K = 2 the square
    # (diameter 2) is reached only by closing a 3-path (diameter 3), whose
    # rows all lie on a data square, so they stay pending.  The 3-paths
    # through the tail, e-a-b-c and e-a-d-c, map their ends 3 apart in
    # every row and are dropped.
    tailed = ("abcde", SQUARE[1] + [(0, 4)])
    result, stats = assert_answers_as_the_reference(
        graph_of(tailed, tailed), query(2, None, 2)
    )
    squares = [p for p in result.patterns if p.num_edges == p.num_vertices == 4]
    assert [p.support for p in squares] == [2]
    assert stats["candidates_pending"] > 0
    assert stats["rejected_unrepairable"] > 0


def test_one_repairable_row_keeps_a_pending_child_with_all_its_rows(monkeypatch):
    # The 3-path a-b-c-d occurs on a data square, whose closing edge could
    # repair it, and on a bare path, which cannot.  The one row on the
    # square keeps it pending, and the check filters no row: at σ = 2 the
    # path is frequent only by counting both.
    supports = []
    support_of_table = MiningContext.support_of_table

    def recording(context, table):
        support = support_of_table(context, table)
        supports.append((len(table.columns), support))
        return support

    data, diam_query = graph_of(SQUARE, PATH), query(2, None, 2)
    monkeypatch.setattr(MiningContext, "support_of_table", recording)
    result = MiningEngine(data).run(diam_query)
    monkeypatch.undo()
    assert serialised(result.patterns) == serialised(reference_answer(data, diam_query))
    stats = result.stats.level_statistics
    assert stats["candidates_pending"] == 1
    assert stats["rejected_unrepairable"] == 0
    # The other 4-vertex tables (three 3-paths and the square) occur on
    # the square only.
    assert supports.count((4, 2)) == 1


def test_a_data_ball_past_the_cap_counts_as_near():
    # Two bare 3-paths a-b-c-d: no row can repair one under K = 2, so the
    # path is dropped.  Hang the first copy's a off a hub with more leaves
    # than the cap, and a's 2-ball passes the cap: the path, keyed through
    # that ball, stays pending, and the answer is still the reference's.
    bare, bare_stats = assert_answers_as_the_reference(graph_of(PATH, PATH), query(2, None, 2))
    assert bare_stats["candidates_pending"] == 0
    assert bare_stats["rejected_unrepairable"] > 0

    hub = graph_of(PATH, PATH)
    hub.add_vertex(8, "h")
    hub.add_edge(0, 8)
    for leaf in range(9, 10 + LevelGrower._VIABILITY_BFS_CAP):
        hub.add_vertex(leaf, f"l{leaf}")
        hub.add_edge(8, leaf)
    result, stats = assert_answers_as_the_reference(hub, query(2, None, 2))
    assert stats["candidates_pending"] > 0
    assert serialised(result.patterns) == serialised(bare.patterns)


def test_blowup_query_at_eight_edges_grows_few_pending_states(monkeypatch):
    # Every pending state but four is dropped, and most joins with them.
    # The answer is the one growth without the drop gives (every data ball
    # past the cap, so every child counts as repairable).  The per-seed
    # reference gives it too, but takes about 45 s at this budget.
    data = blowup_graph()
    diam_query = query(2, 8, 2)
    result = MiningEngine(data).run(diam_query)
    stats = result.stats.level_statistics
    assert (stats["candidates_joined"], stats["candidates_pending"]) == (309, 4)
    monkeypatch.setattr(framework, "_ball", lambda *args: None)
    unpruned = MiningEngine(data).run(diam_query)
    unpruned_stats = unpruned.stats.level_statistics
    assert unpruned_stats["rejected_unrepairable"] == 0
    assert unpruned_stats["candidates_joined"] == 11254
    assert unpruned_stats["candidates_pending"] == 7524
    assert serialised(result.patterns) == serialised(unpruned.patterns)
