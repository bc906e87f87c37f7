"""The one extension scanner against a brute-force re-match.

:func:`repro.core.levelgrow.scan_extensions` proposes LevelGrow's and
diam-le's one-edge extensions from the rows of an embedding table.  The
reference below re-matches every child against the data graph instead of
walking adjacency: for each row it tries every data vertex as the image of
a new pendant, and every offered pair against the graph's edge set.  Inputs
are random ER graphs and transaction databases with edge labels off, on
every edge, on some edges, or on some transactions only; tables come from
DiamMine paths, as they are and grown one step; sprouts and pairs are
random subsets.  Vertex and edge labels include ``1`` beside ``"1"``, so
the ops that group by label string must report the first label objects
their join saw.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.database import MiningContext
from repro.core.diammine import DiamMine
from repro.core.levelgrow import scan_extensions
from repro.core.patterns import initial_state_from_path
from repro.graph.generators import erdos_renyi_graph, random_transaction_database
from repro.graph.labeled_graph import LabeledGraph

VERTEX_LABELS = [1, "1", "a", "b"]
EDGE_LABELS = [1, "1", "p", "q"]


def relabelled(graph, rng, share):
    """A copy of ``graph`` whose edges carry a label with probability ``share``."""
    clone = LabeledGraph(name=graph.name)
    for vertex in graph.vertices():
        clone.add_vertex(vertex, graph.label_of(vertex))
    for edge in graph.edges():
        label = rng.choice(EDGE_LABELS) if rng.random() < share else None
        clone.add_edge(edge.u, edge.v, label)
    return clone


def make_data(seed):
    """Random graphs, one of the four edge-label regimes, chosen by ``seed``."""
    rng = random.Random(seed)
    if seed % 2:
        graphs = [erdos_renyi_graph(30, 2.4, 0, seed=seed, labels=VERTEX_LABELS)]
    else:
        graphs = random_transaction_database(3, 14, 2.0, 3, seed=seed)
    regime = (seed // 2) % 4
    if regime == 0:  # no edge labels
        return graphs
    if regime == 1:  # every edge
        return [relabelled(graph, rng, 1.0) for graph in graphs]
    if regime == 2:  # some edges
        return [relabelled(graph, rng, 0.5) for graph in graphs]
    # some transactions only (a single graph keeps none)
    return [
        relabelled(graph, rng, 1.0) if index % 2 else graph
        for index, graph in enumerate(graphs)
    ]


def brute_force(context, table, sprouts, pairs, edge_labels):
    """Every extension the rows realise, found by re-matching each child."""
    pendants, closing, first = {}, {}, {}
    for row_index, (graph_index, row) in enumerate(zip(table.graph_ids, table.rows)):
        graph = context.graph(graph_index)
        for anchor, position in sprouts:
            image = row[position]
            for vertex in sorted(graph.vertices()):
                if vertex in row or not graph.has_edge(image, vertex):
                    continue
                edge_label = graph.edge_label(image, vertex) if edge_labels else None
                key = (anchor, str(graph.label_of(vertex)))
                key += (str(edge_label),) if edge_labels else ()
                first.setdefault(key, (graph.label_of(vertex), edge_label))
                pendants.setdefault(key, []).append((row_index, vertex))
        for pair, position_u, position_v in pairs:
            u_image, v_image = row[position_u], row[position_v]
            if not graph.has_edge(u_image, v_image):
                continue
            edge_label = graph.edge_label(u_image, v_image) if edge_labels else None
            key = (pair,) + ((str(edge_label),) if edge_labels else ())
            first.setdefault(key, (None, edge_label))
            closing.setdefault(key, []).append(row_index)
    ops = []
    for key in sorted(pendants):
        label, edge_label = first[key] if edge_labels else (key[1], None)
        ops.append((key[0], None, label, edge_label, pendants[key]))
    for key in sorted(closing, key=lambda k: (min(k[0]), max(k[0])) + k[1:]):
        u, v = key[0]
        ops.append((u, v, None, first[key][1], closing[key]))
    return ops


def tables(context, rng):
    """DiamMine path tables, and each grown by one random scanned op."""
    for length in (1, 2, 3):
        for path in DiamMine(context).mine(length)[:3]:
            table = initial_state_from_path(path).table
            yield table
            columns = [(vertex, position) for position, vertex in enumerate(table.columns)]
            ops = scan_extensions(context, table, columns, [], edge_labels=False)
            if ops:
                _, _, _, _, join = rng.choice(ops)
                yield table.extended(max(table.columns) + 1, join)


def random_inputs(table, rng):
    columns = [(vertex, position) for position, vertex in enumerate(table.columns)]
    sprouts = [column for column in columns if rng.random() < 0.6]
    pairs = []
    for (u, position_u), (v, position_v) in itertools.combinations(columns, 2):
        if rng.random() < 0.6:
            # Either orientation: an op keeps the pair as it was offered.
            if rng.random() < 0.5:
                pairs.append(((u, v), position_u, position_v))
            else:
                pairs.append(((v, u), position_v, position_u))
    return sprouts, pairs


@pytest.mark.parametrize("seed", range(16))
def test_scanner_equals_brute_force(seed):
    rng = random.Random(1000 + seed)
    context = MiningContext(make_data(seed), 2)
    checked = 0
    for table in tables(context, rng):
        sprouts, pairs = random_inputs(table, rng)
        for edge_labels in (False, True):
            ops = scan_extensions(context, table, sprouts, pairs, edge_labels=edge_labels)
            expected = brute_force(context, table, sprouts, pairs, edge_labels)
            # Each op, its join and the order; 1 != "1", so the label
            # objects must be the first ones the join saw.
            assert ops == expected
            checked += len(ops)
    assert checked


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_edge_labels_split_ops_only_when_asked(seed):
    # Seeds 2 and 3 label every edge, 4 and 5 some edges.
    context = MiningContext(make_data(seed), 2)
    split = merged = 0
    for table in tables(context, random.Random(seed)):
        columns = [(vertex, position) for position, vertex in enumerate(table.columns)]
        pairs = [
            ((u, v), position_u, position_v)
            for (u, position_u), (v, position_v) in itertools.combinations(columns, 2)
        ]
        blind = scan_extensions(context, table, columns, pairs, edge_labels=False)
        labelled = scan_extensions(context, table, columns, pairs, edge_labels=True)
        assert all(edge_label is None for _, _, _, edge_label, _ in blind)
        # Without edge labels an op is the union of its edge-label splits.
        regrouped = {}
        for anchor, other, label, _, join in labelled:
            key = (anchor, other, str(label))
            regrouped.setdefault(key, []).extend(join)
        assert {
            (anchor, other, str(label)): sorted(join) for anchor, other, label, _, join in blind
        } == {key: sorted(join) for key, join in regrouped.items()}
        split += len(labelled)
        merged += len(blind)
    assert split > merged
