"""Seeded benchmark inputs, written as LG files.

Each workload mines a graph of fixed shape (the generator seeds below are
constants); ``--seed`` draws a permutation of the vertex ids and the order
of the file's edge lines.  Every seed therefore poses the same mining
problem up to isomorphism: pattern counts, supports and the miner's
counters are the same on every seed, so timings of different seeds
compare, while the bytes the program reads and the data-vertex ids it
returns differ.  Labels are left as they are: the skinny constraint's
canonical diameter depends on the label order, so renaming labels would
change the problem.

Run as a script to write one input file; it prints the input's metadata
(the edge the serving workload removes and re-adds) as JSON::

    PYTHONPATH=src python3 perfbench/inputs.py blowup 7 out.lg
"""

from __future__ import annotations

import json
import random
import sys
from typing import Dict, List, Tuple

#: name -> (background ER args, planted skinny pattern args, copies, inject seed)
SHAPES: Dict[str, Tuple[dict, dict, int, int]] = {
    # The ROADMAP Stage-2 blow-up graph (benchmarks/test_levelgrow_scaling.py).
    "blowup": (
        {"num_vertices": 200, "avg_degree": 1.8, "num_labels": 25, "seed": 1},
        {"backbone_length": 7, "skinniness": 1, "num_vertices": 11, "num_labels": 25, "seed": 2},
        3,
        3,
    ),
    # The data-plane scale graph: 60,064 vertices, 119,934 edges.
    "large": (
        {"num_vertices": 60_000, "avg_degree": 4.0, "num_labels": 400, "seed": 11},
        {"backbone_length": 5, "skinniness": 1, "num_vertices": 8, "num_labels": 400, "seed": 12},
        8,
        13,
    ),
    # The `repro serve --data demo` graph: 177 vertices, 144 edges.
    "demo": (
        {"num_vertices": 150, "avg_degree": 1.5, "num_labels": 25, "seed": 1},
        {"backbone_length": 6, "skinniness": 1, "num_vertices": 9, "num_labels": 25, "seed": 2},
        3,
        3,
    ),
}


def _shape_graph(shape: str):
    """The graph and one edge of its first planted copy."""
    from repro.graph.generators import erdos_renyi_graph, inject_pattern, random_skinny_pattern

    background_args, planted_args, copies, inject_seed = SHAPES[shape]
    graph = erdos_renyi_graph(**background_args)
    planted = random_skinny_pattern(**planted_args)
    copy_maps = inject_pattern(graph, planted, copies=copies, seed=inject_seed)
    first = min(edge.endpoints() for edge in planted.edges())
    return graph, (copy_maps[0][first[0]], copy_maps[0][first[1]])


def lg_lines(shape: str, seed: int) -> Tuple[List[str], Tuple[int, int]]:
    """The LG text of ``shape`` under the isomorphism drawn from ``seed``, and its delta edge."""
    graph, (delta_u, delta_v) = _shape_graph(shape)
    rng = random.Random(f"{shape}/{seed}")
    vertices = list(graph.vertices())
    new_ids = list(range(len(vertices)))
    rng.shuffle(new_ids)
    vertex_map = dict(zip(vertices, new_ids))
    labels = {vertex_map[v]: graph.label_of(v) for v in vertices}
    edges = [(vertex_map[e.u], vertex_map[e.v]) for e in graph.edges()]
    if any(edge.label is not None for edge in graph.edges()):
        raise ValueError("benchmark shapes are vertex-labelled only")
    rng.shuffle(edges)
    lines = ["t # 0"]
    lines.extend(f"v {vertex} {labels[vertex]}" for vertex in sorted(labels))
    lines.extend(f"e {u} {v}" for u, v in edges)
    return lines, (vertex_map[delta_u], vertex_map[delta_v])


def write_input(shape: str, seed: int, path: str) -> dict:
    lines, delta_edge = lg_lines(shape, seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return {"delta_edge": list(delta_edge)}


if __name__ == "__main__":
    shape_name, seed_text, out_path = sys.argv[1:4]
    print(json.dumps(write_input(shape_name, int(seed_text), out_path)))
