"""Labeled-graph substrate used by SkinnyMine, the baselines and the datasets.

This subpackage is self-contained: it provides the graph data structure,
subgraph isomorphism, canonical forms, path/distance utilities, embedding
bookkeeping, random generators and a small text I/O format.  Nothing in here
knows about skinny patterns; it is the layer the paper's algorithms (and the
competing miners) are built on.
"""

from repro.graph.labeled_graph import Edge, LabeledGraph
from repro.graph.csr import CSRGraph, FrozenGraphError, LabelPalette
from repro.graph.isomorphism import (
    are_isomorphic,
    find_automorphisms,
    find_subgraph_embeddings,
    is_subgraph_isomorphic,
)
from repro.graph.canonical import canonical_key
from repro.graph.paths import (
    all_diameter_paths,
    bfs_distances,
    diameter,
    diameter_at_most,
    eccentricity,
    enumerate_simple_paths,
    shortest_path_length,
    sum_sweep_diameter,
)
from repro.graph.embeddings import (
    Embedding,
    EmbeddingList,
    EmbeddingTable,
    LazyEmbeddings,
    mni_support,
    transaction_support,
)
from repro.graph.generators import (
    erdos_renyi_graph,
    inject_pattern,
    random_labeled_path,
    random_skinny_pattern,
    random_tree_pattern,
)
from repro.graph.io import graph_from_edge_list, read_lg, write_lg

__all__ = [
    "Edge",
    "LabeledGraph",
    "CSRGraph",
    "FrozenGraphError",
    "LabelPalette",
    "are_isomorphic",
    "find_automorphisms",
    "find_subgraph_embeddings",
    "is_subgraph_isomorphic",
    "canonical_key",
    "all_diameter_paths",
    "bfs_distances",
    "diameter",
    "diameter_at_most",
    "sum_sweep_diameter",
    "eccentricity",
    "enumerate_simple_paths",
    "shortest_path_length",
    "Embedding",
    "EmbeddingList",
    "EmbeddingTable",
    "LazyEmbeddings",
    "mni_support",
    "transaction_support",
    "erdos_renyi_graph",
    "inject_pattern",
    "random_labeled_path",
    "random_skinny_pattern",
    "random_tree_pattern",
    "graph_from_edge_list",
    "read_lg",
    "write_lg",
]
