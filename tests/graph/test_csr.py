"""Tests for the frozen CSR data plane: CSRGraph, LabelPalette, SumSweep.

Three families of guarantees (see ``docs/DATA_PLANE.md``):

* **round-trip** — freezing a ``LabeledGraph`` and thawing it back is the
  identity on content, for arbitrary graphs (property-based);
* **read-API parity** — every read method of ``CSRGraph`` agrees with the
  mutable original it mirrors, so engine code written against the shared
  surface cannot observe which representation it got;
* **immutability** — every mutator raises :class:`FrozenGraphError`, which
  is what licenses sharing views across contexts and snapshot generations.

The SumSweep eccentricity-bounding utilities (``sum_sweep_diameter``,
``diameter_at_most``) are fuzzed against the brute-force all-pairs diameter
here too, since the CSR refactor made them the engine's diameter oracle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph, FrozenGraphError, LabelPalette
from repro.graph.generators import erdos_renyi_graph
from repro.graph.labeled_graph import LabeledGraph, build_graph
from repro.graph.paths import diameter, diameter_at_most, sum_sweep_diameter


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #
@st.composite
def labeled_graphs(draw, max_vertices: int = 12, labels: str = "abc"):
    """Arbitrary labeled graphs: random ids, labels, edge subsets, edge labels."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    # Non-contiguous, unsorted ids exercise the slot map (identity off).
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    graph = LabeledGraph()
    for vid in ids:
        graph.add_vertex(vid, draw(st.sampled_from(labels)))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    for u, v in pairs:
        if draw(st.booleans()):
            graph.add_edge(u, v, draw(st.sampled_from((None, None, "x", 7))))
    return graph


def connected_random_graph(seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    while True:
        graph = erdos_renyi_graph(
            num_vertices=rng.randint(2, 14),
            avg_degree=rng.uniform(1.0, 3.0),
            num_labels=3,
            seed=rng.randint(0, 10**6),
        )
        if graph.num_vertices() >= 2 and graph.is_connected():
            return graph


# --------------------------------------------------------------------- #
# round-trip
# --------------------------------------------------------------------- #
class TestRoundTrip:
    @given(labeled_graphs())
    @settings(max_examples=150, deadline=None)
    def test_freeze_thaw_is_identity_on_content(self, graph):
        thawed = CSRGraph.from_labeled(graph).to_labeled()
        assert sorted(thawed.vertices()) == sorted(graph.vertices())
        assert thawed.vertex_labels() == graph.vertex_labels()
        assert {edge.endpoints() for edge in thawed.edges()} == {
            edge.endpoints() for edge in graph.edges()
        }

    def test_edge_labels_survive_round_trip(self):
        graph = build_graph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
        graph.remove_edge(0, 1)
        graph.add_edge(0, 1, "bond")
        frozen = CSRGraph.from_labeled(graph)
        assert frozen.edge_label(0, 1) == "bond"
        assert frozen.edge_label(1, 2) is None
        assert frozen.to_labeled().edge_label(0, 1) == "bond"

    def test_unknown_edge_label_raises(self):
        frozen = CSRGraph.from_labeled(build_graph({0: "a", 1: "b"}, [(0, 1)]))
        with pytest.raises(KeyError):
            frozen.edge_label(0, 9)


# --------------------------------------------------------------------- #
# read-API parity
# --------------------------------------------------------------------- #
class TestReadParity:
    @given(labeled_graphs())
    @settings(max_examples=150, deadline=None)
    def test_every_read_method_agrees_with_the_original(self, graph):
        frozen = CSRGraph.from_labeled(graph)
        assert frozen.num_vertices() == graph.num_vertices()
        assert frozen.num_edges() == graph.num_edges()
        assert frozen.size() == graph.size()
        assert len(frozen) == graph.num_vertices()
        assert sorted(frozen.vertices()) == sorted(graph.vertices())
        assert sorted(iter(frozen)) == sorted(graph.vertices())
        assert frozen.labels_used() == graph.labels_used()
        assert frozen.label_histogram() == graph.label_histogram()
        assert frozen.edge_labels() == graph.edge_labels()
        assert frozen.is_connected() == graph.is_connected()
        assert sorted(map(sorted, frozen.connected_components())) == sorted(
            map(sorted, graph.connected_components())
        )
        for vertex in graph.vertices():
            assert frozen.has_vertex(vertex) and vertex in frozen
            assert frozen.label_of(vertex) == graph.label_of(vertex)
            assert frozen.degree(vertex) == graph.degree(vertex)
            assert frozen.neighbors(vertex) == tuple(sorted(graph.neighbors(vertex)))
            for other in graph.vertices():
                assert frozen.has_edge(vertex, other) == graph.has_edge(vertex, other)
        assert not frozen.has_vertex(999) and 999 not in frozen
        assert not frozen.has_edge(999, 1000)

    @given(labeled_graphs())
    @settings(max_examples=100, deadline=None)
    def test_csr_columns_are_consistent(self, graph):
        frozen = CSRGraph.from_labeled(graph)
        n = frozen.num_vertices()
        assert len(frozen.indptr) == n + 1
        assert len(frozen.indices) == 2 * frozen.num_edges()
        assert len(frozen.label_codes) == n
        for slot in range(n):
            vertex = frozen.slot_vertex(slot)
            assert frozen.vertex_slot(vertex) == slot
            run = frozen.indices[frozen.indptr[slot] : frozen.indptr[slot + 1]]
            assert tuple(frozen.slot_vertex(s) for s in run) == frozen.neighbors(vertex)
            assert frozen.palette.label_of(frozen.label_codes[slot]) == frozen.label_of(
                vertex
            )
        assert frozen.memory_bytes() > 0

    def test_identity_fast_path_skips_slot_map(self):
        contiguous = CSRGraph.from_labeled(
            build_graph({0: "a", 1: "b", 2: "a"}, [(0, 1), (1, 2)])
        )
        assert contiguous._slot_of is None
        assert contiguous.vertex_slot(1) == 1
        with pytest.raises(KeyError):
            contiguous.vertex_slot(7)
        sparse = CSRGraph.from_labeled(build_graph({5: "a", 9: "b"}, [(5, 9)]))
        assert sparse._slot_of is not None
        assert sparse.slot_vertex(sparse.vertex_slot(9)) == 9


# --------------------------------------------------------------------- #
# immutability
# --------------------------------------------------------------------- #
class TestImmutability:
    @pytest.mark.parametrize(
        "mutator, args",
        [
            ("add_vertex", (9, "z")),
            ("add_edge", (0, 9)),
            ("add_labeled_path", (["a", "b"],)),
            ("remove_vertex", (0,)),
            ("remove_edge", (0, 1)),
        ],
    )
    def test_mutators_raise_frozen_error(self, mutator, args):
        frozen = CSRGraph.from_labeled(build_graph({0: "a", 1: "b"}, [(0, 1)]))
        with pytest.raises(FrozenGraphError):
            getattr(frozen, mutator)(*args)

    def test_frozen_error_is_a_type_error(self):
        # Callers catching TypeError for "wrong graph kind" keep working.
        assert issubclass(FrozenGraphError, TypeError)

    def test_direct_construction_rejected(self):
        with pytest.raises(TypeError):
            CSRGraph()


# --------------------------------------------------------------------- #
# palette interning
# --------------------------------------------------------------------- #
class TestLabelPalette:
    def test_codes_are_dense_and_stable(self):
        palette = LabelPalette()
        assert [palette.intern(label) for label in "abab"] == [0, 1, 0, 1]
        assert palette.code_of("b") == 1
        assert palette.label_of(0) == "a"
        assert palette.str_of(1) == "b"
        assert palette.labels() == ("a", "b")
        assert len(palette) == 2
        assert "a" in palette and "z" not in palette
        with pytest.raises(KeyError):
            palette.code_of("z")

    def test_shared_palette_keeps_codes_stable_across_views(self):
        palette = LabelPalette()
        first = CSRGraph.from_labeled(
            build_graph({0: "x", 1: "y"}, [(0, 1)]), palette=palette
        )
        second = CSRGraph.from_labeled(
            build_graph({0: "y", 1: "x"}, [(0, 1)]), palette=palette
        )
        assert first.palette is second.palette is palette
        # "x" got code 0 in the first view; the second must agree.
        assert second.label_codes[second.vertex_slot(1)] == 0
        assert second.label_codes[second.vertex_slot(0)] == 1

    def test_str_cache_matches_str(self):
        palette = LabelPalette()
        code = palette.intern(42)
        assert palette.str_of(code) == "42"


# --------------------------------------------------------------------- #
# SumSweep diameter bounding
# --------------------------------------------------------------------- #
class TestSumSweep:
    @pytest.mark.parametrize("seed", range(60))
    def test_sum_sweep_matches_brute_force(self, seed):
        graph = connected_random_graph(seed)
        assert sum_sweep_diameter(graph) == diameter(graph)

    @pytest.mark.parametrize("seed", range(30))
    def test_diameter_at_most_agrees_both_directions(self, seed):
        graph = connected_random_graph(seed)
        exact = diameter(graph)
        assert diameter_at_most(graph, exact)
        assert diameter_at_most(graph, exact + 1)
        if exact > 0:
            assert not diameter_at_most(graph, exact - 1)

    def test_sum_sweep_on_frozen_view(self):
        graph = connected_random_graph(7)
        frozen = CSRGraph.from_labeled(graph)
        assert sum_sweep_diameter(frozen) == diameter(graph)
        assert diameter_at_most(frozen, diameter(graph))
