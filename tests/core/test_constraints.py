"""Tests for canonical-diameter maintenance (Constraints I, II, III).

The scenarios mirror Figure 3 of the paper, where three example extensions
each violate exactly one of the three constraints, plus property-based checks
that the local D_H/D_T updates agree with full BFS recomputation.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import (
    constraint_one_ok_new_vertex,
    constraint_three_ok_existing_edge,
    constraint_three_ok_new_vertex,
    constraint_two_ok_existing_edge,
    constraint_two_ok_new_vertex,
    distances_after_existing_edge,
    new_vertex_distances,
    relax_distance_map,
)
from repro.core.patterns import GrowthState, PathPattern, initial_state_from_path
from repro.graph.generators import random_labeled_path
from repro.graph.paths import bfs_distances


def make_state_from_labels(labels, embeddings=None) -> GrowthState:
    """Build a growth state whose pattern is a bare path with ``labels``."""
    path = PathPattern(
        labels=tuple(labels),
        embeddings=tuple(embeddings or ((0, tuple(range(100, 100 + len(labels)))),)),
        support=1,
    )
    return initial_state_from_path(path)


def add_twig(state: GrowthState, parent: int, label: str, level: int) -> int:
    """Attach a new twig vertex to the state's pattern (updating the indices)."""
    new_vertex = state.next_vertex_id()
    state.pattern.add_vertex(new_vertex, label)
    state.pattern.add_edge(parent, new_vertex)
    state.dist_head[new_vertex] = state.dist_head[parent] + 1
    state.dist_tail[new_vertex] = state.dist_tail[parent] + 1
    state.levels[new_vertex] = level
    return new_vertex


class TestNewVertexConstraints:
    def test_distances_of_pendant(self):
        state = make_state_from_labels("abcdefg")  # path of length 6
        assert new_vertex_distances(state, 2) == (3, 5)
        assert new_vertex_distances(state, 0) == (1, 7)

    def test_constraint_one_rejects_endpoint_pendant(self):
        # Attaching a twig to the head or tail creates a longer diameter.
        state = make_state_from_labels("abcdefg")
        assert not constraint_one_ok_new_vertex(state, 0)
        assert not constraint_one_ok_new_vertex(state, 6)
        assert constraint_one_ok_new_vertex(state, 1)
        assert constraint_one_ok_new_vertex(state, 3)

    def test_constraint_one_rejects_deep_twigs_near_ends(self):
        state = make_state_from_labels("abcdefg")
        # Level-1 twig on vertex 1: D_H = 2, D_T = 6 -> fine.
        twig = add_twig(state, 1, "z", 1)
        # Level-2 twig on that twig: D_H = 3, D_T = 7 > 6 -> violates I.
        assert not constraint_one_ok_new_vertex(state, twig)

    def test_constraint_two_always_holds_for_pendant(self):
        state = make_state_from_labels("abcdefg")
        for parent in range(7):
            assert constraint_two_ok_new_vertex(state, parent)

    def test_constraint_three_triggers_only_near_ends(self):
        state = make_state_from_labels("abcdefg")
        # Attaching to vertex 1 (D_H=1, D_T=5 = D-1) can create a new diameter
        # ending at the new vertex; a label smaller than 'g' would precede L
        # reversed?  L = a..g.  New path labels: g f e d c b <new>?  The new
        # diameter runs tail->...->1->new, i.e. labels g,f,e,d,c,b,new; its
        # reverse is new,b,c,d,e,f,g.  It precedes L=abcdefg iff new < 'a'.
        assert constraint_three_ok_new_vertex(state, 1, "z")
        assert constraint_three_ok_new_vertex(state, 1, "b")
        assert not constraint_three_ok_new_vertex(state, 1, "A")  # 'A' < 'a'

    def test_constraint_three_not_triggered_in_middle(self):
        state = make_state_from_labels("abcdefg")
        assert constraint_three_ok_new_vertex(state, 3, "A")

    def test_pendant_checks_combine(self):
        state = make_state_from_labels("abcdefg")

        def admissible(parent, label):
            return (
                constraint_one_ok_new_vertex(state, parent)
                and constraint_two_ok_new_vertex(state, parent)
                and constraint_three_ok_new_vertex(state, parent, label)
            )

        assert admissible(3, "z")
        assert not admissible(0, "z")
        assert not admissible(1, "A")


class TestExistingEdgeConstraints:
    def test_constraint_two_rejects_shortcut(self):
        # Figure 3's Constraint-II example: an edge that shortens the
        # head-tail distance must be rejected.
        state = make_state_from_labels("abcdefg")
        twig = add_twig(state, 1, "z", 1)
        other = add_twig(state, 5, "y", 1)
        # Connecting the two twigs creates a path head-1-twig-other-5-tail of
        # length 2 + 1 + 2 = 5 < 6: violation.
        assert not constraint_two_ok_existing_edge(state, twig, other)

    def test_constraint_two_allows_harmless_edge(self):
        state = make_state_from_labels("abcdefg")
        twig_a = add_twig(state, 2, "z", 1)
        twig_b = add_twig(state, 3, "y", 1)
        # head-2-twig_a-twig_b-3-tail has length 2+1+1+3 = 7 >= 6: fine.
        assert constraint_two_ok_existing_edge(state, twig_a, twig_b)

    def test_constraint_three_existing_edge_smaller_diameter_rejected(self):
        # Build a path with a twig whose connection creates an equal-length
        # but lexicographically smaller diameter.
        state = make_state_from_labels(["b", "c", "d", "e", "f", "g", "h"])
        twig = add_twig(state, 1, "a", 1)  # twig label 'a' attached to vertex 1
        # Connect twig to vertex 0 (the head): creates diameter
        # twig-1-2-...-6 with labels a,c,d,e,f,g,h?  No - the new edge is
        # (twig, 0).  New path: twig,0 has length 1; diameter paths through
        # the new edge: head(0)->twig segment + twig->tail... D_H[twig]=2,
        # D_T[twig]=6: adding edge (twig,0) gives D_H'=1.  Candidate new
        # diameters of length 6 via the new edge: 0-twig requires
        # D_H[0]+1+D_T[twig] = 0+1+6 = 7 != 5, D_H[twig]+1+D_T[0] = 2+1+6=9.
        # So no new diameter is created and the check passes.
        assert constraint_three_ok_existing_edge(state, twig, 0)

    def test_closing_edge_checks_combine(self):
        state = make_state_from_labels("abcdefg")

        def admissible(u, v):
            return constraint_two_ok_existing_edge(
                state, u, v
            ) and constraint_three_ok_existing_edge(state, u, v)

        twig_a = add_twig(state, 2, "z", 1)
        twig_b = add_twig(state, 3, "y", 1)
        assert admissible(twig_a, twig_b)
        near_head = add_twig(state, 1, "x", 1)
        near_tail = add_twig(state, 5, "w", 1)
        assert not admissible(near_head, near_tail)


class TestDistanceMaintenance:
    def test_relax_distance_map_propagates(self):
        state = make_state_from_labels("abcde")
        twig = add_twig(state, 2, "z", 1)
        deep = add_twig(state, twig, "y", 2)
        # Add a shortcut from the deep twig to the head and relax.
        state.pattern.add_edge(deep, 0)
        distances = dict(state.dist_head)
        distances[deep] = 1  # via the new edge
        relaxed = relax_distance_map(state.pattern, distances, [deep])
        true_distances = bfs_distances(state.pattern, 0)
        assert relaxed == true_distances

    def test_distances_after_existing_edge_match_bfs(self):
        state = make_state_from_labels("abcdefg")
        twig_a = add_twig(state, 2, "z", 1)
        twig_b = add_twig(state, 3, "y", 1)
        state.pattern.add_edge(twig_a, twig_b)
        dist_head, dist_tail = distances_after_existing_edge(state, twig_a, twig_b)
        assert dist_head == bfs_distances(state.pattern, state.head)
        assert dist_tail == bfs_distances(state.pattern, state.tail)

    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=0, max_value=2_000),
        st.integers(min_value=0, max_value=2_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_distances_equal_bfs_under_random_growth(
        self, length, seed, growth_seed
    ):
        """D_H / D_T maintained incrementally always equal a fresh BFS."""
        from repro.core.orders import canonical_label_orientation

        rng = random.Random(growth_seed)
        path = random_labeled_path(length, 3, seed=seed)
        labels = canonical_label_orientation(
            tuple(str(path.label_of(v)) for v in sorted(path.vertices()))
        )
        state = make_state_from_labels(labels)
        # Random admissible growth: a few pendant twigs plus a few edges.
        for _ in range(6):
            parents = list(state.pattern.vertices())
            parent = rng.choice(parents)
            if constraint_one_ok_new_vertex(state, parent):
                add_twig(
                    state,
                    parent,
                    rng.choice("xyz"),
                    state.levels[parent] + 1,
                )
        vertices = list(state.pattern.vertices())
        for _ in range(3):
            u, v = rng.sample(vertices, 2)
            if state.pattern.has_edge(u, v):
                continue
            if not constraint_two_ok_existing_edge(state, u, v):
                continue
            state.pattern.add_edge(u, v)
            state.dist_head, state.dist_tail = distances_after_existing_edge(
                state, u, v
            )
        assert state.dist_head == bfs_distances(state.pattern, state.head)
        assert state.dist_tail == bfs_distances(state.pattern, state.tail)
