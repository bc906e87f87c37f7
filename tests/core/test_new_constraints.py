"""Tests for the path and bounded-diameter constraints and their drivers."""

from __future__ import annotations

import pytest

from repro.core.database import MiningContext
from repro.core.framework import (
    BoundedDiameterDriver,
    PathConstraintDriver,
    bounded_diameter_constraint,
    check_continuity,
    check_reducibility,
    path_shape_constraint,
)
from repro.graph.canonical import canonical_key
from repro.graph.generators import erdos_renyi_graph
from repro.graph.labeled_graph import build_graph
from repro.graph.paths import diameter as graph_diameter


def pattern_universe():
    """Paths, a star, a triangle, a square and a Y — the property-check arena."""
    universe = []
    for length in range(1, 5):
        labels = {i: "a" for i in range(length + 1)}
        edges = [(i, i + 1) for i in range(length)]
        universe.append(build_graph(labels, edges))
    universe.append(  # star
        build_graph({0: "a", 1: "a", 2: "a", 3: "a"}, [(0, 1), (0, 2), (0, 3)])
    )
    universe.append(  # triangle
        build_graph({0: "a", 1: "a", 2: "a"}, [(0, 1), (1, 2), (0, 2)])
    )
    universe.append(  # square
        build_graph({0: "a", 1: "a", 2: "a", 3: "a"}, [(0, 1), (1, 2), (2, 3), (3, 0)])
    )
    universe.append(  # Y with a longer arm
        build_graph(
            {0: "a", 1: "a", 2: "a", 3: "a", 4: "a"},
            [(0, 1), (1, 2), (2, 3), (2, 4)],
        )
    )
    return universe


def data_graph():
    """Two a-b-c-d chains sharing a tail decoration (support-2 structures)."""
    return build_graph(
        {
            0: "a", 1: "b", 2: "c", 3: "d",
            10: "a", 11: "b", 12: "c", 13: "d",
            20: "x", 21: "y",
        },
        [(0, 1), (1, 2), (2, 3), (10, 11), (11, 12), (12, 13), (20, 21), (3, 20)],
    )


class TestPathShapeConstraint:
    def test_predicate(self):
        predicate = path_shape_constraint(2)
        assert predicate(build_graph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)]))
        # Wrong length, branching, and cycles all fail.
        assert not predicate(build_graph({0: "a", 1: "b"}, [(0, 1)]))
        assert not predicate(
            build_graph({0: "a", 1: "a", 2: "a", 3: "a"}, [(0, 1), (0, 2), (0, 3)])
        )
        assert not predicate(
            build_graph({0: "a", 1: "a", 2: "a"}, [(0, 1), (1, 2), (0, 2)])
        )

    def test_reducible_and_continuous_on_universe(self):
        predicate = path_shape_constraint(3)
        reducibility = check_reducibility(predicate, pattern_universe(), min_size=3)
        assert reducibility.reducible
        assert all(p.num_edges() == 3 for p in reducibility.minimal_patterns)
        continuity = check_continuity(
            predicate, pattern_universe(), reducibility.minimal_patterns
        )
        assert continuity.continuous

    def test_driver_returns_paths_only(self):
        context = MiningContext(data_graph(), min_support=2)
        driver = PathConstraintDriver()
        minimal = driver.mine_minimal(context, 3)
        assert minimal, "the a-b-c-d chain occurs twice"
        predicate = path_shape_constraint(3)
        for path in minimal:
            grown = driver.grow(context, path, 3)
            assert len(grown) == 1
            assert predicate(grown[0].graph)
            assert grown[0].support >= 2

    def test_driver_include_minimal_false_is_empty(self):
        context = MiningContext(data_graph(), min_support=2)
        driver = PathConstraintDriver(include_minimal=False)
        (path, *_) = driver.mine_minimal(context, 3)
        assert driver.grow(context, path, 3) == []


class TestBoundedDiameterConstraint:
    def test_predicate(self):
        predicate = bounded_diameter_constraint(1)
        assert predicate(build_graph({0: "a", 1: "b"}, [(0, 1)]))
        assert predicate(  # triangle: diameter 1
            build_graph({0: "a", 1: "a", 2: "a"}, [(0, 1), (1, 2), (0, 2)])
        )
        assert not predicate(build_graph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)]))
        assert not predicate(build_graph({0: "a"}, []))  # no edge

    def test_reducible_and_continuous_on_universe(self):
        predicate = bounded_diameter_constraint(1)
        reducibility = check_reducibility(predicate, pattern_universe(), min_size=1)
        assert reducibility.reducible
        # Single edges are minimal; so is the triangle (its strict
        # subpatterns are 2-paths with diameter 2 > 1).
        sizes = {p.num_edges() for p in reducibility.minimal_patterns}
        assert 1 in sizes and 3 in sizes
        continuity = check_continuity(
            predicate, pattern_universe(), reducibility.minimal_patterns
        )
        assert continuity.continuous

    def test_minimal_patterns_are_frequent_edges(self):
        context = MiningContext(data_graph(), min_support=2)
        driver = BoundedDiameterDriver()
        minimal = driver.mine_minimal(context, 2)
        shapes = {tuple(sorted(p.diameter_labels())) for p in minimal}
        assert shapes == {("a", "b"), ("b", "c"), ("c", "d")}
        assert all(p.num_edges == 1 and p.support >= 2 for p in minimal)

    def test_growth_preserves_constraint_and_support(self):
        context = MiningContext(data_graph(), min_support=2)
        driver = BoundedDiameterDriver()
        predicate = bounded_diameter_constraint(2)
        grown = []
        for minimal in driver.mine_minimal(context, 2):
            grown.extend(driver.grow(context, minimal, 2))
        assert any(p.num_edges == 2 for p in grown), "a-b-c / b-c-d should grow"
        for pattern in grown:
            assert predicate(pattern.graph)
            assert graph_diameter(pattern.graph) <= 2
            assert pattern.support >= 2
            # Embeddings really are occurrences of the pattern.
            for embedding in pattern.embeddings:
                data = context.graph(embedding.graph_index)
                mapping = embedding.as_dict()
                for edge in pattern.graph.edges():
                    assert data.has_edge(mapping[edge.u], mapping[edge.v])
                for vertex, target in mapping.items():
                    assert str(data.label_of(target)) == str(
                        pattern.graph.label_of(vertex)
                    )

    def test_max_edges_cap(self):
        context = MiningContext(data_graph(), min_support=2)
        driver = BoundedDiameterDriver(max_edges=1)
        for minimal in driver.mine_minimal(context, 2):
            assert driver.grow(context, minimal, 2) == [minimal]

    def test_max_patterns_cap(self):
        context = MiningContext(data_graph(), min_support=2)
        driver = BoundedDiameterDriver(max_patterns=1)
        (minimal, *_) = driver.mine_minimal(context, 2)
        assert len(driver.grow(context, minimal, 2)) <= 1


class TestBoundedDiameterQueryScope:
    """One driver instance grows one query's answer, each pattern once."""

    @staticmethod
    def answer(driver, context, bound):
        return [
            pattern
            for minimal in driver.mine_minimal(context, bound)
            for pattern in driver.grow(context, minimal, bound)
        ]

    @staticmethod
    def numbered(patterns):
        return [
            (
                sorted((v, str(p.graph.label_of(v))) for v in p.graph.vertices()),
                sorted(e.endpoints() for e in p.graph.edges()),
                p.support,
                [e.mapping for e in p.embeddings],
            )
            for p in patterns
        ]

    def test_each_pattern_is_returned_once(self):
        context = MiningContext(erdos_renyi_graph(20, 2.5, 3, seed=1), min_support=2)
        patterns = self.answer(BoundedDiameterDriver(max_edges=5), context, 2)
        keys = [canonical_key(p.graph) for p in patterns]
        assert len(keys) > 20
        assert len(keys) == len(set(keys))

    def test_capped_answer_is_a_prefix_of_the_uncapped_one(self):
        context = MiningContext(erdos_renyi_graph(20, 2.5, 3, seed=1), min_support=2)
        uncapped = self.numbered(self.answer(BoundedDiameterDriver(max_edges=5), context, 2))
        for cap in (1, 2, 5, 17, len(uncapped) - 1, len(uncapped), len(uncapped) + 3):
            driver = BoundedDiameterDriver(max_edges=5, max_patterns=cap)
            assert self.numbered(self.answer(driver, context, 2)) == uncapped[:cap]

    def test_grow_after_the_cap_returns_nothing(self):
        context = MiningContext(data_graph(), min_support=2)
        driver = BoundedDiameterDriver(max_patterns=2)
        first, *rest = driver.mine_minimal(context, 2)
        assert len(driver.grow(context, first, 2)) == 2
        assert rest and all(driver.grow(context, minimal, 2) == [] for minimal in rest)

    def test_another_context_or_bound_is_refused(self):
        context = MiningContext(data_graph(), min_support=2)
        driver = BoundedDiameterDriver()
        first, second, *_ = driver.mine_minimal(context, 2)
        driver.grow(context, first, 2)
        with pytest.raises(ValueError):
            driver.grow(context, second, 3)
        with pytest.raises(ValueError):
            driver.grow(MiningContext(data_graph(), min_support=2), second, 2)
        assert driver.grow(context, second, 2)
