"""Tests for the generic direct-mining framework (Section 5)."""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.core.database import MiningContext
from repro.core.framework import (
    SkinnyConstraintDriver,
    check_continuity,
    check_reducibility,
    max_degree_constraint,
    min_size_constraint,
    skinny_constraint,
    uniform_degree_constraint,
)
from repro.core.levelgrow import DiameterDescriptorCache, LevelGrowStatistics
from repro.graph.generators import erdos_renyi_graph, inject_pattern, random_skinny_pattern
from repro.graph.labeled_graph import build_graph


def pattern_universe():
    """A small explicit pattern universe used for property checks.

    Contains paths of several lengths, a star, a triangle, a square and a
    skinny Y shape — enough to exercise both positive and negative cases of
    the reducibility / continuity definitions.
    """
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
    universe.append(  # square (2-regular, all degrees equal)
        build_graph({0: "a", 1: "a", 2: "a", 3: "a"}, [(0, 1), (1, 2), (2, 3), (3, 0)])
    )
    universe.append(  # Y with a longer arm (3-long 1-skinny)
        build_graph(
            {0: "a", 1: "a", 2: "a", 3: "a", 4: "a"},
            [(0, 1), (1, 2), (2, 3), (2, 4)],
        )
    )
    return universe


class TestReducibility:
    def test_skinny_constraint_is_reducible(self):
        report = check_reducibility(skinny_constraint(3, 1), pattern_universe(), min_size=3)
        assert report.reducible
        # The minimal patterns are the bare length-3 paths.
        assert any(
            pattern.num_edges() == 3 and pattern.num_vertices() == 4
            for pattern in report.minimal_patterns
        )
        assert report.threshold_size == 3

    def test_max_degree_constraint_not_reducible(self):
        # Paper Section 5.2: MaxDegree < K admits only trivial minimal patterns.
        report = check_reducibility(
            max_degree_constraint(3), pattern_universe(), min_size=2
        )
        assert not report.reducible

    def test_min_size_constraint_reducible(self):
        report = check_reducibility(min_size_constraint(3), pattern_universe(), min_size=3)
        assert report.reducible
        assert all(p.num_edges() == 3 for p in report.minimal_patterns)

    def test_empty_universe(self):
        report = check_reducibility(min_size_constraint(1), [])
        assert not report.reducible
        assert report.minimal_patterns == []


class TestContinuity:
    def test_skinny_constraint_is_continuous_on_universe(self):
        predicate = skinny_constraint(3, 1)
        universe = pattern_universe()
        minimal = check_reducibility(predicate, universe, min_size=3).minimal_patterns
        report = check_continuity(predicate, universe, minimal)
        assert report.continuous

    def test_uniform_degree_constraint_not_continuous(self):
        # Paper Section 5.3: "all vertices have equal degree" is not continuous.
        predicate = uniform_degree_constraint()
        universe = pattern_universe()
        single_edge = [p for p in universe if p.num_edges() == 1]
        report = check_continuity(predicate, universe, minimal_patterns=single_edge)
        assert not report.continuous
        # The square (2-regular) is satisfying but removing any edge breaks it.
        assert any(p.num_edges() == 4 and p.degree(0) == 2 for p in report.violating_patterns)

    def test_min_size_constraint_continuous(self):
        predicate = min_size_constraint(2)
        universe = pattern_universe()
        minimal = check_reducibility(predicate, universe, min_size=2).minimal_patterns
        assert check_continuity(predicate, universe, minimal).continuous


class TestSkinnyConstraintDriver:
    """The one skinny cluster-growth loop, driven cluster by cluster."""

    @pytest.fixture(scope="class")
    def context(self):
        background = erdos_renyi_graph(120, 1.4, 25, seed=41)
        pattern = random_skinny_pattern(5, 1, 8, 25, seed=43)
        inject_pattern(background, pattern, copies=3, seed=47)
        return MiningContext(background, 2)

    @staticmethod
    def grow_all(driver, context, parameter):
        return [
            pattern
            for path in driver.mine_minimal(context, parameter)
            for pattern in driver.grow(context, path, parameter)
        ]

    @pytest.mark.parametrize(
        "closed_only, maximal_only, accounting",
        [(False, False, False), (True, False, True), (False, True, True), (True, True, True)],
    )
    def test_child_accounting_follows_the_filters(
        self, context, child_accounting_flags, closed_only, maximal_only, accounting
    ):
        driver = SkinnyConstraintDriver(closed_only=closed_only, maximal_only=maximal_only)
        clusters = driver.mine_minimal(context, (4, 1))
        for path in clusters:
            driver.grow(context, path, (4, 1))
        assert child_accounting_flags == [accounting] * len(clusters)

    @pytest.mark.parametrize("include_minimal", [True, False])
    def test_delta_zero_returns_only_the_root(self, context, include_minimal):
        driver = SkinnyConstraintDriver(include_minimal=include_minimal)
        clusters = driver.mine_minimal(context, (4, 0))
        assert clusters
        for path in clusters:
            grown = driver.grow(context, path, (4, 0))
            if include_minimal:
                (root,) = grown
                assert root.num_edges == 4
                assert root.support == path.support
            else:
                assert grown == []
        assert driver.statistics.candidates_generated == 0

    def test_statistics_merge_over_clusters(self, context):
        # One driver is one request: its counters are the sum of its clusters'.
        # The per-cluster drivers share one descriptor cache, as the request's
        # clusters do, so the cache-hit counter adds up too.
        request = SkinnyConstraintDriver()
        clusters = request.mine_minimal(context, (4, 2))
        grown = self.grow_all(request, context, (4, 2))
        cache = DiameterDescriptorCache()
        total = LevelGrowStatistics()
        for path in clusters:
            single = SkinnyConstraintDriver()
            single.descriptor_cache = cache
            single.grow(context, path, (4, 2))
            total.merge(single.statistics)
        counters = [f.name for f in dataclasses.fields(LevelGrowStatistics) if f.type == "int"]
        assert counters
        assert {name: getattr(request.statistics, name) for name in counters} == {
            name: getattr(total, name) for name in counters
        }
        assert request.statistics.patterns_emitted == len(grown) - len(clusters)

    @pytest.mark.parametrize("parameter", [(3, 1), (4, 2)])
    def test_maximal_within_closed_within_all(self, context, parameter):
        def forms(**filters):
            driver = SkinnyConstraintDriver(**filters)
            return Counter(p.canonical_form() for p in self.grow_all(driver, context, parameter))

        everything = forms()
        closed = forms(closed_only=True)
        maximal = forms(maximal_only=True)
        # A pattern with no frequent super-pattern has none of equal support.
        assert maximal and not maximal - closed
        assert closed and not closed - everything
