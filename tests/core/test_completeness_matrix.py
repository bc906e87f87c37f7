"""Cross-checked completeness matrix: SkinnyMine vs the reference enumerator.

The matrix spans the three axes the exactness work (ISSUE 4) had to close:

* **databases** — seeded single graphs and graph-transaction databases;
* **constraints** — all three built-ins (``skinny``, ``path``, ``diam-le``);
* **support measures** — embedding count, MNI and per-graph (transaction)
  support.

Under the anti-monotone measures (MNI, transactions) the miners must match
the exhaustive oracle *exactly* — set equality and support equality.  Under
raw embedding count (not anti-monotone: growing a pattern can split one
image into many) Stage 2 still prunes infrequent intermediates, so only
soundness is guaranteed there: everything reported is correct, frequent and
exactly counted.  ``docs/CORRECTNESS.md`` spells out the contract; this file
is its executable citation.

The structural regression pins live here too: the ROADMAP's missing 4-cycle
(seed 85), the mutual-repair theta graph, the cross-level 8-cycle, and the
twig-to-twig canonical-diameter violation (seed 80) that the per-edge
constraint checks cannot see.

Last, dense planted patterns of cycle rank 3 drive LevelGrow's duplicate
registry above the tree and unicyclic rungs, onto the
individualisation-refinement labeller, and pin two open gaps
(``xfail(strict=True)``, listed in ``docs/CORRECTNESS.md``) that those
inputs expose.  The bull pins the smallest input of the first gap under
all three measures, next to a relabelled control that is found.
"""

from __future__ import annotations

import itertools
import random

import pytest

import repro.core.levelgrow as levelgrow
from repro.api import MiningEngine, Query
from repro.core.database import MiningContext, SupportMeasure
from repro.core.diameter import is_l_long_delta_skinny
from repro.core.diammine import DiamMine, brute_force_frequent_paths
from repro.core.framework import (
    BoundedDiameterDriver,
    bounded_diameter_constraint,
)
from repro.core.reference import (
    enumerate_and_check_spm,
    enumerate_frequent_connected_subgraphs,
)
from repro.core.skinnymine import SkinnyMine
from repro.graph.canonical import canonical_key
from repro.graph.generators import (
    erdos_renyi_graph,
    inject_pattern,
    random_transaction_database,
)
from repro.graph.isomorphism import are_isomorphic
from repro.graph.labeled_graph import LabeledGraph, build_graph

MAX_EDGES = 6

SINGLE_GRAPH_SEEDS = (7, 23, 80, 85)
TRANSACTION_SEEDS = (11, 42, 85, 199)

SINGLE_MEASURES = (SupportMeasure.EMBEDDINGS, SupportMeasure.MNI)
TRANSACTION_MEASURES = (SupportMeasure.TRANSACTIONS, SupportMeasure.MNI)


def single_graph(seed):
    return erdos_renyi_graph(12, 1.5, 3, seed=seed)


def transaction_db(seed):
    return random_transaction_database(3, 12, 1.4, 4, seed=seed)


def keyed(patterns):
    return {canonical_key(p.graph.compact()[0]): p.support for p in patterns}


def assert_matches_oracle(mined, oracle, *, complete):
    mined_map = {k: s for k, s in keyed(mined).items()}
    oracle_map = keyed(oracle)
    extra = set(mined_map) - set(oracle_map)
    assert not extra, f"unsound: {len(extra)} pattern(s) not in the oracle"
    for key, support in mined_map.items():
        assert oracle_map[key] == support, "support mismatch vs oracle"
    if complete:
        missing = set(oracle_map) - set(mined_map)
        assert not missing, f"incomplete: {len(missing)} oracle pattern(s) missed"


# --------------------------------------------------------------------- #
# skinny
# --------------------------------------------------------------------- #
class TestSkinnyMatrix:
    @pytest.mark.parametrize("seed", SINGLE_GRAPH_SEEDS)
    @pytest.mark.parametrize("measure", SINGLE_MEASURES)
    def test_single_graph(self, seed, measure):
        graph = single_graph(seed)
        mined = SkinnyMine(graph, min_support=2, support_measure=measure).mine(
            2, 1, validate=True
        )
        oracle = enumerate_and_check_spm(
            graph, 2, 1, 2, max_edges=MAX_EDGES, support_measure=measure
        )
        assert_matches_oracle(
            [p for p in mined if p.num_edges <= MAX_EDGES],
            oracle,
            complete=measure.anti_monotone,
        )

    @pytest.mark.parametrize("seed", TRANSACTION_SEEDS)
    @pytest.mark.parametrize("measure", TRANSACTION_MEASURES)
    def test_transaction_database(self, seed, measure):
        database = transaction_db(seed)
        mined = SkinnyMine(database, min_support=2, support_measure=measure).mine(
            2, 1, validate=True
        )
        oracle = enumerate_and_check_spm(
            database, 2, 1, 2, max_edges=MAX_EDGES, support_measure=measure
        )
        assert_matches_oracle(
            [p for p in mined if p.num_edges <= MAX_EDGES],
            oracle,
            complete=True,
        )


# --------------------------------------------------------------------- #
# path (Stage 1 alone: DiamMine vs brute force, exact under EVERY measure)
# --------------------------------------------------------------------- #
class TestPathMatrix:
    @pytest.mark.parametrize("seed", SINGLE_GRAPH_SEEDS)
    @pytest.mark.parametrize(
        "measure", (SupportMeasure.EMBEDDINGS, SupportMeasure.MNI)
    )
    @pytest.mark.parametrize("length", (2, 3))
    def test_single_graph(self, seed, measure, length):
        context = MiningContext(single_graph(seed), 2, measure)
        mined = DiamMine(context).mine(length)
        brute = brute_force_frequent_paths(context, length)
        assert sorted(p.labels for p in mined) == sorted(p.labels for p in brute)
        assert {p.labels: p.support for p in mined} == {
            p.labels: p.support for p in brute
        }

    @pytest.mark.parametrize("seed", TRANSACTION_SEEDS)
    @pytest.mark.parametrize("measure", TRANSACTION_MEASURES)
    def test_transaction_database(self, seed, measure):
        context = MiningContext(transaction_db(seed), 2, measure)
        mined = DiamMine(context).mine(3)
        brute = brute_force_frequent_paths(context, 3)
        assert sorted(p.labels for p in mined) == sorted(p.labels for p in brute)
        assert {p.labels: p.support for p in mined} == {
            p.labels: p.support for p in brute
        }


# --------------------------------------------------------------------- #
# diam-le (bounded diameter, grown via pending intermediates)
# --------------------------------------------------------------------- #
def mine_bounded_diameter(graphs, bound, min_support, measure):
    context = MiningContext(graphs, min_support, measure)
    driver = BoundedDiameterDriver(max_edges=MAX_EDGES)
    results = []
    seen = set()
    for minimal in driver.mine_minimal(context, bound):
        for pattern in driver.grow(context, minimal, bound):
            key = canonical_key(pattern.graph.compact()[0])
            if key not in seen:
                seen.add(key)
                results.append(pattern)
    return results


def bounded_diameter_oracle(graphs, bound, min_support, measure):
    context = MiningContext(graphs, min_support, measure)
    predicate = bounded_diameter_constraint(bound)
    return [
        (pattern, support)
        for pattern, _, support in enumerate_frequent_connected_subgraphs(
            context, MAX_EDGES
        )
        if predicate(pattern)
    ]


class TestBoundedDiameterMatrix:
    @pytest.mark.parametrize("seed", SINGLE_GRAPH_SEEDS)
    @pytest.mark.parametrize("measure", SINGLE_MEASURES)
    def test_single_graph(self, seed, measure):
        assert_diam_le_matches_oracle(single_graph(seed), measure)

    @pytest.mark.parametrize("seed", TRANSACTION_SEEDS[:2])
    def test_transaction_database(self, seed):
        assert_diam_le_matches_oracle(transaction_db(seed), SupportMeasure.TRANSACTIONS)

    # Edge labels from {x, y}, on every edge or on about half of them, so
    # unlabelled edges meet labelled ones of the same vertex labels.  The
    # graphs are denser, over two vertex labels, so that every row still
    # has frequent patterns once edge labels split them.
    @pytest.mark.parametrize("share", (1.0, 0.5), ids=("every-edge", "some-edges"))
    @pytest.mark.parametrize("seed", SINGLE_GRAPH_SEEDS)
    @pytest.mark.parametrize("measure", SINGLE_MEASURES)
    def test_edge_labelled_single_graph(self, seed, measure, share):
        graph = with_edge_labels(erdos_renyi_graph(12, 1.8, 2, seed=seed), seed, share)
        assert_diam_le_matches_oracle(graph, measure)

    @pytest.mark.parametrize("share", (1.0, 0.5), ids=("every-edge", "some-edges"))
    @pytest.mark.parametrize("seed", TRANSACTION_SEEDS[:2])
    @pytest.mark.parametrize("measure", TRANSACTION_MEASURES)
    def test_edge_labelled_transaction_database(self, seed, measure, share):
        database = [
            with_edge_labels(graph, seed * 10 + index, share)
            for index, graph in enumerate(random_transaction_database(3, 12, 1.8, 2, seed=seed))
        ]
        assert_diam_le_matches_oracle(database, measure)

    # Two copies of a-b-c, unlabelled but for the second copy's b-c edge,
    # which carries the string "None": it is not an unlabelled edge, so
    # only a-b occurs twice.
    @pytest.mark.parametrize("measure", SINGLE_MEASURES)
    def test_an_edge_labelled_none_is_not_unlabelled(self, measure):
        graph = build_graph(
            {0: "a", 1: "b", 2: "c", 3: "a", 4: "b", 5: "c"}, [(0, 1), (1, 2), (3, 4)]
        )
        graph.add_edge(4, 5, "None")
        assert_diam_le_matches_oracle(graph, measure)
        assert len(mine_bounded_diameter(graph, 2, 2, measure)) == 1


def with_edge_labels(graph, seed, share):
    """A copy of ``graph`` whose edges carry x or y, each with probability ``share``."""
    rng = random.Random(seed)
    labelled = LabeledGraph(name=graph.name)
    for vertex in graph.vertices():
        labelled.add_vertex(vertex, graph.label_of(vertex))
    for edge in sorted(graph.edges(), key=lambda edge: (edge.u, edge.v)):
        labelled.add_edge(edge.u, edge.v, rng.choice("xy") if rng.random() < share else None)
    return labelled


def assert_diam_le_matches_oracle(graphs, measure):
    mined = keyed(mine_bounded_diameter(graphs, 2, 2, measure))
    oracle = {
        canonical_key(pattern.compact()[0]): support
        for pattern, support in bounded_diameter_oracle(graphs, 2, 2, measure)
    }
    assert oracle, "the input has no frequent pattern to compare"
    assert set(mined) <= set(oracle)
    for key, support in mined.items():
        assert oracle[key] == support
    if measure.anti_monotone:
        assert set(mined) == set(oracle)


# --------------------------------------------------------------------- #
# structural regression pins
# --------------------------------------------------------------------- #
class TestStructuralRegressions:
    def test_roadmap_missing_four_cycle(self):
        """The ROADMAP repro: seed 85's frequent 4-cycle is found and the
        full result matches enumerate_and_check_spm.
        """
        database = transaction_db(85)
        mined = SkinnyMine(database, min_support=2).mine(2, 1)
        oracle = enumerate_and_check_spm(database, 2, 1, 2)
        assert keyed(mined) == keyed(oracle)
        assert any(
            p.num_edges == 4 and p.num_vertices == 4 for p in mined
        ), "the frequent 4-cycle must be in the result"

    def test_mutual_repair_theta(self):
        """Two pendants that only become valid through each other (C5)."""
        graph = build_graph(
            {0: "a", 1: "b", 2: "c", 3: "d", 4: "e"},
            [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)],
        )
        database = [graph, graph.copy()]
        mined = SkinnyMine(database, min_support=2).mine(2, 1)
        oracle = enumerate_and_check_spm(database, 2, 1, 2)
        assert keyed(mined) == keyed(oracle)

    def test_cross_level_repair_eight_cycle(self):
        """An 8-cycle's far arm repairs across two growth levels."""
        cycle = build_graph(
            {i: label for i, label in enumerate("abcdefgh")},
            [(i, (i + 1) % 8) for i in range(8)],
        )
        database = [cycle, cycle.copy()]
        mined = SkinnyMine(database, min_support=2).mine(4, 2)
        oracle = enumerate_and_check_spm(database, 4, 2, 2)
        assert keyed(mined) == keyed(oracle)

    def test_closed_and_maximal_filters_see_through_pending_repairs(self):
        """A pattern emitted out of a pending excursion is a super-pattern of
        the excursion's reportable origin: the closed/maximal accounting
        must credit that origin, or the origin is wrongly reported as
        closed/maximal.

        The filters are cluster-local by contract (see SkinnyMine.mine), so
        on a-b-a-b cycle data only the (a,b,a)-cluster path — whose cluster
        emits the 4-cycle — is filtered; the (b,a,b) path's cluster does not
        report the cycle (its canonical diameter is (a,b,a)) and that path
        legitimately survives.
        """
        cycle = build_graph(
            {0: "a", 1: "b", 2: "a", 3: "b"},
            [(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        database = [cycle, cycle.copy()]
        for kwargs in ({"maximal_only": True}, {"closed_only": True}):
            result = SkinnyMine(database, min_support=2).mine(2, 1, **kwargs)
            shapes = sorted((p.num_vertices, p.num_edges) for p in result)
            assert shapes == [(3, 2), (4, 4)], (kwargs, result)
            surviving_paths = [p for p in result if p.num_edges == 2]
            assert [p.diameter_labels() for p in surviving_paths] == [
                ("b", "a", "b")
            ], surviving_paths

    def test_twig_to_twig_canonical_diameter_guard(self):
        """Seed 80: a twig–twig diameter path with smaller labels must keep
        the pattern out of this cluster (the per-edge Constraint III checks
        cannot see it; the emission-time Loop-Invariant check can).
        """
        graph = single_graph(80)
        mined = SkinnyMine(graph, min_support=2).mine(2, 1, validate=True)
        oracle = enumerate_and_check_spm(graph, 2, 1, 2, max_edges=MAX_EDGES)
        assert set(keyed(p for p in mined if p.num_edges <= MAX_EDGES)) <= set(
            keyed(oracle)
        )


# --------------------------------------------------------------------- #
# dense planted patterns: LevelGrow's labeller keys, and two open gaps
# --------------------------------------------------------------------- #
DENSE_PARITY_SEEDS = (0, 3, 5, 6, 7)
DENSE_MAX_EDGES = 9

#: K4 minus the edge between its two b vertices; under MNI its support on
#: dense_planted(1) and dense_planted(4) is 4, and the miner misses it.
K4_MINUS_EDGE = build_graph(
    {0: "a", 1: "b", 2: "a", 3: "b"}, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
)

#: A 2-long 1-skinny pattern only under some vertex numberings: it has
#: several diameter paths with the smallest label sequence, and
#: ``canonical_diameter`` breaks that tie by vertex id.  The miner emits it
#: on dense_planted(2); the oracle tests the numbering of the compacted
#: occurrence, which fails.
NUMBERING_DEPENDENT = build_graph(
    {0: "a", 1: "a", 2: "a", 3: "b", 4: "a"},
    [(0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)],
)


def dense_planted(seed):
    """ER(6, 1.0, 3) plus two copies of a 5-vertex a/b path with 3 chords.

    The planted pattern has cycle rank 3 (7 edges on 5 vertices), so Stage 2
    grows patterns above the tree and unicyclic rungs.
    """
    rng = random.Random(seed)
    pattern = LabeledGraph()
    for vertex in range(5):
        pattern.add_vertex(vertex, rng.choice("ab"))
    for vertex in range(4):
        pattern.add_edge(vertex, vertex + 1)
    chords = [(u, v) for u in range(5) for v in range(u + 2, 5)]
    for u, v in rng.sample(chords, 3):
        pattern.add_edge(u, v)
    data = erdos_renyi_graph(6, 1.0, 3, seed=seed)
    inject_pattern(data, pattern, copies=2, seed=seed)
    return data


def mine_dense(data):
    query = Query(
        "skinny",
        {"length": 2, "delta": 1},
        min_support=2,
        support_measure=SupportMeasure.MNI.value,
    )
    return MiningEngine(data).run(query).patterns


def dense_oracle(data):
    return enumerate_and_check_spm(
        data, 2, 1, 2,
        max_edges=DENSE_MAX_EDGES,
        support_measure=SupportMeasure.MNI,
    )


def cycle_rank(graph):
    return graph.num_edges() - graph.num_vertices() + 1


class TestDensePlantedPatterns:
    @pytest.mark.parametrize("seed", DENSE_PARITY_SEEDS)
    def test_rank_three_rung_matches_the_oracle(self, seed, monkeypatch):
        """LevelGrow keys rank >= 2 patterns by the labeller, and stays exact."""
        batch_key = levelgrow.canonical_key
        labelled = []

        def counting_canonical_key(graph):
            key = batch_key(graph)
            labelled.append((key[0], cycle_rank(graph)))
            return key

        monkeypatch.setattr(levelgrow, "canonical_key", counting_canonical_key)
        data = dense_planted(seed)
        mined = mine_dense(data)

        assert labelled and {rung for rung, _ in labelled} == {"r"}
        assert min(rank for _, rank in labelled) >= 2
        assert [cycle_rank(p.graph) >= 3 for p in mined].count(True) == 1
        for left, right in itertools.combinations(mined, 2):
            assert not are_isomorphic(left.graph, right.graph)
        assert keyed(mined) == keyed(dense_oracle(data))

    @pytest.mark.parametrize(
        "seed, missing, extra",
        [
            pytest.param(1, {K4_MINUS_EDGE: 4}, {}, id="seed1-k4-minus-edge"),
            pytest.param(2, {}, {NUMBERING_DEPENDENT: 2}, id="seed2-numbering"),
            pytest.param(4, {K4_MINUS_EDGE: 4}, {}, id="seed4-k4-minus-edge"),
        ],
    )
    def test_gap_seeds_differ_only_by_the_pinned_pattern(self, seed, missing, extra):
        """Outside the two pinned gaps, miner and oracle agree on these seeds."""
        data = dense_planted(seed)
        mined = keyed(mine_dense(data))
        oracle = keyed(dense_oracle(data))
        missed = {key: oracle[key] for key in set(oracle) - set(mined)}
        added = {key: mined[key] for key in set(mined) - set(oracle)}
        assert missed == {canonical_key(g): s for g, s in missing.items()}
        assert added == {canonical_key(g): s for g, s in extra.items()}

    @pytest.mark.xfail(
        strict=True,
        reason="open gap (docs/CORRECTNESS.md): skinny growth under MNI "
        "misses K4 minus an edge labelled a,b,a,b",
    )
    @pytest.mark.parametrize("seed", (1, 4))
    def test_mni_growth_finds_k4_minus_edge(self, seed):
        mined = keyed(mine_dense(dense_planted(seed)))
        assert mined.get(canonical_key(K4_MINUS_EDGE)) == 4

    @pytest.mark.xfail(
        strict=True,
        reason="open gap (docs/CORRECTNESS.md): is_l_long_delta_skinny "
        "depends on the vertex numbering",
    )
    def test_skinny_check_is_independent_of_numbering(self):
        labels = NUMBERING_DEPENDENT.vertex_labels()
        edges = [edge.endpoints() for edge in NUMBERING_DEPENDENT.edges()]
        verdicts = set()
        for numbering in itertools.permutations(range(len(labels))):
            renumbered = build_graph(
                {numbering[v]: label for v, label in labels.items()},
                [(numbering[u], numbering[v]) for u, v in edges],
            )
            verdicts.add(is_l_long_delta_skinny(renumbered, 2, 1))
        assert verdicts == {True}


# --------------------------------------------------------------------- #
# the bull: Constraint III treated as permanent loses a cycle-rank-1 pattern
# --------------------------------------------------------------------- #
def bull(apex, offset=0):
    """Triangle 1-3-4 with pendant 0 on 1 and pendant 2 on 3.

    The path 0-1-3-2 is labelled b and the apex 4 carries ``apex``.  With
    apex ``a`` the pattern's canonical diameter is b-b-b-b, but cluster
    b-b-b-b can only attach the apex as a pendant on 1 or 3, which makes
    a-b-b-b a smaller-label diameter path; Constraint III rejects that
    pendant for good, though the edge closing the triangle would make the
    a-b-b-b path no longer a shortest path.
    """
    labels = {0: "b", 1: "b", 2: "b", 3: "b", 4: apex}
    edges = [(0, 1), (1, 3), (3, 2), (1, 4), (3, 4)]
    return build_graph(
        {vertex + offset: label for vertex, label in labels.items()},
        [(u + offset, v + offset) for u, v in edges],
    )


def two_bulls(apex, measure):
    """Two copies: one per transaction, or two components of one graph."""
    if measure is SupportMeasure.TRANSACTIONS:
        return [bull(apex), bull(apex)]
    graph = bull(apex)
    other = bull(apex, offset=5)
    for vertex, label in other.vertex_labels().items():
        graph.add_vertex(vertex, label)
    for edge in other.edges():
        graph.add_edge(edge.u, edge.v)
    return [graph]


def assert_bull_found(apex, measure):
    data = two_bulls(apex, measure)
    query = Query(
        "skinny",
        {"length": 3, "delta": 1},
        min_support=2,
        support_measure=measure.value,
    )
    oracle = keyed(
        enumerate_and_check_spm(
            data, 3, 1, 2, max_edges=MAX_EDGES, support_measure=measure
        )
    )
    target = canonical_key(bull(apex))
    assert oracle.get(target) == 2
    mined = keyed(MiningEngine(data).run(query).patterns)
    assert mined.get(target) == 2, f"missed the bull: {len(mined)} of {len(oracle)}"


class TestBull:
    @pytest.mark.xfail(
        strict=True,
        reason="open gap (docs/CORRECTNESS.md): a Constraint-III rejection "
        "is treated as permanent, so the apex-a bull is never grown",
    )
    @pytest.mark.parametrize("measure", list(SupportMeasure), ids=lambda m: m.value)
    def test_apex_a_bull_is_found(self, measure):
        assert_bull_found("a", measure)

    @pytest.mark.parametrize("measure", list(SupportMeasure), ids=lambda m: m.value)
    def test_apex_c_bull_is_found(self, measure):
        # With apex c the diameter b-b-b-b has no smaller-label rival.
        assert_bull_found("c", measure)
