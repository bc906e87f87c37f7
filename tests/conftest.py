"""Shared fixtures: small graphs used across the test-suite.

The ``figure3_graph`` fixture reproduces the example graph of Figure 3 in the
paper: a 6-long 2-skinny graph whose canonical diameter is the path
``v1..v7`` (labels a, b, c, d, e, f, g here), with twigs hanging off the
backbone at levels 1 and 2.
"""

from __future__ import annotations

import os

import pytest

from repro.graph.embeddings import EmbeddingTable
from repro.graph.labeled_graph import LabeledGraph, build_graph

try:
    from hypothesis import settings as _hypothesis_settings

    # The property suite runs fully randomized by default: the miner
    # completeness gaps that once forced derandomization (the seed-85
    # 4-cycle and friends — see docs/CORRECTNESS.md) are closed and pinned
    # by tests/core/test_completeness_matrix.py.  CI sets
    # REPRO_HYPOTHESIS_DERANDOMIZE=1 purely as a stability flag, so a gate
    # run never flakes on an as-yet-unseen draw; local runs keep exploring
    # fresh seeds.
    _hypothesis_settings.register_profile("repro-ci", derandomize=True)
    _hypothesis_settings.register_profile("repro-random", derandomize=False)
    if os.environ.get("REPRO_HYPOTHESIS_DERANDOMIZE"):
        _hypothesis_settings.load_profile("repro-ci")
    else:
        _hypothesis_settings.load_profile("repro-random")
except ImportError:  # pragma: no cover - hypothesis is a test-only dep
    pass


@pytest.fixture
def triangle_graph() -> LabeledGraph:
    """A labeled triangle a-b-c."""
    return build_graph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path_graph() -> LabeledGraph:
    """A 5-vertex labeled path a-b-c-b-a."""
    return build_graph(
        {0: "a", 1: "b", 2: "c", 3: "b", 4: "a"},
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )


@pytest.fixture
def figure3_graph() -> LabeledGraph:
    """A 6-long 2-skinny graph in the spirit of the paper's Figure 3.

    Backbone: 1-2-3-4-5-6-7 (labels a..g).  Twigs: vertex 8 (level 1) off
    vertex 3, vertex 9 (level 2) off vertex 8, vertex 10 (level 1) off
    vertex 5, vertex 11 (level 1) off vertex 6.
    """
    return build_graph(
        {
            1: "a",
            2: "b",
            3: "c",
            4: "d",
            5: "e",
            6: "f",
            7: "g",
            8: "h",
            9: "i",
            10: "j",
            11: "k",
        },
        [
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (3, 8),
            (8, 9),
            (5, 10),
            (6, 11),
        ],
    )


@pytest.fixture
def two_triangles_graph() -> LabeledGraph:
    """Two disjoint labeled triangles (used for component / embedding tests)."""
    return build_graph(
        {0: "a", 1: "b", 2: "c", 3: "a", 4: "b", 5: "c"},
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
    )


class TupleStorage:
    """Tuple-row storage for :class:`EmbeddingTable`, the arena's reference.

    :meth:`table` moves a root table onto eager per-row tuples by assigning
    its rows through the ``rows`` setter; every table derived from it
    inherits that storage.  :meth:`mining` does the same to every root
    table a mining run builds, by wrapping
    ``EmbeddingTable.from_path_occurrences``, and returns the list of
    tables it converted.
    """

    @staticmethod
    def table(table: EmbeddingTable) -> EmbeddingTable:
        table.rows = table.rows
        assert table.storage_mode() == "tuple"
        return table

    def mining(self, monkeypatch) -> list:
        build = EmbeddingTable.from_path_occurrences
        converted = []

        def tuple_backed(occurrences, length):
            table = self.table(build(occurrences, length))
            converted.append(table)
            return table

        monkeypatch.setattr(
            EmbeddingTable, "from_path_occurrences", staticmethod(tuple_backed)
        )
        return converted


@pytest.fixture(scope="session")
def tuple_storage() -> TupleStorage:
    """The tuple-row reference storage (session-scoped, so hypothesis tests can use it)."""
    return TupleStorage()


@pytest.fixture
def child_accounting_flags(monkeypatch) -> list:
    """The ``child_accounting`` flag of every ``LevelGrower`` built in the test.

    ``SkinnyConstraintDriver.grow`` builds one grower per cluster, so the
    list has one entry per grown cluster, in growth order.
    """
    import repro.core.levelgrow as levelgrow

    flags = []
    original = levelgrow.LevelGrower

    class RecordingGrower(original):
        def __init__(self, *args, child_accounting=True, **kwargs):
            flags.append(child_accounting)
            super().__init__(*args, child_accounting=child_accounting, **kwargs)

    monkeypatch.setattr(levelgrow, "LevelGrower", RecordingGrower)
    return flags
