"""Path-indexed constraints refuse edge-labelled data; ``diam-le`` answers it.

A Stage-1 path record holds vertex labels only, so ``skinny`` and ``path``
would report label-blind patterns.  The reproducer is two copies of the
path a-b-c-d whose edges read p, x, p and p, y, p: before the refusal both
constraints returned a 3-edge path with support 2 and every edge label
``None``, a pattern neither copy holds.  The engine refuses such a query
before it reads the store; the server answers with the error's wire code
and the CLI exits 1 with the message.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import EdgeLabelledDataError, MiningEngine, Query
from repro.cli import main
from repro.core.database import EdgeDelta
from repro.graph.io import write_lg
from repro.graph.labeled_graph import LabeledGraph
from repro.index.store import MemoryPatternStore
from repro.obs.metrics import MetricsRegistry
from repro.server import MiningServer

REFUSED = [
    Query("skinny", {"length": 3, "delta": 0}, min_support=2),
    Query("skinny", {"length": 3, "delta": 0}, min_support=2, support_measure="mni"),
    Query("path", {"length": 3}, min_support=2),
    Query("path", {"length": 3}, min_support=2, support_measure="mni"),
]
DIAM = Query("diam-le", {"k": 3, "max_edges": 3}, min_support=2)


def two_paths(middles=("x", "y"), outer="p"):
    """Two copies of a-b-c-d: edges ``outer``, ``middles[i]``, ``outer`` in copy i."""
    graph = LabeledGraph()
    for base, middle in zip((0, 4), middles):
        for offset, label in enumerate("abcd"):
            graph.add_vertex(base + offset, label)
        for offset, edge_label in enumerate((outer, middle, outer)):
            graph.add_edge(base + offset, base + offset + 1, edge_label)
    return graph


class UnreadableStore(MemoryPatternStore):
    """A store that fails the test when it is read for a path-indexed key."""

    def get(self, key):
        assert key.constraint_id not in ("skinny", "path"), f"store read for {key}"
        return super().get(key)

    def __contains__(self, key):
        assert key.constraint_id not in ("skinny", "path"), f"store probe for {key}"
        return super().__contains__(key)


class TestEngine:
    @pytest.mark.parametrize(
        "query", REFUSED, ids=lambda q: f"{q.constraint_id}-{q.support_measure}"
    )
    def test_refused_before_the_store_is_read(self, query):
        engine = MiningEngine(two_paths(), store=UnreadableStore(), metrics=MetricsRegistry())
        with pytest.raises(EdgeLabelledDataError, match=query.constraint_id):
            engine.run(query)
        with pytest.raises(EdgeLabelledDataError):
            engine.stage_one_key(query)
        with pytest.raises(EdgeLabelledDataError):
            engine.precompute_queries([query])
        assert engine.stats_log == []

    def test_diam_le_still_answers(self):
        engine = MiningEngine(two_paths(), metrics=MetricsRegistry())
        patterns = engine.run(DIAM).patterns
        # Only the two p-labelled end edges occur twice; no 3-edge pattern does.
        assert sorted((p.num_edges, p.support) for p in patterns) == [(1, 2), (1, 2)]
        assert {e.label for p in patterns for e in p.graph.edges()} == {"p"}

    def test_vertex_labelled_data_is_served(self):
        engine = MiningEngine(two_paths((None, None), None), metrics=MetricsRegistry())
        for query in REFUSED:
            assert [p.num_edges for p in engine.run(query).patterns] == [3]

    def test_refusal_follows_deltas(self):
        engine = MiningEngine(two_paths((None, None), None), metrics=MetricsRegistry())
        query = REFUSED[0]
        assert engine.run(query).patterns
        engine.apply_delta([EdgeDelta.add_edge(3, 4, edge_label="q")])
        with pytest.raises(EdgeLabelledDataError):
            engine.run(query)
        engine.apply_delta([EdgeDelta.remove_edge(3, 4)])
        assert engine.run(query).patterns


class TestServer:
    def test_refused_with_its_code_and_diam_le_answers(self):
        async def scenario():
            server = MiningServer(two_paths(), store=UnreadableStore(), workers=1)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

            async def request(payload):
                writer.write((json.dumps(payload) + "\n").encode("utf-8"))
                await writer.drain()
                return json.loads(await reader.readline())

            try:
                responses = [
                    await request({"op": "query", "id": index, "query": query.to_dict()})
                    for index, query in enumerate(REFUSED + [DIAM])
                ]
            finally:
                writer.close()
                await writer.wait_closed()
                await server.stop()
            return responses

        *refused, answered = asyncio.run(scenario())
        for response in refused:
            assert response["ok"] is False
            assert response["error"]["code"] == "edge_labels_unsupported"
            assert response["error"]["retriable"] is False
            assert "ignores edge labels" in response["error"]["message"]
        assert answered["ok"] is True
        assert answered["num_patterns"] == 2


class TestCli:
    @pytest.mark.parametrize(
        "constraint", [["-l", "3", "-d", "0"], ["--constraint", "path", "--param", "length=3"]]
    )
    def test_mine_exits_one_with_the_message(self, tmp_path, capsys, constraint):
        data = tmp_path / "edge-labelled.lg"
        write_lg(two_paths(), data)
        store = tmp_path / "store"
        argv = ["mine", "--data", str(data), "--store", str(store), "--min-support", "2"]
        assert main(argv + constraint) == 1
        err = capsys.readouterr().err
        assert "ignores edge labels" in err
        assert "Traceback" not in err

    def test_diam_le_exits_zero(self, tmp_path, capsys):
        data = tmp_path / "edge-labelled.lg"
        write_lg(two_paths(), data)
        argv = ["mine", "--data", str(data), "--constraint", "diam-le", "--param", "k=3"]
        assert main(argv + ["--param", "max_edges=3", "--min-support", "2"]) == 0
        assert "2 pattern(s)" in capsys.readouterr().out
