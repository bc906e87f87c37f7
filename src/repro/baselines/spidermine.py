"""SpiderMine: top-K large pattern mining with r-spiders (Zhu et al., VLDB 2011).

SpiderMine is the closest prior work to SkinnyMine.  Its core ideas, as
described in the original paper and summarised in Section 7 of the SkinnyMine
paper, are:

1. mine all frequent **r-spiders** — patterns consisting of a head vertex and
   the tree of vertices within distance ``r`` of it;
2. randomly pick a set of seed spiders (large patterns are hit with high
   probability because they contain many spiders);
3. repeatedly **merge** spiders whose embeddings overlap, growing larger and
   larger patterns, up to ``D_max`` merge rounds;
4. return the top-K largest patterns found.

A round merges each region with at most one region it overlaps, so a merged
region's diameter is at most the sum of its two parts' diameters.  An
r-spider's diameter is at most ``2r``, so the diameter of anything
SpiderMine can build is bounded by ``2r * 2^D_max``.  Its growth is
breadth-first around spider heads, which is why it finds large-but-fat
patterns and misses long skinny ones — the behaviour the SkinnyMine
evaluation (Figures 4–10, Table 3) demonstrates and which this
reimplementation preserves.  Spiders and merged regions are grouped by
their exact canonical key.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.baselines.common import MinedPattern
from repro.core.database import MiningContext, SupportMeasure
from repro.graph.canonical import canonical_key
from repro.graph.labeled_graph import LabeledGraph, VertexId

Occurrence = Tuple[int, FrozenSet[VertexId]]


@dataclass
class _Spider:
    """A frequent r-spider: a pattern shape with its vertex-set occurrences."""

    key: Tuple
    occurrences: List[Occurrence]
    sample_graph_index: int
    sample_vertices: FrozenSet[VertexId]

    def support(self) -> int:
        return len(set(self.occurrences))


class SpiderMiner:
    """Mine the top-K largest frequent patterns with the SpiderMine strategy.

    Parameters
    ----------
    graph:
        Data graph or transaction database.
    min_support:
        Frequency threshold σ (occurrence count, as in the single-graph
        setting of the original paper).
    top_k:
        Number of largest patterns to return (the paper uses K = 5 or 10).
    radius:
        Spider radius r (the original work uses small radii such as 1 or 2).
    d_max:
        Maximum number of merge rounds; bounds the diameter of anything the
        algorithm can produce (the SkinnyMine paper sets ``Dmax = 4``).
    num_seeds:
        Number of random seed spiders drawn before merging (μ in the original
        paper; the SkinnyMine evaluation uses values up to 200).
    seed:
        RNG seed for reproducibility.
    """

    def __init__(
        self,
        graph: Union[LabeledGraph, Sequence[LabeledGraph]],
        min_support: int,
        top_k: int = 10,
        radius: int = 1,
        d_max: int = 4,
        num_seeds: int = 50,
        seed: Optional[int] = None,
        support_measure: SupportMeasure = SupportMeasure.EMBEDDINGS,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        if radius < 1:
            raise ValueError("radius must be at least 1")
        if d_max < 1:
            raise ValueError("d_max must be at least 1")
        self._context = MiningContext(graph, min_support, support_measure)
        self._top_k = top_k
        self._radius = radius
        self._d_max = d_max
        self._num_seeds = num_seeds
        self._rng = random.Random(seed)
        self.elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # spiders
    # ------------------------------------------------------------------ #
    def _spider_around(
        self, graph_index: int, head: VertexId
    ) -> Tuple[Tuple, FrozenSet[VertexId]]:
        """The r-neighbourhood of ``head`` as (canonical key, vertex set)."""
        graph = self._context.graph(graph_index)
        frontier = {head}
        vertices: Set[VertexId] = {head}
        for _ in range(self._radius):
            frontier = {
                neighbor
                for vertex in frontier
                for neighbor in graph.neighbors(vertex)
                if neighbor not in vertices
            }
            vertices |= frontier
        subgraph = graph.subgraph(vertices)
        return canonical_key(subgraph), frozenset(vertices)

    def _mine_spiders(self) -> List[_Spider]:
        """Group r-neighbourhoods by shape and keep the frequent ones."""
        grouped: Dict[Tuple, _Spider] = {}
        for graph_index in self._context.graph_indices():
            graph = self._context.graph(graph_index)
            for head in graph.vertices():
                key, vertices = self._spider_around(graph_index, head)
                spider = grouped.get(key)
                if spider is None:
                    grouped[key] = _Spider(
                        key=key,
                        occurrences=[(graph_index, vertices)],
                        sample_graph_index=graph_index,
                        sample_vertices=vertices,
                    )
                else:
                    spider.occurrences.append((graph_index, vertices))
        frequent = [
            spider
            for spider in grouped.values()
            if spider.support() >= self._context.min_support
        ]
        return frequent

    # ------------------------------------------------------------------ #
    # merging
    # ------------------------------------------------------------------ #
    def _merge_round(
        self, regions: List[Occurrence]
    ) -> List[Occurrence]:
        """Merge each region with at most one later region it overlaps.

        Two regions overlap when they share a vertex.  Merging pairs instead
        of absorbing everything that meets the growing union keeps one round
        from chaining a whole path: a merged region's diameter is at most
        the sum of its two parts' diameters.
        """
        merged: List[Occurrence] = []
        used = [False] * len(regions)
        for i, (graph_index, vertices) in enumerate(regions):
            if used[i]:
                continue
            used[i] = True
            for j in range(i + 1, len(regions)):
                other_index, other_vertices = regions[j]
                if not used[j] and other_index == graph_index and vertices & other_vertices:
                    vertices = vertices | other_vertices
                    used[j] = True
                    break
            merged.append((graph_index, vertices))
        return merged

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def mine(self) -> List[MinedPattern]:
        """Return up to ``top_k`` large patterns (largest first)."""
        started = time.perf_counter()
        spiders = self._mine_spiders()
        if not spiders:
            self.elapsed_seconds = time.perf_counter() - started
            return []

        seeds = (
            spiders
            if len(spiders) <= self._num_seeds
            else self._rng.sample(spiders, self._num_seeds)
        )
        # Each seed spider contributes one region per occurrence (cap the
        # number of occurrences carried forward to keep merging tractable).
        regions: List[Occurrence] = []
        for spider in seeds:
            for occurrence in spider.occurrences[: self._context.min_support * 4]:
                regions.append(occurrence)

        for _ in range(self._d_max):
            merged = self._merge_round(regions)
            if len(merged) == len(regions):
                break
            regions = merged

        # Group the merged regions by shape; keep frequent ones, largest first.
        grouped: Dict[Tuple, List[Occurrence]] = {}
        samples: Dict[Tuple, Occurrence] = {}
        for graph_index, vertices in regions:
            graph = self._context.graph(graph_index)
            key = canonical_key(graph.subgraph(vertices))
            grouped.setdefault(key, []).append((graph_index, vertices))
            samples.setdefault(key, (graph_index, vertices))

        candidates: List[MinedPattern] = []
        for key, occurrences in grouped.items():
            support = (
                len({index for index, _ in occurrences})
                if self._context.support_measure is SupportMeasure.TRANSACTIONS
                else len(set(occurrences))
            )
            if support < self._context.min_support:
                continue
            graph_index, vertices = samples[key]
            pattern = self._context.graph(graph_index).subgraph(vertices).compact()[0]
            candidates.append(MinedPattern(pattern, support, score=float(len(vertices))))

        candidates.sort(key=lambda item: (-item.num_vertices, -item.support))
        self.elapsed_seconds = time.perf_counter() - started
        return candidates[: self._top_k]
