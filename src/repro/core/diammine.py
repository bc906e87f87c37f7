"""DiamMine — Stage I of SkinnyMine: mining frequent simple paths of length l.

Section 3.2 / Algorithm 2 of the paper.  The canonical diameters of every
target pattern are frequent simple paths of length exactly ``l``; they are
the *minimal constraint-satisfying patterns* of the skinny constraint and the
anchors from which Stage II grows.  Mining them with a generic subgraph miner
would drown in the exponential number of non-path patterns, so the paper uses
a dedicated two-step procedure:

* **Step I (doubling / concatenation)** — mine all frequent paths whose
  length is a power of two up to ``2^k ≤ l`` by repeatedly concatenating two
  frequent paths of half the length end to end (``CheckConcat``).
* **Step II (merging)** — when ``l`` is not a power of two, obtain each
  length-``l`` path by overlapping two length-``2^k`` paths: one forming the
  head (prefix), one the tail (suffix), overlapping in ``2^{k+1} − l`` edges
  (``CheckMergeHead`` / ``CheckMergeTail``).

Internally the miner works with *directed* label sequences (each undirected
path appears in both orientations) because joins become simple index lookups;
results are canonicalised to undirected paths at the end (and whenever
support is counted).

The ladder's first rung, the frequent single edges, is count-then-build
(gSpan likewise drops infrequent edge labels before building anything).
One sweep over the frozen views files every edge under its unordered label
pair.  Only a pair whose support upper bound can pass the intermediate
filter gets directed occurrence sets and an exact support count.  The bound
(:meth:`MiningContext.path_support_upper_bound`) is the pair's edge count
under every measure, or twice that under MNI when the pair is palindromic,
because both readings of an edge are then images.  So the rung derives,
once, the fewest edges a palindromic pair needs and the fewest any other
pair needs, and keeps a pair when its edge count reaches its kind's count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.database import MiningContext
from repro.core.orders import canonical_label_orientation
from repro.core.patterns import PathPattern
from repro.graph.labeled_graph import VertexId
from repro.obs.trace import NULL_TRACER, Tracer

# A directed occurrence of a path: (graph index, ordered data-vertex tuple).
DirectedOccurrence = Tuple[int, Tuple[VertexId, ...]]
LabelSeq = Tuple[str, ...]


class Stage1Mode(str, Enum):
    """How DiamMine filters intermediate (ladder) path lengths.

    ``EXACT`` (the default, and the contract for index-store builds) returns
    *every* frequent length-``l`` path: intermediate lengths are pruned by
    the support threshold only when the context's measure is anti-monotone
    (transaction or MNI support — where the prune is provably lossless);
    under embedding-count support, which is not anti-monotone, intermediates
    are kept as long as they occur at all and the threshold is applied only
    to the final length.

    ``PRUNED`` is the paper's literal Algorithm 2: every intermediate length
    is thresholded regardless of measure.  Under embedding support this is a
    heuristic (two long occurrences can share one short occurrence, so a
    frequent long path can ride on an infrequent prefix) and may miss
    frequent paths; it is opt-in and, when used for index builds, recorded
    in the :class:`repro.index.store.StoreKey` so exact and pruned entries
    never alias.

    Examples
    --------
    >>> Stage1Mode("exact") is Stage1Mode.EXACT
    True
    >>> Stage1Mode.PRUNED.value
    'pruned'
    """

    EXACT = "exact"
    PRUNED = "pruned"


def resolve_stage1_mode(mode: Union[str, "Stage1Mode", None]) -> "Stage1Mode":
    """The Stage-1 exactness mode ``mode`` names (``None`` is the default, exact)."""
    if mode is None:
        return Stage1Mode.EXACT
    return Stage1Mode(mode)


def _occurrence_key(occurrence: DirectedOccurrence) -> Tuple[int, Tuple[VertexId, ...]]:
    """Orientation-independent identity of an occurrence (min of both readings)."""
    graph_index, vertices = occurrence
    backward = tuple(reversed(vertices))
    return (graph_index, vertices if vertices <= backward else backward)


@dataclass
class _DirectedPathSet:
    """All directed occurrences of one directed label sequence."""

    labels: LabelSeq
    occurrences: Set[DirectedOccurrence] = field(default_factory=set)

    def undirected_support(self, context: MiningContext) -> int:
        deduplicated: Dict[Tuple[int, Tuple[VertexId, ...]], DirectedOccurrence] = {}
        for occurrence in self.occurrences:
            deduplicated.setdefault(_occurrence_key(occurrence), occurrence)
        return context.support_of_path_occurrences(
            deduplicated.values(), labels=self.labels
        )


def _edge_readings(
    first: str, second: str, flat: List[int]
) -> Tuple[_DirectedPathSet, ...]:
    """The directed occurrence sets of one label pair's edges.

    ``flat`` lists each edge as graph index, then the endpoint carrying
    ``first``, then the one carrying ``second`` (the format of
    :meth:`DiamMine._edges_by_label_pair`).  A palindromic pair has one
    sequence, which holds both readings of every edge: (u, v) then (v, u),
    edge by edge.  The reading a palindrome reports is whichever its set
    yields first (docs/CORRECTNESS.md), so that insertion order shows.
    """
    fields = iter(flat)
    edges = zip(fields, fields, fields)
    forward = _DirectedPathSet(labels=(first, second))
    if first == second:
        add = forward.occurrences.add
        for graph_index, u, v in edges:
            add((graph_index, (u, v)))
            add((graph_index, (v, u)))
        return (forward,)
    occurrences = [(graph_index, (u, v)) for graph_index, u, v in edges]
    forward.occurrences.update(occurrences)
    backward = _DirectedPathSet(
        labels=(second, first),
        occurrences={(g, (v, u)) for g, (u, v) in occurrences},
    )
    return (forward, backward)


class DiamMine:
    """Mine all frequent simple paths of a given length (Algorithm 2).

    Parameters
    ----------
    context:
        Data graph(s) and frequency threshold.
    max_paths_per_length:
        Optional safety valve for very dense data: stop collecting directed
        sequences of one length once this many distinct *undirected* paths
        have been found (``None`` = unlimited, the default — the paper's
        algorithm is exact).
    mode:
        The Stage-1 exactness contract (see :class:`Stage1Mode`).  The
        default :attr:`Stage1Mode.EXACT` guarantees the returned set equals
        :func:`brute_force_frequent_paths` under every support measure;
        :attr:`Stage1Mode.PRUNED` thresholds every intermediate length
        (the paper's literal Algorithm 2), which is heuristic under
        embedding-count support.
    tracer:
        Optional :class:`repro.obs.Tracer`; when enabled, every cold ladder
        rung (``stage1.ladder``, one span per power-of-two length) and the
        Step-II merge (``stage1.merge``) become spans.  Defaults to the
        shared no-op tracer.

    Examples
    --------
    >>> from repro.graph.labeled_graph import graph_from_paths
    >>> graph = graph_from_paths([list("abc"), list("abc")])
    >>> miner = DiamMine(MiningContext(graph, 2))
    >>> [path.labels for path in miner.mine(2)]
    [('a', 'b', 'c')]
    >>> miner.mode
    <Stage1Mode.EXACT: 'exact'>
    """

    def __init__(
        self,
        context: MiningContext,
        max_paths_per_length: Optional[int] = None,
        mode: Union[str, Stage1Mode, None] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._context = context
        self._max_paths_per_length = max_paths_per_length
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._mode = resolve_stage1_mode(mode)
        # Cache of the doubling ladder: length -> directed label seq -> set.
        self._ladder: Dict[int, Dict[LabelSeq, _DirectedPathSet]] = {}

    @property
    def mode(self) -> Stage1Mode:
        """The resolved Stage-1 exactness mode this miner runs under."""
        return self._mode

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def mine(self, length: int) -> List[PathPattern]:
        """All frequent simple paths with exactly ``length`` edges."""
        if length < 1:
            raise ValueError("path length must be at least 1")
        directed = self._mine_directed(length)
        return self._to_path_patterns(directed)

    # ------------------------------------------------------------------ #
    # Step 0: frequent edges
    # ------------------------------------------------------------------ #
    def _frequent_edges(self) -> Dict[LabelSeq, _DirectedPathSet]:
        """The ladder's first rung, built count-then-build.

        Only a label pair whose support upper bound can pass
        :meth:`_intermediate_frequent` gets occurrence sets and an exact
        support count, so the rung equals filtering every pair exactly.
        The bound reads only the pair's edge count and whether the pair is
        palindromic, so the rung derives one edge count per kind
        (:meth:`_edges_needed`) and compares each pair's count with it.
        """
        if 1 in self._ladder:
            return self._ladder[1]
        context = self._context
        with self._tracer.span("stage1.ladder", length=1) as span:
            by_pair, edges = self._edges_by_label_pair()
            # A pair's flat list holds three ints per edge.
            palindrome_fields = 3 * self._edges_needed(palindromic=True)
            pair_fields = 3 * self._edges_needed(palindromic=False)
            kept = []
            label_pairs = counted = 0
            for first, partners in by_pair.items():
                label_pairs += len(partners)
                for second, flat in partners.items():
                    if len(flat) < (
                        palindrome_fields if first == second else pair_fields
                    ):
                        continue
                    counted += 1
                    readings = _edge_readings(first, second, flat)
                    # Both readings of a pair have the same support.
                    if self._intermediate_frequent(readings[0].undirected_support(context)):
                        # x carries the smaller label: x > y means the
                        # first edge reads larger-first from its smaller id.
                        graph_index, x, y = flat[:3]
                        first_edge = (graph_index, min(x, y), max(x, y))
                        kept.append((first_edge, x > y, readings))
            # Sequences enter in the order an edge sweep first reads them:
            # by each pair's first edge, the reading from its smaller id
            # first.  The joins above allocate their occurrences in this
            # order, and Stage 2 measured ~3% slower on the layout another
            # order left (same output, same call counts).
            kept.sort(key=lambda entry: entry[0])
            frequent: Dict[LabelSeq, _DirectedPathSet] = {}
            for _, flipped, readings in kept:
                for path_set in reversed(readings) if flipped else readings:
                    frequent[path_set.labels] = path_set
            span.annotate(
                paths=len(frequent),
                edges=edges,
                label_pairs=label_pairs,
                label_pairs_counted=counted,
            )
        self._ladder[1] = frequent
        return frequent

    def _edges_needed(self, palindromic: bool) -> int:
        """Fewest edges a label pair needs for its support bound to pass.

        :meth:`MiningContext.path_support_upper_bound` never falls as the
        edge count grows and is at least the count, so ``σ`` edges always
        pass :meth:`_intermediate_frequent` and a binary search over
        ``[1, σ]`` finds the smallest count that does.

        Examples
        --------
        >>> from repro.core.database import SupportMeasure
        >>> from repro.graph.labeled_graph import graph_from_paths
        >>> graph = graph_from_paths([["a", "a"]])
        >>> mni = DiamMine(MiningContext(graph, 3, SupportMeasure.MNI))
        >>> mni._edges_needed(palindromic=True), mni._edges_needed(palindromic=False)
        (2, 3)
        """
        labels = ("a", "a") if palindromic else ("a", "b")
        bound = self._context.path_support_upper_bound
        low, high = 1, self._context.min_support
        while low < high:
            middle = (low + high) // 2
            if self._intermediate_frequent(bound(middle, labels)):
                high = middle
            else:
                low = middle + 1
        return low

    def _edges_by_label_pair(self) -> Tuple[Dict[str, Dict[str, List[int]]], int]:
        """Every edge filed under its unordered label pair, and the edge count.

        One sweep over the frozen views' ``adjacency`` and ``label_strs``
        builds no ``Edge`` objects.  The result maps smaller label → larger
        label → a flat int list holding, per edge in CSR edge order, the
        graph index and the two endpoints: first the one carrying the
        smaller label, or the smaller id when both labels are equal.
        """
        context = self._context
        by_pair: Dict[str, Dict[str, List[int]]] = {}
        edges = 0
        for graph_index in context.graph_indices():
            graph = context.frozen_graph(graph_index)
            edges += graph.num_edges()
            label_strs = graph.label_strs
            for u, run in graph.adjacency.items():
                label_u = label_strs[u]
                for v in run:
                    if u < v:
                        label_v = label_strs[v]
                        if label_u <= label_v:
                            by_pair.setdefault(label_u, {}).setdefault(
                                label_v, []
                            ).extend((graph_index, u, v))
                        else:
                            by_pair.setdefault(label_v, {}).setdefault(
                                label_u, []
                            ).extend((graph_index, v, u))
        return by_pair, edges

    def _intermediate_frequent(self, support: int) -> bool:
        """Frequency filter applied to intermediate (ladder) lengths.

        In exact mode the threshold is applied only when the measure makes
        the prune lossless (anti-monotone: a frequent long path cannot ride
        on an infrequent sub-path); otherwise intermediates survive as long
        as they occur at all and the threshold waits for the final length.
        """
        if (
            self._mode is Stage1Mode.PRUNED
            or self._context.support_measure.anti_monotone
        ):
            return self._context.is_frequent(support)
        return support >= 1

    # ------------------------------------------------------------------ #
    # Step I: doubling by concatenation
    # ------------------------------------------------------------------ #
    def _paths_of_length(self, length: int) -> Dict[LabelSeq, _DirectedPathSet]:
        """Frequent directed paths of ``length`` edges, length a power of two."""
        if length in self._ladder:
            return self._ladder[length]
        if length == 1:
            return self._frequent_edges()
        half = length // 2
        if half * 2 != length:
            raise ValueError("the doubling ladder only holds powers of two")
        halves = self._paths_of_length(half)
        with self._tracer.span("stage1.ladder", length=length) as span:
            joined = self._concatenate(
                halves, halves, overlap_vertices=1, target_length=length
            )
            span.annotate(paths=len(joined))
        self._ladder[length] = joined
        return joined

    def _concatenate(
        self,
        prefixes: Dict[LabelSeq, _DirectedPathSet],
        suffixes: Dict[LabelSeq, _DirectedPathSet],
        overlap_vertices: int,
        target_length: int,
    ) -> Dict[LabelSeq, _DirectedPathSet]:
        """Join two families of directed paths overlapping in ``overlap_vertices``.

        With ``overlap_vertices == 1`` this is CheckConcat (paths share one
        endpoint vertex); with larger overlaps it implements the
        CheckMergeHead/CheckMergeTail joins of Step II.  The join is done at
        the occurrence level: label compatibility is checked on sequences,
        vertex compatibility (shared overlap, disjoint remainder) on the
        occurrences themselves.
        """
        # Index suffix occurrences by (graph, first `overlap_vertices` data vertices).
        suffix_index: Dict[Tuple[int, Tuple[VertexId, ...]], List[Tuple[LabelSeq, Tuple[VertexId, ...]]]] = {}
        for labels, path_set in suffixes.items():
            for graph_index, vertices in path_set.occurrences:
                key = (graph_index, vertices[:overlap_vertices])
                suffix_index.setdefault(key, []).append((labels, vertices))

        candidates: Dict[LabelSeq, _DirectedPathSet] = {}
        for prefix_labels, prefix_set in prefixes.items():
            for graph_index, prefix_vertices in prefix_set.occurrences:
                key = (graph_index, prefix_vertices[-overlap_vertices:])
                for suffix_labels, suffix_vertices in suffix_index.get(key, ()):
                    if prefix_labels[-overlap_vertices:] != suffix_labels[:overlap_vertices]:
                        continue
                    tail_part = suffix_vertices[overlap_vertices:]
                    if len(tail_part) + len(prefix_vertices) != target_length + 1:
                        continue
                    prefix_vertex_set = set(prefix_vertices)
                    if any(vertex in prefix_vertex_set for vertex in tail_part):
                        continue
                    combined_labels = prefix_labels + suffix_labels[overlap_vertices:]
                    combined_vertices = prefix_vertices + tail_part
                    entry = candidates.setdefault(
                        combined_labels, _DirectedPathSet(labels=combined_labels)
                    )
                    entry.occurrences.add((graph_index, combined_vertices))

        frequent = {
            labels: paths
            for labels, paths in candidates.items()
            if self._intermediate_frequent(paths.undirected_support(self._context))
        }
        return self._cap(frequent)

    def _cap(
        self, paths: Dict[LabelSeq, _DirectedPathSet]
    ) -> Dict[LabelSeq, _DirectedPathSet]:
        if self._max_paths_per_length is None:
            return paths
        limit = self._max_paths_per_length
        undirected_seen: Set[LabelSeq] = set()
        kept: Dict[LabelSeq, _DirectedPathSet] = {}
        for labels in sorted(paths):
            canonical = canonical_label_orientation(labels)
            if canonical not in undirected_seen and len(undirected_seen) >= limit:
                continue
            undirected_seen.add(canonical)
            kept[labels] = paths[labels]
        return kept

    # ------------------------------------------------------------------ #
    # Step II: merging for non-powers of two
    # ------------------------------------------------------------------ #
    def _mine_directed(self, length: int) -> Dict[LabelSeq, _DirectedPathSet]:
        largest_power = 1
        while largest_power * 2 <= length:
            largest_power *= 2
        base = self._paths_of_length(largest_power)
        if largest_power == length:
            return base
        overlap_edges = 2 * largest_power - length
        if overlap_edges >= 1:
            # Merge two length-2^k paths overlapping in `overlap_edges` edges.
            with self._tracer.span("stage1.merge", length=length) as span:
                merged = self._concatenate(
                    base,
                    base,
                    overlap_vertices=overlap_edges + 1,
                    target_length=length,
                )
                span.annotate(paths=len(merged))
            return merged
        # length > 2 * largest_power cannot happen (largest_power is maximal),
        # except when largest_power == 1 and length == 2, handled by doubling.
        return self._concatenate(base, base, overlap_vertices=1, target_length=length)

    # ------------------------------------------------------------------ #
    # output canonicalisation
    # ------------------------------------------------------------------ #
    def _to_path_patterns(
        self, directed: Dict[LabelSeq, _DirectedPathSet]
    ) -> List[PathPattern]:
        grouped: Dict[LabelSeq, Set[DirectedOccurrence]] = {}
        for labels, path_set in directed.items():
            canonical = canonical_label_orientation(labels)
            bucket = grouped.setdefault(canonical, set())
            for graph_index, vertices in path_set.occurrences:
                if labels == canonical:
                    bucket.add((graph_index, vertices))
                else:
                    bucket.add((graph_index, tuple(reversed(vertices))))

        results: List[PathPattern] = []
        for labels in sorted(grouped):
            occurrences = grouped[labels]
            deduplicated: Dict[Tuple[int, Tuple[VertexId, ...]], DirectedOccurrence] = {}
            for occurrence in occurrences:
                deduplicated.setdefault(_occurrence_key(occurrence), occurrence)
            support = self._context.support_of_path_occurrences(
                deduplicated.values(), labels=labels
            )
            if not self._context.is_frequent(support):
                continue
            results.append(
                PathPattern(
                    labels=labels,
                    embeddings=tuple(sorted(deduplicated.values())),
                    support=support,
                )
            )
        return results


def brute_force_frequent_paths(
    context: MiningContext, length: int
) -> List[PathPattern]:
    """Reference implementation: enumerate every simple path and filter by support.

    Exponential; exists to validate DiamMine on small inputs (tests compare
    the two result sets exactly).
    """
    from repro.graph.paths import unique_simple_paths

    grouped: Dict[LabelSeq, Dict[Tuple[int, Tuple[VertexId, ...]], Tuple[int, Tuple[VertexId, ...]]]] = {}
    for graph_index in context.graph_indices():
        graph = context.graph(graph_index)
        for path in unique_simple_paths(graph, length):
            labels = tuple(str(graph.label_of(vertex)) for vertex in path)
            canonical = canonical_label_orientation(labels)
            vertices = tuple(path) if labels == canonical else tuple(reversed(path))
            occurrence = (graph_index, vertices)
            grouped.setdefault(canonical, {}).setdefault(
                _occurrence_key(occurrence), occurrence
            )

    results: List[PathPattern] = []
    for labels in sorted(grouped):
        occurrences = grouped[labels]
        support = context.support_of_path_occurrences(occurrences.values(), labels=labels)
        if context.is_frequent(support):
            results.append(
                PathPattern(
                    labels=labels,
                    embeddings=tuple(sorted(occurrences.values())),
                    support=support,
                )
            )
    return results
