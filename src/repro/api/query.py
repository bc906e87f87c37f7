"""The generic wire format: :class:`Query` in, :class:`Result` out.

A :class:`Query` names a registered constraint, carries that constraint's
parameters (validated against its :class:`~repro.api.registry.ParamSpec`
schema at construction time), and the request-level knobs every constraint
shares: support threshold, support measure, ``top_k`` truncation and whether
minimal patterns appear in the result.  It is the one request object across
in-process calls (:meth:`repro.api.MiningEngine.run` / ``run_batch``), the
pattern store, the CLI (``repro mine``, ``repro serve-batch``) and the
serving tier.

``to_dict``/``from_dict`` define the JSON envelope::

    {"constraint": "diam-le", "params": {"k": 2}, "min_support": 2,
     "top_k": 10, "support_measure": "embeddings", "include_minimal": true}

Malformed payloads raise typed :class:`~repro.api.errors.QueryError`
subclasses — never a bare ``KeyError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional

from repro.api.errors import MalformedQueryError, QueryError
from repro.api.registry import get_constraint
from repro.core.database import SupportMeasure
from repro.core.patterns import SkinnyPattern

_ENVELOPE_FIELDS = {
    "constraint",
    "params",
    "min_support",
    "sigma",  # historical alias for min_support
    "top_k",
    "support_measure",
    "include_minimal",
}


@dataclass(frozen=True, eq=True)
class Query:
    """One mining request against a registered constraint.

    ``params`` is validated (and normalised: defaults filled in, order
    canonicalised) against the constraint's schema in ``__post_init__``, so a
    constructed ``Query`` is always well-formed.  A Query is a hashable
    frozen value object: ``params`` is exposed through a read-only mapping
    view, so a validated query can never drift out of sync with its
    ``cache_key()`` or Stage-1 store key.

    Examples
    --------
    >>> query = Query("skinny", {"length": 5, "delta": 1}, min_support=2)
    >>> (query.constraint_id, query.params["length"], query.min_support)
    ('skinny', 5, 2)
    >>> Query.from_dict(query.to_dict()) == query
    True
    >>> Query("skinny", {"length": 5})  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
    repro.api.errors.MissingParameterError: ...
    """

    constraint_id: str
    params: Mapping[str, object] = field(default_factory=dict)
    min_support: int = 1
    top_k: Optional[int] = None
    support_measure: str = SupportMeasure.EMBEDDINGS.value
    include_minimal: bool = True

    def __post_init__(self) -> None:
        spec = get_constraint(self.constraint_id)
        object.__setattr__(
            self, "params", MappingProxyType(spec.validate_params(self.params))
        )
        if not isinstance(self.min_support, int) or isinstance(self.min_support, bool):
            raise QueryError(f"min_support must be an integer, got {self.min_support!r}")
        if self.min_support < 1:
            raise QueryError("min_support must be at least 1")
        if self.top_k is not None:
            try:
                coerced = int(self.top_k)
            except (TypeError, ValueError) as error:
                raise QueryError(f"top_k must be an integer, got {self.top_k!r}") from error
            if coerced < 1:
                raise QueryError("top_k must be positive when given")
            object.__setattr__(self, "top_k", coerced)
        try:
            measure = SupportMeasure(self.support_measure)
        except ValueError as error:
            raise QueryError(
                f"unknown support measure {self.support_measure!r} "
                f"(expected one of {[m.value for m in SupportMeasure]})"
            ) from error
        object.__setattr__(self, "support_measure", measure.value)
        object.__setattr__(self, "include_minimal", bool(self.include_minimal))

    def __hash__(self) -> int:
        # The generated dataclass hash would choke on the params mapping;
        # hash the same canonical identity the result cache keys on.
        return hash(
            (
                self.constraint_id,
                tuple(sorted(self.params.items())),
                self.min_support,
                self.top_k,
                self.support_measure,
                self.include_minimal,
            )
        )

    @property
    def measure(self) -> SupportMeasure:
        return SupportMeasure(self.support_measure)

    def cache_key(self) -> str:
        """Canonical identity of the query (the result-cache key)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_dict(self) -> Dict[str, object]:
        return {
            "constraint": self.constraint_id,
            "params": dict(self.params),
            "min_support": self.min_support,
            "top_k": self.top_k,
            "support_measure": self.support_measure,
            "include_minimal": self.include_minimal,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Query":
        """Parse the JSON envelope; typed errors on any malformation."""
        if not isinstance(payload, Mapping):
            raise MalformedQueryError(f"query payload must be an object, got {payload!r}")
        if "constraint" not in payload:
            raise MalformedQueryError(
                f"query payload {dict(payload)!r} is missing the 'constraint' field"
            )
        unknown = sorted(set(payload) - _ENVELOPE_FIELDS)
        if unknown:
            raise MalformedQueryError(
                f"query payload has unknown field(s): {', '.join(unknown)} "
                "(constraint parameters belong under 'params')"
            )
        constraint_id = payload["constraint"]
        if not isinstance(constraint_id, str):
            raise MalformedQueryError(f"'constraint' must be a string, got {constraint_id!r}")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise MalformedQueryError(f"'params' must be an object, got {params!r}")
        min_support = payload.get("min_support", payload.get("sigma", 1))
        if not isinstance(min_support, int) or isinstance(min_support, bool):
            raise MalformedQueryError(f"'min_support' must be an integer, got {min_support!r}")
        return cls(
            constraint_id=constraint_id,
            params=params,
            min_support=min_support,
            top_k=payload.get("top_k"),
            support_measure=payload.get(
                "support_measure", SupportMeasure.EMBEDDINGS.value
            ),
            include_minimal=bool(payload.get("include_minimal", True)),
        )


@dataclass(frozen=True)
class ResultError:
    """A typed error carried inside a :class:`Result` on the wire.

    ``code`` is a stable machine-readable identifier (see
    :func:`repro.api.errors.error_code` for the query-error codes; the
    serving tier adds ``"service_unavailable"``, ``"deadline_exceeded"`` and
    ``"internal_error"``).  ``retriable`` tells clients whether the same
    request may succeed later (load shed, deadline); ``partial`` is always
    ``False`` in this release — an errored query never returns a partial
    pattern list — and is carried explicitly so clients need not infer it.

    Examples
    --------
    >>> error = ResultError("deadline_exceeded", "budget exhausted", retriable=True)
    >>> ResultError.from_dict(error.to_dict()) == error
    True
    """

    code: str
    message: str
    retriable: bool = False
    partial: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "retriable": self.retriable,
            "partial": self.partial,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ResultError":
        """Inverse of :meth:`to_dict` (exact round trip)."""
        if not isinstance(payload, Mapping) or "code" not in payload:
            raise MalformedQueryError(
                f"result error payload must be an object with a 'code' field, "
                f"got {payload!r}"
            )
        return cls(
            code=str(payload["code"]),
            message=str(payload.get("message", "")),
            retriable=bool(payload.get("retriable", False)),
            partial=bool(payload.get("partial", False)),
        )


@dataclass
class QueryStats:
    """Per-query timing and provenance accounting.

    ``level_statistics`` carries the Stage-2 growth counters of *this* query
    — including the emission-fast-path ones (``canonical_incremental_hits``,
    ``invariant_cache_hits``, ``probes_batched``) and the phase timings — as
    a plain dict, or ``None`` when Stage 2 never ran (result-cache hits) or
    the constraint's driver keeps no counters (``path``).  The engine builds
    one driver per query, so these counters are per-request by construction and
    never bleed into the next report (the counter-merge bug class
    ``SkinnyMine`` once had; pinned by ``tests/api/test_engine.py``).

    Timing invariant: ``total_seconds == stage_one_seconds +
    stage_two_seconds + overhead_seconds`` always holds — the engine derives
    the residual (dispatch, cache probes, dedup/ranking) explicitly as
    ``overhead_seconds`` instead of letting an independently measured total
    drift against the stage sum.  On a result-cache hit both stage times are
    zero and the whole total is overhead.

    ``trace`` is the per-query span tree (:meth:`repro.obs.Span.to_dict`
    form) when the engine ran with tracing enabled, else ``None``; it
    round-trips through :meth:`to_dict`/:meth:`from_dict` and
    :meth:`Result.to_dict`/:meth:`Result.from_dict`.

    The serving tier (:mod:`repro.server`) stamps three more fields onto
    every remotely served query: ``budget_ms`` (the request's deadline
    budget, ``None`` when the query ran without one), ``queue_seconds``
    (time spent parked in the admission queue before a worker picked the
    query up) and ``snapshot_generation`` (which immutable store/data
    snapshot answered it — the load driver uses this to check answers
    against the right dataset version).  All three round-trip exactly,
    including their ``None`` states.
    """

    request_key: str
    stage_one_seconds: float = 0.0
    stage_two_seconds: float = 0.0
    total_seconds: float = 0.0
    overhead_seconds: float = 0.0
    served_from_store: bool = False
    result_cache_hit: bool = False
    num_minimal_patterns: int = 0
    num_patterns: int = 0
    level_statistics: Optional[Dict[str, object]] = None
    trace: Optional[Dict[str, object]] = None
    budget_ms: Optional[int] = None
    queue_seconds: float = 0.0
    snapshot_generation: Optional[int] = None

    def to_dict(self) -> Dict:
        return {
            "request": json.loads(self.request_key),
            "stage_one_seconds": self.stage_one_seconds,
            "stage_two_seconds": self.stage_two_seconds,
            "total_seconds": self.total_seconds,
            "overhead_seconds": self.overhead_seconds,
            "served_from_store": self.served_from_store,
            "result_cache_hit": self.result_cache_hit,
            "num_minimal_patterns": self.num_minimal_patterns,
            "num_patterns": self.num_patterns,
            "level_statistics": self.level_statistics,
            "trace": self.trace,
            "budget_ms": self.budget_ms,
            "queue_seconds": self.queue_seconds,
            "snapshot_generation": self.snapshot_generation,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "QueryStats":
        """Inverse of :meth:`to_dict` (exact round trip, trace included)."""
        if not isinstance(payload, Mapping) or "request" not in payload:
            raise MalformedQueryError(
                f"query stats payload must be an object with a 'request' field, "
                f"got {payload!r}"
            )
        request_key = json.dumps(
            payload["request"], sort_keys=True, separators=(",", ":")
        )
        return cls(
            request_key=request_key,
            stage_one_seconds=float(payload.get("stage_one_seconds", 0.0)),
            stage_two_seconds=float(payload.get("stage_two_seconds", 0.0)),
            total_seconds=float(payload.get("total_seconds", 0.0)),
            overhead_seconds=float(payload.get("overhead_seconds", 0.0)),
            served_from_store=bool(payload.get("served_from_store", False)),
            result_cache_hit=bool(payload.get("result_cache_hit", False)),
            num_minimal_patterns=int(payload.get("num_minimal_patterns", 0)),
            num_patterns=int(payload.get("num_patterns", 0)),
            level_statistics=payload.get("level_statistics"),
            trace=payload.get("trace"),
            budget_ms=(
                None if payload.get("budget_ms") is None else int(payload["budget_ms"])
            ),
            queue_seconds=float(payload.get("queue_seconds", 0.0)),
            snapshot_generation=(
                None
                if payload.get("snapshot_generation") is None
                else int(payload["snapshot_generation"])
            ),
        )


@dataclass
class Result:
    """Patterns plus the stats of the query that produced them.

    A Result is also the serving tier's response body: ``error`` (a
    :class:`ResultError`) is set on failed queries, in which case
    ``patterns`` is empty and ``stats`` may be ``None`` (a request shed at
    admission, or one whose payload never parsed into a query, has no
    timing to report).  ``to_dict``/``from_dict`` round-trip exactly for
    both shapes — error results and cache-hit results with their ``None``
    stats fields included (pinned by ``tests/api/test_wire_roundtrip.py``).

    Examples
    --------
    >>> from repro.api import MiningEngine
    >>> from repro.graph.labeled_graph import graph_from_paths
    >>> engine = MiningEngine(graph_from_paths([list("abc"), list("abc")]))
    >>> result = engine.run(Query("path", {"length": 2}, min_support=2))
    >>> (len(result.patterns), result.stats.result_cache_hit)
    (1, False)
    >>> sorted(result.to_dict())
    ['num_patterns', 'stats']
    >>> failed = Result.failed(ResultError("deadline_exceeded", "over budget"))
    >>> sorted(failed.to_dict())
    ['error', 'num_patterns', 'stats']
    >>> Result.from_dict(failed.to_dict()) == failed
    True
    """

    query: Optional[Query]
    patterns: List[SkinnyPattern]
    stats: Optional[QueryStats]
    error: Optional[ResultError] = None

    @classmethod
    def failed(
        cls,
        error: ResultError,
        query: Optional[Query] = None,
        stats: Optional[QueryStats] = None,
    ) -> "Result":
        """An error result (no patterns; stats only if something was timed)."""
        return cls(query=query, patterns=[], stats=stats, error=error)

    def to_dict(self, include_patterns: bool = False) -> Dict[str, object]:
        from repro.graph.io import graph_to_record

        payload: Dict[str, object] = {
            "stats": self.stats.to_dict() if self.stats is not None else None,
            "num_patterns": len(self.patterns),
        }
        if self.error is not None:
            payload["error"] = self.error.to_dict()
        if include_patterns:
            payload["patterns"] = [
                {
                    "support": pattern.support,
                    "diameter_length": pattern.diameter_length,
                    "num_vertices": pattern.num_vertices,
                    "num_edges": pattern.num_edges,
                    "diameter_labels": list(pattern.diameter_labels()),
                    "graph": graph_to_record(pattern.graph),
                }
                for pattern in self.patterns
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Result":
        """Rebuild the stats/error side of a serialised result.

        The query is reconstructed from the stats' request envelope (when
        stats are present) and the :class:`QueryStats` (trace included)
        round-trip exactly; pattern objects are summaries on the wire, not
        full embeddings, so ``patterns`` comes back empty —
        ``stats.num_patterns`` keeps the count.
        """
        if not isinstance(payload, Mapping) or "stats" not in payload:
            raise MalformedQueryError(
                f"result payload must be an object with a 'stats' field, got {payload!r}"
            )
        stats_payload = payload["stats"]
        stats = (
            QueryStats.from_dict(stats_payload) if stats_payload is not None else None
        )
        query = (
            Query.from_dict(json.loads(stats.request_key))
            if stats is not None
            else None
        )
        error_payload = payload.get("error")
        error = (
            ResultError.from_dict(error_payload) if error_payload is not None else None
        )
        return cls(query=query, patterns=[], stats=stats, error=error)
