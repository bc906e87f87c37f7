"""Wire-format exactness: Result/QueryStats serialisation is lossless.

The serving tier ships :class:`Result` objects over TCP, including error
results (``stats`` may be ``None``) and cache-hit results (``stats`` with
``None`` optional fields).  These properties pin the contract the server
relies on: ``from_dict(to_dict())`` reproduces the object exactly, and
``to_dict(from_dict(payload))`` reproduces the payload exactly.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import Query, QueryStats, Result, ResultError, error_code
from repro.api.errors import (
    EdgeLabelledDataError,
    MalformedQueryError,
    MissingParameterError,
    ParameterTypeError,
    QueryError,
    UnknownConstraintError,
)

# A pool of well-formed queries whose cache keys seed the stats' request
# envelope (QueryStats.request_key must be a canonical Query encoding).
QUERIES = [
    Query("skinny", {"length": 4, "delta": 1}, min_support=2),
    Query("skinny", {"length": 5, "delta": 0}, min_support=3, top_k=7),
    Query("path", {"length": 3}, min_support=2, support_measure="transactions"),
    Query("diam-le", {"k": 2}, min_support=2, include_minimal=False),
]

finite_seconds = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)

level_statistics = st.none() | st.dictionaries(
    st.sampled_from(
        [
            "candidates_generated",
            "canonical_incremental_hits",
            "invariant_cache_hits",
            "probes_batched",
            "canonical_seconds",
        ]
    ),
    st.integers(min_value=0, max_value=10**6) | finite_seconds,
    max_size=5,
)

traces = st.none() | st.fixed_dictionaries(
    {
        "name": st.just("query"),
        "span_id": st.just("s1"),
        "parent_id": st.none(),
        "start_seconds": finite_seconds,
        "seconds": finite_seconds,
        "attrs": st.dictionaries(st.sampled_from(["constraint", "hit"]), st.booleans()),
        "children": st.just([]),
    }
)


@st.composite
def query_stats(draw) -> QueryStats:
    return QueryStats(
        request_key=draw(st.sampled_from(QUERIES)).cache_key(),
        stage_one_seconds=draw(finite_seconds),
        stage_two_seconds=draw(finite_seconds),
        total_seconds=draw(finite_seconds),
        overhead_seconds=draw(finite_seconds),
        served_from_store=draw(st.booleans()),
        result_cache_hit=draw(st.booleans()),
        num_minimal_patterns=draw(st.integers(min_value=0, max_value=10**6)),
        num_patterns=draw(st.integers(min_value=0, max_value=10**6)),
        level_statistics=draw(level_statistics),
        trace=draw(traces),
        budget_ms=draw(st.none() | st.integers(min_value=0, max_value=10**7)),
        queue_seconds=draw(finite_seconds),
        snapshot_generation=draw(st.none() | st.integers(min_value=0, max_value=10**6)),
    )


result_errors = st.builds(
    ResultError,
    code=st.sampled_from(
        ["service_unavailable", "deadline_exceeded", "internal_error", "invalid_query"]
    ),
    message=st.text(max_size=80),
    retriable=st.booleans(),
    partial=st.just(False),
)


@st.composite
def results(draw) -> Result:
    """Pattern-free results as the server ships them: ok, error, or both-ish."""
    stats = draw(st.none() | query_stats())
    error = draw(st.none() | result_errors) if stats is not None else draw(result_errors)
    query = Query.from_dict(json.loads(stats.request_key)) if stats is not None else None
    return Result(query=query, patterns=[], stats=stats, error=error)


class TestQueryStatsRoundTrip:
    @given(stats=query_stats())
    def test_object_round_trip_is_exact(self, stats):
        assert QueryStats.from_dict(stats.to_dict()) == stats

    @given(stats=query_stats())
    def test_json_round_trip_is_exact(self, stats):
        # The wire actually serialises: through json and back, still exact.
        payload = json.loads(json.dumps(stats.to_dict()))
        assert QueryStats.from_dict(payload) == stats

    def test_cache_hit_stats_none_fields_survive(self):
        stats = QueryStats(
            request_key=QUERIES[0].cache_key(),
            total_seconds=0.001,
            overhead_seconds=0.001,
            result_cache_hit=True,
            num_patterns=3,
            level_statistics=None,
            trace=None,
            budget_ms=None,
            snapshot_generation=None,
        )
        rebuilt = QueryStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert rebuilt == stats
        assert rebuilt.level_statistics is None
        assert rebuilt.budget_ms is None
        assert rebuilt.snapshot_generation is None


class TestResultRoundTrip:
    @given(result=results())
    def test_object_round_trip_is_exact(self, result):
        assert Result.from_dict(result.to_dict()) == result

    @given(result=results())
    def test_payload_round_trip_is_exact(self, result):
        payload = json.loads(json.dumps(result.to_dict()))
        assert Result.from_dict(payload).to_dict() == payload

    def test_error_result_without_stats(self):
        result = Result.failed(
            ResultError("service_unavailable", "queue full", retriable=True)
        )
        payload = result.to_dict()
        assert payload["stats"] is None
        assert payload["error"]["retriable"] is True
        assert payload["error"]["partial"] is False
        assert Result.from_dict(payload) == result

    def test_ok_result_payload_has_no_error_key(self):
        stats = QueryStats(request_key=QUERIES[0].cache_key(), num_patterns=1)
        result = Result(query=QUERIES[0], patterns=[], stats=stats)
        assert "error" not in result.to_dict()
        assert Result.from_dict(result.to_dict()) == result

    def test_malformed_payloads_raise_typed_errors(self):
        with pytest.raises(MalformedQueryError):
            Result.from_dict({"num_patterns": 0})
        with pytest.raises(MalformedQueryError):
            ResultError.from_dict({"message": "code missing"})


class TestErrorCodes:
    def test_codes_are_most_derived_first(self):
        assert error_code(MissingParameterError("skinny", "length missing")) == (
            "missing_parameter"
        )
        assert error_code(ParameterTypeError("skinny", "bad type")) == "parameter_type"
        assert error_code(UnknownConstraintError("nope")) == "unknown_constraint"
        assert error_code(MalformedQueryError("not a query")) == "malformed_query"
        assert error_code(EdgeLabelledDataError("skinny")) == "edge_labels_unsupported"
        assert error_code(QueryError("generic")) == "invalid_query"
        assert error_code(RuntimeError("boom")) == "internal_error"
