"""Tests for the Query/Result wire format and its typed validation errors."""

from __future__ import annotations

import pytest

from repro.api import (
    MalformedQueryError,
    MissingParameterError,
    ParameterError,
    ParameterTypeError,
    ParameterValueError,
    Query,
    QueryError,
    UnexpectedParameterError,
    UnknownConstraintError,
)
from repro.core.database import SupportMeasure


class TestQueryValidation:
    def test_valid_query_normalises_params(self):
        query = Query("diam-le", {"k": 2}, min_support=2)
        assert query.params == {"k": 2, "max_edges": 6}  # default filled in
        assert query.support_measure == "embeddings"

    def test_unknown_constraint(self):
        with pytest.raises(UnknownConstraintError) as excinfo:
            Query("no-such-constraint", {})
        assert "no-such-constraint" in str(excinfo.value)
        assert "skinny" in str(excinfo.value)  # names the registered ids

    def test_missing_parameter(self):
        with pytest.raises(MissingParameterError) as excinfo:
            Query("skinny", {"length": 3})
        assert excinfo.value.parameter == "delta"

    def test_unexpected_parameter(self):
        with pytest.raises(UnexpectedParameterError) as excinfo:
            Query("path", {"length": 3, "delta": 1})
        assert excinfo.value.parameter == "delta"

    def test_wrong_parameter_type(self):
        with pytest.raises(ParameterTypeError):
            Query("skinny", {"length": "3", "delta": 1})
        with pytest.raises(ParameterTypeError):
            Query("skinny", {"length": True, "delta": 1})  # bool is not a length

    def test_out_of_range_parameter(self):
        with pytest.raises(ParameterValueError):
            Query("skinny", {"length": 0, "delta": 1})
        with pytest.raises(ParameterValueError):
            Query("skinny", {"length": 3, "delta": -1})

    def test_envelope_validation(self):
        with pytest.raises(QueryError):
            Query("skinny", {"length": 3, "delta": 1}, min_support=0)
        with pytest.raises(QueryError):
            Query("skinny", {"length": 3, "delta": 1}, top_k=0)
        with pytest.raises(QueryError):
            Query("skinny", {"length": 3, "delta": 1}, support_measure="bogus")

    def test_all_errors_are_value_errors(self):
        # The CLI and legacy callers catch ValueError; the typed hierarchy
        # must stay inside it.
        for exc in (
            QueryError,
            MalformedQueryError,
            UnknownConstraintError,
            ParameterError,
            MissingParameterError,
            UnexpectedParameterError,
            ParameterTypeError,
            ParameterValueError,
        ):
            assert issubclass(exc, ValueError)

    def test_measure_enum_accepted(self):
        query = Query(
            "skinny", {"length": 2, "delta": 0}, min_support=1,
            support_measure=SupportMeasure.MNI,
        )
        assert query.support_measure == "mni"
        assert query.measure is SupportMeasure.MNI
        assert query == Query(
            "skinny", {"length": 2, "delta": 0}, min_support=1, support_measure="mni"
        )

    def test_query_is_hashable_and_immutable(self):
        # A Query is a hashable frozen value object.
        a = Query("skinny", {"length": 5, "delta": 1}, min_support=2)
        b = Query("skinny", {"delta": 1, "length": 5}, min_support=2)
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        with pytest.raises(TypeError):
            a.params["length"] = 99  # read-only view over validated params

    def test_nullable_parameter_accepts_null(self):
        query = Query("diam-le", {"k": 2, "max_edges": None}, min_support=2)
        assert query.params["max_edges"] is None  # cap disabled
        round_tripped = Query.from_dict(query.to_dict())
        assert round_tripped == query
        with pytest.raises(ParameterTypeError):
            Query("diam-le", {"k": None})  # k is not nullable

    def test_cache_key_is_canonical(self):
        a = Query("skinny", {"length": 5, "delta": 1}, min_support=2)
        b = Query("skinny", {"delta": 1, "length": 5}, min_support=2)
        assert a == b
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != Query(
            "skinny", {"length": 5, "delta": 2}, min_support=2
        ).cache_key()
        # Different constraints never share a cache entry.
        assert (
            Query("path", {"length": 5}, min_support=2).cache_key()
            != Query("skinny", {"length": 5, "delta": 0}, min_support=2).cache_key()
        )


class TestQuerySerialization:
    def test_round_trip(self):
        query = Query(
            "diam-le", {"k": 3, "max_edges": 4}, min_support=2, top_k=7,
            support_measure="transactions", include_minimal=False,
        )
        assert Query.from_dict(query.to_dict()) == query

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(MalformedQueryError):
            Query.from_dict(["not", "an", "object"])

    def test_from_dict_requires_constraint_field(self):
        with pytest.raises(MalformedQueryError) as excinfo:
            Query.from_dict({"params": {"length": 3}})
        assert "constraint" in str(excinfo.value)

    @pytest.mark.parametrize(
        "payload",
        [
            {"length": 4, "delta": 1, "min_support": 3},
            {"length": 4, "delta": 1, "sigma": 3},
            {"lengths": [4, 5], "delta": 1},
        ],
        ids=["skinny-fields", "sigma-alias", "length-list"],
    )
    def test_from_dict_rejects_pre_envelope_payloads(self, payload):
        # Payloads without a constraint id are not guessed to be skinny.
        with pytest.raises(MalformedQueryError, match="'constraint' field"):
            Query.from_dict(payload)

    def test_from_dict_rejects_stray_fields(self):
        with pytest.raises(MalformedQueryError) as excinfo:
            Query.from_dict({"constraint": "skinny", "length": 3, "delta": 1})
        assert "params" in str(excinfo.value)

    def test_from_dict_rejects_wrong_min_support_type(self):
        with pytest.raises(MalformedQueryError):
            Query.from_dict(
                {"constraint": "path", "params": {"length": 3}, "min_support": "2"}
            )

    def test_from_dict_accepts_sigma_alias(self):
        query = Query.from_dict(
            {"constraint": "path", "params": {"length": 3}, "sigma": 4}
        )
        assert query.min_support == 4
