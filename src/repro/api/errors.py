"""Typed errors raised by the unified query API.

Every error is a :class:`ValueError` subclass so pre-existing callers (and
the CLI's catch-all) keep working, while new callers can discriminate:

* :class:`QueryError` — base class for anything wrong with a query;
* :class:`MalformedQueryError` — the payload is not even query-shaped
  (wrong container type, missing mandatory envelope fields);
* :class:`UnknownConstraintError` — the constraint id is not registered;
* :class:`ParameterError` — the constraint id is fine but its parameters are
  not, refined into missing / unexpected / wrong-type / out-of-range;
* :class:`EdgeLabelledDataError` — the query is well formed, but its
  constraint ignores edge labels and the engine's data has some.

Raising these (rather than ``KeyError``/``TypeError`` escaping from dict
access) is part of the API contract: malformed wire payloads must fail with
a message naming the constraint and the offending parameter.

Each class also has a stable wire *code* (:func:`error_code`), which is what
the serving tier (:mod:`repro.server`) puts into error responses so remote
clients can discriminate without parsing messages.
"""

from __future__ import annotations

from typing import Iterable, Optional


class QueryError(ValueError):
    """Base class: a query (or query payload) is invalid."""


class MalformedQueryError(QueryError):
    """The payload is not a query object at all (wrong shape or envelope)."""


class UnknownConstraintError(QueryError):
    """The requested constraint id has no registered :class:`ConstraintSpec`."""

    def __init__(self, constraint_id: str, known: Iterable[str] = ()) -> None:
        self.constraint_id = constraint_id
        known_ids = sorted(known)
        hint = f" (registered: {', '.join(known_ids)})" if known_ids else ""
        super().__init__(f"unknown constraint id {constraint_id!r}{hint}")


class ParameterError(QueryError):
    """A constraint parameter is missing, unexpected, mistyped or out of range."""

    def __init__(self, constraint_id: str, message: str, parameter: Optional[str] = None) -> None:
        self.constraint_id = constraint_id
        self.parameter = parameter
        super().__init__(f"constraint {constraint_id!r}: {message}")


class MissingParameterError(ParameterError):
    """A required constraint parameter was not supplied."""


class UnexpectedParameterError(ParameterError):
    """The query carries parameters the constraint does not declare."""


class ParameterTypeError(ParameterError):
    """A constraint parameter has the wrong type."""


class ParameterValueError(ParameterError):
    """A constraint parameter is of the right type but out of range."""


class EdgeLabelledDataError(QueryError):
    """The constraint ignores edge labels, and the data has edge labels.

    A path-indexed Stage-1 record (``skinny``, ``path``) holds vertex labels
    only, so such a query would report label-blind patterns the data does
    not support.  The same query on the same data always fails the same
    way, so the error is not retriable.
    """

    def __init__(self, constraint_id: str) -> None:
        self.constraint_id = constraint_id
        super().__init__(
            f"constraint {constraint_id!r} ignores edge labels and the data has "
            "edge labels; mine it with 'diam-le', or without the edge labels"
        )


#: Most-derived-first mapping from error class to its stable wire code.
_ERROR_CODES = (
    (MissingParameterError, "missing_parameter"),
    (UnexpectedParameterError, "unexpected_parameter"),
    (ParameterTypeError, "parameter_type"),
    (ParameterValueError, "parameter_value"),
    (ParameterError, "invalid_parameter"),
    (UnknownConstraintError, "unknown_constraint"),
    (MalformedQueryError, "malformed_query"),
    (EdgeLabelledDataError, "edge_labels_unsupported"),
    (QueryError, "invalid_query"),
)


def error_code(error: BaseException) -> str:
    """The stable wire code for an exception (``"internal_error"`` otherwise).

    Examples
    --------
    >>> error_code(MalformedQueryError("nope"))
    'malformed_query'
    >>> error_code(RuntimeError("boom"))
    'internal_error'
    """
    for cls, code in _ERROR_CODES:
        if isinstance(error, cls):
            return code
    return "internal_error"
