"""repro.api — the unified constraint-plugin query surface.

One typed facade over the whole system: a :class:`Query` names any
registered constraint and is served identically by the in-process
:class:`MiningEngine` (``run`` / ``run_batch``), the disk-backed
:class:`repro.index.store.PatternStore` (entries keyed by
``constraint_id``), the ``repro mine --constraint <id>`` and
``repro serve-batch`` CLI commands and the :mod:`repro.server` tier.

* :mod:`repro.api.registry` — :func:`register_constraint` plus the built-in
  ``skinny`` / ``path`` / ``diam-le`` registrations;
* :mod:`repro.api.query` — :class:`Query` / :class:`Result` wire objects
  with schema validation and JSON envelopes;
* :mod:`repro.api.engine` — :class:`MiningEngine`, the generic two-stage
  request server (store-backed Stage 1, driver-dispatched Stage 2, result
  cache, delta-driven maintenance);
* :mod:`repro.api.errors` — the typed error hierarchy.
"""

from repro.api.engine import MiningEngine
from repro.api.errors import (
    MalformedQueryError,
    MissingParameterError,
    ParameterError,
    ParameterTypeError,
    ParameterValueError,
    QueryError,
    UnexpectedParameterError,
    UnknownConstraintError,
    error_code,
)
from repro.api.query import Query, QueryStats, Result, ResultError
from repro.api.registry import (
    ConstraintSpec,
    ParamSpec,
    available_constraints,
    constraint_specs,
    get_constraint,
    register_constraint,
    unregister_constraint,
)

__all__ = [
    "ConstraintSpec",
    "MalformedQueryError",
    "MiningEngine",
    "MissingParameterError",
    "ParamSpec",
    "ParameterError",
    "ParameterTypeError",
    "ParameterValueError",
    "Query",
    "QueryError",
    "QueryStats",
    "Result",
    "ResultError",
    "UnexpectedParameterError",
    "UnknownConstraintError",
    "available_constraints",
    "constraint_specs",
    "error_code",
    "get_constraint",
    "register_constraint",
    "unregister_constraint",
]
