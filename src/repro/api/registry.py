"""The constraint registry: one typed query surface over many constraints.

Section 5 of the paper abstracts SkinnyMine into a recipe applicable to any
*reducible* + *continuous* graph constraint.  The registry is where concrete
constraints plug into that recipe at the API level: a
:class:`ConstraintSpec` names the constraint, declares its parameter schema
(:class:`ParamSpec`), and knows how to build the
:class:`repro.core.framework.ConstraintDriver` that executes its two stages.

Everything downstream — :class:`repro.api.Query` validation, the
:class:`repro.api.MiningEngine` dispatch, the Stage-1 store keys
(``StoreKey.constraint_id``), incremental repair and the ``repro mine
--constraint`` CLI — is driven by the spec, so registering a new constraint
here is all it takes to serve it through every entry point.

Built-in registrations (``skinny``, ``path``, ``diam-le``) live in
:mod:`repro.api.builtin_constraints` and are loaded lazily on first lookup.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.api.errors import (
    MalformedQueryError,
    MissingParameterError,
    ParameterTypeError,
    ParameterValueError,
    UnexpectedParameterError,
    UnknownConstraintError,
)

#: Engine-level knobs forwarded to driver factories: optional integer safety
#: caps plus the Stage-1 exactness mode string (``"exact"``/``"pruned"``).
Caps = Mapping[str, object]


@dataclass(frozen=True)
class ParamSpec:
    """Schema of one constraint parameter.

    ``stage_one`` marks parameters that change the Stage-1 (minimal pattern)
    computation and therefore belong in the index-store key; the others only
    shape Stage-2 growth and the result.  ``nullable`` parameters accept an
    explicit ``None`` (JSON ``null``) alongside their declared type — the
    idiom for "disable this cap".
    """

    name: str
    type: type = int
    required: bool = True
    default: object = None
    minimum: Optional[int] = None
    stage_one: bool = False
    nullable: bool = False
    doc: str = ""

    def coerce(self, constraint_id: str, value: object) -> object:
        """Validate one supplied value against this spec (typed errors)."""
        if value is None and self.nullable:
            return None
        if self.type is int:
            # bool is an int subclass but never a valid count/length.
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParameterTypeError(
                    constraint_id,
                    f"parameter {self.name!r} must be an integer, got {value!r}",
                    parameter=self.name,
                )
        elif not isinstance(value, self.type):
            raise ParameterTypeError(
                constraint_id,
                f"parameter {self.name!r} must be {self.type.__name__}, got {value!r}",
                parameter=self.name,
            )
        if self.minimum is not None and value < self.minimum:
            raise ParameterValueError(
                constraint_id,
                f"parameter {self.name!r} must be >= {self.minimum}, got {value!r}",
                parameter=self.name,
            )
        return value

    def describe(self) -> Dict[str, object]:
        """JSON-friendly schema row (for ``repro constraints`` and docs)."""
        return {
            "name": self.name,
            "type": self.type.__name__,
            "required": self.required,
            "default": self.default,
            "minimum": self.minimum,
            "stage_one": self.stage_one,
            "nullable": self.nullable,
            "doc": self.doc,
        }


@dataclass(frozen=True)
class ConstraintSpec:
    """Everything the engine needs to serve one constraint.

    ``make_driver(params, caps, include_minimal)`` builds the two-stage
    driver; ``driver_parameter(params)`` derives the hashable parameter the
    driver's ``mine_minimal``/``grow`` expect (e.g. ``(l, δ)`` for skinny).
    ``predicate_factory(params)`` yields the plain predicate used by the
    reducibility/continuity property checks.  ``path_indexed`` marks
    constraints whose Stage-1 entries are frequent-path records repairable by
    :class:`repro.index.incremental.IndexMaintainer`; entries of other
    constraints are invalidated on data edits.
    """

    constraint_id: str
    description: str
    params: Tuple[ParamSpec, ...]
    make_driver: Callable[[Mapping[str, object], Caps, bool], object]
    driver_parameter: Callable[[Mapping[str, object]], Hashable]
    predicate_factory: Optional[Callable[[Mapping[str, object]], Callable]] = None
    path_indexed: bool = False
    stage_one_cap_names: Tuple[str, ...] = ()

    def validate_params(self, raw: Mapping[str, object]) -> Dict[str, object]:
        """Check ``raw`` against the schema; return the normalised dict.

        Raises a typed :class:`~repro.api.errors.ParameterError` subclass on
        missing / unexpected / mistyped / out-of-range parameters — never a
        bare ``KeyError``.
        """
        if not isinstance(raw, Mapping):
            raise MalformedQueryError(
                f"constraint {self.constraint_id!r}: params must be a mapping, got {raw!r}"
            )
        declared = {spec.name for spec in self.params}
        unexpected = sorted(set(raw) - declared)
        if unexpected:
            raise UnexpectedParameterError(
                self.constraint_id,
                f"unexpected parameter(s) {', '.join(map(repr, unexpected))} "
                f"(declared: {', '.join(sorted(declared)) or 'none'})",
                parameter=unexpected[0],
            )
        normalised: Dict[str, object] = {}
        for spec in self.params:
            if spec.name in raw:
                normalised[spec.name] = spec.coerce(self.constraint_id, raw[spec.name])
            elif spec.required:
                raise MissingParameterError(
                    self.constraint_id,
                    f"missing required parameter {spec.name!r}",
                    parameter=spec.name,
                )
            else:
                normalised[spec.name] = spec.default
        return normalised

    def stage_one_parameter(
        self,
        params: Mapping[str, object],
        min_support: int,
        support_measure: str,
        caps: Optional[Caps] = None,
    ) -> Dict[str, object]:
        """The canonical Stage-1 index parameter for one query.

        Only ``stage_one`` params, the support threshold/measure and any
        engaged Stage-1 caps participate — δ-like growth parameters and
        ``top_k`` never fragment the index.  For the path-indexed
        constraints the engine always engages the ``stage1_mode`` cap, so
        the exactness contract is part of the key: pre-exactness-mode disk
        entries (no ``stage1_mode``, built with heuristic pruning) can never
        be served to an exact-mode engine and simply go cold.

        Examples
        --------
        >>> from repro.api import get_constraint
        >>> spec = get_constraint("skinny")
        >>> parameter = spec.stage_one_parameter(
        ...     {"length": 5, "delta": 1}, 2, "embeddings",
        ...     {"stage1_mode": "exact"},
        ... )
        >>> sorted(parameter.items())
        [('length', 5), ('min_support', 2), ('stage1_mode', 'exact'), ('support_measure', 'embeddings')]
        """
        parameter: Dict[str, object] = {
            spec.name: params[spec.name] for spec in self.params if spec.stage_one
        }
        parameter["min_support"] = min_support
        parameter["support_measure"] = support_measure
        for cap_name in self.stage_one_cap_names:
            cap = (caps or {}).get(cap_name)
            if cap is not None:
                # A capped Stage 1 is deliberately incomplete; keying the cap
                # keeps truncated entries from being served to uncapped users.
                parameter[cap_name] = cap
        return parameter

    def describe(self) -> Dict[str, object]:
        return {
            "constraint_id": self.constraint_id,
            "description": self.description,
            "params": [spec.describe() for spec in self.params],
            "path_indexed": self.path_indexed,
        }


# --------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------- #
_REGISTRY: Dict[str, ConstraintSpec] = {}
_BUILTINS_LOADED = False
_BUILTINS_IMPORTING = False
_BUILTINS_LOCK = threading.RLock()


def _ensure_builtins() -> None:
    # Deferred so registry/builtins don't import-cycle and so direct imports
    # of submodules see a populated registry.  The flag flips only AFTER the
    # import completes: a lockless read of a half-populated registry from
    # another thread (the serving tier's workers race its event loop here)
    # must block on the lock, not observe "loaded" and miss constraints.
    global _BUILTINS_LOADED, _BUILTINS_IMPORTING
    if _BUILTINS_LOADED:
        return
    with _BUILTINS_LOCK:
        if _BUILTINS_LOADED or _BUILTINS_IMPORTING:
            # Re-entrant call from builtin_constraints' own registrations
            # (same thread, RLock held): the registry is mid-population by
            # design; outside threads are still blocked on the lock.
            return
        _BUILTINS_IMPORTING = True
        try:
            import repro.api.builtin_constraints  # noqa: F401
        finally:
            _BUILTINS_IMPORTING = False
        _BUILTINS_LOADED = True


def register_constraint(
    spec_or_id,
    driver_factory: Optional[Callable] = None,
    *,
    description: str = "",
    params: Tuple[ParamSpec, ...] = (),
    driver_parameter: Optional[Callable[[Mapping[str, object]], Hashable]] = None,
    predicate_factory: Optional[Callable] = None,
    path_indexed: bool = False,
    stage_one_cap_names: Tuple[str, ...] = (),
    replace: bool = False,
) -> ConstraintSpec:
    """Register a constraint, making it servable through every entry point.

    Two calling conventions::

        register_constraint(spec)                     # a full ConstraintSpec
        register_constraint("my-id", driver_factory,  # shorthand
                            params=(ParamSpec("k"),), description="...")

    ``driver_factory(params, caps, include_minimal)`` must return an object
    with the :class:`repro.core.framework.ConstraintDriver` interface.  When
    ``driver_parameter`` is omitted, the driver receives the tuple of
    declared parameter values in schema order.  Re-registering an id raises
    ``ValueError`` unless ``replace=True``.

    Examples
    --------
    >>> spec = register_constraint(
    ...     "doc-example",
    ...     lambda params, caps, include_minimal: None,
    ...     params=(ParamSpec("k", int, required=True, minimum=1),),
    ...     description="documentation example",
    ... )
    >>> get_constraint("doc-example") is spec
    True
    >>> spec.validate_params({"k": 3})
    {'k': 3}
    >>> unregister_constraint("doc-example")
    True
    """
    _ensure_builtins()
    if isinstance(spec_or_id, ConstraintSpec):
        spec = spec_or_id
    else:
        constraint_id = str(spec_or_id)
        if driver_factory is None:
            raise ValueError(
                f"register_constraint({constraint_id!r}) needs a driver_factory"
            )
        params = tuple(params)
        if driver_parameter is None:
            ordered = tuple(spec.name for spec in params)

            def driver_parameter(values: Mapping[str, object], _ordered=ordered) -> Hashable:
                resolved = tuple(values[name] for name in _ordered)
                return resolved[0] if len(resolved) == 1 else resolved

        spec = ConstraintSpec(
            constraint_id=constraint_id,
            description=description,
            params=params,
            make_driver=driver_factory,
            driver_parameter=driver_parameter,
            predicate_factory=predicate_factory,
            path_indexed=path_indexed,
            stage_one_cap_names=stage_one_cap_names,
        )
    if not replace and spec.constraint_id in _REGISTRY:
        raise ValueError(
            f"constraint id {spec.constraint_id!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[spec.constraint_id] = spec
    return spec


def unregister_constraint(constraint_id: str) -> bool:
    """Remove a registration (mainly for tests); returns whether it existed."""
    _ensure_builtins()
    return _REGISTRY.pop(constraint_id, None) is not None


def get_constraint(constraint_id: str) -> ConstraintSpec:
    """Look up a spec; raises :class:`UnknownConstraintError` if absent."""
    _ensure_builtins()
    spec = _REGISTRY.get(constraint_id)
    if spec is None:
        raise UnknownConstraintError(constraint_id, known=_REGISTRY)
    return spec


def available_constraints() -> List[str]:
    """Sorted ids of every registered constraint."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def constraint_specs() -> List[ConstraintSpec]:
    """All registered specs, sorted by id."""
    _ensure_builtins()
    return [_REGISTRY[constraint_id] for constraint_id in sorted(_REGISTRY)]
