"""Built-in constraint registrations: ``skinny``, ``path`` and ``diam-le``.

Each registration wires a concrete :class:`repro.core.framework` driver into
the registry so the constraint is servable through :class:`MiningEngine`
(``run`` / ``run_batch``), the disk-backed pattern store, the
``repro mine --constraint <id>`` CLI and the serving tier — the paper's
Section-5 claim that SkinnyMine is one instance of a generic recipe, made
executable.

This module is imported lazily by :mod:`repro.api.registry` on first lookup;
import it directly only for its side effect (e.g. in tests that reset the
registry).
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.api.registry import Caps, ConstraintSpec, ParamSpec, register_constraint
from repro.core.framework import (
    BoundedDiameterDriver,
    PathConstraintDriver,
    SkinnyConstraintDriver,
    bounded_diameter_constraint,
    path_shape_constraint,
    skinny_constraint,
)
from repro.index.incremental import SKINNY_CONSTRAINT_ID

#: Constraint id of the l-long path constraint (Stage-1 entries share the
#: repairable frequent-path layout with the skinny constraint).
PATH_CONSTRAINT_ID = "path"
#: Constraint id of the bounded-diameter constraint diam(P) ≤ K.
BOUNDED_DIAMETER_CONSTRAINT_ID = "diam-le"


def _make_skinny_driver(
    params: Mapping[str, object], caps: Caps, include_minimal: bool
) -> SkinnyConstraintDriver:
    return SkinnyConstraintDriver(
        max_paths_per_length=caps.get("max_paths_per_length"),
        max_patterns_per_diameter=caps.get("max_patterns_per_diameter"),
        include_minimal=include_minimal,
        stage1_mode=caps.get("stage1_mode"),
    )


def _skinny_parameter(params: Mapping[str, object]) -> Hashable:
    return (params["length"], params["delta"])


def _make_path_driver(
    params: Mapping[str, object], caps: Caps, include_minimal: bool
) -> PathConstraintDriver:
    return PathConstraintDriver(
        max_paths_per_length=caps.get("max_paths_per_length"),
        include_minimal=include_minimal,
        stage1_mode=caps.get("stage1_mode"),
    )


def _path_parameter(params: Mapping[str, object]) -> Hashable:
    return params["length"]


def _make_diameter_driver(
    params: Mapping[str, object], caps: Caps, include_minimal: bool
) -> BoundedDiameterDriver:
    return BoundedDiameterDriver(
        max_edges=params.get("max_edges"),
        max_patterns=caps.get("max_patterns_per_diameter"),
        include_minimal=include_minimal,
    )


def _diameter_parameter(params: Mapping[str, object]) -> Hashable:
    return params["k"]


register_constraint(
    ConstraintSpec(
        constraint_id=SKINNY_CONSTRAINT_ID,
        description=(
            "l-long δ-skinny patterns (the paper's SkinnyMine): canonical "
            "diameter of length l, every vertex within δ of it"
        ),
        params=(
            ParamSpec("length", int, required=True, minimum=1, stage_one=True,
                      doc="diameter length l"),
            ParamSpec("delta", int, required=True, minimum=0,
                      doc="skinniness bound δ"),
        ),
        make_driver=_make_skinny_driver,
        driver_parameter=_skinny_parameter,
        predicate_factory=lambda params: skinny_constraint(
            params["length"], params["delta"]
        ),
        path_indexed=True,
        stage_one_cap_names=("max_paths_per_length", "stage1_mode"),
    )
)

# Note: the path constraint's Stage-1 entries are the same frequent l-paths
# the skinny constraint mines, stored again under constraint_id "path".  The
# duplication is deliberate: entries stay isolated per constraint id, so
# repair, invalidation and cap-keying never have to reason about sharing —
# at the cost of re-mining when both constraints index the same length.
register_constraint(
    ConstraintSpec(
        constraint_id=PATH_CONSTRAINT_ID,
        description=(
            "l-long path patterns: the pattern is a simple path of exactly l "
            "edges (Stage 2 is the identity)"
        ),
        params=(
            ParamSpec("length", int, required=True, minimum=1, stage_one=True,
                      doc="path length l"),
        ),
        make_driver=_make_path_driver,
        driver_parameter=_path_parameter,
        predicate_factory=lambda params: path_shape_constraint(params["length"]),
        path_indexed=True,
        stage_one_cap_names=("max_paths_per_length", "stage1_mode"),
    )
)

register_constraint(
    ConstraintSpec(
        constraint_id=BOUNDED_DIAMETER_CONSTRAINT_ID,
        description=(
            "bounded-diameter patterns diam(P) <= k, grown from frequent "
            "single-edge minimal patterns"
        ),
        params=(
            ParamSpec("k", int, required=True, minimum=1,
                      doc="diameter bound K"),
            ParamSpec("max_edges", int, required=False, default=6, minimum=1,
                      nullable=True,
                      doc="growth cap on pattern edges; null disables the cap"),
        ),
        make_driver=_make_diameter_driver,
        driver_parameter=_diameter_parameter,
        predicate_factory=lambda params: bounded_diameter_constraint(params["k"]),
    )
)
