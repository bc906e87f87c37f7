"""The paper's contribution: SkinnyMine and the direct mining framework.

Public entry points
-------------------

* :class:`repro.core.skinnymine.SkinnyMine` — mine all l-long δ-skinny
  frequent patterns of a graph or graph database (Algorithm 1).
* :class:`repro.core.diammine.DiamMine` — Stage I on its own: all frequent
  simple paths of a given length (Algorithm 2).
* :mod:`repro.core.framework` — the generic two-stage direct mining
  framework of Section 5: the constraint drivers
  :class:`repro.api.MiningEngine` serves, and the reducibility / continuity
  property checks.
* :mod:`repro.core.diameter` — reference implementations of the canonical
  diameter and skinny predicates (Definitions 4–7).
"""

from repro.core.database import MiningContext, SupportMeasure
from repro.core.diameter import (
    canonical_diameter,
    diameter_length,
    is_delta_skinny,
    is_l_long_delta_skinny,
    skinniness,
    vertex_levels,
)
from repro.core.diammine import DiamMine, brute_force_frequent_paths, mine_frequent_paths
from repro.core.framework import (
    BoundedDiameterDriver,
    ContinuityReport,
    PathConstraintDriver,
    ReducibilityReport,
    SkinnyConstraintDriver,
    bounded_diameter_constraint,
    check_continuity,
    check_reducibility,
    max_degree_constraint,
    min_size_constraint,
    path_shape_constraint,
    skinny_constraint,
    uniform_degree_constraint,
)
from repro.core.levelgrow import LevelGrower, LevelGrowStatistics
from repro.core.patterns import GrowthState, PathPattern, SkinnyPattern
from repro.core.reference import enumerate_and_check_spm
from repro.core.skinnymine import MiningReport, SkinnyMine

__all__ = [
    "MiningContext",
    "SupportMeasure",
    "canonical_diameter",
    "diameter_length",
    "is_delta_skinny",
    "is_l_long_delta_skinny",
    "skinniness",
    "vertex_levels",
    "DiamMine",
    "brute_force_frequent_paths",
    "mine_frequent_paths",
    "BoundedDiameterDriver",
    "ContinuityReport",
    "PathConstraintDriver",
    "ReducibilityReport",
    "SkinnyConstraintDriver",
    "bounded_diameter_constraint",
    "check_continuity",
    "check_reducibility",
    "max_degree_constraint",
    "min_size_constraint",
    "path_shape_constraint",
    "skinny_constraint",
    "uniform_degree_constraint",
    "LevelGrower",
    "LevelGrowStatistics",
    "GrowthState",
    "PathPattern",
    "SkinnyPattern",
    "enumerate_and_check_spm",
    "MiningReport",
    "SkinnyMine",
]
