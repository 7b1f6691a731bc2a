"""Hashing schemes: hopscotch (used by CHIME's leaves) and the
closed/open-addressing comparison points of Figure 3d."""

from repro.hashing.associative import AssociativeTable
from repro.hashing.farm import FarmTable
from repro.hashing.hopscotch import (
    HopPlan,
    HopscotchTable,
    default_hash,
    distance,
    find_first_empty,
    place_fresh,
    plan_insert,
)
from repro.hashing.loadfactor import (
    LoadFactorResult,
    figure_3d_schemes,
    measure_max_load_factor,
)
from repro.hashing.mph import MinimalPerfectHash
from repro.hashing.race import RaceTable

__all__ = [
    "AssociativeTable",
    "FarmTable",
    "HopPlan",
    "HopscotchTable",
    "LoadFactorResult",
    "MinimalPerfectHash",
    "RaceTable",
    "default_hash",
    "distance",
    "figure_3d_schemes",
    "find_first_empty",
    "measure_max_load_factor",
    "place_fresh",
    "plan_insert",
]
