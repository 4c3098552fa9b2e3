"""Exact conjugacy invariants for hyperbolic integer matrices.

The package decides (or honestly refuses to decide) GL(n,Z)-conjugacy of
integer matrices through certified invariants: generalized Bowen-Franks
modules, truncated quotient towers with their pairing lattices, and
fractional-ideal arithmetic in the field defined by the characteristic
polynomial.  All arithmetic is exact.
"""

from .bf_invariants import bf_group, default_family, hyperbolicity_check, invertibility_check, strong_bf_screen
from .conjugacy_pipeline import PipelineConfig, Verdict, decide, intertwiner_lattice, similarity_check, unimodular_search
from .finite_modules import FiniteModulePresentation, ModuleMap, module_iso_exists, quotient
from .ideal_theory import FractionalIdeal, eigen_ideal, multiplier_ring, principal_search, weak_equivalence
from .tower import Tower, build_tower, classify_delta, delta_lattice, injectivity_probe, level_iso_family, transport_family

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "Verdict",
    "FiniteModulePresentation",
    "ModuleMap",
    "FractionalIdeal",
    "Tower",
    "bf_group",
    "build_tower",
    "classify_delta",
    "decide",
    "default_family",
    "delta_lattice",
    "eigen_ideal",
    "hyperbolicity_check",
    "injectivity_probe",
    "intertwiner_lattice",
    "invertibility_check",
    "level_iso_family",
    "module_iso_exists",
    "multiplier_ring",
    "principal_search",
    "quotient",
    "similarity_check",
    "strong_bf_screen",
    "transport_family",
    "unimodular_search",
    "weak_equivalence",
]
