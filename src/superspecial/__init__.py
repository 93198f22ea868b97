"""Exact-arithmetic toolkit for the supersingular/superspecial dictionary.

Geometric side: enumerate the supersingular locus at a prime with its Galois
involution (sslocus).  Arithmetic side: exact mass and class-number formulas
(massform, exactnum).  Both sides of the finite-model Selberg-style trace
formula (cosettrace).  Field and polynomial substrate (ffield, fppoly), batch
CLI (cli), acceptance suite (acceptance).
"""

from .cosettrace import (FiniteGroupModel, TraceReport, build_model, delta_sets,
                         double_cosets, factored_trace, kernel_trace, orbital_trace,
                         volume_identity_check)
from .exactnum import BernoulliTable, bernoulli, zeta_negative
from .ffield import Fp2Field, canonical_nonresidue, frobenius, lambda_to_j
from .finitegroup import Group, group_from_kind
from .fppoly import hasse_poly, roots_in_fp2
from .massform import (class_number_level, gsp_order, nonprincipal_class_number_level,
                       nonprincipal_mass, principal_mass)
from .sslocus import (Census, CensusCache, census, class_number_formula, eichler_mass,
                      involution_census)

__all__ = [
    "BernoulliTable", "bernoulli", "zeta_negative",
    "Fp2Field", "canonical_nonresidue", "frobenius", "lambda_to_j",
    "hasse_poly", "roots_in_fp2",
    "Census", "CensusCache", "census", "class_number_formula", "eichler_mass",
    "involution_census",
    "class_number_level", "gsp_order", "nonprincipal_class_number_level",
    "nonprincipal_mass", "principal_mass",
    "Group", "group_from_kind",
    "FiniteGroupModel", "TraceReport", "build_model", "delta_sets",
    "double_cosets", "factored_trace", "kernel_trace", "orbital_trace",
    "volume_identity_check",
]

__version__ = "0.1.0"
