"""Exact toolkit for Cox rings of spaces of complete rank-2 collineations.

Layers: exact integer linear algebra (`intlinalg`), rational multivariate
polynomials (`polyring`), Buchberger ideal arithmetic (`groebner`), exact
cones and fans (`geometry`), the collineation-specific constructions
(`collineation`), the verification check registry (`checks`) and the
`coxpres` command line (`cli`).
"""

from .collineation import (CoxPresentation, Params, WitnessPoint,
                           cox_presentation, gale_matrix_P,
                           local_equation_invariance, plucker_relations,
                           proof_ideals, pullback_and_cancel, segre_map,
                           weight_matrices, witness_points)
from .geometry import (Cone, Fan, GalePair, barycenter_direction,
                       cone_intersect, cone_membership, gale_cone_test,
                       git_fan, mori_cones, stellar_subdivide)
from .groebner import (BudgetExceeded, Ideal, eliminate, groebner_basis,
                       ideal_equal, krull_dimension, normal_form, saturate,
                       toric_kernel, weighted_basis)
from .intlinalg import IntMatrix, hermite_normal_form, kernel_basis, rank
from .polyring import Grading, MonomialOrder, Polynomial, PolyRing, RingMap, \
    multidegree

__all__ = [
    "BudgetExceeded", "Cone", "CoxPresentation", "Fan", "GalePair", "Grading",
    "Ideal", "IntMatrix", "MonomialOrder", "Params", "Polynomial", "PolyRing",
    "RingMap", "WitnessPoint", "barycenter_direction", "cone_intersect",
    "cone_membership", "cox_presentation", "eliminate", "gale_cone_test",
    "gale_matrix_P", "git_fan", "groebner_basis", "hermite_normal_form",
    "ideal_equal", "kernel_basis", "krull_dimension",
    "local_equation_invariance", "mori_cones", "multidegree", "normal_form",
    "plucker_relations", "proof_ideals", "pullback_and_cancel", "rank",
    "saturate", "segre_map", "stellar_subdivide", "toric_kernel",
    "weight_matrices", "weighted_basis", "witness_points",
]

__version__ = "0.1.0"
