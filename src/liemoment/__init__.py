"""Exact momentum polytopes and cones of Hamiltonian group actions.

Computes momentum polytopes of projectivized representations, momentum
cones of affine varieties from highest-weight data, local momentum cones
from isotropy data, cotangent-bundle momentum cones of homogeneous
spaces, and the polyhedral calculus connecting them -- all in exact
rational arithmetic over fundamental-weight coordinates.
"""

from .errors import DomainError, ShapeError, UnsupportedCaseError
from .exactq import Q, q, qv, qstr
from .rootsys import (
    GroupSpec,
    RootSystem,
    build,
    dominant_roots,
    dominantize,
    star,
    star_linear,
    weyl_orbit,
)
from .repweights import WeightSystem, dim, irrep_weights, pi_lambda, union_weights
from .polyhedra import (
    Polyhedron,
    cone_from_rays,
    empty_polyhedron,
    from_generators,
    from_halfspaces,
    hull,
    intersect,
    shift,
    slice_subspace,
)
from .momentum import (
    BoundedAnswer,
    LocalConeSpec,
    affine_cone_from_hw,
    assemble_polytope,
    chamber,
    cotangent_homogeneous,
    linear_cone_torus,
    local_cone,
    momentum_polytope_projective,
    projective_closure_polytope,
    recover_cone,
    reduce_polytope,
    star_invariance_check,
)

__version__ = "0.1.0"
