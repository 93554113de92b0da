"""Executable topogenous structures on finite concrete categories."""

from .lattice import FiniteLattice, MonotoneMap, right_adjoint_of
from .site import FiniteCategory, PullbackSquare, SubobjectFibration, check_bcp, factorize, pullback, validate_fibration
from .structures import (
    ClosureOperator,
    InteriorOperator,
    NeighbourhoodOperator,
    TopogenousOrder,
    closure_from_topogenous,
    discrete_order,
    interior_from_topogenous,
    is_idempotent,
    nbhd_from_topogenous,
    predicates,
    topogenous_from_closure,
    topogenous_from_interior,
    topogenous_from_nbhd,
    validate_structure,
)
from .morphisms import classify, continuity_equivalents, strict_subobjects

__all__ = [
    "FiniteLattice", "MonotoneMap", "right_adjoint_of",
    "FiniteCategory", "PullbackSquare", "SubobjectFibration", "check_bcp", "factorize",
    "pullback", "validate_fibration",
    "ClosureOperator", "InteriorOperator", "NeighbourhoodOperator", "TopogenousOrder",
    "closure_from_topogenous", "discrete_order", "interior_from_topogenous", "is_idempotent",
    "nbhd_from_topogenous", "predicates", "topogenous_from_closure", "topogenous_from_interior",
    "topogenous_from_nbhd", "validate_structure",
    "classify", "continuity_equivalents", "strict_subobjects",
]
