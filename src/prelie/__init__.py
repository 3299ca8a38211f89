"""Exact-arithmetic toolkit for pre-Lie algebras, cocycle-weighted Reynolds
operators, their cohomology and deformations, and NS-pre-Lie algebras.

All scalars are exact (rationals or prime fields); every axiom used by a
construction is re-verified at construction time, so the theorems behind
the constructions run as assertions on every call.
"""

from .algebra import (
    PreLieAlgebra,
    Report,
    Representation,
    check_derivation,
    check_morphism,
    check_prelie,
    check_representation,
    regular_representation,
    subadjacent_lie,
)
from .brackets import (
    check_maurer_cartan,
    check_twisted_mc,
    d_K,
    derived_bracket,
    diamond,
    dk_difference,
    mn_bracket,
    ternary_bracket,
)
from .cochain import (
    Cochain,
    CohomologyReport,
    check_two_cocycle,
    coboundary,
    coboundary_matrix,
    cohomology,
)
from .deformation import (
    DeformationSeries,
    check_equivalence_data,
    check_formal_deformation,
    check_linear_deformation,
    check_nijenhuis_element,
    element_coboundary,
    nijenhuis_elements,
    rigidity_probe,
)
from .linalg import Matrix
from .nsprelie import (
    NSPreLie,
    check_nijenhuis,
    check_ns_prelie,
    compatible_ns_from_invertible,
    deformed_product,
    nijenhuis_checker,
    ns_from_nijenhuis,
    ns_from_reynolds,
    reynolds_from_ns,
    subadjacent,
)
from .opcohomology import (
    OperatorCohomologyReport,
    induced_representation,
    operator_coboundary,
    operator_cohomology,
)
from .reynolds import (
    ReynoldsData,
    check_d_reynolds,
    check_graph_subalgebra,
    check_rcw_morphism,
    check_rcw_reynolds,
    check_weighted_reynolds,
    derivation_from_reynolds,
    gauge_transform,
    induced_product,
    reynolds_checker,
    reynolds_from_derivation,
    reynolds_from_invertible_cochain,
    semidirect,
    shift_isomorphism,
    shift_operator,
    star_product,
)
from .scalars import QQ, FpElement, PrimeField, RationalField
from .search import SearchSpec, exhaustive_search

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
