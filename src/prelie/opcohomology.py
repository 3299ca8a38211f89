"""Cohomology of a cocycle-weighted Reynolds operator.

A verified operator K: V -> g induces a pre-Lie product on V and a
representation of (V, ._K) back on g:

    Lbar_u x = Ku.x - K(R_x u) - K H(Ku, x)
    Rbar_u x = x.Ku - K(L_x u) - K H(x, Ku)

The differential on cochains from V to g is, authoritatively, the generic
pre-Lie coboundary of (V, ._K) with coefficients in (g; Lbar, Rbar); it
squares to zero because the induced pair is a genuine representation.

A hand-expanded closed formula for the same differential is a test
oracle (`tests/oracles.py`), not part of the library.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Representation
from .cochain import Cochain, coboundary, coboundary_matrix
from .errors import ShapeError, reverified
from .linalg import Matrix, basis_vec, sub_vec
from .reynolds import ReynoldsData, induced_product


def rbar(data: ReynoldsData, u: int, x) -> tuple:
    """Rbar_u x = x.Ku - K(L_x u) - K H(x, Ku), for a V-basis index u."""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    Ku = K.column(u)
    rv = sub_vec(g.mul(x, Ku), K.apply(rep.act_L(x, basis_vec(g.field, rep.dim_v, u))))
    return sub_vec(rv, K.apply(H.eval([x, Ku])))


def induced_representation(data: ReynoldsData) -> Representation:
    """The representation of the induced algebra (V, ._K) on g."""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    n, m = g.dim, rep.dim_v
    field = g.field
    base = induced_product(data)
    Lbar, Rbar = [], []
    for u in range(m):
        Ku = K.column(u)
        eu = basis_vec(field, m, u)
        lcols = []
        for x in range(n):
            ex = g.basis(x)
            lv = sub_vec(g.mul(Ku, ex), K.apply(rep.act_R(ex, eu)))
            lcols.append(sub_vec(lv, K.apply(H.eval([Ku, ex]))))
        Lbar.append(Matrix.from_columns(field, lcols, n))
        Rbar.append(Matrix.from_columns(field, [rbar(data, u, g.basis(x)) for x in range(n)], n))
    return reverified(Representation, base, n, Lbar, Rbar)


def operator_coboundary(data: ReynoldsData, f: Cochain) -> Cochain:
    """The differential of the operator cohomology (generic path)."""
    g, rep = data.algebra, data.rep
    if f.dim_source != rep.dim_v or f.dim_target != g.dim:
        raise ShapeError("cochain must map the module to the algebra")
    induced = induced_representation(data)
    return coboundary(induced.algebra, induced, f)


def operator_coboundary_matrix(data: ReynoldsData, degree: int) -> Matrix:
    induced = induced_representation(data)
    return coboundary_matrix(induced.algebra, induced, degree)


@dataclass(frozen=True)
class OperatorCohomologyReport:
    degree: int
    dim_z: int
    dim_b: int
    dim_h: int
    operator_hash: str


def operator_cohomology(data: ReynoldsData, degree: int) -> OperatorCohomologyReport:
    """Exact cocycle/coboundary/cohomology dimensions for the operator.

    Degree-1 coboundaries are 0 by the same convention as the algebra
    complex, so H^1 equals Z^1.
    """
    from .cochain import cohomology

    induced = induced_representation(data)
    base = cohomology(induced.algebra, induced, degree)
    return OperatorCohomologyReport(base.degree, base.dim_z, base.dim_b, base.dim_h,
                                    data.fingerprint())
