"""Cohomology of a cocycle-weighted Reynolds operator.

A verified operator K: V -> g induces a pre-Lie product on V and a
representation of (V, ._K) back on g:

    u ._K v  = L_{Ku} v + R_{Kv} u + H(Ku, Kv)
    Lbar_u x = Ku.x - K(R_x u) - K H(Ku, x)
    Rbar_u x = x.Ku - K(L_x u) - K H(x, Ku)

The differential on cochains from V to g is, authoritatively, the generic
pre-Lie coboundary of (V, ._K) with coefficients in (g; Lbar, Rbar); it
squares to zero because the induced pair is a genuine representation.

`induced_representation` evaluates the three formulas on one integer
lift of (g, L, R, H, K) (`scalars.lift`, through
`algebra.lifted_representation`).  Each formula has terms of degree 2 in
the lifted scalars and an H term of degree 3; the degree-2 part is
multiplied by the common denominator D (the lift of 1; over F_p, D = 1),
so every value is homogeneous of degree 3 and maps back to the field
with ``down(., 3)``.  The algebra and the representation built from the
field values are then re-verified, as the output of every construction
is.

A hand-expanded closed formula for the same differential is a test
oracle (`tests/oracles.py`), not part of the library.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import PreLieAlgebra, Representation, lifted_representation
from .cochain import Cochain, coboundary, coboundary_matrix
from .errors import ShapeError, reverified
from .linalg import Matrix, basis_vec, scale_vec, sub_vec
from .reynolds import ReynoldsData, _induced_tensor


def rbar(data: ReynoldsData, u: int, x, scale=1) -> tuple:
    """Rbar_u x = x.Ku - K(L_x u) - K H(x, Ku), for a V-basis index u.

    ``scale`` multiplies the first two terms: 1 on field data, D on the
    integer lift (see the module docstring).
    """
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    Ku = K.column(u)
    rv = sub_vec(g.mul(x, Ku), K.apply(rep.act_L(x, basis_vec(g.field, rep.dim_v, u))))
    return sub_vec(scale_vec(scale, rv), K.apply(H.eval([x, Ku])))


def induced_representation(data: ReynoldsData) -> Representation:
    """The representation of the induced algebra (V, ._K) on g, both re-verified."""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    n, m = g.dim, rep.dim_v
    field = g.field
    lifted, down, h_values, k_rows, (scale,) = lifted_representation(
        g, m, rep.L, rep.R, H.values, K.data, (field.one,))
    ints = lifted.field
    gi, Hi = lifted.algebra, Cochain(ints, H.degree, n, m, h_values)
    Ki = Matrix(ints, k_rows, cols=m)
    table = _induced_tensor(lifted, Hi, Ki, scale)
    base = reverified(PreLieAlgebra, field, [[down(v, 3) for v in row] for row in table])
    li = ReynoldsData(gi, lifted, Hi, Ki)
    Lbar, Rbar = [], []
    for u in range(m):
        Ku = Ki.column(u)
        eu = basis_vec(ints, m, u)
        lcols = []
        for x in range(n):
            ex = gi.basis(x)
            lv = scale_vec(scale, sub_vec(gi.mul(Ku, ex), Ki.apply(lifted.act_R(ex, eu))))
            lcols.append(down(sub_vec(lv, Ki.apply(Hi.eval([Ku, ex]))), 3))
        Lbar.append(Matrix.from_columns(field, lcols, n))
        Rbar.append(Matrix.from_columns(
            field, [down(rbar(li, u, gi.basis(x), scale), 3) for x in range(n)], n))
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
