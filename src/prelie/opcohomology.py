"""Cohomology of a cocycle-weighted Reynolds operator.

A verified operator K: V -> g induces a pre-Lie product on V and a
representation of (V, ._K) back on g:

    u ._K v  = L_{Ku} v + R_{Kv} u + H(Ku, Kv)
    Lbar_u x = Ku.x - K(R_x u) - K H(Ku, x)
    Rbar_u x = x.Ku - K(L_x u) - K H(x, Ku)

The differential on cochains from V to g is, authoritatively, the generic
pre-Lie coboundary of (V, ._K) with coefficients in (g; Lbar, Rbar); it
squares to zero because the induced pair is a genuine representation.

`induced_representation` reads all three off the operator's frame
(`reynolds.operator_frames`): with gr(u) = (Ku, u) and p(a, b) = a - Kb
in the twisted semidirect product g + V, u ._K v is the V-part of
gr(u).gr(v), Lbar_u x = p(gr(u).x) and Rbar_u x = p(x.gr(u)), each of
degree 2 on the lift (`SIGNS.md`); both structures are re-verified.

A hand-expanded closed formula for the same differential is a test
oracle (`tests/oracles.py`), not part of the library.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import PreLieAlgebra, Representation
from .cochain import Cochain, coboundary, coboundary_matrix
from .errors import ShapeError, reverified
from .linalg import Matrix, basis_vec
from .reynolds import ReynoldsData, _induced_table, operator_frames
from .scalars import INTEGERS


def induced_representation(data: ReynoldsData) -> Representation:
    """The representation of the induced algebra (V, ._K) on g, both re-verified."""
    g, rep = data.algebra, data.rep
    n, m, field = g.dim, rep.dim_v, g.field
    frame = operator_frames(g, rep, data.cocycle)(data.operator)
    mul, graph, p, _, back = frame
    down = back(2)
    e = [basis_vec(INTEGERS, n + m, x) for x in range(n)]
    base = reverified(PreLieAlgebra, field, _induced_table(n, frame))
    Lbar = [Matrix.from_columns(field, [down(p(mul(gr, ex))) for ex in e], n)
            for gr in graph]
    Rbar = [Matrix.from_columns(field, [down(p(mul(ex, gr))) for ex in e], n)
            for gr in graph]
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
