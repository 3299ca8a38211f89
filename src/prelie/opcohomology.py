"""Cohomology of a cocycle-weighted Reynolds operator.

A verified operator K: V -> g induces a pre-Lie product on V and a
representation of (V, ._K) back on g:

    u ._K v  = L_{Ku} v + R_{Kv} u + H(Ku, Kv)
    Lbar_u x = Ku.x - K(R_x u) - K H(Ku, x)
    Rbar_u x = x.Ku - K(L_x u) - K H(x, Ku)

The differential on cochains from V to g is the pre-Lie coboundary of
(V, ._K) with coefficients in (g; Lbar, Rbar), which squares to zero
because the induced pair is a representation.

`_induced_arrays` reads all three off the operator's frame
(`reynolds.operator_frames`): with gr(u) = (Ku, u) and p(a, b) = a - Kb
in the twisted semidirect product g + V, u ._K v is the V-part of
gr(u).gr(v), Lbar_u x = p(gr(u).x) and Rbar_u x = p(x.gr(u)), all ints
at scale D_g D_K^2 (`SIGNS.md`).  Both identities are re-verified and
the ranks taken on them (`cochain.integer_cohomology`); only
`induced_representation` maps them to the field.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .algebra import PreLieAlgebra, Representation, prelie_report, representation_report
from .cochain import Cochain, CohomologyReport, coboundary, coboundary_matrix, integer_cohomology
from .errors import InvariantError, ShapeError
from .linalg import Matrix, basis_vec
from .reynolds import ReynoldsData, operator_frames
from .scalars import INTEGERS


def _induced_arrays(data: ReynoldsData) -> tuple:
    """(u ._K v table, rows of each Lbar_u and Rbar_u, the frame's ``back``), re-verified.

    A residual has degree 2 in the arrays: it is mapped back by D_g^2 D_K^4.
    """
    g, rep = data.algebra, data.rep
    n, m = g.dim, rep.dim_v
    mul, graph, proj, products, back = operator_frames(g, rep, data.cocycle)(data.operator)
    e = [basis_vec(INTEGERS, n + m, x) for x in range(n)]
    table = [[w[n:] for w in row] for row in products]
    Lbar = [list(zip(*[proj(mul(gr, ex)) for ex in e])) for gr in graph]
    Rbar = [list(zip(*[proj(mul(ex, gr)) for ex in e])) for gr in graph]
    down = back(4, 2)
    for failed, report in (("structure constants fail the pre-Lie identity",
                            prelie_report(table, down)),
                           ("actions fail the representation identities",
                            representation_report(table, n, Lbar, Rbar, down))):
        if not report.ok:
            raise InvariantError(f"{failed}:\n" + report.describe())
    return table, Lbar, Rbar, back


def induced_representation(data: ReynoldsData) -> Representation:
    """The representation of the induced algebra (V, ._K) on g, both re-verified."""
    field, n = data.field, data.algebra.dim
    table, Lbar, Rbar, back = _induced_arrays(data)
    down = back(2)
    base = PreLieAlgebra(field, [[down(w) for w in row] for row in table], check=False)
    L, R = ([Matrix(field, [down(row) for row in M], cols=n) for M in A] for A in (Lbar, Rbar))
    return Representation(base, n, L, R, check=False)


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
class OperatorCohomologyReport(CohomologyReport):
    operator_hash: str


def operator_cohomology(data: ReynoldsData, degree: int) -> OperatorCohomologyReport:
    """Exact cocycle/coboundary/cohomology dimensions for the operator.

    Degree-1 coboundaries are 0 by the same convention as the algebra
    complex, so H^1 equals Z^1.
    """
    table, Lbar, Rbar, _ = _induced_arrays(data)
    base, _ = integer_cohomology(table, Lbar, Rbar, data.algebra.dim, data.field.char, degree)
    return OperatorCohomologyReport(*astuple(base), data.fingerprint())
