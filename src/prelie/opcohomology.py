"""Cohomology of a cocycle-weighted Reynolds operator.

A verified operator K: V -> g induces a pre-Lie product on V and a
representation of (V, ._K) back on g:

    u ._K v  = L_{Ku} v + R_{Kv} u + H(Ku, Kv)
    Lbar_u x = Ku.x - K(R_x u) - K H(Ku, x)
    Rbar_u x = x.Ku - K(L_x u) - K H(x, Ku)

The differential on cochains from V to g is the pre-Lie coboundary of
(V, ._K) with coefficients in (g; Lbar, Rbar), which squares to zero
because the induced pair is a representation.

`_induced_arrays` reads all three off the frame it is handed
(`reynolds.operator_frames`): with gr(u) = (Ku, u) and p(a, b) = a - Kb
in the twisted semidirect product g + V, u ._K v is the V-part of
gr(u).gr(v), Lbar_u x = p(gr(u).x) and Rbar_u x = p(x.gr(u)), all ints
at scale D_g D_K^2 (`SIGNS.md`).  Both identities are re-verified in one
pass, as the pre-Lie identity of V + g with the product of (V, ._K)
acting by (Lbar, Rbar) (`algebra.pair_reports`), and the ranks and the
differential are taken on them; only `induced_representation` maps them
to the field.  A command hands `_operator_cohomology` the frames that
the bundle's build verified it on (`reynolds._verified`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import PreLieAlgebra, Representation, int_basis, pair_reports
from .cochain import (
    Cochain,
    CohomologyReport,
    _apply_coboundary,
    coboundary_matrix,
    integer_cohomology,
)
from .errors import InvariantError, ShapeError
from .linalg import Matrix
from .reynolds import ReynoldsData, _prepared
from .scalars import lift


def _induced_arrays(n: int, frame) -> tuple:
    """(u ._K v table, rows of each Lbar_u and Rbar_u, the frame's ``back``), re-verified.

    n = dim g.  One `algebra.pair_reports` pass checks both identities;
    the pre-Lie one is named first when both fail.  A residual has
    degree 2 in the arrays: it is mapped back by D_g^2 D_K^4.
    """
    mul, graph, proj, products, back = frame
    e = int_basis(n, n + len(graph))
    table = [[w[n:] for w in row] for row in products]
    Lbar = [list(zip(*map(proj, row))) for row in mul(graph, e)]  # gr(u).e_x
    right = mul(e, graph)  # e_x.gr(u)
    Rbar = [list(zip(*[proj(row[u]) for row in right])) for u in range(len(graph))]
    for failed, report in zip(("structure constants fail the pre-Lie identity",
                               "actions fail the representation identities"),
                              pair_reports(table, n, Lbar, Rbar, back(4, 2))):
        if not report.ok:
            raise InvariantError(f"{failed}:\n" + report.describe())
    return table, Lbar, Rbar, back


def _frame(data: ReynoldsData):
    """The frame of the bundle's operator, prepared for one call (`reynolds._prepared`)."""
    return _prepared(data)(data.operator)


def induced_representation(data: ReynoldsData) -> Representation:
    """The representation of the induced algebra (V, ._K) on g, both re-verified."""
    field, n = data.field, data.algebra.dim
    table, Lbar, Rbar, back = _induced_arrays(n, _frame(data))
    down = back(2)
    base = PreLieAlgebra(field, [[down(w) for w in row] for row in table], check=False)
    L, R = ([Matrix(field, [down(row) for row in M], cols=n) for M in A] for A in (Lbar, Rbar))
    return Representation(base, n, L, R, check=False)


def _frame_coboundary(n: int, frame, f: Cochain) -> Cochain:
    """The operator differential of f on the induced arrays of ``frame`` (n = dim g):
    f is lifted alone (D_f), and a value comes back by D_g D_K^2 D_f."""
    table, Lbar, Rbar, back = _induced_arrays(n, frame)
    (values, Df), _ = lift(f.field, (f.values, f.field.one))
    return _apply_coboundary(table, Lbar, Rbar, n, f, values, back(2, 1, Df))


def operator_coboundary(data: ReynoldsData, f: Cochain) -> Cochain:
    """The differential of the operator cohomology (generic path)."""
    if (f.dim_source, f.dim_target) != (data.rep.dim_v, data.algebra.dim):
        raise ShapeError("cochain must map the module to the algebra")
    return _frame_coboundary(data.algebra.dim, _frame(data), f)


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
    return _operator_cohomology(data, _prepared(data), degree)


def _operator_cohomology(data: ReynoldsData, frames, degree: int) -> OperatorCohomologyReport:
    """`operator_cohomology` on the frames of the bundle's (g, rep, H)."""
    table, Lbar, Rbar, _ = _induced_arrays(data.algebra.dim, frames(data.operator))
    r, _ = integer_cohomology(table, Lbar, Rbar, data.algebra.dim, data.field.char, degree)
    return OperatorCohomologyReport(r.degree, r.dim_z, r.dim_b, r.dim_h, data.fingerprint())
