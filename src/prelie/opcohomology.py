"""Cohomology of a cocycle-weighted Reynolds operator.

A verified operator K: V -> g induces a pre-Lie product on V and a
representation of (V, ._K) back on g:

    Lbar_u x = Ku.x - K(R_x u) - K H(Ku, x)
    Rbar_u x = x.Ku - K(L_x u) - K H(x, Ku)

The differential on cochains from V to g is, authoritatively, the generic
pre-Lie coboundary of (V, ._K) with coefficients in (g; Lbar, Rbar); it
squares to zero because the induced pair is a genuine representation.

Hand-expanding that differential into one closed formula is error-prone
in exactly three spots: the action fed into the last slot of f (left
versus right), the summation over the omitted slot in the Rbar group
(easily collapsed to its last term), and the range and sign of the
bracket double sum.  `explicit_coboundary` implements both readings of
each spot, and `compare_explicit_paths` reports which readings match the
generic path, so a wrong expansion is localized to the term group that
caused it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Representation
from .cochain import (
    Cochain,
    coboundary,
    coboundary_matrix,
    cochain_keys,
)
from .errors import ShapeError
from .linalg import Matrix, add_vec, basis_vec, sub_vec, zero_vec
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
    return Representation(base, n, Lbar, Rbar, check=True)


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


def explicit_coboundary(data: ReynoldsData, f: Cochain, *,
                        right_slot: str = "expanded",
                        collapsed_group: str = "expanded",
                        bracket_group: str = "expanded") -> Cochain:
    """Closed-form expansion of the operator differential, term by term.

    Each flag selects a reading of one fragile spot ("expanded" is the
    faithful expansion of the generic path, "variant" the alternate
    reading that a hand expansion can slip into):

    * ``right_slot``: the product fed into f's last slot is
      L_{Ku_i} u_{n+1} + R_{Ku_{n+1}} u_i + H(Ku_i, Ku_{n+1}) when
      expanded; the variant swaps the middle term to L_{Ku_{n+1}} u_i.
    * ``collapsed_group``: the terms produced by Rbar carry a sum over
      the omitted slot i with sign (-1)^{i+1} when expanded; the variant
      keeps only the i = n slice.
    * ``bracket_group``: the double sum runs over 1 <= i < j <= n with
      sign (-1)^{i+j} when expanded; the variant runs to n+1 with
      sign (-1)^i.
    """
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    if f.dim_source != rep.dim_v or f.dim_target != g.dim:
        raise ShapeError("cochain must map the module to the algebra")
    field = g.field
    n = f.degree
    m = rep.dim_v

    def kcol(u):
        return K.column(u)

    def ev(u):
        return basis_vec(field, m, u)

    def prod_k(u_idx, v_idx):
        # u ._K v as a vector in V for basis indices
        val = add_vec(rep.act_L(kcol(u_idx), ev(v_idx)),
                      rep.act_R(kcol(v_idx), ev(u_idx)))
        return add_vec(val, H.eval([kcol(u_idx), kcol(v_idx)]))

    values = []
    for fb, last in cochain_keys(m, n + 1):
        head = list(fb)
        out = zero_vec(field, g.dim)

        # group coming from Lbar: three sums over the omitted slot
        for i in range(n):
            sgn = 1 if i % 2 == 0 else -1
            omitted = head[:i] + head[i + 1:]
            fv = f.eval_basis(tuple(omitted) + (last,))
            term = g.mul(kcol(head[i]), fv)
            term = sub_vec(term, K.apply(rep.act_R(fv, ev(head[i]))))
            term = sub_vec(term, K.apply(H.eval([kcol(head[i]), fv])))
            out = add_vec(out, term) if sgn == 1 else sub_vec(out, term)

        # group coming from Rbar
        if collapsed_group == "expanded":
            slots = range(n)
        else:
            slots = [n - 1]
        for i in slots:
            sgn = 1 if i % 2 == 0 else -1
            omitted = head[:i] + head[i + 1:]
            fv = f.eval_basis(tuple(omitted) + (head[i],))
            term = g.mul(fv, kcol(last))
            term = sub_vec(term, K.apply(rep.act_L(fv, ev(last))))
            term = sub_vec(term, K.apply(H.eval([fv, kcol(last)])))
            out = add_vec(out, term) if sgn == 1 else sub_vec(out, term)

        # the product pushed into f's last slot
        for i in range(n):
            sgn = 1 if i % 2 == 0 else -1
            omitted = head[:i] + head[i + 1:]
            if right_slot == "expanded":
                prod = prod_k(head[i], last)
            else:
                prod = add_vec(rep.act_L(kcol(head[i]), ev(last)),
                               rep.act_L(kcol(last), ev(head[i])))
                prod = add_vec(prod, H.eval([kcol(head[i]), kcol(last)]))
            term = f.eval(list(omitted) + [prod])
            out = sub_vec(out, term) if sgn == 1 else add_vec(out, term)

        # the bracket double sum, into f's first slot
        full = head + [last]
        if bracket_group == "expanded":
            for i in range(n):
                for j in range(i + 1, n):
                    sgn = 1 if (i + j) % 2 == 0 else -1
                    br = sub_vec(prod_k(head[i], head[j]), prod_k(head[j], head[i]))
                    rest = [head[k] for k in range(n) if k not in (i, j)]
                    term = f.eval([br] + rest + [last])
                    out = add_vec(out, term) if sgn == 1 else sub_vec(out, term)
        else:
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    sgn = -1 if i % 2 == 0 else 1  # (-1)^{i+1} for 1-based i
                    br = sub_vec(prod_k(full[i], full[j]), prod_k(full[j], full[i]))
                    rest = [full[k] for k in range(n + 1) if k not in (i, j)]
                    term = f.eval([br] + rest)
                    out = add_vec(out, term) if sgn == 1 else sub_vec(out, term)
        values.append(out)
    return Cochain(field, n + 1, m, g.dim, values)


def compare_explicit_paths(data: ReynoldsData, f: Cochain) -> dict:
    """Which closed-form term groups agree with the generic differential?

    Returns {"expanded": bool, "all_variants": bool, <group>: bool, ...}
    where a group entry is True when flipping only that group to its
    variant reading still matches the generic path (degenerate bundles
    can hide a variant; richer ones expose it).
    """
    generic = operator_coboundary(data, f)
    out = {
        "expanded": explicit_coboundary(data, f) == generic,
        "all_variants": explicit_coboundary(
            data, f, right_slot="variant", collapsed_group="variant",
            bracket_group="variant") == generic,
    }
    for group in ("right_slot", "collapsed_group", "bracket_group"):
        kwargs = {group: "variant"}
        out[group] = explicit_coboundary(data, f, **kwargs) == generic
    return out
