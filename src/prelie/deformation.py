"""Deformations of cocycle-weighted Reynolds operators.

Linear deformations K + t K1 are governed by three coefficient identities
(orders t, t^2, t^3 of the Reynolds identity); the order-t condition alone
says K1 is a 1-cocycle of the operator cohomology.  Truncated series
K_0 + K_1 t + ... + K_N t^N are checked as polynomial deformations: the
order-n identity is evaluated for every n up to 3N, beyond which all
contributions vanish identically.

Equivalences of deformations are mediated by an algebra element x through
the pair of maps

    phi_t = id + t (L_x - R_x),   psi_t = id + t (L_x - R_x + H(x, K-)).

The element conditions are implemented twice: as fixed closed-form
condition groups, and re-derived from first principles by expanding every
morphism requirement in powers of t (the two modes can disagree on some
groups; both verdicts are reported, see `check_equivalence_data`).
Nijenhuis elements are the x satisfying the closed-form groups plus
x . Rbar_u(x) = Rbar_u(x) . x; over a prime field
they are enumerated by `search.exhaustive_search`, which powers the
rigidity probe:
K is rigid when every operator 1-cocycle is the coboundary of a
Nijenhuis element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Report, Representation, _combine, residual_report
from .cochain import Cochain, cochain_space_dim
from .errors import InfiniteFieldError, ShapeError, UnverifiedSeriesError
from .linalg import Matrix, add_vec, basis_vec, sub_vec, zero_vec
from .opcohomology import operator_coboundary_matrix, rbar
from .reynolds import ReynoldsData, induced_mul
from .scalars import PrimeField


def _vbasis(rep: Representation, i: int) -> tuple:
    return basis_vec(rep.field, rep.dim_v, i)


def _psi1(data: ReynoldsData, x, u_vec) -> tuple:
    """The linear term of psi_t: psi1(u) = L_x u - R_x u + H(x, Ku)."""
    rep = data.rep
    out = sub_vec(rep.act_L(x, u_vec), rep.act_R(x, u_vec))
    return add_vec(out, data.cocycle.eval([x, data.operator.apply(u_vec)]))


def element_coboundary(data: ReynoldsData, x) -> Matrix:
    """The trivial deformation direction attached to an algebra element:

        (d_K x)(u) = K(L_x u - R_x u + H(x, Ku)) - x.Ku + Ku.x

    For equivalent linear deformations, K1 - K1' is exactly this map.
    """
    g, rep, K = data.algebra, data.rep, data.operator
    x = tuple(g.field(c) for c in x)
    if len(x) != g.dim:
        raise ShapeError("element has the wrong length")
    cols = []
    for u in range(rep.dim_v):
        Ku = K.column(u)
        col = sub_vec(K.apply(_psi1(data, x, _vbasis(rep, u))), g.mul(x, Ku))
        cols.append(add_vec(col, g.mul(Ku, x)))
    return Matrix.from_columns(g.field, cols, g.dim)


def _linear_conditions(data: ReynoldsData, K1: Matrix) -> dict:
    """Reports of the three coefficient identities of K + t K1, by order."""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    m = rep.dim_v

    def residuals(u, v):
        eu, ev = _vbasis(rep, u), _vbasis(rep, v)
        Ku, Kv = K.column(u), K.column(v)
        K1u, K1v = K1.column(u), K1.column(v)
        mixed = add_vec(rep.act_L(K1u, ev), rep.act_R(K1v, eu))
        h_mixed = add_vec(H.eval([K1u, Kv]), H.eval([Ku, K1v]))

        lhs = add_vec(g.mul(Ku, K1v), g.mul(K1u, Kv))
        r1 = sub_vec(lhs, add_vec(K1.apply(induced_mul(rep, H, K, u, v)),
                                  K.apply(add_vec(mixed, h_mixed))))
        r2 = sub_vec(g.mul(K1u, K1v), add_vec(K1.apply(add_vec(mixed, h_mixed)),
                                              K.apply(H.eval([K1u, K1v]))))
        r3 = K1.apply(H.eval([K1u, K1v]))
        return r1, r2, r3

    table = [((u, v), residuals(u, v)) for u in range(m) for v in range(m)]
    return {f"order_t{k + 1}": residual_report((where, rs[k]) for where, rs in table)
            for k in range(3)}


def check_linear_deformation(data: ReynoldsData, K1: Matrix) -> Report:
    """Does K1 generate a linear deformation K + t K1?

    Sub-verdicts per coefficient order; ``order_t1`` alone is the
    1-cocycle condition.  Its agreement with `is_cocycle`, the cohomology
    matrix route, is a test, not a runtime check.
    """
    g, rep = data.algebra, data.rep
    if K1.rows != g.dim or K1.cols != rep.dim_v:
        raise ShapeError("deformation direction has the wrong shape")
    return _combine(_linear_conditions(data, K1))


def is_cocycle(data: ReynoldsData, K1: Matrix) -> bool:
    """Is a linear map V -> g killed by the operator differential?"""
    d1 = operator_coboundary_matrix(data, 1)
    flat = [x for v in Cochain.from_matrix(K1).values for x in v]
    col = Matrix.from_columns(data.field, [flat], len(flat))
    return (d1 * col).is_zero()


@dataclass(frozen=True)
class DeformationSeries:
    """A truncated deformation: coefficients K_0, ..., K_N with K_0 = K."""

    base: ReynoldsData
    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ShapeError("series needs at least the constant coefficient")
        if self.coefficients[0] != self.base.operator:
            raise ShapeError("constant coefficient must equal the base operator")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def check_formal_deformation(series: DeformationSeries) -> Report:
    """Coefficient identities of a truncated deformation at every order.

    With a zero tail above the truncation order N, orders beyond 3N hold
    identically, so orders 0..3N decide the whole polynomial identity;
    the checked range is recorded in ``parts``.
    """
    data = series.base
    g, rep, H = data.algebra, data.rep, data.cocycle
    m = rep.dim_v
    ks = series.coefficients
    N = series.order

    def coefficient(order, u, v):
        """The t^order coefficient of the Reynolds identity at (u, v)."""
        eu, ev = _vbasis(rep, u), _vbasis(rep, v)
        total = zero_vec(g.field, g.dim)
        for i in range(0, order + 1):
            j = order - i
            if i <= N and j <= N:
                total = add_vec(total, g.mul(ks[i].column(u), ks[j].column(v)))
                inner = add_vec(rep.act_L(ks[j].column(u), ev),
                                rep.act_R(ks[j].column(v), eu))
                total = sub_vec(total, ks[i].apply(inner))
        for i in range(0, min(order, N) + 1):
            for j in range(0, order - i + 1):
                k = order - i - j
                if j <= N and k <= N:
                    hv = H.eval([ks[j].column(u), ks[k].column(v)])
                    total = sub_vec(total, ks[i].apply(hv))
        return total

    # the part keys state the determined range: orders 0 .. 3N inclusive
    return _combine({
        f"order_{order}": residual_report(((order, u, v), coefficient(order, u, v))
                                          for u in range(m) for v in range(m))
        for order in range(0, 3 * N + 1 if N else 1)})


def infinitesimal(series: DeformationSeries):
    """First coefficient of a verified series, with its cocycle verdict."""
    report = check_formal_deformation(series)
    if not report.ok:
        raise UnverifiedSeriesError("series fails its coefficient identities")
    data = series.base
    if series.order == 0:
        K1 = Matrix.zero(data.field, data.algebra.dim, data.rep.dim_v)
    else:
        K1 = series.coefficients[1]
    verdict = Report(is_cocycle(data, K1), [])
    return K1, verdict


# ---------------------------------------------------------------------------
# element condition groups (literal and re-derived)


def _grid_report(pairs_at, rows: int, cols: int) -> Report:
    """The report of every pair that ``pairs_at(a, b)`` yields, a < rows, b < cols."""
    return residual_report(p for a in range(rows) for b in range(cols) for p in pairs_at(a, b))


def _literal_groups(data: ReynoldsData, x) -> dict:
    """The fixed closed-form element condition groups."""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    field = g.field
    x = tuple(field(c) for c in x)
    n, m = g.dim, rep.dim_v
    psi1_basis = [_psi1(data, x, _vbasis(rep, u)) for u in range(m)]

    def alg_map(y, z):
        ey, ez = g.basis(y), g.basis(z)
        yield ("comm-product", y, z), g.mul(g.bracket(x, ey), g.bracket(x, ez))
        yield ("product-by-x", y, z), g.mul(g.mul_basis(y, z), x)

    def action(side, act, y, u):
        ey, eu = g.basis(y), _vbasis(rep, u)
        yield ((f"{side}-cocycle", y, u),
               sub_vec(H.eval([x, K.apply(act(ey, eu))]), act(ey, H.eval([x, K.column(u)]))))
        yield (f"{side}-second", y, u), act(g.bracket(x, ey), psi1_basis[u])

    def weight(y, z):
        ey, ez = g.basis(y), g.basis(z)
        hyz = H.eval_basis((y, z))
        lhs = add_vec(sub_vec(rep.act_L(x, hyz), rep.act_R(x, hyz)), H.eval([x, K.apply(hyz)]))
        rhs = add_vec(H.eval([g.bracket(x, ey), ez]), H.eval([ey, g.bracket(x, ez)]))
        yield ("weight-cocycle", y, z), sub_vec(lhs, rhs)
        yield ("weight-second", y, z), H.eval([g.bracket(x, ey), g.bracket(x, ez)])

    return {
        "algebra_morphism": _grid_report(alg_map, n, n),
        "left_action": _grid_report(lambda y, u: action("left", rep.act_L, y, u), n, m),
        "right_action": _grid_report(lambda y, u: action("right", rep.act_R, y, u), n, m),
        "weight_compat": _grid_report(weight, n, n),
    }


def _rederived_groups(data: ReynoldsData, x, K1: Matrix | None = None,
                      K1p: Matrix | None = None) -> dict:
    """Expand every morphism requirement of (phi_t, psi_t) in powers of t.

    phi_t = id + t P with P = L_x - R_x on g; psi_t = id + t S with
    S u = L_x u - R_x u + H(x, Ku) on V.  Each requirement is a polynomial
    identity in t; all coefficients must vanish.
    """
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    field = g.field
    x = tuple(field(c) for c in x)
    n, m = g.dim, rep.dim_v

    def P(vec):  # phi_t linear term
        return g.bracket(x, vec)

    def S(u_vec):  # psi_t linear term
        return _psi1(data, x, u_vec)

    p_basis = [P(g.basis(y)) for y in range(n)]
    s_basis = [S(_vbasis(rep, u)) for u in range(m)]

    def alg_map(y, z):
        ey, ez = g.basis(y), g.basis(z)
        # t: P(y.z) = P(y).z + y.P(z)
        yield ("t1", y, z), sub_vec(P(g.mul_basis(y, z)),
                                    add_vec(g.mul(p_basis[y], ez), g.mul(ey, p_basis[z])))
        # t^2: P(y).P(z) = 0
        yield ("t2", y, z), g.mul(p_basis[y], p_basis[z])

    def action(act, y, u):
        ey, eu = g.basis(y), _vbasis(rep, u)
        # t: S(L_y u) = L_y S(u) + L_{P(y)} u, and likewise for R
        yield ("t1", y, u), sub_vec(S(act(ey, eu)),
                                    add_vec(act(ey, s_basis[u]), act(p_basis[y], eu)))
        # t^2: L_{P(y)} S(u) = 0
        yield ("t2", y, u), act(p_basis[y], s_basis[u])

    def weight(y, z):
        ey, ez = g.basis(y), g.basis(z)
        # t: S(H(y,z)) = H(P(y), z) + H(y, P(z))
        yield ("t1", y, z), sub_vec(S(H.eval_basis((y, z))),
                                    add_vec(H.eval([p_basis[y], ez]), H.eval([ey, p_basis[z]])))
        # t^2: H(P(y), P(z)) = 0
        yield ("t2", y, z), H.eval([p_basis[y], p_basis[z]])

    out = {
        "algebra_morphism": _grid_report(alg_map, n, n),
        "left_action": _grid_report(lambda y, u: action(rep.act_L, y, u), n, m),
        "right_action": _grid_report(lambda y, u: action(rep.act_R, y, u), n, m),
        "weight_compat": _grid_report(weight, n, n),
    }

    if K1 is not None and K1p is not None:
        # phi_t K_t = K'_t psi_t, coefficients of t and t^2
        def intertwining(u):
            # t: K1(u) + P(Ku) = K(S(u)) + K1'(u)
            yield ("t1", u), sub_vec(add_vec(K1.column(u), P(K.column(u))),
                                     add_vec(K.apply(s_basis[u]), K1p.column(u)))
            # t^2: P(K1 u) = K1'(S(u))
            yield ("t2", u), sub_vec(P(K1.column(u)), K1p.apply(s_basis[u]))

        out["intertwines_operator"] = residual_report(
            p for u in range(m) for p in intertwining(u))
    return out


def check_equivalence_data(data: ReynoldsData, K1: Matrix, K1p: Matrix, x) -> Report:
    """Are K + t K1 and K + t K1' equivalent through the element x?

    The overall verdict follows the literal condition groups plus the two
    operator-intertwining identities; the re-derived expansion is attached
    under ``parts["rederived"]`` for comparison.
    """
    g, rep, K = data.algebra, data.rep, data.operator
    x = tuple(g.field(c) for c in x)
    parts = dict(_literal_groups(data, x))

    def intertwining(u):
        Ku, K1u = K.column(u), K1.column(u)
        s = _psi1(data, x, _vbasis(rep, u))
        lhs = add_vec(K1u, sub_vec(g.mul(x, Ku), g.mul(Ku, x)))
        yield ("difference", u), sub_vec(lhs, add_vec(K.apply(s), K1p.column(u)))
        yield ("conjugate", u), sub_vec(sub_vec(g.mul(x, K1u), g.mul(K1u, x)), K1p.apply(s))

    parts["intertwines_operator"] = residual_report(
        p for u in range(rep.dim_v) for p in intertwining(u))

    report = _combine(parts)
    rederived = _rederived_groups(data, x, K1, K1p)
    report.parts["rederived"] = _combine(rederived)
    report.parts["modes_agree"] = Report(
        all(parts[k].ok == rederived[k].ok for k in
            ("algebra_morphism", "left_action", "right_action", "weight_compat")), [])
    return report


def check_nijenhuis_element(data: ReynoldsData, x) -> Report:
    """Is x a Nijenhuis element for the operator?

    Requires x . Rbar_u(x) = Rbar_u(x) . x for every module basis vector
    plus the literal element condition groups.  The re-derived verdicts
    ride along in ``parts["rederived"]``.
    """
    g = data.algebra
    x = tuple(g.field(c) for c in x)
    if len(x) != g.dim:
        raise ShapeError("element has the wrong length")

    def commutator(u):
        r = rbar(data, u, x)
        return sub_vec(g.mul(x, r), g.mul(r, x))

    parts = {"rbar_condition": residual_report(
        (("rbar-commutes", u), commutator(u)) for u in range(data.rep.dim_v))}
    parts.update(_literal_groups(data, x))
    report = _combine(parts)
    report.parts["rederived"] = _combine(_rederived_groups(data, x))
    return report


def nijenhuis_elements(data: ReynoldsData) -> list:
    """All Nijenhuis elements over a prime field, in lexicographic order.

    The elements are the solutions of an exhaustive search, so the
    enumeration is bounded by the search budget.
    """
    from .search import SearchSpec, exhaustive_search  # search imports this module

    field = data.field
    spec = SearchSpec("nijenhuis-element", {"data": data}, (data.algebra.dim, 1),
                      tuple(field.elements()))
    return [x.column(0) for x in exhaustive_search(spec, field).solutions]


@dataclass(frozen=True)
class RigidityReport:
    cocycle_count: int
    nijenhuis_count: int
    image_count: int
    criterion_holds: bool


def rigidity_probe(data: ReynoldsData) -> RigidityReport:
    """Decide the sufficient rigidity criterion over a prime field.

    Enumerates the full space of operator 1-cocycles Z^1 (as the span of
    the kernel of the degree-1 differential) and the coboundaries of all
    Nijenhuis elements, and reports whether the two sets coincide.  The
    verdict is a probe of the sufficient condition only: Z^1 = d_K(Nij)
    implies rigidity.
    """
    field = data.field
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("the rigidity probe needs a finite field")
    g, rep = data.algebra, data.rep
    d1 = operator_coboundary_matrix(data, 1)
    basis = d1.kernel().vectors
    elements = field.elements()

    cocycles = set()

    def span(prefix, acc):
        if len(prefix) == len(basis):
            cocycles.add(tuple(acc))
            return
        for c in elements:
            nxt = [a + c * b for a, b in zip(acc, basis[len(prefix)])]
            span(prefix + [c], nxt)

    zero_flat = [field.zero] * cochain_space_dim(rep.dim_v, g.dim, 1)
    span([], zero_flat)

    image = set()
    nij = nijenhuis_elements(data)
    for x in nij:
        mat = element_coboundary(data, x)
        flat = tuple(x for v in Cochain.from_matrix(mat).values for x in v)
        image.add(flat)

    return RigidityReport(len(cocycles), len(nij), len(image), cocycles == image)
