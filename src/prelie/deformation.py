"""Deformations of cocycle-weighted Reynolds operators.

A deformation K_t = K_0 + K_1 t + ... + K_N t^N is built once, as a
matrix whose entries are polynomials in one variable t (`scalars.Poly`),
and the Reynolds identity is evaluated on it by the same residual kernel
that checks a single operator (`reynolds.rcw_residual`).  The t^k
coefficient of each residual is the order-k condition: a truncated series
is checked at every order 0..3N, beyond which all contributions vanish
identically, and a linear deformation K + t K1 at orders t, t^2, t^3.
The order-t condition alone says K1 is a 1-cocycle of the operator
cohomology.

Equivalences of deformations are mediated by an algebra element x through
the pair of maps

    phi_t = id + t (L_x - R_x),   psi_t = id + t (L_x - R_x + H(x, K-)).

The operator intertwining phi_t K_t - K'_t psi_t is likewise one product
of polynomial matrices, read off at orders t and t^2.  The remaining
element conditions are implemented twice: as fixed closed-form condition
groups, and re-derived from first principles by expanding every morphism
requirement in powers of t (the two modes can disagree on some groups;
both verdicts are reported, see `check_equivalence_data`).
Nijenhuis elements are the x satisfying the closed-form groups plus
x . Rbar_u(x) = Rbar_u(x) . x; over a prime field they are enumerated by
`search.exhaustive_search`, which powers the rigidity probe: K is rigid
when every operator 1-cocycle is the coboundary of a Nijenhuis element.
The probe counts Z^1 from the dimension of the kernel of the degree-1
differential instead of listing it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Report, Representation, _combine, residual_report
from .cochain import Cochain, cochain_space_dim, integer_coboundary_rows
from .errors import InfiniteFieldError, ShapeError, UnverifiedSeriesError
from .linalg import Matrix, add_vec, basis_vec, integer_rank, sparse_mul, sub_vec
from .opcohomology import induced_representation, operator_coboundary, rbar
from .reynolds import ReynoldsData, rcw_residual
from .scalars import Poly, PrimeField


def _vbasis(rep: Representation, i: int) -> tuple:
    return basis_vec(rep.field, rep.dim_v, i)


def _psi1(data: ReynoldsData, x, u_vec) -> tuple:
    """The linear term of psi_t: psi1(u) = L_x u - R_x u + H(x, Ku)."""
    rep = data.rep
    out = sub_vec(rep.act_L(x, u_vec), rep.act_R(x, u_vec))
    return add_vec(out, data.cocycle.eval([x, data.operator.apply(u_vec)]))


def _element(g, x) -> tuple:
    """The coordinates of an algebra element, coerced into the field."""
    x = tuple(g.field(c) for c in x)
    if len(x) != g.dim:
        raise ShapeError("element has the wrong length")
    return x


def _in_t(matrices) -> Matrix:
    """The matrix M_0 + M_1 t + M_2 t^2 + ... with entries polynomial in t."""
    field = matrices[0].field
    total = matrices[0]
    for i, M in enumerate(matrices[1:], 1):
        total = total + M.scale(Poly({(0,) * i: field.one}))
    return total


def _order(vec, k: int, zero) -> tuple:
    """The t^k coefficient of every coordinate of a vector polynomial in t.

    A coordinate that is a scalar is a constant polynomial.
    """
    mono = (0,) * k
    return tuple(x.terms.get(mono, zero) if isinstance(x, Poly)
                 else x if k == 0 else zero for x in vec)


def _reynolds_in_t(data: ReynoldsData, coefficients) -> list:
    """The Reynolds residual of K_t = sum K_i t^i at every V-basis pair (u, v)."""
    g, rep, H = data.algebra, data.rep, data.cocycle
    K_t = _in_t(coefficients)
    m = rep.dim_v
    return [((u, v), rcw_residual(g, rep, H, K_t, u, v)) for u in range(m) for v in range(m)]


def element_coboundary(data: ReynoldsData, x) -> Matrix:
    """The trivial deformation direction attached to an algebra element:

        (d_K x)(u) = K(L_x u - R_x u + H(x, Ku)) - x.Ku + Ku.x

    For equivalent linear deformations, K1 - K1' is exactly this map.
    """
    g, rep, K = data.algebra, data.rep, data.operator
    x = _element(g, x)
    cols = []
    for u in range(rep.dim_v):
        Ku = K.column(u)
        col = sub_vec(K.apply(_psi1(data, x, _vbasis(rep, u))), g.mul(x, Ku))
        cols.append(add_vec(col, g.mul(Ku, x)))
    return Matrix.from_columns(g.field, cols, g.dim)


def check_linear_deformation(data: ReynoldsData, K1: Matrix) -> Report:
    """Does K1 generate a linear deformation K + t K1?

    Sub-verdicts per coefficient order t, t^2, t^3; ``order_t1`` alone is
    the 1-cocycle condition.  Its agreement with `is_cocycle`, the
    coboundary route, is a test, not a runtime check.
    """
    g, rep = data.algebra, data.rep
    if K1.rows != g.dim or K1.cols != rep.dim_v:
        raise ShapeError("deformation direction has the wrong shape")
    table = _reynolds_in_t(data, (data.operator, K1))
    zero = g.field.zero
    return _combine({f"order_t{k}": residual_report((where, _order(r, k, zero))
                                                    for where, r in table)
                     for k in (1, 2, 3)})


def is_cocycle(data: ReynoldsData, K1: Matrix) -> bool:
    """Is a linear map V -> g killed by the operator differential?"""
    return operator_coboundary(data, Cochain.from_matrix(K1)).is_zero()


@dataclass(frozen=True)
class DeformationSeries:
    """A truncated deformation: coefficients K_0, ..., K_N with K_0 = K."""

    base: ReynoldsData
    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ShapeError("series needs at least the constant coefficient")
        K = self.base.operator
        for i, c in enumerate(self.coefficients):
            if (c.rows, c.cols) != (K.rows, K.cols):
                raise ShapeError(f"coefficient {i} is {c.rows}x{c.cols}, "
                                 f"expected {K.rows}x{K.cols}")
        if self.coefficients[0] != K:
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
    table = _reynolds_in_t(series.base, series.coefficients)
    zero = series.base.field.zero
    return _combine({f"order_{k}": residual_report(((k, *where), _order(r, k, zero))
                                                   for where, r in table)
                     for k in range(3 * series.order + 1)})


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
# element condition groups (literal and re-derived) and the intertwining


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


def _rederived_groups(data: ReynoldsData, x) -> dict:
    """Expand every morphism requirement of (phi_t, psi_t) in powers of t.

    phi_t = id + t P with P = L_x - R_x on g; psi_t = id + t S with
    S u = L_x u - R_x u + H(x, Ku) on V.  Each requirement is a polynomial
    identity in t; all coefficients must vanish.  The operator
    intertwining is `_intertwining`.
    """
    g, rep, H = data.algebra, data.rep, data.cocycle
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

    return {
        "algebra_morphism": _grid_report(alg_map, n, n),
        "left_action": _grid_report(lambda y, u: action(rep.act_L, y, u), n, m),
        "right_action": _grid_report(lambda y, u: action(rep.act_R, y, u), n, m),
        "weight_compat": _grid_report(weight, n, n),
    }


def _intertwining(data: ReynoldsData, x, K1: Matrix, K1p: Matrix) -> list:
    """The t and t^2 coefficients of (phi_t K_t - K'_t psi_t) e_u, for each u.

    K_t = K + t K1 and K'_t = K + t K1'; phi_t = id + t P and psi_t =
    id + t S as in `_rederived_groups`.  The constant term is K - K = 0.
    """
    g, rep, K = data.algebra, data.rep, data.operator
    field, n, m = g.field, g.dim, rep.dim_v
    P = Matrix.from_columns(field, [g.bracket(x, g.basis(y)) for y in range(n)], n)
    S = Matrix.from_columns(field, [_psi1(data, x, _vbasis(rep, u)) for u in range(m)], m)
    defect = (_in_t((Matrix.identity(field, n), P)) * _in_t((K, K1))
              - _in_t((K, K1p)) * _in_t((Matrix.identity(field, m), S)))
    zero = field.zero
    return [(_order(col, 1, zero), _order(col, 2, zero))
            for col in (defect.column(u) for u in range(m))]


def check_equivalence_data(data: ReynoldsData, K1: Matrix, K1p: Matrix, x) -> Report:
    """Are K + t K1 and K + t K1' equivalent through the element x?

    The overall verdict follows the literal condition groups plus the two
    operator-intertwining identities; the re-derived expansion is attached
    under ``parts["rederived"]`` for comparison.
    """
    g = data.algebra
    x = _element(g, x)
    columns = _intertwining(data, x, K1, K1p)

    def intertwining(t1_tag, t2_tag):
        return residual_report(p for u, (t1, t2) in enumerate(columns)
                               for p in (((t1_tag, u), t1), ((t2_tag, u), t2)))

    parts = dict(_literal_groups(data, x))
    parts["intertwines_operator"] = intertwining("difference", "conjugate")
    report = _combine(parts)
    rederived = _rederived_groups(data, x)
    rederived["intertwines_operator"] = intertwining("t1", "t2")
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
    x = _element(g, x)

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

    Counts the operator 1-cocycles Z^1 as p^dim, dim the kernel dimension
    of the degree-1 differential read off the integer rank of its sparse
    rows (`cochain.integer_coboundary_rows`), and collects the
    coboundaries of all Nijenhuis elements.  The criterion Z^1 = d_K(Nij) holds exactly when
    every such coboundary is killed by the differential and there are
    p^dim of them; d_K x need not be a cocycle for an arbitrary element
    x, so membership is checked, not assumed.  The verdict is a probe of
    the sufficient condition only: Z^1 = d_K(Nij) implies rigidity.
    """
    field = data.field
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("the rigidity probe needs a finite field")
    p = field.p
    induced = induced_representation(data)
    (d1,) = integer_coboundary_rows(induced.algebra, induced, (1,))
    cols = cochain_space_dim(induced.algebra.dim, induced.dim_v, 1)
    cocycle_count = p ** (cols - integer_rank(d1, p))
    nij = nijenhuis_elements(data)
    image = {tuple(c.value for v in Cochain.from_matrix(element_coboundary(data, x)).values
                   for c in v) for x in nij}
    # the image vectors as the columns of one sparse matrix, all killed by d1 or not
    columns = [{i: vec[j] for i, vec in enumerate(image) if vec[j]} for j in range(cols)]
    closed = not any(sparse_mul(d1, columns, p))
    return RigidityReport(cocycle_count, len(nij), len(image),
                          closed and len(image) == cocycle_count)
