"""Deformations of cocycle-weighted Reynolds operators.

A deformation K_t = K_0 + K_1 t + ... + K_N t^N is built once, as a
matrix whose entries are polynomials in one variable t (`scalars.Poly`),
and the Reynolds identity is evaluated on it by the same checker that
checks a single operator (`reynolds.reynolds_checker`, on the integer
lift, t kept as a variable).  The t^k
coefficient of each residual is the order-k condition: a truncated series
is checked at every order 0..3N, beyond which all contributions vanish
identically, and a linear deformation K + t K1 at orders t, t^2, t^3.
The order-t condition alone says K1 is a 1-cocycle of the operator
cohomology.

Equivalences of deformations are mediated by an algebra element x through
the pair of maps

    phi_t = id + t (L_x - R_x),   psi_t = id + t (L_x - R_x + H(x, K-)),

whose t-terms P on g and S on V, like Rbar_u x, are linear in x and read
once per bundle, at the basis of g (`_element_terms`).

K + t K1 and K + t K1' are equivalent through x when (phi_t, psi_t) is a
morphism of Reynolds operators from one to the other.  This is the one
definition: the checker of `reynolds.morphism_checker`, prepared for the
bundle's (g, rep, H) on both sides, is evaluated once on the polynomial
matrices, and every condition, of degree at most 2 in t and zero at
t = 0, is read off at orders t and t^2.  A Nijenhuis element is an x for
which (phi_t, psi_t) satisfies the four morphism conditions that do not
involve the operator, together with x . Rbar_u(x) = Rbar_u(x) . x; its
checker prepares the element maps and the morphism checker once, so a
candidate costs one lift of phi_t and psi_t.  d_K x = KS - PK is built
only where it is read (`element_coboundary`, `rigidity_probe`).
t is the variable of index -1, so the checkers also run on a generic x
whose entries are the search's variables x_0, x_1, ...  Over a prime
field the Nijenhuis elements are enumerated by `search.exhaustive_search`,
which powers the rigidity probe: K is rigid when every operator 1-cocycle
is the coboundary of a Nijenhuis element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Order, Report, _combine, residual_report
from .cochain import Cochain, cochain_space_dim, integer_cohomology
from .errors import InfiniteFieldError, ShapeError, UnverifiedSeriesError
from .linalg import Matrix, basis_vec, sparse_mul, sub_vec
from .opcohomology import _induced_arrays, operator_coboundary
from .reynolds import ReynoldsData, morphism_checker, operator_frames, reynolds_checker
from .scalars import INTEGERS, Poly, PrimeField


def _element_terms(data: ReynoldsData):
    """The maps of an algebra element, prepared once per bundle: x -> (P, S, rbar).

    P = L_x - R_x on g and S e_u = L_x u - R_x u + H(x, Ku), the t-terms
    of phi_t and psi_t, and rbar[u] = Rbar_u x (`SIGNS.md`).  All three are
    linear in x, so they are read once, at the basis of g: P off the
    product of g, S and rbar off the operator's frame.  Each x combines
    them: a generic x never enters the frame.
    """
    g, field, n, m = data.algebra, data.field, data.algebra.dim, data.rep.dim_v
    mul, graph, p, _, back = operator_frames(g, data.rep, data.cocycle)(data.operator)

    def column(e, gr):  # (Rbar_u e_i, S_i e_u) = (p(w), V[w - (0, e_u).(e_i, 0)])
        w = mul(e, gr)  # (e_i, 0).gr(u)
        return back(2)(p(w)) + back(1)(sub_vec(w[n:], mul((0,) * n + gr[n:], e)[n:]))

    def at(i):  # (P at e_i, the columns (Rbar_u e_i, S e_u) at x = e_i)
        c, e = g.product, basis_vec(INTEGERS, n + m, i)
        return (Matrix.from_columns(field, [sub_vec(c[i][j], c[j][i]) for j in range(n)], n),
                Matrix.from_columns(field, [column(e, gr) for gr in graph], n + m))

    at_basis = [at(i) for i in range(n)]

    def terms(x):
        P, T = Matrix.zero(field, n, n), Matrix.zero(field, n + m, m)
        for xi, (Pi, Ti) in zip(x, at_basis):
            if xi:
                P, T = P + Pi.scale(xi), T + Ti.scale(xi)
        return P, Matrix(field, T.data[n:], m), [T.column(u)[:n] for u in range(m)]

    return terms


def _coboundaries(data: ReynoldsData, terms):
    """x -> d_K x = KS - PK, on the element maps (`_element_terms`) of the bundle."""
    K = data.operator

    def coboundary(x) -> Matrix:
        P, S, _ = terms(x)
        return K * S - P * K

    return coboundary


def _element(g, x) -> tuple:
    """The coordinates of an algebra element, coerced into the field."""
    x = tuple(g.field(c) for c in x)
    if len(x) != g.dim:
        raise ShapeError("element has the wrong length")
    return x


def _direction(data: ReynoldsData, K1: Matrix) -> Matrix:
    """A deformation direction, checked to have the operator's shape."""
    if (K1.rows, K1.cols) != (data.algebra.dim, data.rep.dim_v):
        raise ShapeError("deformation direction has the wrong shape")
    return K1


T = -1  # the variable index of t; it sorts before the search's variables x_0, x_1, ...


def _in_t(matrices) -> Matrix:
    """The matrix M_0 + M_1 t + M_2 t^2 + ... with entries polynomial in t."""
    field = matrices[0].field
    total = matrices[0]
    for i, M in enumerate(matrices[1:], 1):
        total = total + M.scale(Poly({(T,) * i: field.one}))
    return total


def _coefficient(x, k: int, zero):
    """The t^k coefficient of a scalar or a polynomial.

    It is a `Poly` in the remaining variables, or a scalar when none
    remain; a scalar is a constant polynomial.
    """
    if not isinstance(x, Poly):
        return x if k == 0 else zero
    terms = {mono[k:]: c for mono, c in x.terms.items() if mono.count(T) == k}
    if any(terms):  # some monomial besides the constant () remains
        return Poly(terms)
    return terms.get((), zero)


def _order(vec, k: int, zero) -> tuple:
    """The t^k coefficient of every coordinate of a vector polynomial in t."""
    return tuple(_coefficient(x, k, zero) for x in vec)


def _reynolds_in_t(data: ReynoldsData, coefficients) -> list:
    """The nonzero Reynolds residuals of K_t = sum K_i t^i at V-basis pairs (u, v)."""
    return reynolds_checker(data.algebra, data.rep, data.cocycle)(
        _in_t(coefficients)).violations


def element_coboundary(data: ReynoldsData, x) -> Matrix:
    """The trivial deformation direction attached to an algebra element:

        (d_K x)(u) = K(L_x u - R_x u + H(x, Ku)) - x.Ku + Ku.x

    For equivalent linear deformations, K1 - K1' is exactly this map.
    """
    return _coboundaries(data, _element_terms(data))(_element(data.algebra, x))


def check_linear_deformation(data: ReynoldsData, K1: Matrix) -> Report:
    """Does K1 generate a linear deformation K + t K1?

    Sub-verdicts per coefficient order t, t^2, t^3; ``order_t1`` alone is
    the 1-cocycle condition.  Its agreement with `is_cocycle`, the
    coboundary route, is a test, not a runtime check.
    """
    table = _reynolds_in_t(data, (data.operator, _direction(data, K1)))
    zero = data.field.zero
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
    return _combine({f"order_{k}": residual_report(((Order(k), *where), _order(r, k, zero))
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
# equivalences and Nijenhuis elements: one morphism of operators in t


def _same_bundle(data: ReynoldsData):
    """`reynolds.morphism_checker` from the bundle's (g, rep, H) to itself."""
    bundle = (data.algebra, data.rep, data.cocycle)
    return morphism_checker(bundle, bundle)


def _element_morphism(check, P: Matrix, S: Matrix, operators=(None, None)) -> dict:
    """The parts of ``check`` (`_same_bundle`) for (phi_t, psi_t) = (id + tP, id + tS).

    ``operators`` are K + t K1 and K + t K1', or None for the four
    conditions that do not involve them.  Every condition is a polynomial
    of degree at most 2 in t that vanishes at t = 0; its t^k coefficient
    is reported at ``(Order(k), *where)``.  P and S are the t-terms of the
    element (`_element_terms`).
    """
    field = P.field
    report = check(*operators, _in_t((Matrix.identity(field, P.rows), P)),
                   _in_t((Matrix.identity(field, S.rows), S)))
    zero = field.zero
    return {name: residual_report(((Order(k), *where), _order(r, k, zero))
                                  for k in (1, 2) for where, r in part.violations)
            for name, part in report.parts.items()}


def check_equivalence_data(data: ReynoldsData, K1: Matrix, K1p: Matrix, x) -> Report:
    """Are K + t K1 and K + t K1' equivalent through the element x?

    That is, is (phi_t, psi_t) a morphism of Reynolds operators from the
    first to the second?  One sub-verdict per part of `check_rcw_morphism`.
    """
    P, S, _ = _element_terms(data)(_element(data.algebra, x))
    K = data.operator
    operators = (_in_t((K, _direction(data, K1))), _in_t((K, _direction(data, K1p))))
    return _combine(_element_morphism(_same_bundle(data), P, S, operators))


def nijenhuis_element_checker(data: ReynoldsData):
    """Is x a Nijenhuis element for the operator?  Prepared once per bundle: x -> `Report`.

    Requires x . Rbar_u(x) = Rbar_u(x) . x for every module basis vector,
    and that (phi_t, psi_t) satisfy the four morphism conditions of
    `check_rcw_morphism` that do not involve the operator.  The element
    maps and the morphism checker are prepared here; a check combines the
    maps at x and lifts phi_t and psi_t once.
    """
    return _element_checker(data, _element_terms(data))


def _element_checker(data: ReynoldsData, terms):
    """`nijenhuis_element_checker` on the element maps (`_element_terms`)."""
    g, morphism = data.algebra, _same_bundle(data)

    def check(x) -> Report:
        x = _element(g, x)
        P, S, rbar = terms(x)
        parts = {"rbar_condition": residual_report(
            (("rbar-commutes", u), sub_vec(g.mul(x, r), g.mul(r, x)))
            for u, r in enumerate(rbar))}
        parts.update(_element_morphism(morphism, P, S))
        return _combine(parts)

    return check


def check_nijenhuis_element(data: ReynoldsData, x) -> Report:
    """Is x a Nijenhuis element for the operator (`nijenhuis_element_checker`)?"""
    return nijenhuis_element_checker(data)(x)


def nijenhuis_elements(data: ReynoldsData) -> list:
    """All Nijenhuis elements over a prime field, in lexicographic order.

    The elements are the solutions of an exhaustive search, so the
    enumeration is bounded by the search budget.
    """
    return _elements({"data": data})


def _elements(sections) -> list:
    """`nijenhuis_elements` of ``sections["data"]``, on ``sections["terms"]`` if given."""
    from .search import SearchSpec, exhaustive_search  # search imports this module

    data = sections["data"]
    field = data.field
    spec = SearchSpec("nijenhuis-element", sections, (data.algebra.dim, 1),
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

    Counts the operator 1-cocycles as p^dim Z^1 (`cochain.integer_cohomology`)
    and collects the coboundaries of all Nijenhuis elements.  The
    criterion Z^1 = d_K(Nij) holds exactly when every such coboundary is
    killed by the differential and there are p^dim Z^1 of them; d_K x
    need not be a cocycle for an arbitrary element x, so membership is
    checked, not assumed.  The verdict is a probe of the sufficient
    condition only: Z^1 = d_K(Nij) implies rigidity.
    """
    field = data.field
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("the rigidity probe needs a finite field")
    p = field.p
    table, Lbar, Rbar, _ = _induced_arrays(data)
    report, d1 = integer_cohomology(table, Lbar, Rbar, data.algebra.dim, p, 1)
    cols = cochain_space_dim(data.rep.dim_v, data.algebra.dim, 1)
    cocycle_count = p ** report.dim_z
    terms = _element_terms(data)  # for the search and d_K
    nij = _elements({"data": data, "terms": terms})
    coboundary = _coboundaries(data, terms)
    image = {tuple(c.value for v in Cochain.from_matrix(coboundary(x)).values for c in v)
             for x in nij}
    # the image vectors as the columns of one sparse matrix, all killed by d1 or not
    columns = [{i: vec[j] for i, vec in enumerate(image) if vec[j]} for j in range(cols)]
    closed = not any(sparse_mul(d1, columns, p))
    return RigidityReport(cocycle_count, len(nij), len(image),
                          closed and len(image) == cocycle_count)
