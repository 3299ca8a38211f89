"""Deformations of cocycle-weighted Reynolds operators.

A deformation K_t = K_0 + K_1 t + ... + K_N t^N is a matrix whose
entries are polynomials in t (`scalars.Poly`, t the variable of index
-1), checked by the single-operator checker (`reynolds.reynolds_checker`);
the t^k coefficient of each residual is the order-k condition.  A
truncated series is checked at orders 0..3N, beyond which every term
vanishes, and a linear deformation K + t K1 at t, t^2 and t^3; the
order-t condition alone says K1 is an operator 1-cocycle.

An algebra element x gives the maps

    phi_t = id + tP, P = L_x - R_x,    psi_t = id + tS, S = L_x - R_x + H(x, K-).

K + t K1 and K + t K1' are equivalent through x when (phi_t, psi_t) is a
morphism of Reynolds operators from one to the other; x is a Nijenhuis
element when (phi_t, psi_t) satisfies the four morphism conditions
without the operator and x . Rbar_u(x) = Rbar_u(x) . x.  Each condition
is c_1 t + c_2 t^2, and both orders are read off two evaluations of the
integer core of `reynolds.morphism_checker` at the lifted x, with no
polynomial in t (`_ElementTerms`).  The element maps, the core and Z^1
of `rigidity_probe` read one preparation of the bundle.  Over a prime
field `search.exhaustive_search` enumerates the Nijenhuis elements, from
a generic x whose entries are its variables x_0, x_1, ...; K is rigid
when every operator 1-cocycle is d_K x = KS - PK of one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (Order, Report, _combine, family_products, int_basis, lifted_report,
                      nonzero_entries, residual_report)
from .cochain import Cochain, integer_cohomology, twisted_rows
from .errors import InfiniteFieldError, ShapeError, UnverifiedSeriesError
from .linalg import Matrix, _matrix, sparse_mul, sub_vec
from .opcohomology import _induced_arrays, operator_coboundary
from .reynolds import ReynoldsData, _frames, intertwining, morphism_checker, reynolds_checker
from .scalars import Poly, PrimeField, descend, lift


class _ElementTerms:
    """The maps of an algebra element, prepared once per bundle, and its conditions.

    P = L_x - R_x, S e_u = L_x u - R_x u + H(x, Ku) (the t-terms of phi_t
    and psi_t) and rbar[u] = Rbar_u x (`SIGNS.md`) are linear in x: read
    once, at the basis of g, off the operator's frame, as ints at scale
    D_g D_K^2.  Each x is lifted and combined with them (`combined`, scale
    s = D_x D_g D_K^2), and its conditions run on those ints (`morphism`,
    `commutes`); only nonzero residuals are mapped back.
    """

    def __init__(self, data: ReynoldsData):
        g, rep, n = data.algebra, data.rep, data.algebra.dim
        twisted = twisted_rows(g, rep, data.cocycle)
        self.frame = _frames(g, rep, twisted)(data.operator)
        check = morphism_checker((g, twisted), (g, twisted))
        self.defects, self.parts = check.defects, check.parts
        rows, self.Dg = twisted
        self.product = nonzero_entries([[[(k, c) for k, c in row if k < n] for row in plane[:n]]
                                        for plane in rows[:n]])  # g's own constants
        mul, graph, p, *_ = self.frame
        DK = self.DK = graph[0][n] if graph else 1
        self.field, self.n, self.K = g.field, n, [gr[:n] for gr in graph]  # K: D_K K e_u
        self.scale = self.Dg * DK * DK
        e = int_basis(n, n + rep.dim_v)
        ee, eg = mul(e, e), mul(e, graph)
        ue = mul([(0,) * n + gr[n:] for gr in graph], e)  # (0, e_u).(e_i, 0)

        def at(i):  # x = e_i: the columns P e_j, then (Rbar_u x, S e_u), flat
            flat = [DK * DK * a for j in range(n) for a in sub_vec(ee[i][j], ee[j][i])[:n]]
            for u, w in enumerate(eg[i]):  # w = (e_i, 0).gr(u); S e_u: V-part of w - ue[u][i]
                flat += p(w) + tuple(DK * a for a in sub_vec(w, ue[u][i])[n:])
            return [(k, v) for k, v in enumerate(flat) if v]

        self.basis = [at(i) for i in range(n)]

    def combined(self, xs, Dx) -> tuple:
        """(the columns of P and of (rbar, S), s) for x lifted by D_x to xs."""
        n, w = self.n, self.n + len(self.K)
        acc = [0] * (n * n + (w - n) * w)
        for xi, entries in zip(xs, self.basis):
            if xi:
                for k, v in entries:
                    acc[k] += xi * v
        return ([acc[j * n:(j + 1) * n] for j in range(n)],
                [acc[n * n + u * w:n * n + (u + 1) * w] for u in range(w - n)], Dx * self.scale)

    def lifted(self, x) -> tuple:
        """((x, D_x), *`combined`) for a tuple x, lifted once."""
        (xs, Dx), _ = lift(self.field, (x, self.field.one))
        return ((xs, Dx), *self.combined(xs, Dx))

    def morphism(self, P, RS, s) -> dict:
        """The four morphism conditions of (phi_t, psi_t) at x, at orders t and t^2.

        Phi_t = id + tQ, Q = P + S lifted by s, has the defect c_1 t + c_2 t^2
        (`SIGNS.md`): c_2 is the core at (Q, 0), ``one`` = 0 dropping the
        linear term, and c_1 the core at (s id + Q, s), t = 1, minus c_2;
        no division, so over F_2 too.  Both read the nonzero columns of Q,
        built once: s id + Q adds (a, s) to column a.  c_k is at
        ``(Order(k), *where)``, its ints at scale D_g s^2.
        """
        n = self.n
        Q = [[(t, a) for t, a in enumerate(col) if a] for col in P] + \
            [[(t, a) for t, a in enumerate(col[n:], n) if a] for col in RS]
        c2 = self.defects(Q, 0)
        shifted = [col + [(a, s)] for a, col in enumerate(Q)]
        # equal readings leave c_1 zero, which every part drops
        c1 = self.parts([[a - b for a, b in zip(r, r2)] if r != r2 else ()
                         for r, r2 in zip(self.defects(shifted, s), c2)])
        return {name: ([((FIRST, *w), r) for w, r in c1[name]]
                       + [((SECOND, *w), r) for w, r in at2], self.Dg * s * s)
                for name, at2 in self.parts(c2).items()}

    def commutes(self, x, RS, s) -> tuple:
        """x . Rbar_u(x) - Rbar_u(x) . x for each u, on the ints: x lifted by D_x, rbar by s."""
        (xs, Dx), n = x, self.n
        rbar = [c[:n] for c in RS]
        (left,), right = family_products(self.product, [xs], rbar), \
            family_products(self.product, rbar, [xs])
        return ([(("rbar-commutes", u), sub_vec(a, b))
                 for u, (a, (b,)) in enumerate(zip(left, right))], self.Dg * Dx * s)

    def coboundary(self, x) -> tuple:
        """d_K x = KS - PK on the ints: (its columns, their scale D_K s)."""
        _, P, RS, scale = self.lifted(x)
        n, K = self.n, self.K
        return ([[sum(Kv[r] * b for Kv, b in zip(K, col[n:]) if b)
                  - sum(Pj[r] * a for Pj, a in zip(P, Ku) if a) for r in range(n)]
                 for Ku, col in zip(K, RS)], self.DK * scale)


FIRST, SECOND = Order(1), Order(2)


def _reports(field, parts: dict) -> dict:
    """name -> `Report` of each (int residuals, their scale) in ``parts``."""
    return {name: lifted_report(pairs, descend(field, scale))
            for name, (pairs, scale) in parts.items()}


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
    """The matrix M_0 + M_1 t + M_2 t^2 + ... with entries polynomial in t, entry by entry."""
    field = matrices[0].field
    powers = [Poly({(T,) * i: field.one}) for i in range(1, len(matrices))]

    def entry(x, *rest):
        for t, y in zip(powers, rest):
            x = x + (t * y if y else y)
        return x

    return _matrix(field, tuple(tuple(map(entry, *rows))
                                for rows in zip(*(M.data for M in matrices))), matrices[0].cols)


def _coefficient(x, k: int, zero):
    """The t^k coefficient of a scalar (a constant) or a polynomial: a `Poly` in
    the other variables, or a scalar when none remain."""
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
    columns, scale = _ElementTerms(data).coboundary(_element(data.algebra, x))
    return Matrix.from_columns(data.field, list(map(descend(data.field, scale), columns)),
                               data.algebra.dim)


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
# equivalences and Nijenhuis elements: one morphism of operators, at orders t and t^2


def check_equivalence_data(data: ReynoldsData, K1: Matrix, K1p: Matrix, x) -> Report:
    """Are K + t K1 and K + t K1' equivalent through x, by (phi_t, psi_t)?

    One sub-verdict per part of `check_rcw_morphism`.  phi_t K_t - K'_t psi_t
    is c_1 t + c_2 t^2: c_2 is its value at (P, K1, K1', S), c_1 its value at
    (id + P, K + K1, K + K1', id + S) minus c_2.
    """
    terms = _ElementTerms(data)
    field, n, m = data.field, data.algebra.dim, data.rep.dim_v
    _, P, RS, s = terms.lifted(_element(data.algebra, x))
    K, K1, K1p = data.operator, _direction(data, K1), _direction(data, K1p)
    parts = _reports(field, terms.morphism(P, RS, s))
    down = descend(field, s)
    P = Matrix.from_columns(field, [down(c) for c in P], n)
    S = Matrix.from_columns(field, [down(c[n:]) for c in RS], m)
    c2 = intertwining(P, K1, K1p, S)
    c1 = map(sub_vec, intertwining(Matrix.identity(field, n) + P, K + K1, K + K1p,
                                   Matrix.identity(field, m) + S), c2)
    operator = residual_report([((FIRST, u), c) for u, c in enumerate(c1)]
                               + [((SECOND, u), c) for u, c in enumerate(c2)])
    return _combine({"algebra_morphism": parts.pop("algebra_morphism"),
                     "intertwines_operator": operator, **parts})


def nijenhuis_element_checker(data: ReynoldsData):
    """Is x a Nijenhuis element for the operator?  Prepared once per bundle: x -> `Report`.

    The parts are ``rbar_condition`` and the four morphism conditions of
    (phi_t, psi_t) without the operator, all on one lift of x (`_ElementTerms`).
    """
    return _element_checker(data, _ElementTerms(data))


def _element_checker(data: ReynoldsData, terms):
    """`nijenhuis_element_checker` on the element maps (`_ElementTerms`); its integer
    core ``check.core(xs, one)`` gives every residual at x lifted by ``one`` to xs."""

    def conditions(x, P, RS, s) -> dict:
        return {"rbar_condition": terms.commutes(x, RS, s), **terms.morphism(P, RS, s)}

    def check(x) -> Report:
        return _combine(_reports(data.field, conditions(*terms.lifted(_element(data.algebra, x)))))

    def core(xs, one) -> list:
        parts = conditions((xs, one), *terms.combined(xs, one))
        return [pair for pairs, _ in parts.values() for pair in pairs]

    check.core = core
    return check


def check_nijenhuis_element(data: ReynoldsData, x) -> Report:
    """Is x a Nijenhuis element for the operator (`nijenhuis_element_checker`)?"""
    return nijenhuis_element_checker(data)(x)


def nijenhuis_elements(data: ReynoldsData) -> list:
    """All Nijenhuis elements over a prime field, in lexicographic order: the
    solutions of an exhaustive search, within its budget."""
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
    checked, not assumed.  Z^1 = d_K(Nij) implies rigidity, not conversely.
    """
    field = data.field
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("the rigidity probe needs a finite field")
    p, n = field.p, data.algebra.dim
    terms = _ElementTerms(data)  # for Z^1, the search and d_K
    table, Lbar, Rbar, _ = _induced_arrays(n, terms.frame)
    report, d1 = integer_cohomology(table, Lbar, Rbar, n, p, 1)
    cocycle_count = p ** report.dim_z
    nij = _elements({"data": data, "terms": terms})
    # over F_p every scale is 1
    image = {tuple(c % p for column in terms.coboundary(x)[0] for c in column) for x in nij}
    # d1 on each image vector: all killed or not
    closed = not any(sparse_mul([dict(enumerate(vec)) for vec in image], d1, p))
    return RigidityReport(cocycle_count, len(nij), len(image),
                          closed and len(image) == cocycle_count)
