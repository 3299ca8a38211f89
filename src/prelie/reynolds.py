"""Cocycle-weighted Reynolds operators and the constructions around them.

The central identity: given a pre-Lie algebra g, a representation (V; L, R)
and a 2-cocycle H from g to V, a linear map K: V -> g is a cocycle-weighted
Reynolds operator when

    Ku . Kv = K( L_{Ku} v + R_{Kv} u + H(Ku, Kv) )   for all u, v in V.

With H = 0 this is a relative Rota-Baxter operator.  The scalar-weight
identity K(x).K(y) = K(K(x).y + x.K(y) + weight * K(x).K(y)) and the
D-Reynolds one are instances: the algebra acting on itself, with the
coboundary weight weight * mu or -(x.D(1)).y (`weighted_pair`,
`d_reynolds_pair`; `SIGNS.md`).

The identity is read off the twisted semidirect product g + V through
the graph {(Ku, u)} of K (`graph_frame`): its residual at (u, v) is
p(gr(u).gr(v)).  The induced product u ._K v (the star product, for a
scalar weight), the graph closure of `check_graph_subalgebra`, Lbar,
Rbar, the NS-pre-Lie tables and the maps of `deformation` are read off
the same frame: one per operator, on the integer lift, from
`operator_frames`, each reading mapped back by its own degree.  A
morphism of operators is read off the two twisted semidirect products
the same way, lifted once per pair of fixed triples (`morphism_checker`).

Checkers accept raw maps; constructors demand verified inputs and
re-verify the theorem they add, once, on the table they built (through
`errors.reverified`), so each construction doubles as a runtime
assertion of it.  An identity already verified on the same table, such
as K being a morphism from the induced or star product, is not re-run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .algebra import (
    PreLieAlgebra,
    Report,
    Representation,
    action_arrays,
    check_derivation,
    check_morphism,
    lifted_report,
    morphism_defects,
    nonzero_rows,
    regular_representation,
    residual_report,
    semidirect_tensor as raw_semidirect_tensor,
    _combine,
)
from .cochain import Cochain, _check_map_to_module, check_two_cocycle, coboundary
from .errors import (
    DimensionMismatchError,
    InvariantError,
    NotAdmissibleError,
    NotCocycleError,
    ShapeError,
    SingularError,
    UnverifiedCocycleError,
    UnverifiedError,
    UnverifiedOperatorError,
    reverified,
)
from .linalg import Matrix, basis_vec, neg_vec, scale_vec
from .scalars import INTEGERS, descend, lift, scalar_to_str


def _check_operator_shape(g: PreLieAlgebra, rep: Representation, K: Matrix):
    if K.rows != g.dim or K.cols != rep.dim_v:
        raise ShapeError(
            f"operator is {K.rows}x{K.cols}, expected {g.dim}x{rep.dim_v}")


def _require_cocycle(g: PreLieAlgebra, rep: Representation, H: Cochain):
    _check_map_to_module("weight", g, rep, H, 2)
    if not check_two_cocycle(g, rep, H).ok:
        raise UnverifiedCocycleError("the weight H is not a 2-cocycle")


def derived_tensor(K: Matrix, mul) -> tuple:
    """The table of e_i o e_j on the source basis of K, as ``mul(i, j, K e_i, K e_j)``.

    Each column of K is read once.
    """
    cols = [K.column(i) for i in range(K.cols)]
    return tuple(tuple(mul(i, j, Ki, Kj) for j, Kj in enumerate(cols))
                 for i, Ki in enumerate(cols))


def _semidirect_arrays(g: PreLieAlgebra, rep: Representation, H: Cochain | None) -> tuple:
    """What `algebra.semidirect_tensor` reads: the product, the rows of L and R, the H table."""
    n = g.dim
    return (*action_arrays(g, rep),
            None if H is None else [[H.eval_basis((i, j)) for j in range(n)] for i in range(n)])


def semidirect_tensor(g: PreLieAlgebra, rep: Representation, H: Cochain | None):
    """`algebra.semidirect_tensor` of g acting on V through rep, twisted by H."""
    product, L, R, table = _semidirect_arrays(g, rep, H)
    return raw_semidirect_tensor(product, rep.dim_v, L, R, table)


def graph_frame(field, planes, k, one):
    """The semidirect product on g + V read through the graph of K.

    ``planes[i]`` holds the nonempty rows j of plane i of its tensor, as
    (j, `algebra.nonzero_rows` row) pairs, ``k`` the n rows of K and
    ``one`` stands for 1 (on the integer lift, the denominator of K).
    Returns the product, the graph vectors gr(u) = (K e_u, one e_u) and
    the projection p(a, b) = one a - K b, which vanishes exactly on the
    graph.  A product visits only the nonempty rows that its nonzero
    coordinates pick; `SIGNS.md` lists what is read off it.
    """
    n, zero, dim = len(k), field.zero, len(planes)
    m = dim - n
    cols = [tuple(row[u] for row in k) for u in range(m)]
    graph = [col + tuple(one if v == u else zero for v in range(m))
             for u, col in enumerate(cols)]

    def mul(x, y):
        out = [zero] * dim
        for i, a in enumerate(x):
            if a:
                for j, row in planes[i]:
                    b = y[j]
                    if b:
                        c = a * b
                        for t, z in row:
                            out[t] = out[t] + c * z
        return tuple(out)

    def project(w):
        out = [one * a if a else a for a in w[:n]]
        for y, col in zip(w[n:], cols):
            if y:
                for i, a in enumerate(col):
                    if a:
                        out[i] = out[i] - y * a
        return tuple(out)

    return mul, graph, project


def operator_frames(g: PreLieAlgebra, rep: Representation, H: Cochain):
    """One frame per operator on the integer lift, prepared once: K -> frame.

    g, the actions and H are lifted once (denominator D_g) and the rows
    of their tensor prepared once for `graph_frame`; each K is lifted
    alone (D_K).  A frame is (mul, graph, p) of `graph_frame` on
    `scalars.INTEGERS` with ``one`` = D_K, the products gr(u).gr(v) and
    ``back(k, d=1)``, which maps a reading of degree k in K (d in g, rep
    and H) back to the field (over Q, divided by D_g^d D_K^k; `SIGNS.md`
    gives each k), `scalars.Poly` entries coefficient by coefficient.
    """
    field = g.field
    (c, L, R, h, Dg), _ = lift(field, (*_semidirect_arrays(g, rep, H), field.one))
    planes = [[(j, row) for j, row in enumerate(plane) if row]
              for plane in nonzero_rows(raw_semidirect_tensor(c, rep.dim_v, L, R, h))]

    def frame(K: Matrix):
        _check_operator_shape(g, rep, K)
        (k, DK), _ = lift(field, (K.data, field.one))
        mul, graph, p = graph_frame(INTEGERS, planes, k, DK)
        return (mul, graph, p, [[mul(a, b) for b in graph] for a in graph],
                lambda degree, d=1: descend(field, Dg ** d * DK ** degree))

    return frame


def _reynolds_report(frame) -> Report:
    """The Reynolds residuals p(gr(u).gr(v)) of a frame: degree 3."""
    _, _, p, products, back = frame
    down = back(3)
    residuals = (((u, v), p(w)) for u, row in enumerate(products) for v, w in enumerate(row))
    return lifted_report(residuals, down)


def _induced_table(n: int, frame) -> list:
    """u ._K v, the V-part of gr(u).gr(v) past the n coordinates of g: degree 2."""
    *_, products, back = frame
    down = back(2)
    return [[down(w[n:]) for w in row] for row in products]


def reynolds_checker(g: PreLieAlgebra, rep: Representation, H: Cochain):
    """The Reynolds identity for an already verified H, prepared once: K -> `Report`."""
    frames = operator_frames(g, rep, H)
    return lambda K: _reynolds_report(frames(K))


def check_rcw_reynolds(g: PreLieAlgebra, rep: Representation, H: Cochain,
                       K: Matrix) -> Report:
    """The cocycle-weighted Reynolds identity on all V-basis pairs."""
    _require_cocycle(g, rep, H)
    return reynolds_checker(g, rep, H)(K)


@dataclass(frozen=True)
class ReynoldsData:
    """A verified bundle (algebra, representation, 2-cocycle, operator)."""

    algebra: PreLieAlgebra
    rep: Representation
    cocycle: Cochain
    operator: Matrix

    @classmethod
    def build(cls, algebra: PreLieAlgebra, rep: Representation, cocycle: Cochain,
              operator: Matrix) -> "ReynoldsData":
        report = check_rcw_reynolds(algebra, rep, cocycle, operator)
        if not report.ok:
            raise UnverifiedOperatorError(
                "operator fails the Reynolds identity:\n" + report.describe())
        return cls(algebra, rep, cocycle, operator)

    @property
    def field(self):
        return self.algebra.field

    def fingerprint(self) -> str:
        """Stable hash of the defining data, for tagging reports."""
        rows = [row for plane in self.algebra.product for row in plane]
        rows += [row for M in (*self.rep.L, *self.rep.R) for row in M.data]
        rows += [*self.cocycle.values, *self.operator.data]
        parts = [str(self.algebra.field), str(self.algebra.dim), str(self.rep.dim_v)]
        parts += [scalar_to_str(x) for row in rows for x in row]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _on_regular(g: PreLieAlgebra, weight) -> tuple:
    """(regular representation, H) with H(e_i, e_j) = ``weight(reg, i, j)``."""
    reg, n = regular_representation(g), g.dim
    return reg, Cochain(g.field, 2, n, n, [weight(reg, i, j) for i in range(n) for j in range(n)])


def weighted_pair(g: PreLieAlgebra, weight) -> tuple:
    """(regular representation, weight * mu), mu(x, y) = x.y = d(id)(x, y) (`SIGNS.md`)."""
    lam = g.field(weight)
    return _on_regular(g, lambda reg, i, j: scale_vec(lam, g.product[i][j]))


def _require_square(g: PreLieAlgebra, M: Matrix) -> Matrix:
    if (M.rows, M.cols) != (g.dim, g.dim):
        raise ShapeError("operator shapes must match the algebra dimension")
    return M


def d_reynolds_pair(g: PreLieAlgebra, D: Matrix) -> tuple:
    """(regular representation, H(x, y) = -(x.D(1)).y = -d(L_{D(1)})(x, y)) (`SIGNS.md`).

    Requires a unital algebra; D enters only through D(1).
    """
    unit = g.require_unit()
    d1 = _require_square(g, D).apply(unit)
    return _on_regular(g, lambda reg, i, j: neg_vec(reg.R[j].apply(reg.L[i].apply(d1))))


def check_weighted_reynolds(g: PreLieAlgebra, K: Matrix, weight) -> Report:
    """K(x).K(y) = K(x*y) on all basis pairs of the algebra (scalar weight)."""
    return reynolds_checker(g, *weighted_pair(g, weight))(K)


def check_d_reynolds(g: PreLieAlgebra, D: Matrix, K: Matrix) -> Report:
    """K(x).K(y) = K(K(x).y + x.K(y) - (K(x).D(1)).K(y)) on basis pairs."""
    return reynolds_checker(g, *d_reynolds_pair(g, D))(_require_square(g, K))


def star_product(g: PreLieAlgebra, K: Matrix, weight) -> PreLieAlgebra:
    """The deformed product x*y = x.K(y) + K(x).y + weight K(x).K(y).

    The product K induces on (regular representation, weight mu).  Requires
    a verified weighted Reynolds operator, K(x).K(y) = K(x*y), so K is a
    morphism from the new algebra to the old one.  The result is again
    pre-Lie and K stays a weighted Reynolds operator for the new product;
    these two facts are re-verified here.
    """
    frame = operator_frames(g, *weighted_pair(g, weight))(K)
    if not _reynolds_report(frame).ok:
        raise UnverifiedOperatorError("operator fails the weighted Reynolds identity")
    star = reverified(PreLieAlgebra, g.field, _induced_table(g.dim, frame))
    if not check_weighted_reynolds(star, K, weight).ok:
        raise InvariantError("K is not a weighted Reynolds operator on the new product")
    return star


def derivation_from_reynolds(g: PreLieAlgebra, K: Matrix, weight) -> Matrix:
    """K^{-1} + weight * id, a derivation when K is weighted Reynolds."""
    lam = g.field(weight)
    if not check_weighted_reynolds(g, K, lam).ok:
        raise UnverifiedOperatorError("operator fails the weighted Reynolds identity")
    inv = K.inverse()
    if inv is None:
        raise SingularError("operator is not invertible")
    D = inv + Matrix.identity(g.field, g.dim).scale(lam)
    report = check_derivation(g, D)
    if not report.ok:
        raise InvariantError("derived map is not a derivation:\n" + report.describe())
    return D


def reynolds_from_derivation(g: PreLieAlgebra, D: Matrix, weight) -> Matrix:
    """(D - weight * id)^{-1}, a weighted Reynolds operator when D derives.

    `reynolds_from_invertible_cochain` of h = D - weight * id on the regular
    representation; its weight -dh is weight * mu exactly when dD = 0.
    """
    report = check_derivation(g, D)
    if not report.ok:
        raise UnverifiedError("map is not a derivation:\n" + report.describe())
    reg, H = weighted_pair(g, weight)
    h = D - Matrix.identity(g.field, g.dim).scale(g.field(weight))
    try:
        data = reynolds_from_invertible_cochain(g, reg, Cochain.from_matrix(h))
    except SingularError:
        raise SingularError("D - weight*id is not invertible") from None
    if data.cocycle != H:
        raise InvariantError("-d(D - weight*id) is not weight * mu")
    return data.operator


def semidirect(g: PreLieAlgebra, rep: Representation, H: Cochain) -> PreLieAlgebra:
    """Twisted semidirect product; verified pre-Lie iff H is a 2-cocycle."""
    _require_cocycle(g, rep, H)
    return reverified(PreLieAlgebra, g.field, semidirect_tensor(g, rep, H))


def check_graph_subalgebra(g: PreLieAlgebra, rep: Representation, H: Cochain,
                           K: Matrix) -> Report:
    """Is the graph {(Ku, u)} a subalgebra of the twisted semidirect product?

    w = gr(u).gr(v) lies on the graph exactly when p(w), the Reynolds
    residual at (u, v), is 0 (`graph_frame`; a theorem, cross-checked in
    tests).  Off the graph w itself is the residual.
    """
    _check_operator_shape(g, rep, K)
    _require_cocycle(g, rep, H)
    frame = operator_frames(g, rep, H)(K)
    *_, products, back = frame
    return residual_report(((u, v), back(2)(products[u][v]))
                           for (u, v), _ in _reynolds_report(frame).violations)


def induced_product(data: ReynoldsData) -> PreLieAlgebra:
    """The pre-Lie product on V induced by a verified operator:

        u ._K v = L_{Ku} v + R_{Kv} u + H(Ku, Kv).

    K is a morphism to g by the verified Reynolds identity on this table.
    """
    frame = operator_frames(data.algebra, data.rep, data.cocycle)(data.operator)
    return reverified(PreLieAlgebra, data.field, _induced_table(data.algebra.dim, frame))


def shift_isomorphism(g: PreLieAlgebra, rep: Representation, H: Cochain,
                      h: Cochain):
    """Semidirect products twisted by H and by H + dh are isomorphic.

    Returns (product for H, product for H + dh, the isomorphism
    (x, u) -> (x, u - h(x))).  The map is unipotent, with inverse
    (x, u) -> (x, u + h(x)), and is verified to be a morphism between the
    two algebras.
    """
    _check_map_to_module("shift", g, rep, h, 1)
    first = semidirect(g, rep, H)
    # H + dh is a 2-cocycle because d(dh) = 0; only the product is re-verified
    second = reverified(PreLieAlgebra, g.field,
                        semidirect_tensor(g, rep, H + coboundary(g, rep, h)))
    field = g.field
    n, m = g.dim, rep.dim_v
    psi = Matrix(field, [basis_vec(field, n + m, i) for i in range(n)]
                 + [neg_vec(row) + basis_vec(field, m, i)
                    for i, row in enumerate(h.as_matrix().data)])
    report = check_morphism(first, second, psi)
    if not report.ok:
        raise InvariantError("shift map is not a morphism:\n" + report.describe())
    return first, second, psi


def shift_operator(data: ReynoldsData, h: Cochain) -> Matrix:
    """K composed with (id - h K)^{-1}: a Reynolds operator for weight H + dh.

    The bundle is trusted as verified.  The shifted weight is a 2-cocycle
    because d(dh) = 0, so only the shifted operator is re-verified.
    """
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    _check_map_to_module("shift", g, rep, h, 1)
    hm = h.as_matrix()
    inner = Matrix.identity(g.field, rep.dim_v) - hm * K
    inv = inner.inverse()
    if inv is None:
        raise SingularError("id - h K is not invertible")
    shifted = K * inv
    new_cocycle = H + coboundary(g, rep, h)
    out = reynolds_checker(g, rep, new_cocycle)(shifted)
    if not out.ok:
        raise InvariantError(
            "shifted operator fails the identity for the shifted weight:\n"
            + out.describe())
    return shifted


def gauge_transform(data: ReynoldsData, B: Cochain) -> Matrix:
    """Gauge transformation K_B = K (id + B K)^{-1} by an admissible 1-cocycle.

    The bundle is trusted as verified.  B must satisfy dB = 0; the result
    satisfies the Reynolds identity for the same weight H, and id + B K is
    an isomorphism between the pre-Lie products induced on V by K and by
    K_B (both re-verified).
    """
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    _check_map_to_module("gauge", g, rep, B, 1)
    if not coboundary(g, rep, B).is_zero():
        raise NotCocycleError("gauge map is not a 1-cocycle")
    bm = B.as_matrix()
    bundle = Matrix.identity(g.field, rep.dim_v) + bm * K
    inv = bundle.inverse()
    if inv is None:
        raise NotAdmissibleError("id + B K is singular; B is not admissible")
    gauged = K * inv
    before, after = map(operator_frames(g, rep, H), (K, gauged))  # H verified with the bundle
    if not _reynolds_report(after).ok:
        raise InvariantError("gauged operator fails the Reynolds identity")
    source, target = (reverified(PreLieAlgebra, g.field, _induced_table(g.dim, frame))
                      for frame in (before, after))
    if not check_morphism(source, target, bundle).ok:
        raise InvariantError("id + B K is not an isomorphism of induced products")
    return gauged


def reynolds_from_invertible_cochain(g: PreLieAlgebra, rep: Representation,
                                     h: Cochain) -> ReynoldsData:
    """From an invertible linear map h: g -> V, the bundle (g, rep, -dh, h^{-1}).

    The inverse of h is always a Reynolds operator weighted by -dh; this is
    the universal source of verified examples.  -dh is a 2-cocycle because
    d(dh) = 0, so only the operator is re-verified.
    """
    _check_map_to_module("h", g, rep, h, 1)
    hm = h.as_matrix()
    if hm.rows != hm.cols:
        raise SingularError("h is not square, hence not invertible")
    K = hm.inverse()
    if K is None:
        raise SingularError("h is not invertible")
    H = -coboundary(g, rep, h)
    report = reynolds_checker(g, rep, H)(K)
    if not report.ok:
        raise InvariantError("operator fails the Reynolds identity:\n" + report.describe())
    return ReynoldsData(g, rep, H, K)


def morphism_checker(source: tuple, target: tuple):
    """Morphisms of operators between two fixed (g, rep, H) triples, prepared once.

    Returns ``check(K, K', phi, psi)`` -> `Report` for (phi, psi) from
    (g, V, H, K) to (g', V', H', K'), with one sub-verdict per condition:

        phi K = K' psi,   psi L_x = L'_{phi x} psi,   psi R_x = R'_{phi x} psi,
        psi H = H' (phi x phi),

    and phi a pre-Lie algebra morphism.  All but the first say that
    Phi = phi + psi is a morphism from g + V twisted by H to g' + V'
    twisted by H' (`semidirect_tensor`).  Both tensors are lifted here,
    with one denominator D_g; each check lifts phi and psi together (D_F)
    and reads `algebra.morphism_defects` of Phi on the ints: its g'-part
    at basis pairs (i, j) of g is the algebra morphism, its V'-part there
    the weight, and its V'-parts at (i, u) and (u, i), u in V, the left and
    right actions, each mapped back by D_g D_F^2 (`SIGNS.md`).  With K and
    K' None the first condition, the one that involves the operators, is
    left out.
    """
    (g, rep, H), (g2, rep2, H2) = source, target
    if g.field != g2.field:
        raise DimensionMismatchError("algebras live over different fields")
    field, n, m, n2, m2 = g.field, g.dim, rep.dim_v, g2.dim, rep2.dim_v
    (c, L, R, h, c2, L2, R2, h2, Dg), _ = lift(
        field, (*_semidirect_arrays(g, rep, H), *_semidirect_arrays(g2, rep2, H2), field.one))
    rows = nonzero_rows(raw_semidirect_tensor(c, m, L, R, h))
    rows2 = nonzero_rows(raw_semidirect_tensor(c2, m2, L2, R2, h2))
    grid = [(i, j) for i in range(n) for j in range(n)]
    acting = [(i, u) for i in range(n) for u in range(m)]
    pairs = grid + [(i, n + u) for i, u in acting] + [(n + u, i) for i, u in acting]

    def check(K: Matrix | None, K2: Matrix | None, phi: Matrix, psi: Matrix) -> Report:
        if phi.rows != n2 or phi.cols != n:
            raise ShapeError("phi has the wrong shape")
        if psi.rows != m2 or psi.cols != m:
            raise ShapeError("psi has the wrong shape")
        (f, s, DF), _ = lift(field, (phi.data, psi.data, field.one))
        Phi = [row + (0,) * m for row in f] + [(0,) * n + row for row in s]
        back = descend(field, Dg * DF ** 2)
        out = list(morphism_defects(rows, rows2, Phi, DF, pairs))
        products, left, right = out[:n * n], out[n * n:n * n + n * m], out[n * n + n * m:]

        def part(where, residuals, at):
            return lifted_report(((w, r[at]) for w, r in zip(where, residuals)), back)

        parts = {"algebra_morphism": part(grid, products, slice(n2))}
        if K is not None:
            diff = phi * K - K2 * psi
            parts["intertwines_operator"] = residual_report(
                ((u,), diff.column(u)) for u in range(m))
        tail = slice(n2, None)
        parts.update(intertwines_left_action=part(acting, left, tail),
                     intertwines_right_action=part(acting, right, tail),
                     intertwines_weight=part(grid, products, tail))
        return _combine(parts)

    return check


def check_rcw_morphism(data: ReynoldsData, data2: ReynoldsData,
                       phi: Matrix, psi: Matrix) -> Report:
    """Morphism of Reynolds operators (phi, psi) from ``data`` to ``data2``
    (`morphism_checker`, prepared for this one call)."""
    return morphism_checker((data.algebra, data.rep, data.cocycle),
                            (data2.algebra, data2.rep, data2.cocycle))(
        data.operator, data2.operator, phi, psi)
