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
the graph {(Ku, u)} of K: its residual at (u, v) is p(gr(u).gr(v)),
scattered on the integer lift into the pairs that K reaches
(`reynolds_residuals`).  The induced product u ._K v (the star product,
for a scalar weight), the graph closure of `check_graph_subalgebra`,
Lbar, Rbar, the NS-pre-Lie tables and the maps of `deformation` are read
off the frame of K (`graph_frame`, `operator_frames`), each mapped back
by its own degree; a frame's product takes two families of vectors to
their table in one scatter (`algebra.family_products`).  Where H is
checked too, dH is read off the same lifted rows as the frames
(`_require_cocycle`, `cochain.cocycle_report`).  A morphism of operators
is read off the two twisted semidirect products the same way, on their
preparations (`morphism_checker`).

`ReynoldsData.build` verifies H and then K on one preparation
(`_verified`).  A command hands that preparation explicitly to every
kernel it runs on the bundle (`_induced_product`, `_gauge_transform` and
their kin in `opcohomology`, `nsprelie`, `deformation` and `brackets`), so
it lifts (g, rep, H) once; the public functions taking a bundle prepare
it once per call (`_prepared`).  Nothing is stored on `ReynoldsData`.

Checkers accept raw maps; constructors demand verified inputs and
re-verify the theorem they add, once, on the table they built (through
`errors.reverified`), so each construction doubles as a runtime
assertion of it.  An identity already verified on the same table, such
as K being a morphism from the induced or star product, is not re-run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from math import lcm

from .algebra import (
    PreLieAlgebra,
    Report,
    Representation,
    check_derivation,
    check_morphism,
    family_products,
    lifted_report,
    morphism_defects,
    nonzero_columns,
    nonzero_entries,
    regular_representation,
    residual_report,
    semidirect_tensor as raw_semidirect_tensor,
    _combine,
)
from .cochain import (
    Cochain,
    _check_map_to_module,
    _semidirect_arrays,
    coboundary,
    cocycle_report,
    twisted_rows,
)
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
from .scalars import descend, lift


def _check_operator_shape(g: PreLieAlgebra, rep: Representation, K: Matrix):
    if K.rows != g.dim or K.cols != rep.dim_v:
        raise ShapeError(
            f"operator is {K.rows}x{K.cols}, expected {g.dim}x{rep.dim_v}")


def _require_cocycle(g: PreLieAlgebra, rep: Representation, H: Cochain) -> tuple:
    """`cochain.twisted_rows`, once H is verified on it to be a 2-cocycle."""
    _check_map_to_module("weight", g, rep, H, 2)
    twisted = twisted_rows(g, rep, H)
    if not cocycle_report(g, twisted).ok:
        raise UnverifiedCocycleError("the weight H is not a 2-cocycle")
    return twisted


def semidirect_tensor(g: PreLieAlgebra, rep: Representation, H: Cochain | None):
    """`algebra.semidirect_tensor` of g acting on V through rep, twisted by H, zero-filled
    with the field's zero."""
    product, L, R, table = _semidirect_arrays(g, rep, H)
    return raw_semidirect_tensor(product, rep.dim_v, L, R, table, g.field.zero)


def _project(k, one, pairs) -> list:
    """p(a, b) = one a - K b, K the rows k lifted by ``one``, at the (coordinate, value)
    pairs of a vector of g + V."""
    n = len(k)
    out = [0] * n
    for t, z in pairs:
        if z:
            if t < n:
                out[t] += one * z
            else:
                t -= n
                for s, row in enumerate(k):
                    if row[t]:
                        out[s] -= z * row[t]
    return out


def graph_frame(entries, cols, one):
    """The semidirect product on g + V read through the graph of K, on the integer lift.

    ``entries`` are the `algebra.nonzero_entries` of its tensor, ``cols``
    the m lifted columns K e_u and ``one`` stands for 1 (the denominator
    of K).  Returns the product, the graph vectors gr(u) = (K e_u, one e_u)
    and the projection p(a, b) = one a - K b, which vanishes exactly on
    the graph.  The product maps two families of vectors to their table
    (`algebra.family_products`); `SIGNS.md` lists what is read off it.
    """
    m, k = len(cols), list(zip(*cols))
    zeros = (0,) * m
    graph = [col + zeros[:u] + (one,) + zeros[u + 1:] for u, col in enumerate(cols)]
    return ((lambda left, right: family_products(entries, left, right)), graph,
            lambda w: tuple(_project(k, one, enumerate(w))))


def reynolds_residuals(entries, k, one) -> list:
    """((u, v), p(gr(u).gr(v))) in (u, v) order: the one evaluation of the Reynolds identity.

    ``entries`` as in `graph_frame`, ``k`` the rows of K lifted by
    ``one``.  At each (a, b, row) it adds gr(u)_a gr(v)_b p(row) into
    every pair (u, v) with both factors nonzero (`SIGNS.md`); an unreached
    pair has residual 0 and is left out.
    """
    at = [[(u, x) for u, x in enumerate(row) if x] for row in k]  # gr(u) at a < n
    at += [[(u, one)] for u in range(len(k[0]) if k else 0)]  # at n + u
    out = {}
    for a, b, row in entries:
        xs, ys = at[a], at[b]
        if xs and ys:
            projected = [(s, z) for s, z in enumerate(_project(k, one, row)) if z]
            for u, x in xs:
                for v, y in ys:
                    w = out.get((u, v))
                    if w is None:
                        w = out[u, v] = [0] * len(k)
                    c = x * y
                    for s, z in projected:
                        w[s] += c * z
    return sorted(out.items())


def _reynolds_report(entries, k, one, back) -> Report:
    """The Reynolds `Report`: `reynolds_residuals`, of degree 3, mapped back by ``back``."""
    return lifted_report(reynolds_residuals(entries, k, one), back)


def operator_frames(g: PreLieAlgebra, rep: Representation, H: Cochain):
    """One frame per operator on the integer lift, prepared once: K -> frame.

    The rows of g + V twisted by H are prepared once (`cochain.twisted_rows`,
    D_g), each K is lifted alone (D_K).  A frame is (mul, graph, p) of
    `graph_frame` with ``one`` = D_K, the products gr(u).gr(v) and
    ``back(k, d=1, e=1)``, which maps a reading of degree k in K, d in
    (g, rep, H) and 1 in an argument lifted alone by e back to the field
    (over Q, divided by e D_g^d D_K^k; `SIGNS.md` gives each k).
    """
    return _frames(g, rep, twisted_rows(g, rep, H))


def _frames(g: PreLieAlgebra, rep: Representation, twisted: tuple):
    """`operator_frames` on a preparation (rows, D_g) of `cochain.twisted_rows`, kept as
    ``frames.twisted``, and ``frames.check``, `reynolds_checker` on it, with the integer
    core ``check.core(k, one)`` of `reynolds_residuals` and ``check.require_shape(K)``.
    ``frames.checked(K)``: (``check(K)``, a thunk of K's frame) on one lift."""
    field, (rows, Dg), m = g.field, twisted, rep.dim_v
    entries = nonzero_entries(rows)

    def lifted(K: Matrix) -> tuple:  # K's rows lifted alone, D_K and ``back``
        _check_operator_shape(g, rep, K)
        (k, DK), _ = lift(field, (K.data, field.one))
        return k, DK, lambda degree, d=1, e=1: descend(field, e * Dg ** d * DK ** degree)

    def framed(k, DK, back):
        mul, graph, p = graph_frame(entries, list(zip(*k)) if k else [()] * m, DK)  # k = (): n = 0
        return mul, graph, p, mul(graph, graph), back

    def checked(K: Matrix) -> tuple:
        k, DK, back = lifted(K)
        return _reynolds_report(entries, k, DK, back(3)), lambda: framed(k, DK, back)

    def check(K: Matrix) -> Report:
        return checked(K)[0]

    def frame(K: Matrix):
        return framed(*lifted(K))

    check.core, check.require_shape = partial(reynolds_residuals, entries), \
        partial(_check_operator_shape, g, rep)
    frame.check, frame.checked, frame.twisted = check, checked, twisted
    return frame


def _induced_table(n: int, frame) -> list:
    """u ._K v, the V-part of gr(u).gr(v) past the n coordinates of g: degree 2."""
    *_, products, back = frame
    down = back(2)
    return [[down(w[n:]) for w in row] for row in products]


def reynolds_checker(g: PreLieAlgebra, rep: Representation, H: Cochain):
    """The Reynolds identity for an already verified H, prepared once: K -> `Report`."""
    return operator_frames(g, rep, H).check


def rcw_checker(g: PreLieAlgebra, rep: Representation, H: Cochain):
    """`reynolds_checker` once H is verified, on the one preparation of both: K -> `Report`."""
    return _frames(g, rep, _require_cocycle(g, rep, H)).check


def check_rcw_reynolds(g: PreLieAlgebra, rep: Representation, H: Cochain,
                       K: Matrix) -> Report:
    """The cocycle-weighted Reynolds identity on all V-basis pairs."""
    return rcw_checker(g, rep, H)(K)


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
        """The bundle, once H and then K are verified on one preparation (`_verified`,
        which also returns that preparation for the kernels of a command)."""
        return _verified(algebra, rep, cocycle, operator)[0]

    @property
    def field(self):
        return self.algebra.field

    def fingerprint(self) -> str:
        """Stable hash of the defining data, for tagging reports."""
        rows = [row for plane in self.algebra.product for row in plane]
        rows += [row for M in (*self.rep.L, *self.rep.R) for row in M.data]
        rows += [*self.cocycle.values, *self.operator.data]
        parts = [self.algebra.field, self.algebra.dim, self.rep.dim_v]
        parts += [x for row in rows for x in row]
        return hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()[:16]


def _verified(g: PreLieAlgebra, rep: Representation, H: Cochain, K: Matrix) -> tuple:
    """(`ReynoldsData.build` of the four, the frames H and K were verified on).

    The frames (`_frames`, with the rows of g + V as ``frames.twisted``)
    are the one preparation of (g, rep, H) that a command hands to each
    kernel it runs on the bundle.
    """
    frames = _frames(g, rep, _require_cocycle(g, rep, H))
    report = frames.check(K)
    if not report.ok:
        raise UnverifiedOperatorError("operator fails the Reynolds identity:\n" + report.describe())
    return ReynoldsData(g, rep, H, K), frames


def _prepared(data: ReynoldsData):
    """The frames of a bundle trusted as verified (`operator_frames`), prepared for one
    library call."""
    return operator_frames(data.algebra, data.rep, data.cocycle)


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
    report, frame = operator_frames(g, *weighted_pair(g, weight)).checked(K)
    if not report.ok:
        raise UnverifiedOperatorError("operator fails the weighted Reynolds identity")
    star = reverified(PreLieAlgebra, g.field, _induced_table(g.dim, frame()))
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
    report, frame = _frames(g, rep, _require_cocycle(g, rep, H)).checked(K)
    if report.ok:
        return report
    *_, products, back = frame()
    return residual_report(((u, v), back(2)(products[u][v])) for (u, v), _ in report.violations)


def induced_product(data: ReynoldsData) -> PreLieAlgebra:
    """The pre-Lie product on V induced by a verified operator:

        u ._K v = L_{Ku} v + R_{Kv} u + H(Ku, Kv).

    K is a morphism to g by the verified Reynolds identity on this table.
    """
    return _induced_product(data, _prepared(data))


def _induced_product(data: ReynoldsData, frames) -> PreLieAlgebra:
    """`induced_product` on the frames of the bundle's (g, rep, H)."""
    frame = frames(data.operator)
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
    return _gauge_transform(data, _prepared(data), B)


def _gauge_transform(data: ReynoldsData, frames, B: Cochain) -> Matrix:
    """`gauge_transform` on the frames of the bundle's (g, rep, H)."""
    g, rep, K = data.algebra, data.rep, data.operator
    _check_map_to_module("gauge", g, rep, B, 1)
    if not coboundary(g, rep, B).is_zero():
        raise NotCocycleError("gauge map is not a 1-cocycle")
    bm = B.as_matrix()
    bundle = Matrix.identity(g.field, rep.dim_v) + bm * K
    inv = bundle.inverse()
    if inv is None:
        raise NotAdmissibleError("id + B K is singular; B is not admissible")
    gauged = K * inv
    report, frame = frames.checked(gauged)
    if not report.ok:
        raise InvariantError("gauged operator fails the Reynolds identity")
    source, target = (reverified(PreLieAlgebra, g.field, _induced_table(g.dim, f))
                      for f in (frames(K), frame()))
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

    ``source`` and ``target`` are (g, `cochain.twisted_rows`), over one
    field.  Returns ``check(K, K', phi, psi)`` -> `Report` for (phi, psi)
    from (g, V, H, K) to (g', V', H', K'), one part per condition:

        phi K = K' psi,   psi L_x = L'_{phi x} psi,   psi R_x = R'_{phi x} psi,
        psi H = H' (phi x phi),

    and phi a pre-Lie algebra morphism; all but the first say that
    Phi = phi + psi is a morphism of the twisted semidirect products,
    whose rows are brought to one denominator D_g.  Its integer core:
    ``check.defects(cols, one)``, `algebra.morphism_defects` at every pair
    for Phi lifted by ``one`` and given by its `algebra.nonzero_columns`,
    at scale D_g one^2 (`SIGNS.md`), and
    ``check.parts``, which splits those into the four conditions but the
    first.  ``check`` lifts phi and psi by one D_F, maps back by D_g D_F^2
    and, with K and K' None, leaves out the first condition.
    """
    (g, (rows, D)), (g2, (rows2, D2)) = source, target
    field, n, n2, Dg = g.field, g.dim, g2.dim, lcm(D, D2)
    m, m2 = len(rows) - n, len(rows2) - n2
    rows, rows2 = ([[[(k, Dg // d * x) for k, x in r] for r in p] for p in rs]
                   for rs, d in ((rows, D), (rows2, D2)))
    grid = [(i, j) for i in range(n) for j in range(n)]
    acting = [(i, u) for i in range(n) for u in range(m)]
    pairs = grid + [(i, n + u) for i, u in acting] + [(n + u, i) for i, u in acting]
    on_g, on_v = slice(n2), slice(n2, None)
    layout = {"algebra_morphism": (grid, 0, on_g),
              "intertwines_left_action": (acting, n * n, on_v),
              "intertwines_right_action": (acting, n * n + n * m, on_v),
              "intertwines_weight": (grid, 0, on_v)}

    def defects(cols, one) -> list:
        return list(morphism_defects(rows, rows2, cols, one, pairs))

    def parts(out) -> dict:
        return {name: [(w, r[at]) for w, r in zip(where, out[start:]) if any(r)]
                for name, (where, start, at) in layout.items()}

    def check(K: Matrix | None, K2: Matrix | None, phi: Matrix, psi: Matrix) -> Report:
        if phi.rows != n2 or phi.cols != n:
            raise ShapeError("phi has the wrong shape")
        if psi.rows != m2 or psi.cols != m:
            raise ShapeError("psi has the wrong shape")
        (f, s, DF), _ = lift(field, (phi.data, psi.data, field.one))
        Phi = [row + (0,) * m for row in f] + [(0,) * n + row for row in s]
        back = descend(field, Dg * DF ** 2)
        reports = {name: lifted_report(at, back)
                   for name, at in parts(defects(nonzero_columns(Phi, n + m), DF)).items()}
        if K is not None:
            reports = {"algebra_morphism": reports.pop("algebra_morphism"),
                       "intertwines_operator": residual_report(
                           ((u,), c) for u, c in enumerate(intertwining(phi, K, K2, psi))),
                       **reports}
        return _combine(reports)

    check.defects, check.parts = defects, parts
    return check


def intertwining(phi: Matrix, K: Matrix, K2: Matrix, psi: Matrix) -> list:
    """The columns of phi K - K' psi, the defect of the condition on the operators."""
    diff = phi * K - K2 * psi
    return [diff.column(u) for u in range(diff.cols)]


def check_rcw_morphism(data: ReynoldsData, data2: ReynoldsData,
                       phi: Matrix, psi: Matrix) -> Report:
    """Morphism of Reynolds operators (phi, psi) from ``data`` to ``data2``
    (`morphism_checker`, prepared for this one call)."""
    if data.field != data2.field:
        raise DimensionMismatchError("algebras live over different fields")
    return morphism_checker(*[(d.algebra, twisted_rows(d.algebra, d.rep, d.cocycle))
                              for d in (data, data2)])(data.operator, data2.operator, phi, psi)
