"""NS-pre-Lie algebras: three products whose sum is pre-Lie.

An NS-pre-Lie structure on A is a triple of bilinear products
(tri = x|>y, trl = x<|y, circ = x o y) satisfying, with
x*y = x|>y + x<|y + x o y:

    (A1) (x*y)|>z - x|>(y|>z)  =  (y*x)|>z - y|>(x|>z)
    (A2) x|>(y<|z) - (x|>y)<|z  =  y<|(x*z) - (y<|x)<|z
    (A3) (x*y)oz - xo(y*z) + (xoy)<|z - x|>(yoz)
           =  (y*x)oz - yo(x*z) + (yox)<|z - y|>(xoz)

Summing the axioms shows * is pre-Lie (the subadjacent product).  The
three axioms together say that (A, *) acting on a second copy of A by
L_x = x|>. and R_x = .<|x, twisted by o, is a pre-Lie semidirect
product, and `check_ns_prelie` reads them off the one pre-Lie kernel
`algebra.prelie_defects` (the signs are in SIGNS.md).

The Nijenhuis identity and the deformed product are read off one
evaluation of N on the integer lift (`_nijenhuis_frame`).

The three sources of NS-structures implemented here: Nijenhuis operators on a
pre-Lie algebra, cocycle-weighted Reynolds operators (on the module, the
three tables read off the operator's `reynolds.operator_frames`), and
invertible Reynolds operators (transported back to the algebra).  Each
constructor checks its input and re-verifies its output once each, on
the tables it built (through `errors.reverified`); an `NSPreLie` is always
verified, and `reynolds_from_ns` inverts `ns_from_reynolds` exactly.
"""

from __future__ import annotations

from .algebra import (
    PreLieAlgebra,
    Report,
    Representation,
    _as_tensor,
    _combine,
    lifted_report,
    nonzero_rows,
    prelie_defects,
    semidirect_tensor,
)
from .cochain import Cochain, cochain_keys
from .errors import (
    InvariantError,
    ShapeError,
    SingularError,
    UnverifiedNSError,
    UnverifiedOperatorError,
    reverified,
)
from .linalg import Matrix, add_vec, neg_vec
from .reynolds import ReynoldsData, derived_tensor, operator_frames
from .scalars import descend, lift


def check_ns_prelie(field, tri, trl, circ) -> Report:
    """Axioms A1, A2, A3 on all basis triples, with per-axiom verdicts.

    The axioms say that A + A with the product of `algebra.semidirect_tensor`
    is pre-Lie: the base is (A, *), which acts on the second copy by
    L_x = x|>. and R_x = .<|x, twisted by H = o.  The V-part of its pre-Lie
    defect is A1 at (x, y, z'), minus A2 at (x, y', z) and A3 at (x, y, z),
    primes marking the second copy, and all three are read from one
    `prelie_defects` pass.  The three tensors are lifted to ints together
    (`scalars.lift`); each axiom is homogeneous of degree 2 in them.
    """
    return _ns_report(field, *(_as_tensor(field, t) for t in (tri, trl, circ)))


def _ns_report(field, tri, trl, circ) -> Report:
    """`check_ns_prelie` on three tensors already coerced by `algebra._as_tensor`."""
    n = len(tri)
    if len(trl) != n or len(circ) != n:
        raise ShapeError("the three tensors must share one dimension")
    (tri, trl, circ), down = lift(field, (tri, trl, circ))
    r = range(n)
    star = [[[a + b + c for a, b, c in zip(tri[i][j], trl[i][j], circ[i][j])] for j in r]
            for i in r]
    L = [[[tri[i][j][k] for j in r] for k in r] for i in r]
    R = [[[trl[j][i][k] for j in r] for k in r] for i in r]
    triples = [(i, j, k) for i in r for j in r for k in r]
    axioms = {"A1": (1, [(i, j, n + k) for i, j, k in triples]),
              "A2": (-1, [(i, n + j, k) for i, j, k in triples]),
              "A3": (1, triples)}
    defects = prelie_defects(semidirect_tensor(star, n, L, R, circ),
                             [t for _, shifted in axioms.values() for t in shifted], n)
    # each axiom takes the next n^3 defects: zip stops at the end of
    # `triples` before it draws from `defects`
    return _combine({
        name: lifted_report(zip(triples, defects), lambda d, sign=sign: down(
            [sign * x for x in d], 2))
        for name, (sign, _) in axioms.items()})


class NSPreLie:
    """A verified NS-pre-Lie structure given by three tensors."""

    __slots__ = ("field", "dim", "tri", "trl", "circ")

    def __init__(self, field, tri, trl, circ):
        tri, trl, circ = (_as_tensor(field, t) for t in (tri, trl, circ))
        report = _ns_report(field, tri, trl, circ)
        if not report.ok:
            raise UnverifiedNSError(
                "products fail the NS-pre-Lie axioms:\n" + report.describe())
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", len(tri))
        object.__setattr__(self, "tri", tri)
        object.__setattr__(self, "trl", trl)
        object.__setattr__(self, "circ", circ)

    def __setattr__(self, name, value):
        raise AttributeError("NSPreLie is immutable")

    def __eq__(self, other):
        if not isinstance(other, NSPreLie):
            return NotImplemented
        return (self.field == other.field and self.tri == other.tri
                and self.trl == other.trl and self.circ == other.circ)

    def star_tensor(self):
        n = self.dim
        return tuple(
            tuple(add_vec(add_vec(self.tri[i][j], self.trl[i][j]), self.circ[i][j])
                  for j in range(n))
            for i in range(n)
        )


def subadjacent(ns: NSPreLie) -> PreLieAlgebra:
    """The sum of the three products, re-verified pre-Lie."""
    return reverified(PreLieAlgebra, ns.field, ns.star_tensor())


def _nijenhuis_frame(g: PreLieAlgebra):
    """The Nijenhuis identity on the integer lift, prepared once: N -> (report, table).

    The structure constants are lifted once (denominator D_g), each N
    alone (D_N).  At every basis pair, e_i ._N e_j comes out D_g D_N
    times its field value and Ne_i.Ne_j - N(e_i ._N e_j) D_g D_N^2 times
    (`SIGNS.md`): the `Report` of the second and ``table()`` of the
    first, mapped back; `scalars.Poly` entries coefficient by coefficient.
    """
    field, n = g.field, g.dim
    (c, Dg), _ = lift(field, (g.product, field.one))
    rows = nonzero_rows(c)

    def evaluate(N: Matrix):
        if N.rows != n or N.cols != n:
            raise ShapeError(f"operator is {N.rows}x{N.cols}, algebra dim {n}")
        (k, DN), _ = lift(field, (N.data, field.one))
        cols = [[(a, row[i]) for a, row in enumerate(k) if row[i]] for i in range(n)]

        def residual(i, j):
            deformed = [0] * n  # e_i ._N e_j, times D_g D_N
            for a, x in cols[i]:
                for t, z in rows[a][j]:
                    deformed[t] += x * z
            for b, y in cols[j]:
                for t, z in rows[i][b]:
                    deformed[t] += y * z
            for t, z in rows[i][j]:
                for s, w in cols[t]:
                    deformed[s] -= z * w
            out = [0] * n  # Ne_i.Ne_j - N(e_i ._N e_j), times D_g D_N^2
            for a, x in cols[i]:
                for b, y in cols[j]:
                    xy = x * y
                    for t, z in rows[a][b]:
                        out[t] += xy * z
            for t, z in enumerate(deformed):
                if z:
                    for s, w in cols[t]:
                        out[s] -= z * w
            return deformed, out

        values = [[residual(i, j) for j in range(n)] for i in range(n)]
        back = descend(field, Dg * DN ** 2)
        return (lifted_report((((i, j), r) for i, row in enumerate(values)
                               for j, (_, r) in enumerate(row)), back),
                lambda: [[descend(field, Dg * DN)(d) for d, _ in row] for row in values])

    return evaluate


def nijenhuis_checker(g: PreLieAlgebra):
    """The Nijenhuis identity Nx.Ny = N(x ._N y) on g, prepared once: N -> `Report`."""
    evaluate = _nijenhuis_frame(g)
    return lambda N: evaluate(N)[0]


def check_nijenhuis(g: PreLieAlgebra, N: Matrix) -> Report:
    """Nx.Ny = N(x ._N y) on all basis pairs."""
    return nijenhuis_checker(g)(N)


def deformed_product(g: PreLieAlgebra, N: Matrix) -> PreLieAlgebra:
    """The product x ._N y = Nx.y + x.Ny - N(x.y) of a Nijenhuis operator.

    The result is pre-Lie and compatible with the original product: the
    sum of the two products is pre-Lie as well (both re-verified).
    """
    report, table = _nijenhuis_frame(g)(N)
    if not report.ok:
        raise UnverifiedOperatorError("operator fails the Nijenhuis identity")
    n = g.dim
    deformed = reverified(PreLieAlgebra, g.field, table())
    total = tuple(
        tuple(add_vec(g.product[i][j], deformed.product[i][j]) for j in range(n))
        for i in range(n)
    )
    reverified(PreLieAlgebra, g.field, total)  # compatibility of the pair
    return deformed


def ns_from_nijenhuis(g: PreLieAlgebra, N: Matrix) -> NSPreLie:
    """x|>y = N(x).y, x<|y = x.N(y), x o y = -N(x.y).

    The subadjacent product of the result is the deformed product of the
    Nijenhuis operator: its three summands are the three tables, so the
    equality holds by construction and is a test, not a runtime check.
    """
    if not nijenhuis_checker(g)(N).ok:
        raise UnverifiedOperatorError("operator fails the Nijenhuis identity")
    e = [g.basis(i) for i in range(g.dim)]
    tri = derived_tensor(N, lambda i, j, Nx, Ny: g.mul(Nx, e[j]))
    trl = derived_tensor(N, lambda i, j, Nx, Ny: g.mul(e[i], Ny))
    circ = derived_tensor(N, lambda i, j, Nx, Ny: neg_vec(N.apply(g.mul_basis(i, j))))
    return reverified(NSPreLie, g.field, tri, trl, circ)


def ns_from_reynolds(data: ReynoldsData) -> NSPreLie:
    """On the module: u<|v = R_{Kv}u, u|>v = L_{Ku}v, u o v = H(Ku, Kv).

    With gr(u) = (Ku, 0) + (0, e_u) in the twisted semidirect product
    (`reynolds.operator_frames`), the three tables are the V-parts of
    gr(u).(0, e_v), (0, e_u).gr(v) and (Ku, 0).(Kv, 0).  Their sum is the
    V-part of gr(u).gr(v), the induced pre-Lie product of the operator,
    so the subadjacent product is the induced one by construction; that
    is a test, not a runtime check.  All three have degree 2 on the lift.
    """
    n = data.algebra.dim
    mul, graph, _, _, back = operator_frames(data.algebra, data.rep, data.cocycle)(
        data.operator)
    down = back(2)
    point = [gr[:n] + (0,) * len(graph) for gr in graph]  # (Ku, 0)
    unit = [(0,) * n + gr[n:] for gr in graph]  # (0, e_u)

    def table(left, right):
        return tuple(tuple(down(mul(a, b)[n:]) for b in right) for a in left)

    return reverified(NSPreLie, data.field, table(graph, unit), table(unit, graph),
                      table(point, point))


def reynolds_from_ns(ns: NSPreLie) -> ReynoldsData:
    """Package an NS-structure as an identity-operator Reynolds bundle.

    The subadjacent algebra acts on itself by L(x)y = x|>y and
    R(y)x = x<|y; the circle product is the 2-cocycle; the identity map is
    the operator.  All of that is re-verified by `ReynoldsData.build`.
    """
    field = ns.field
    n = ns.dim
    base = subadjacent(ns)
    L = [Matrix.from_columns(field, [ns.tri[i][j] for j in range(n)], n)
         for i in range(n)]
    R = [Matrix.from_columns(field, [ns.trl[j][i] for j in range(n)], n)
         for i in range(n)]
    rep = reverified(Representation, base, n, L, R)
    H = Cochain(field, 2, n, n,
                [ns.circ[fb[0]][last] for fb, last in cochain_keys(n, 2)])
    K = Matrix.identity(field, n)
    return reverified(ReynoldsData.build, base, rep, H, K)


def compatible_ns_from_invertible(data: ReynoldsData) -> NSPreLie:
    """Transport the module NS-structure along an invertible operator:

        x<|y = K(R_y K^{-1} x),  x|>y = K(L_x K^{-1} y),  x o y = K H(x, y).

    The subadjacent product equals the original algebra product (asserted
    entry for entry), so the result is a compatible NS-structure on g.
    """
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    if K.rows != K.cols:
        raise ShapeError("operator must be square to be invertible")
    kinv = K.inverse()
    if kinv is None:
        raise SingularError("operator is not invertible")
    tri = derived_tensor(kinv, lambda i, j, inv_i, inv_j: K.apply(rep.L[i].apply(inv_j)))
    trl = derived_tensor(kinv, lambda i, j, inv_i, inv_j: K.apply(rep.R[j].apply(inv_i)))
    circ = derived_tensor(kinv, lambda i, j, inv_i, inv_j: K.apply(H.eval_basis((i, j))))
    ns = reverified(NSPreLie, g.field, tri, trl, circ)
    if ns.star_tensor() != g.product:
        raise InvariantError("transported NS-structure is not compatible with the product")
    return ns
