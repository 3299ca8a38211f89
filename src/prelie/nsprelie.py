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

The Nijenhuis identity and the tables of N are read off one
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
    _coerced,
    _combine,
    family_products,
    int_basis,
    lifted_report,
    nonzero_entries,
    nonzero_rows,
    prelie_defects,
    semidirect_rows,
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
from .linalg import Matrix, add_vec
from .reynolds import ReynoldsData, _prepared
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
    return _ns_report(field, *(_coerced(field, t) for t in (tri, trl, circ)))


def _ns_report(field, tri, trl, circ) -> Report:
    """`check_ns_prelie` on three tensors already coerced (`algebra._coerced`)."""
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
    defects = list(prelie_defects(semidirect_rows(star, n, L, R, circ),
                                  [t for _, shifted in axioms.values() for t in shifted], n))
    if not any(map(any, defects)):
        return _combine({name: Report(True) for name in axioms})
    # each axiom takes the next n^3 defects: zip stops at the end of
    # `triples` before it draws from `defects`
    defects = iter(defects)
    return _combine({
        name: lifted_report(zip(triples, defects), lambda d, sign=sign: down(
            [sign * x for x in d], 2))
        for name, (sign, _) in axioms.items()})


class NSPreLie:
    """A verified NS-pre-Lie structure given by three tensors."""

    __slots__ = ("field", "dim", "tri", "trl", "circ")

    def __init__(self, field, tri, trl, circ):
        tri, trl, circ = (_coerced(field, t) for t in (tri, trl, circ))
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
        return tuple(tuple(add_vec(add_vec(a, b), c) for a, b, c in zip(*planes))
                     for planes in zip(self.tri, self.trl, self.circ))


def subadjacent(ns: NSPreLie) -> PreLieAlgebra:
    """The sum of the three products, re-verified pre-Lie."""
    return reverified(PreLieAlgebra, ns.field, ns.star_tensor())


def _nijenhuis_frame(g: PreLieAlgebra):
    """The Nijenhuis identity on the integer lift, prepared once: N -> (report, table, ns).

    The structure constants are lifted once (denominator D_g), each N
    alone (D_N).  One scatter over the nonzero constants e_a.e_b, as in
    `algebra.family_products`, adds each into the basis pairs that N's
    nonzero entries carry it to: at (i, j),
    e_i ._N e_j = Ne_i.e_j + e_i.Ne_j - N(e_i.e_j) comes out D_g D_N times
    its field value and Ne_i.Ne_j - N(e_i ._N e_j) D_g D_N^2 times
    (`SIGNS.md`): the `Report` of the second and ``table()`` of the
    first, mapped back; `scalars.Poly` entries coefficient by coefficient.
    ``ns()`` reads the tables of `ns_from_nijenhuis` off the same lift.
    Its integer core ``evaluate.core(k, one)`` gives the residuals at N
    lifted to rows k, whatever the scale ``one``.
    """
    field, n = g.field, g.dim
    (c, Dg), _ = lift(field, (g.product, field.one))
    entries, e = nonzero_entries(nonzero_rows(c)), int_basis(n, n)

    def scatter(k) -> tuple:
        at = [[(i, x) for i, x in enumerate(row) if x] for row in k]  # Ne_i has x at a
        cols = [[(s, row[t]) for s, row in enumerate(k) if row[t]] for t in range(n)]  # N e_t
        deformed, out = {}, {}  # the pairs that a constant reaches

        def add(table, key, c, row):
            w = table.get(key)
            if w is None:
                w = table[key] = [0] * n
            for t, z in row:
                w[t] += c * z

        for a, b, row in entries:  # e_a.e_b = row
            for i, x in at[a]:
                add(deformed, (i, b), x, row)  # Ne_i.e_b
                for j, y in at[b]:
                    add(out, (i, j), x * y, row)  # Ne_i.Ne_j
            for j, y in at[b]:
                add(deformed, (a, j), y, row)  # e_a.Ne_j
            add(deformed, (a, b), -1, [(s, z * y) for t, z in row for s, y in cols[t]])
        for key, d in deformed.items():  # e_i ._N e_j times D_g D_N
            add(out, key, -1, [(s, z * y) for t, z in enumerate(d) if z for s, y in cols[t]])
        return deformed, sorted(out.items())

    def ns(k, back) -> list:  # |>, <| and o, D_g D_N times their field values
        cols = list(zip(*k))  # N e_i
        circ = [[[-sum(a * x for a, x in zip(row, w)) for row in k] for w in plane] for plane in c]
        return [[[back(w) for w in row] for row in table] for table in (
            family_products(entries, cols, e), family_products(entries, e, cols), circ)]

    def require_shape(N: Matrix):
        if N.rows != n or N.cols != n:
            raise ShapeError(f"operator is {N.rows}x{N.cols}, algebra dim {n}")

    def evaluate(N: Matrix):
        require_shape(N)
        (k, DN), _ = lift(field, (N.data, field.one))
        deformed, residuals = scatter(k)
        zero, one = (0,) * n, descend(field, Dg * DN)
        back = descend(field, Dg * DN ** 2)  # Ne_i.Ne_j - N(e_i ._N e_j) times D_g D_N^2
        return (lifted_report(residuals, back),
                lambda: [[one(deformed.get((i, j), zero)) for j in range(n)] for i in range(n)],
                lambda: ns(k, one))

    evaluate.core, evaluate.require_shape = (lambda k, one: scatter(k)[1]), require_shape
    return evaluate


def nijenhuis_checker(g: PreLieAlgebra):
    """The Nijenhuis identity Nx.Ny = N(x ._N y) on g, prepared once: N -> `Report`,
    with the core and ``require_shape`` of `_nijenhuis_frame`."""
    evaluate = _nijenhuis_frame(g)

    def check(N: Matrix) -> Report:
        return evaluate(N)[0]

    check.core, check.require_shape = evaluate.core, evaluate.require_shape
    return check


def check_nijenhuis(g: PreLieAlgebra, N: Matrix) -> Report:
    """Nx.Ny = N(x ._N y) on all basis pairs."""
    return nijenhuis_checker(g)(N)


def deformed_product(g: PreLieAlgebra, N: Matrix) -> PreLieAlgebra:
    """The product x ._N y = Nx.y + x.Ny - N(x.y) of a Nijenhuis operator.

    The result is pre-Lie and compatible with the original product: the
    sum of the two products is pre-Lie as well (both re-verified).
    """
    report, table, _ = _nijenhuis_frame(g)(N)
    if not report.ok:
        raise UnverifiedOperatorError("operator fails the Nijenhuis identity")
    deformed = reverified(PreLieAlgebra, g.field, table())
    total = [[add_vec(a, b) for a, b in zip(*p)] for p in zip(g.product, deformed.product)]
    reverified(PreLieAlgebra, g.field, total)  # compatibility of the pair
    return deformed


def ns_from_nijenhuis(g: PreLieAlgebra, N: Matrix) -> NSPreLie:
    """x|>y = N(x).y, x<|y = x.N(y), x o y = -N(x.y).

    On the lift that verifies N (`_nijenhuis_frame`), |> and <| are two
    scatters of `algebra.family_products`, o is -N(e_i.e_j) on the lifted
    constants, and all three come back by D_g D_N.  The subadjacent product
    of the result is the deformed product of N: its three summands are the
    three tables, so the equality holds by construction and is a test, not a
    runtime check.
    """
    report, _, tables = _nijenhuis_frame(g)(N)
    if not report.ok:
        raise UnverifiedOperatorError("operator fails the Nijenhuis identity")
    return reverified(NSPreLie, g.field, *tables())


def ns_from_reynolds(data: ReynoldsData) -> NSPreLie:
    """On the module: u<|v = R_{Kv}u, u|>v = L_{Ku}v, u o v = H(Ku, Kv).

    With gr(u) = (Ku, 0) + (0, e_u) in the twisted semidirect product
    (`reynolds.operator_frames`), the three tables are the V-parts of
    gr(u).(0, e_v), (0, e_u).gr(v) and (Ku, 0).(Kv, 0).  Their sum is the
    V-part of gr(u).gr(v), the induced pre-Lie product of the operator,
    so the subadjacent product is the induced one by construction; that
    is a test, not a runtime check.  All three have degree 2 on the lift.
    """
    return _ns_from_reynolds(data, _prepared(data))


def _ns_from_reynolds(data: ReynoldsData, frames) -> NSPreLie:
    """`ns_from_reynolds` on the frames of the bundle's (g, rep, H)."""
    n = data.algebra.dim
    mul, graph, _, _, back = frames(data.operator)
    down = back(2)
    point = [gr[:n] + (0,) * len(graph) for gr in graph]  # (Ku, 0)
    unit = [(0,) * n + gr[n:] for gr in graph]  # (0, e_u)

    def table(left, right):
        return tuple(tuple(down(w[n:]) for w in row) for row in mul(left, right))

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
    r = range(kinv.cols)
    cols = [kinv.column(i) for i in r]
    tri = [[K.apply(rep.L[i].apply(cols[j])) for j in r] for i in r]
    trl = [[K.apply(rep.R[j].apply(cols[i])) for j in r] for i in r]
    circ = [[K.apply(H.eval_basis((i, j))) for j in r] for i in r]
    ns = reverified(NSPreLie, g.field, tri, trl, circ)
    if ns.star_tensor() != g.product:
        raise InvariantError("transported NS-structure is not compatible with the product")
    return ns
