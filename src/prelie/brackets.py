"""Graded bracket machinery: the diamond product, the Matsushima-Nijenhuis
bracket, derived binary/ternary brackets on operator cochains, the
Maurer-Cartan test, and the differential it induces.

Conventions (see SIGNS.md at the repository root for the full ledger):

* On C^*(X, X), an element P of arity p+1 has MN-degree p, and

      (P <> Q)(x_1, ..., x_{p+q+1})
        = sum over (q,1,p-1)-unshuffles s of
              sgn(s) P(Q(x_{s(1)}, ..., x_{s(q+1)}), x_{s(q+2)}, ..., x_{p+q+1})
        + (-1)^{pq} sum over (p,q)-unshuffles s of
              sgn(s) P(x_{s(1)}, ..., x_{s(p)}, Q(x_{s(p+1)}, ..., x_{s(p+q)}, x_{p+q+1}))

  with [P, Q] = P <> Q - (-1)^{pq} Q <> P.  A bilinear map pi is pre-Lie
  exactly when [pi, pi] = 0.  This formula is written once, in
  `_scatter`, which adds sign * (outer <> inner) to a sparse table in one
  pass over inner's nonzero entries: each coordinate t of an inner value
  feeds every outer entry with t in its first block (the (q,1,p-1) sum)
  or as its last argument (the (p,q) sum), at the sorted merged key; a
  repeated letter drops the term (`SIGNS.md`).  `diamond` runs it once;
  `mn_bracket` serves the pre-Lie anchor [pi, pi] = 0.

* Operator cochains P in Hom(wedge^{p-1} V (x) V, g) embed into
  C^p(W, W) for W = g + V as P^: evaluate on the V-components and land
  in the g-component, so P^ vanishes as soon as one argument lies in g.
  Two square-zero elements of C^2(W, W) drive everything: the untwisted
  semidirect product mu + L + R, and the lift of the 2-cocycle H.  The
  derived brackets are

      [[P, Q]]      = (-1)^{p-1} [[mu+L+R, P^], Q^]            (degree p of P)
      [[P, Q, R]]   = -          [[[H, P^], Q^], R^]

  restricted back to V-inputs.  Both brackets take that structure as
  their first argument and share one fold and sign rule (`_derived`).
  The ternary sign is pinned by the anchor identity
  [[K,K,K]](u,v) = 6 K H(Ku, Kv).

* `_derived` builds level j = [N, P_j^], N the level below, as a sparse
  table of W, by two `_scatter` passes.  The table of P^ holds only
  V-keys and g-values, so no term feeds a lifted cochain a g-argument.
  The restriction keeps the g-coordinates of the top level at V-basis
  keys; a nonzero V-coordinate raises `InvariantError`.  Values are
  combined with +, - and * only, so the route runs on field scalars, on
  ints and on `Poly` entries alike.

* The Maurer-Cartan functional is MC(K) = 1/2 [[K,K]] - 1/6 [[K,K,K]];
  its vanishing is equivalent to the Reynolds identity.  The induced
  differential is d_K f = [[K, f]] - 1/2 [[K, K, f]], and it satisfies
  d_K f = (-1)^{n-1} (the operator-cohomology differential) for f of
  degree n.

* These three combinations are evaluated on the integer lift, over
  every field: both structures are read off the lifted rows of g + V
  twisted by H (`cochain.twisted_rows`, denominator D_g), and the
  cochains are lifted together (D_c; residues over F_p).  Each bracket
  term is divided exactly by the denominator of its coefficient (2 or
  6), which works because the bracket values are themselves even (resp.
  divisible by 6) integer polynomials of the input entries; a remainder
  raises `InvariantError`.  A binary term is scaled by D_c to the
  ternary terms' D_g D_c^3, and the int sum is mapped back once, by
  D_g D_c^3 or mod p, so no division by 2 or 6 is taken in F_2 or F_3.

* d_K is linear in f, so it is evaluated once, on the generic cochain
  whose coordinates are the variables x_c, not once per basis cochain.
  `dk_difference` subtracts (-1)^{n-1} times the operator-cohomology
  differential of the same generic cochain; each output coordinate is
  then a linear `Poly` whose coefficient on x_c is column c of
  d_K - (-1)^{n-1} d, so the whole identity is read off one evaluation
  of each side.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import PreLieAlgebra, Report, Representation, residual_report
from .cochain import (
    Cochain,
    _sort_with_sign,
    cochain_keys,
    cochain_space_dim,
    twisted_rows,
)
from .errors import InvariantError, ShapeError
from .linalg import Matrix
from .reynolds import ReynoldsData, _prepared, _require_cocycle
from .opcohomology import _frame_coboundary
from .scalars import Poly, descend, lift


def diamond(P: Cochain, Q: Cochain) -> Cochain:
    """The composition product on C^*(X, X)."""
    if P.dim_source != P.dim_target or Q.dim_source != Q.dim_target:
        raise ShapeError("diamond is defined on cochains from a space to itself")
    if P.dim_source != Q.dim_source:
        raise ShapeError("cochains live on different spaces")
    p, q = P.degree - 1, Q.degree - 1
    acc = {}
    _scatter(acc, 1, _sparse_table(P.keys(), P.values, 0), _sparse_table(Q.keys(), Q.values, 0),
             p, q)
    return _as_cochain(P, p + q + 1, {key: row.items() for key, row in acc.items()})


def mn_bracket(P: Cochain, Q: Cochain) -> Cochain:
    """[P, Q] = P <> Q - (-1)^{pq} Q <> P (graded antisymmetric)."""
    p = P.degree - 1
    q = Q.degree - 1
    second = diamond(Q, P)
    if (p * q) % 2 == 1:
        return diamond(P, Q) + second
    return diamond(P, Q) - second


def _cochain_report(c: Cochain) -> Report:
    """The report of the nonzero values of c, each at its canonical key."""
    return residual_report((fb + (last,), v) for (fb, last), v in zip(c.keys(), c.values))


# ---------------------------------------------------------------------------
# the big space W = g + V and the derived brackets, one sparse level at a time


def _sparse_table(keys, values, shift: int) -> dict:
    """{canonical key, indices shifted by ``shift``: the nonzero (coordinate, value) pairs},
    over the ``keys`` whose vector in ``values`` is nonzero."""
    table = {}
    for (fb, last), v in zip(keys, values):
        if pairs := tuple((t, x) for t, x in enumerate(v) if x):
            table[(tuple(i + shift for i in fb), last + shift)] = pairs
    return table


def _as_cochain(P: Cochain, degree: int, table: dict) -> Cochain:
    """The cochain of P's field and shape holding a sparse table {key: (coordinate, value)}."""
    values = []
    for key in cochain_keys(P.dim_source, degree):
        out = [P.field.zero] * P.dim_target
        for t, x in table.get(key, ()):
            out[t] = x
        values.append(out)
    return Cochain(P.field, degree, P.dim_source, P.dim_target, values)


def _by_argument(table: dict) -> tuple:
    """Two indexes of a sparse table by one argument t of a key: over the keys whose
    first block holds t, {t: [((-1)^(position of t), the other letters, last, pairs)]},
    and over the keys whose last argument is t, {t: [(first block, pairs)]}."""
    first, final = {}, {}
    for (fb, last), pairs in table.items():
        for i, t in enumerate(fb):
            first.setdefault(t, []).append((-1 if i % 2 else 1, fb[:i] + fb[i + 1:], last, pairs))
        final.setdefault(last, []).append((fb, pairs))
    return first, final


def _add(acc: dict, letters: tuple, last: int, pairs, c, sign: int) -> None:
    """acc[key] += sign * c * pairs, at the canonical key of (letters, last); a repeated
    letter gives no term."""
    norm = _sort_with_sign(letters)
    if norm is None:
        return
    if norm[0] != sign:
        c = -c
    row = acc.setdefault((norm[1], last), {})
    for t, x in pairs:
        term = c * x
        s = row.get(t)
        row[t] = term if s is None else s + term


def _scatter(acc: dict, sign: int, outer: dict, inner: dict, a: int, b: int) -> None:
    """acc += sign * (outer <> inner), both sparse tables, of MN-degrees a and b.

    One pass over the nonzero entries of ``inner``: each coordinate t of
    its value feeds every entry of ``outer`` that has t as an argument
    (`SIGNS.md`).  t in outer's first block is the (b,1,a-1) sum, t as
    outer's last argument the (a,b) sum.
    """
    first, final = _by_argument(outer)
    flip = -sign if (a * b) % 2 else sign
    for (fb, last), pairs in inner.items():
        letters = fb + (last,)
        for t, c in pairs:
            # outer(inner(fb, last), rest, olast), t at its position in outer's block
            for s, rest, olast, ov in first.get(t, ()):
                _add(acc, letters + rest, olast, ov, c, sign * s)
            # (-1)^{ab} outer(ofb, inner(fb, last))
            for ofb, ov in final.get(t, ()):
                _add(acc, ofb + fb, last, ov, c, flip)


def _derived(structure: dict, dim: int, cochains, values) -> tuple:
    """[[...[structure, P_1^], ...], P_k^] restricted to operator cochains: (table, degree, sign).

    The operator cochains must share one shape V -> g, ``values`` their
    values (field scalars or lifted); ``structure`` is the sparse table of
    a degree-2 cochain on a space of dimension ``dim``, which must be
    W = g + V.  Level j = [N_{j-1}, P_j^] is a sparse table of W, built by
    two `_scatter` passes (see the module docstring).  The table holds the
    g-coordinates of the top level at V-basis keys; a nonzero V-coordinate
    there raises `InvariantError`.  The sign is the bracket's.
    """
    dim_g, dim_v = cochains[0].dim_target, cochains[0].dim_source
    if any((P.dim_target, P.dim_source) != (dim_g, dim_v) for P in cochains):
        raise ShapeError("operator cochains have different shapes")
    if dim != dim_g + dim_v:
        raise ShapeError("structure does not live on g + V")
    n, N, p = dim_g, structure, 1
    for P, v in zip(cochains, values):
        # N_j = N <> P^ - (-1)^{pq} P^ <> N, N = N_{j-1} of MN-degree p
        lifted, q = _sparse_table(P.keys(), v, n), P.degree - 1
        flip = -1 if (p * q) % 2 else 1
        acc = {}
        _scatter(acc, 1, N, lifted, p, q)
        _scatter(acc, -flip, lifted, N, q, p)
        N = {key: nonzero for key, row in acc.items()
             if (nonzero := tuple((t, x) for t, x in row.items() if x))}
        p += q
    top = {}
    for fb, last in cochain_keys(dim_v, p + 1):
        if pairs := N.get((tuple(i + n for i in fb), last + n)):
            if any(t >= n for t, _ in pairs):
                raise InvariantError(
                    f"V-part of the restricted derived bracket is nonzero at {fb + (last,)}")
            top[fb, last] = pairs
    return top, p + 1, -1 if len(cochains) == 3 or (cochains[0].degree - 1) % 2 else 1


def _bracket(structure: Cochain, cochains) -> Cochain:
    """`_derived` of two (`derived_bracket`) or three (`ternary_bracket`) cochains, signed."""
    top, degree, sign = _derived(_sparse_table(structure.keys(), structure.values, 0),
                                 structure.dim_source, cochains, [P.values for P in cochains])
    return _as_cochain(cochains[0], degree,
                       {key: [(t, sign * x) for t, x in pairs] for key, pairs in top.items()})


def derived_bracket(mu: Cochain, P: Cochain, Q: Cochain) -> Cochain:
    """[[P, Q]] = (-1)^{p-1} [[mu, P], Q] restricted to operator cochains.

    ``mu`` is mu + L + R on W as a degree-2 cochain.  For degree-1
    arguments this reproduces

        [[K, K']](u, v) = Ku.K'v + K'u.Kv - K(L_{K'u}v + R_{K'v}u)
                                          - K'(L_{Ku}v + R_{Kv}u).
    """
    return _bracket(mu, (P, Q))


def ternary_bracket(hw: Cochain, P: Cochain, Q: Cochain, R: Cochain) -> Cochain:
    """[[P, Q, R]] = -[[[hw, P], Q], R] restricted to operator cochains.

    ``hw`` is the lift of H to W.  Fully symmetric in degree-1
    arguments; the sign makes [[K, K, K]](u, v) = 6 K H(Ku, Kv).
    """
    return _bracket(hw, (P, Q, R))


# ---------------------------------------------------------------------------
# bracket combinations, evaluated on the integer lift


def _divide_exactly(x, b: int):
    """x / b for an int, or a `Poly` with int coefficients, that b divides."""
    if isinstance(x, Poly):
        return x.map(lambda c: _divide_exactly(c, b))
    q, r = divmod(x, b)
    if r:
        raise InvariantError(f"a bracket term of the integer lift is not divisible by {b}")
    return q


def _structure_tables(rows, n: int) -> dict:
    """{2: mu + L + R, 3: the lift of H} as sparse tables, off the rows of g + V twisted
    by H (n = dim g): the lift of H is the V-coordinates at g x g keys, mu + L + R the rest."""
    tables = {2: {}, 3: {}}
    for a, plane in enumerate(rows):
        for b, row in enumerate(plane):
            for k, x in row:
                tables[3 if a < n and b < n <= k else 2].setdefault(((a,), b), []).append((k, x))
    return tables


def _combination(g: PreLieAlgebra, twisted: tuple, cochains: list, terms: list) -> Cochain:
    """The sum of coefficient * bracket over ``terms``, evaluated exactly.

    Each term is (Fraction coefficient, indices into ``cochains``): two
    indices name a binary bracket, three a ternary one.  Each runs on the
    rows of ``twisted`` (`cochain.twisted_rows`, D_g) and the values of the
    cochains lifted together (D_c), is divided exactly by its coefficient's
    denominator and brought to the common scale D_g D_c^3; the sum is
    mapped back once (module docstring).
    """
    field, (rows, Dg) = g.field, twisted
    structures = _structure_tables(rows, g.dim)
    (*lifted, Dc), _ = lift(field, (*(c.values for c in cochains), field.one))
    acc = {}
    for coeff, idxs in terms:
        top, degree, sign = _derived(structures[len(idxs)], len(rows),
                                     [cochains[i] for i in idxs], [lifted[i] for i in idxs])
        b = coeff.denominator
        a = sign * coeff.numerator * (Dc if len(idxs) == 2 else 1)  # at D_g D_c^3
        for key, pairs in top.items():
            row = acc.setdefault(key, {})
            for t, x in pairs:
                row[t] = row.get(t, 0) + (x if b == 1 else _divide_exactly(x, b)) * a
    down = descend(field, Dg * Dc ** 3)
    return _as_cochain(cochains[0], degree,
                       {key: zip(row, down(tuple(row.values()))) for key, row in acc.items()})


_MC = [(Fraction(1, 2), (0, 0)), (Fraction(-1, 6), (0, 0, 0))]


def mc_residual(g: PreLieAlgebra, rep: Representation, H: Cochain,
                K: Matrix) -> Cochain:
    """The Maurer-Cartan functional 1/2 [[K,K]] - 1/6 [[K,K,K]] at K."""
    return _combination(g, twisted_rows(g, rep, H), [Cochain.from_matrix(K)], _MC)


def check_maurer_cartan(g: PreLieAlgebra, rep: Representation, H: Cochain,
                        K: Matrix) -> Report:
    """Does K satisfy the Maurer-Cartan equation of the graded structure?

    H must be a 2-cocycle, since the graded structure needs dH = 0; MC
    reads the preparation that verified it.
    Agrees with `check_rcw_reynolds` on every input; the agreement is the
    executable form of the characterization theorem.
    """
    twisted = _require_cocycle(g, rep, H)
    if K.rows != g.dim or K.cols != rep.dim_v:
        raise ShapeError("operator has the wrong shape")
    return _cochain_report(_combination(g, twisted, [Cochain.from_matrix(K)], _MC))


def _d_K(data: ReynoldsData, twisted: tuple, f: Cochain) -> Cochain:
    """`d_K` on the preparation of the bundle's (g, rep, H)."""
    return _combination(data.algebra, twisted, [Cochain.from_matrix(data.operator), f],
                        [(Fraction(1), (0, 1)), (Fraction(-1, 2), (0, 0, 1))])


def d_K(data: ReynoldsData, f: Cochain) -> Cochain:
    """The twisted differential d_K f = [[K, f]] - 1/2 [[K, K, f]].

    Squares to zero and equals (-1)^{n-1} times the operator-cohomology
    differential on degree-n cochains.
    """
    g, rep = data.algebra, data.rep
    if f.dim_source != rep.dim_v or f.dim_target != g.dim:
        raise ShapeError("cochain must map the module to the algebra")
    return _d_K(data, twisted_rows(g, rep, data.cocycle), f)


def dk_difference(data: ReynoldsData, degree: int) -> Cochain:
    """d_K f - (-1)^{n-1} d f on the generic degree-n cochain f.

    Both sides are linear in f, so each output coordinate is a linear
    `Poly` whose coefficient on x_c is column c of the difference of the
    two differentials; the identity holds exactly when every coordinate
    is zero.  Both sides read one preparation of (g, rep, H).
    """
    return _dk_difference(data, _prepared(data), degree)


def _dk_difference(data: ReynoldsData, frames, degree: int) -> Cochain:
    """`dk_difference` on the frames of the bundle's (g, rep, H)."""
    g, rep = data.algebra, data.rep
    # the coordinate (key p, target t) of f is the variable x_c, c = p * m + t,
    # so column c is the basis cochain at that coordinate
    m, one = g.dim, g.field.one
    n_keys = cochain_space_dim(rep.dim_v, 1, degree)  # rejects degree < 1
    f = Cochain(g.field, degree, rep.dim_v, m,
                [[Poly({(p * m + t,): one}) for t in range(m)] for p in range(n_keys)])
    d = _frame_coboundary(m, frames(data.operator), f)
    return _d_K(data, frames.twisted, f) - (d if degree % 2 else -d)


def twisted_mc_residual(data: ReynoldsData, K2: Matrix) -> Cochain:
    """d_K(K') + 1/2 ([[K',K']] - [[K,K',K']]) - 1/6 [[K',K',K']].

    Vanishes iff K + K' satisfies the Reynolds identity; this is the
    Maurer-Cartan equation of the structure twisted by K.
    """
    return _twisted_mc_residual(data, twisted_rows(data.algebra, data.rep, data.cocycle), K2)


def _twisted_mc_residual(data: ReynoldsData, twisted: tuple, K2: Matrix) -> Cochain:
    """`twisted_mc_residual` on the preparation of the bundle's (g, rep, H)."""
    g, rep, K = data.algebra, data.rep, data.operator
    if K2.rows != g.dim or K2.cols != rep.dim_v:
        raise ShapeError("operator has the wrong shape")
    # cochains: 0 = K, 1 = K'
    return _combination(
        g, twisted, [Cochain.from_matrix(K), Cochain.from_matrix(K2)],
        [(Fraction(1), (0, 1)), (Fraction(-1, 2), (0, 0, 1)),
         (Fraction(1, 2), (1, 1)), (Fraction(-1, 2), (0, 1, 1)),
         (Fraction(-1, 6), (1, 1, 1))])


def check_twisted_mc(data: ReynoldsData, K2: Matrix) -> Report:
    """Maurer-Cartan test in the structure twisted by a verified operator.

    Passes iff K + K' is again a Reynolds operator for the same weight.
    """
    return _cochain_report(twisted_mc_residual(data, K2))
