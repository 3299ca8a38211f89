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
  exactly when [pi, pi] = 0.  `cochain._unshuffles` gives each s with
  sgn(s), and `diamond` is the one multilinear evaluation of a cochain
  at vector arguments (`Cochain.eval`) in the package.

* Operator cochains P in Hom(wedge^{p-1} V (x) V, g) embed into
  C^p(W, W) for W = g + V by evaluating on the V-components and landing
  in the g-component.  Two square-zero elements of C^2(W, W) drive
  everything: the untwisted semidirect product mu + L + R, and the lift
  of the 2-cocycle H.  The derived brackets are

      [[P, Q]]      = (-1)^{p-1} [[mu+L+R, P], Q]            (degree p of P)
      [[P, Q, R]]   = -          [[[H, P], Q], R]

  restricted back to V-inputs.  Both brackets take that structure as
  their first argument, in the field or lifted to ints, and share one
  fold (`_derived`).  The ternary sign is pinned by the anchor identity
  [[K,K,K]](u,v) = 6 K H(Ku, Kv).

* The Maurer-Cartan functional is MC(K) = 1/2 [[K,K]] - 1/6 [[K,K,K]];
  its vanishing is equivalent to the Reynolds identity.  The induced
  differential is d_K f = [[K, f]] - 1/2 [[K, K, f]], and it satisfies
  d_K f = (-1)^{n-1} (the operator-cohomology differential) for f of
  degree n.

* These three combinations are evaluated on the integer lift of the
  data, over every field: `_combination` builds the two structures on W
  once, and one `scalars.lift` turns their values and the cochains'
  into ints scaled by one common D (over Q) or into residues (over F_p),
  held in `Cochain`s over `scalars.INTEGERS`.  The brackets run
  unchanged on the ints; each bracket term is divided exactly by the
  denominator of its coefficient (2 or 6), which works because the
  bracket values are themselves even (resp. divisible by 6) integer
  polynomials of the input entries, and a term that is not divisible
  raises `InvariantError`.  Each term is then mapped back to the field (divided
  by D^3 for a binary bracket, D^4 for a ternary one, or reduced mod p),
  so no division by 2 or 6 is ever taken in F_2 or F_3.

* d_K is linear in f, so it is evaluated once, on the generic cochain
  whose coordinates are the variables x_c, not once per basis cochain.
  `dk_difference` subtracts (-1)^{n-1} times the operator-cohomology
  differential of the same generic cochain; each output coordinate is
  then a linear `Poly` whose coefficient on x_c is column c of
  d_K - (-1)^{n-1} d, so the whole identity is read off one evaluation
  of each side.  The integer lift takes `Poly` entries coefficient by
  coefficient, both ways.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    PreLieAlgebra,
    Report,
    Representation,
    residual_report,
    semidirect_tensor as raw_semidirect_tensor,
)
from .cochain import Cochain, _unshuffles, cochain_keys, cochain_space_dim
from .errors import InvariantError, ShapeError
from .linalg import Matrix, add_vec, is_zero_vec, neg_vec, zero_vec
from .reynolds import ReynoldsData, _require_cocycle, semidirect_tensor
from .opcohomology import operator_coboundary
from .scalars import INTEGERS, Poly, lift


def diamond(P: Cochain, Q: Cochain) -> Cochain:
    """The composition product on C^*(X, X)."""
    if P.dim_source != P.dim_target or Q.dim_source != Q.dim_target:
        raise ShapeError("diamond is defined on cochains from a space to itself")
    if P.dim_source != Q.dim_source:
        raise ShapeError("cochains live on different spaces")
    dim = P.dim_source
    field = P.field
    p = P.degree - 1
    q = Q.degree - 1
    out_degree = p + q + 1
    values = []
    outer_sign = 1 if (p * q) % 2 == 0 else -1
    for fb, last in cochain_keys(dim, out_degree):
        letters = list(fb)  # the p+q permutable arguments
        acc = zero_vec(field, dim)
        for sign, word in _unshuffles((q, 1, p - 1)):
            inner_args = tuple(letters[word[i]] for i in range(q + 1))
            inner = Q.eval_basis(inner_args)
            if is_zero_vec(inner):
                continue
            outer_args = [inner] + [letters[word[i]] for i in range(q + 1, p + q)] + [last]
            term = P.eval(outer_args)
            acc = add_vec(acc, term if sign == 1 else neg_vec(term))
        for sign, word in _unshuffles((p, q)):
            inner_args = tuple(letters[word[i]] for i in range(p, p + q)) + (last,)
            inner = Q.eval_basis(inner_args)
            if is_zero_vec(inner):
                continue
            outer_args = [letters[word[i]] for i in range(p)] + [inner]
            term = P.eval(outer_args)
            acc = add_vec(acc, term if outer_sign * sign == 1 else neg_vec(term))
        values.append(acc)
    return Cochain(field, out_degree, dim, dim, values)


def mn_bracket(P: Cochain, Q: Cochain) -> Cochain:
    """[P, Q] = P <> Q - (-1)^{pq} Q <> P (graded antisymmetric)."""
    p = P.degree - 1
    q = Q.degree - 1
    second = diamond(Q, P)
    if (p * q) % 2 == 1:
        return diamond(P, Q) + second
    return diamond(P, Q) - second


def tensor_cochain(field, tensor) -> Cochain:
    """A raw cubical tensor as a degree-2 cochain (no axioms assumed)."""
    dim = len(tensor)
    values = [tensor[fb[0]][last] for fb, last in cochain_keys(dim, 2)]
    return Cochain(field, 2, dim, dim, values)


def _cochain_report(c: Cochain) -> Report:
    """The report of the nonzero values of c, each at its canonical key."""
    return residual_report((fb + (last,), v) for (fb, last), v in zip(c.keys(), c.values))


# ---------------------------------------------------------------------------
# the big space W = g + V and the embedding of operator cochains


def lift_operator_cochain(P: Cochain) -> Cochain:
    """Embed P: wedge^{p-1} V (x) V -> g into C^p(W, W), W = g + V.

    dim g and dim V are P's target and source dimensions.  The lift
    vanishes whenever any argument has a g-component and lands in the
    g-coordinates of W.
    """
    dim_g, m = P.dim_target, P.dim_source
    dim_w = dim_g + m
    field = P.field
    values = []
    for fb, last in cochain_keys(dim_w, P.degree):
        idxs = fb + (last,)
        if any(i < dim_g for i in idxs):
            values.append(zero_vec(field, dim_w))
            continue
        inner = P.eval_basis(tuple(i - dim_g for i in idxs))
        values.append(tuple(inner) + tuple(zero_vec(field, m)))
    return Cochain(field, P.degree, dim_w, dim_w, values)


def untwisted_structure(g: PreLieAlgebra, rep: Representation) -> Cochain:
    """mu + L + R as a degree-2 cochain on W (the H = 0 semidirect product)."""
    return tensor_cochain(g.field, semidirect_tensor(g, rep, None))


def cocycle_structure(g: PreLieAlgebra, rep: Representation, H: Cochain) -> Cochain:
    """The lift of H to a degree-2 cochain on W: ((x,u),(y,v)) -> (0, H(x,y))."""
    n, m = g.dim, rep.dim_v
    zero = [[0] * m] * m
    return tensor_cochain(g.field, raw_semidirect_tensor(
        [[[0] * n] * n] * n, m, [zero] * n, [zero] * n,
        [[H.eval_basis((i, j)) for j in range(n)] for i in range(n)]))


def _derived(structure: Cochain, cochains) -> Cochain:
    """[[...[structure, P_1^], ...], P_k^] restricted to operator cochains.

    The operator cochains must share one shape V -> g, and ``structure``
    must live on W = g + V.  The restriction evaluates on V-basis tuples
    and keeps the g-coordinates.
    """
    dim_g, dim_v = cochains[0].dim_target, cochains[0].dim_source
    if any((P.dim_target, P.dim_source) != (dim_g, dim_v) for P in cochains):
        raise ShapeError("operator cochains have different shapes")
    if structure.dim_source != dim_g + dim_v:
        raise ShapeError("structure does not live on g + V")
    nested = structure
    for P in cochains:
        nested = mn_bracket(nested, lift_operator_cochain(P))
    values = [nested.eval_basis(tuple(i + dim_g for i in fb) + (last + dim_g,))[:dim_g]
              for fb, last in cochain_keys(dim_v, nested.degree)]
    return Cochain(nested.field, nested.degree, dim_v, dim_g, values)


def derived_bracket(mu: Cochain, P: Cochain, Q: Cochain) -> Cochain:
    """[[P, Q]] = (-1)^{p-1} [[mu, P], Q] restricted to operator cochains.

    ``mu`` is mu + L + R on W (`untwisted_structure`).  For degree-1
    arguments this reproduces

        [[K, K']](u, v) = Ku.K'v + K'u.Kv - K(L_{K'u}v + R_{K'v}u)
                                          - K'(L_{Ku}v + R_{Kv}u).
    """
    out = _derived(mu, (P, Q))
    return -out if (P.degree - 1) % 2 == 1 else out


def ternary_bracket(hw: Cochain, P: Cochain, Q: Cochain, R: Cochain) -> Cochain:
    """[[P, Q, R]] = -[[[hw, P], Q], R] restricted to operator cochains.

    ``hw`` is the lift of H to W (`cocycle_structure`).  Fully symmetric
    in degree-1 arguments; the sign makes [[K, K, K]](u, v) = 6 K H(Ku, Kv).
    """
    return -_derived(hw, (P, Q, R))


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


def _combination(g: PreLieAlgebra, rep: Representation, H: Cochain,
                 cochains: list, terms: list) -> Cochain:
    """The sum of coefficient * bracket over ``terms``, evaluated exactly.

    Each term is (Fraction coefficient, indices into ``cochains``): two
    indices name a binary bracket, three a ternary one.  The two
    structures on W are built once and lifted to ints with the cochains
    by one `scalars.lift`; each bracket runs on the ints, is divided
    exactly by the denominator of its coefficient and mapped back with
    ``down`` (a binary bracket is homogeneous of degree 3 in the lifted
    scalars, a ternary one of degree 4), and the terms are summed in the
    field.
    """
    field = g.field
    structures = [untwisted_structure(g, rep), cocycle_structure(g, rep, H)]
    lifted, down = lift(field, [c.values for c in structures + cochains])
    mu, hw, *cochains = [Cochain(INTEGERS, c.degree, c.dim_source, c.dim_target, v)
                         for c, v in zip(structures + cochains, lifted)]
    acc = None
    for coeff, idxs in terms:
        args = [cochains[i] for i in idxs]
        c = derived_bracket(mu, *args) if len(args) == 2 else ternary_bracket(hw, *args)
        a, b = coeff.numerator, coeff.denominator
        term = Cochain(field, c.degree, c.dim_source, c.dim_target,
                       [down([_divide_exactly(x, b) * a for x in v], len(args) + 1)
                        for v in c.values])
        acc = term if acc is None else acc + term
    return acc


def mc_residual(g: PreLieAlgebra, rep: Representation, H: Cochain,
                K: Matrix) -> Cochain:
    """The Maurer-Cartan functional 1/2 [[K,K]] - 1/6 [[K,K,K]] at K."""
    return _combination(g, rep, H, [Cochain.from_matrix(K)],
                        [(Fraction(1, 2), (0, 0)), (Fraction(-1, 6), (0, 0, 0))])


def check_maurer_cartan(g: PreLieAlgebra, rep: Representation, H: Cochain,
                        K: Matrix) -> Report:
    """Does K satisfy the Maurer-Cartan equation of the graded structure?

    H must be a 2-cocycle, since the graded structure needs dH = 0.
    Agrees with `check_rcw_reynolds` on every input; the agreement is the
    executable form of the characterization theorem.
    """
    _require_cocycle(g, rep, H)
    if K.rows != g.dim or K.cols != rep.dim_v:
        raise ShapeError("operator has the wrong shape")
    return _cochain_report(mc_residual(g, rep, H, K))


def d_K(data: ReynoldsData, f: Cochain) -> Cochain:
    """The twisted differential d_K f = [[K, f]] - 1/2 [[K, K, f]].

    Squares to zero and equals (-1)^{n-1} times the operator-cohomology
    differential on degree-n cochains.
    """
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    if f.dim_source != rep.dim_v or f.dim_target != g.dim:
        raise ShapeError("cochain must map the module to the algebra")
    # cochains: 0 = K, 1 = f
    return _combination(g, rep, H, [Cochain.from_matrix(K), f],
                        [(Fraction(1), (0, 1)), (Fraction(-1, 2), (0, 0, 1))])


def dk_difference(data: ReynoldsData, degree: int) -> Cochain:
    """d_K f - (-1)^{n-1} d f on the generic degree-n cochain f.

    Both sides are linear in f, so each output coordinate is a linear
    `Poly` whose coefficient on x_c is column c of the difference of the
    two differentials; the identity holds exactly when every coordinate
    is zero.
    """
    g, rep = data.algebra, data.rep
    # the coordinate (key p, target t) of f is the variable x_c, c = p * m + t,
    # so column c is the basis cochain at that coordinate
    m, one = g.dim, g.field.one
    n_keys = cochain_space_dim(rep.dim_v, 1, degree)  # rejects degree < 1
    f = Cochain(g.field, degree, rep.dim_v, m,
                [[Poly({(p * m + t,): one}) for t in range(m)] for p in range(n_keys)])
    d = operator_coboundary(data, f)
    return d_K(data, f) - (d if degree % 2 else -d)


def twisted_mc_residual(data: ReynoldsData, K2: Matrix) -> Cochain:
    """d_K(K') + 1/2 ([[K',K']] - [[K,K',K']]) - 1/6 [[K',K',K']].

    Vanishes iff K + K' satisfies the Reynolds identity; this is the
    Maurer-Cartan equation of the structure twisted by K.
    """
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    if K2.rows != g.dim or K2.cols != rep.dim_v:
        raise ShapeError("operator has the wrong shape")
    # cochains: 0 = K, 1 = K'
    return _combination(
        g, rep, H, [Cochain.from_matrix(K), Cochain.from_matrix(K2)],
        [(Fraction(1), (0, 1)), (Fraction(-1, 2), (0, 0, 1)),
         (Fraction(1, 2), (1, 1)), (Fraction(-1, 2), (0, 1, 1)),
         (Fraction(-1, 6), (1, 1, 1))])


def check_twisted_mc(data: ReynoldsData, K2: Matrix) -> Report:
    """Maurer-Cartan test in the structure twisted by a verified operator.

    Passes iff K + K' is again a Reynolds operator for the same weight.
    """
    return _cochain_report(twisted_mc_residual(data, K2))
