"""Test-only oracles: hand-expanded comparators the library does not need.

`explicit_coboundary` expands the operator differential into one closed
formula.  Hand-expanding it is error-prone in exactly three spots: the
action fed into the last slot of f (left versus right), the summation
over the omitted slot in the Rbar group (easily collapsed to its last
term), and the range and sign of the bracket double sum.  It implements
both readings of each spot, and `compare_explicit_paths` reports which
readings match the generic path, so a wrong expansion is localized to the
term group that caused it.

`verify_polynomial_system` sweeps every 3x3 operator over F_p on the
worked 3-dimensional bundle and compares the equations that
`field_equations` compiles from the Reynolds checker with a
hand-derived polynomial system.

`coboundary_at` is the coboundary formula evaluated term by term at one
tuple of basis indices, on the cochain's own scalars, and
`field_coboundary` the coboundary the library computed with it before
it assembled block rows on integers.  `block_rows` is that assembly,
the sparse rows of the coboundary matrix, and `rows_cohomology` the
route `cochain.integer_cohomology` took on them before it ran
bottom-up on columns: d_{k-1} and d_k ranked in full by
`linalg.integer_rank`, and d o d = 0 checked on the whole product
d_k d_{k-1} (`linalg.sparse_mul`).
`generic_cochain` is the cochain whose coordinates are the variables of
`scalars.Poly`, on which any linear expression in f yields its matrix
rows.  `field_induced_representation` is the induced representation of
an operator as the library built it before it used one integer lift:
the induced product and Lbar, Rbar evaluated on the field scalars.

`cochain_eval` evaluates a cochain at vector arguments, one pass over
their nonzero coordinates (the library's `Cochain.eval` before its last
caller, the dense `diamond`, left `src/`); `expanded_eval` is the
multilinear expansion over the full basis, zero coordinates included,
its reference.

`act_L` and `act_R` apply the actions of a representation to an element
of the algebra and a vector, sum_i x_i L_{e_i} u, the evaluator the
library kept on `Representation` before it read every action off the
twisted semidirect product (`reynolds.graph_frame`).  On them,
`field_induced_table` expands the induced product u ._K v =
L_{Ku} v + R_{Kv} u + H(Ku, Kv) and `field_deformed_table` the deformed
product x ._N y = Nx.y + x.Ny - N(x.y), both on field scalars: the
references for every table the library reads off the integer lift.
`field_check_rcw_morphism` is `reynolds.check_rcw_morphism` with each
condition written out by hand on those actions, as the library had it
before it read four of them off one morphism of semidirect products.

`field_equations` is the search's compile as the library ran it before
it compiled on the predicate's integer core: the field checker run on
the generic candidate (free entry k the `Poly` x_k over the field),
its nonzero residual coordinates as equations on field scalars, and
their lift with the domain and the fixed entries, each term homogenised
to its equation's top degree T by a factor D^(T - degree).
`dense_sweep` is the sweep `search.exhaustive_search` ran before it
pruned prefixes on integers: every candidate of `itertools.product`,
the field equations evaluated on the field scalars (`vanish`), and
each candidate decided again by `field_checker`, which must agree.

`operator_identity` evaluates K e_i . K e_j - K(table[i][j]) on all
pairs, on field scalars: the morphism identity that
`algebra.morphism_defects` evaluates on ints, with the opposite sign.
`field_reynolds_report` and `field_check_nijenhuis` are the Reynolds and Nijenhuis identities as
the library evaluated them before it prepared each checker once on the
integer lift (`reynolds.reynolds_checker`, `nsprelie.nijenhuis_checker`):
the derived table of the candidate built on the field scalars (the
induced, resp. deformed, product) and `operator_identity` on it.
`star_table`, `field_check_weighted_reynolds` and
`field_check_d_reynolds` are the weighted and D-Reynolds identities the
same way, as the library had them before it read both as rcw
identities on the regular representation.  `field_checker` is the
checker of a search predicate on field scalars: these four for
`rcw-reynolds`, `nijenhuis`, `weighted-reynolds` and `d-reynolds`, the
library's own for `nijenhuis-element`.

`dense_rref` and `scalar_sparse_rank` are the elimination loops the
library ran before its integer engine: Gauss-Jordan on the dense field
scalars, and sparse forward elimination on them.  `dense_kernel`,
`dense_solve` and `dense_inverse` read their answers off `dense_rref`.

`infinitesimal` is the first coefficient of a verified deformation
series with its cocycle verdict, which the library exported while no
command read it; it raises `UnverifiedSeriesError` on a series that
fails its coefficient identities.  `two_pass_induced_check` is the
re-verification of an operator's induced pair as
`opcohomology._induced_arrays` ran it before it read both identities off
one pass: `algebra.prelie_report` of the induced table, then
`algebra.representation_report` of (Lbar, Rbar), each its own pass.

`dense_semidirect_tensor` is the twisted semidirect product on g + V
written out densely, as the library built it before it read the
nonzero rows straight off the arrays (`algebra.semidirect_rows`).  On
it, `full_representation_report` evaluates both representation
identities at every (x, y, u), as the library did before it evaluated
the antisymmetric left identity at x < y only, and
`coboundary_check_two_cocycle` is `cochain.check_two_cocycle` as the
library had it before it read dH off the pre-Lie defect of g + V: the
coboundary dH, evaluated at every basis triple.  `untwisted_structure`
and `cocycle_structure` build mu + L + R and the lift of H to W = g + V
on the field scalars, as degree-2 cochains (`tensor_cochain`), the
structures the derived brackets take; the library reads both off the
lifted rows of g + V twisted by H (`brackets._structure_tables`).
`candidate` is one search candidate from its free entries.

`field_check_prelie`, `field_check_jacobi`, `field_check_representation`
and `field_check_ns_prelie` are the axiom checkers as the library wrote
them before it lifted the structure constants to integers: the same
formulas evaluated directly on the field scalars.  `field_check_derivation`
is the derivation identity written out the same way, as the library had
it before it read the identity as dD = 0 in the regular representation.

`four_term_prelie_defects` is the pre-Lie kernel as the library wrote it
before it read the identity in commutator form: (a.b).c - a.(b.c) -
(b.a).c + b.(a.c), four products per triple, no commutator row shared
between triples (`algebra.prelie_defects`).

`basis_dk_columns` is the loop that `dk-consistency` ran before it read
the identity d_K f = (-1)^{n-1} d f off one generic evaluation
(`brackets.dk_difference`): d_K on every basis cochain, compared with
the column of the dense operator differential.

`full_space_diamond` is the composition product as the library filled it
before it scattered the nonzero entries (`brackets._scatter`): every
key of C(X, X), a sum over the unshuffles of `unshuffles`, with P
evaluated at the vector Q(...) by `cochain_eval`;
`full_space_mn_bracket` is the bracket on it.  `lift_operator_cochain`
and `full_space_derived` are the derived-bracket route the library ran
before it built each nesting level sparsely: every operator cochain
lifted to C(W, W), W = g + V, the nested `full_space_mn_bracket` filled
on every key of W, then evaluated on V-basis tuples with the
g-coordinates kept.  The route shares no code with `_scatter`, so a
sign error there cannot cancel out of a comparison.
`full_space_derived_bracket` and `full_space_ternary_bracket` add the
signs of `derived_bracket` and `ternary_bracket`.

`field_mc_residual`, `field_d_K` and `field_twisted_mc_residual` are the
bracket combinations as the library evaluated them over Q and F_p,
p >= 5, before it ran every field on the integer lift: each bracket in
the field's own scalars, on the full-space route, scaled by its
coefficient there.  Over F_2 and F_3 the coefficients 1/2 and 1/6 do not
exist, so they do not apply.

`check_prelie_via_bracket` and `product_cochain` read the pre-Lie axiom
off the Matsushima-Nijenhuis bracket ([pi, pi] = 0), an independent
route to `algebra.check_prelie`.  `sparse_rank` is the exact rank of
sparse field rows by `dense_rank`, textbook Gaussian elimination on the
dense field scalars, which shares no code with `linalg.integer_rank`.
`integer_rows` lifts sparse field rows to ints row by row (each row
scaled by the lcm of its own denominators, the lift `Matrix.rref` used
before it took `scalars.lift`), and `enumerate_unshuffles` the checked enumeration
of the unshuffles that `unshuffles` caches, each as an `Unshuffle`
record with its ``perm`` and ``sign``.

`literal_element_groups` is the paper's closed form of the Nijenhuis
element conditions, which the library decided with before it read them
off `check_rcw_morphism` in t.  On the algebra part at order t it
demands (y.z).x = 0, where the morphism condition asks only
P(y.z) - P(y).z - y.P(z) = -((y.z).x - y.(z.x)) = 0 with P = L_x - R_x.
Every element it accepts (with the Rbar condition) must still be a
Nijenhuis element.

`in_t_element_checks` is the route the library decided Nijenhuis
elements and equivalences with before it read both orders off two
integer evaluations of `algebra.morphism_defects`: the element maps
mapped back to the field (`element_maps`), phi_t = id + tP and
psi_t = id + tS built as matrices polynomial in t (`deformation._in_t`),
the Matrix-level `reynolds.morphism_checker` run once on them, and the
t and t^2 coefficient of every residual read off with
`deformation._order`; the Rbar condition runs on the field scalars.

`tensor_mul` is the bilinear extension of structure constants to
coordinate vectors, one dense pass per product, and `mul` and `basis`
read it and the unit vectors off an algebra: the field-level product
the library kept on `PreLieAlgebra` (and ran on a bare ring of ints)
before `algebra.family_products` became its only product of vectors.
`field_is_unit` is the unit check of `PreLieAlgebra` on that product.
`derived_tensor` tabulates e_i o e_j off the columns of a map, as the
library built the NS-pre-Lie tables before it read them off that kernel.

`left_mult`, `right_mult` and `bracket` are the multiplication matrices
y -> x.y, y -> y.x and the commutator x.y - y.x of a pre-Lie algebra,
which the library kept as methods of `PreLieAlgebra` although no
command used them.  `heap_order` is the fail-first variable order of
`search._order` kept by a heap with lazy entries, as the library had it
before it picked each variable by a plain minimum.

`two_walk_lift` is `scalars.lift` as the library had it before its walk
read each rational once (`as_integer_ratio`, no product at D = 1): one
walk at D = 1 that collects every denominator, 1 included, and a second
at their lcm when that is not 1.  `fraction_parse` is `field.parse` as
the library had it before it read "n", "-n" and "n/d" with `int`: every
string through `Fraction(s.strip())`, over F_p mapped into the field.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, product
from math import lcm

from prelie import brackets
from prelie.algebra import (
    Order,
    PreLieAlgebra,
    Report,
    Representation,
    _as_tensor,
    _combine,
    int_basis,
    lifted_report,
    nonzero_rows,
    prelie_defects,
    prelie_report,
    regular_representation,
    representation_report,
    residual_report,
)
from prelie.cochain import (
    Cochain,
    _check_map_to_module,
    _semidirect_arrays,
    _sort_with_sign,
    coboundary,
    cochain_keys,
    cochain_space_dim,
    twisted_rows,
)
from prelie.deformation import (
    DeformationSeries,
    _ElementTerms,
    _in_t,
    _order,
    check_formal_deformation,
    is_cocycle,
)
from prelie.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvariantError,
    ShapeError,
    UnverifiedError,
)
from prelie.linalg import (
    _matrix,
    Matrix,
    add_vec,
    basis_vec,
    integer_rank,
    is_zero_vec,
    neg_vec,
    scale_vec,
    sparse_mul,
    sub_vec,
    zero_vec,
)
from prelie.opcohomology import operator_coboundary, operator_coboundary_matrix
from prelie.reynolds import (
    ReynoldsData,
    _check_operator_shape,
    morphism_checker,
    operator_frames,
)
from prelie.scalars import FpElement, Poly, PrimeField, descend, lift
from prelie.search import DEFAULT_BUDGET, PREDICATES, SearchSpec


def tensor_mul(field, tensor, x, y) -> tuple:
    """Bilinear extension of the structure constants to coordinates."""
    n = len(tensor)
    out = [field.zero] * n
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        for j in range(n):
            yj = y[j]
            if not yj:
                continue
            c = xi * yj
            row = tensor[i][j]
            for k in range(n):
                if row[k]:
                    out[k] = out[k] + c * row[k]
    return tuple(out)


def mul(a: PreLieAlgebra, x, y) -> tuple:
    """The product x.y of two coordinate vectors of a."""
    return tensor_mul(a.field, a.product, x, y)


def basis(a: PreLieAlgebra, i: int) -> tuple:
    """The basis vector e_i of a."""
    return basis_vec(a.field, a.dim, i)


def field_is_unit(a: PreLieAlgebra, unit) -> bool:
    """u.e_i = e_i = e_i.u at every basis vector: the unit check of `PreLieAlgebra`
    on field scalars."""
    return all(mul(a, unit, e) == e == mul(a, e, unit)
               for e in (basis(a, i) for i in range(a.dim)))


def derived_tensor(K: Matrix, op) -> tuple:
    """The table of e_i o e_j on the source basis of K, as ``op(i, j, K e_i, K e_j)``."""
    cols = [K.column(i) for i in range(K.cols)]
    return tuple(tuple(op(i, j, Ki, Kj) for j, Kj in enumerate(cols))
                 for i, Ki in enumerate(cols))


def _act(mats, x, u) -> tuple:
    """sum_i x_i M_i u in one pass over the nonzero entries of x and u."""
    nonzero = [(k, uk) for k, uk in enumerate(u) if uk]
    out = [None] * len(u)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for r, row in enumerate(mats[i].data):
            for k, uk in nonzero:
                a = row[k]
                if a:
                    term = xi * (a * uk)
                    s = out[r]
                    out[r] = term if s is None else s + term
    zero = mats[0].field.zero
    return tuple(zero if s is None else s for s in out)


def act_L(rep: Representation, x, u) -> tuple:
    """L_x u for a coordinate vector x in the algebra and u in V."""
    return _act(rep.L, x, u)


def act_R(rep: Representation, x, u) -> tuple:
    """R_x u for a coordinate vector x in the algebra and u in V."""
    return _act(rep.R, x, u)


def field_induced_table(g: PreLieAlgebra, rep: Representation, H: Cochain,
                        K: Matrix) -> tuple:
    """u ._K v = L_{Ku} v + R_{Kv} u + H(Ku, Kv) on V-basis indices, on field scalars."""
    m = rep.dim_v
    e = [basis_vec(g.field, m, u) for u in range(m)]
    cols = [K.column(u) for u in range(m)]
    return tuple(tuple(add_vec(add_vec(act_L(rep, cols[u], e[v]), act_R(rep, cols[v], e[u])),
                               cochain_eval(H, [cols[u], cols[v]]))
                       for v in range(m)) for u in range(m))


def field_deformed_table(g: PreLieAlgebra, N: Matrix) -> tuple:
    """x ._N y = Nx.y + x.Ny - N(x.y) on basis indices, on field scalars."""
    if N.rows != g.dim or N.cols != g.dim:
        raise ShapeError(f"operator is {N.rows}x{N.cols}, algebra dim {g.dim}")
    e = [basis(g, i) for i in range(g.dim)]
    return derived_tensor(N, lambda i, j, Nx, Ny: sub_vec(
        add_vec(mul(g, Nx, e[j]), mul(g, e[i], Ny)), N.apply(g.product[i][j])))


def explicit_coboundary(data: ReynoldsData, f: Cochain, *,
                        right_slot: str = "expanded",
                        collapsed_group: str = "expanded",
                        bracket_group: str = "expanded") -> Cochain:
    """Closed-form expansion of the operator differential, term by term.

    Each flag selects a reading of one fragile spot ("expanded" is the
    faithful expansion of the generic path, "variant" the alternate
    reading that a hand expansion can slip into):

    * ``right_slot``: the product fed into f's last slot is
      L_{Ku_i} u_{n+1} + R_{Ku_{n+1}} u_i + H(Ku_i, Ku_{n+1}) when
      expanded; the variant swaps the middle term to L_{Ku_{n+1}} u_i.
    * ``collapsed_group``: the terms produced by Rbar carry a sum over
      the omitted slot i with sign (-1)^{i+1} when expanded; the variant
      keeps only the i = n slice.
    * ``bracket_group``: the double sum runs over 1 <= i < j <= n with
      sign (-1)^{i+j} when expanded; the variant runs to n+1 with
      sign (-1)^i.
    """
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    if f.dim_source != rep.dim_v or f.dim_target != g.dim:
        raise ShapeError("cochain must map the module to the algebra")
    field = g.field
    n = f.degree
    m = rep.dim_v

    def kcol(u):
        return K.column(u)

    def ev(u):
        return basis_vec(field, m, u)

    def prod_k(u_idx, v_idx):
        # u ._K v as a vector in V for basis indices
        val = add_vec(act_L(rep, kcol(u_idx), ev(v_idx)),
                      act_R(rep, kcol(v_idx), ev(u_idx)))
        return add_vec(val, cochain_eval(H, [kcol(u_idx), kcol(v_idx)]))

    values = []
    for fb, last in cochain_keys(m, n + 1):
        head = list(fb)
        out = zero_vec(field, g.dim)

        # group coming from Lbar: three sums over the omitted slot
        for i in range(n):
            sgn = 1 if i % 2 == 0 else -1
            omitted = head[:i] + head[i + 1:]
            fv = f.eval_basis(tuple(omitted) + (last,))
            term = mul(g, kcol(head[i]), fv)
            term = sub_vec(term, K.apply(act_R(rep, fv, ev(head[i]))))
            term = sub_vec(term, K.apply(cochain_eval(H, [kcol(head[i]), fv])))
            out = add_vec(out, term) if sgn == 1 else sub_vec(out, term)

        # group coming from Rbar
        if collapsed_group == "expanded":
            slots = range(n)
        else:
            slots = [n - 1]
        for i in slots:
            sgn = 1 if i % 2 == 0 else -1
            omitted = head[:i] + head[i + 1:]
            fv = f.eval_basis(tuple(omitted) + (head[i],))
            term = mul(g, fv, kcol(last))
            term = sub_vec(term, K.apply(act_L(rep, fv, ev(last))))
            term = sub_vec(term, K.apply(cochain_eval(H, [fv, kcol(last)])))
            out = add_vec(out, term) if sgn == 1 else sub_vec(out, term)

        # the product pushed into f's last slot
        for i in range(n):
            sgn = 1 if i % 2 == 0 else -1
            omitted = head[:i] + head[i + 1:]
            if right_slot == "expanded":
                prod = prod_k(head[i], last)
            else:
                prod = add_vec(act_L(rep, kcol(head[i]), ev(last)),
                               act_L(rep, kcol(last), ev(head[i])))
                prod = add_vec(prod, cochain_eval(H, [kcol(head[i]), kcol(last)]))
            term = cochain_eval(f, list(omitted) + [prod])
            out = sub_vec(out, term) if sgn == 1 else add_vec(out, term)

        # the bracket double sum, into f's first slot
        full = head + [last]
        if bracket_group == "expanded":
            for i in range(n):
                for j in range(i + 1, n):
                    sgn = 1 if (i + j) % 2 == 0 else -1
                    br = sub_vec(prod_k(head[i], head[j]), prod_k(head[j], head[i]))
                    rest = [head[k] for k in range(n) if k not in (i, j)]
                    term = cochain_eval(f, [br] + rest + [last])
                    out = add_vec(out, term) if sgn == 1 else sub_vec(out, term)
        else:
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    sgn = -1 if i % 2 == 0 else 1  # (-1)^{i+1} for 1-based i
                    br = sub_vec(prod_k(full[i], full[j]), prod_k(full[j], full[i]))
                    rest = [full[k] for k in range(n + 1) if k not in (i, j)]
                    term = cochain_eval(f, [br] + rest)
                    out = add_vec(out, term) if sgn == 1 else sub_vec(out, term)
        values.append(out)
    return Cochain(field, n + 1, m, g.dim, values)


def compare_explicit_paths(data: ReynoldsData, f: Cochain) -> dict:
    """Which closed-form term groups agree with the generic differential?

    Returns {"expanded": bool, "all_variants": bool, <group>: bool, ...}
    where a group entry is True when flipping only that group to its
    variant reading still matches the generic path (degenerate bundles
    can hide a variant; richer ones expose it).
    """
    generic = operator_coboundary(data, f)
    out = {
        "expanded": explicit_coboundary(data, f) == generic,
        "all_variants": explicit_coboundary(
            data, f, right_slot="variant", collapsed_group="variant",
            bracket_group="variant") == generic,
    }
    for group in ("right_slot", "collapsed_group", "bracket_group"):
        kwargs = {group: "variant"}
        out[group] = explicit_coboundary(data, f, **kwargs) == generic
    return out


# ---------------------------------------------------------------------------
# the 3-dimensional worked example: predicate vs. its polynomial system

# Polynomial system satisfied by K = (a_rc) on the algebra with
# e3.e3 = e2, regular representation, and weight H(e3,e3) = e3; one group
# of three component equations per unordered basis pair.  Variables are
# 0-based: a[r][c] is the entry in row r, column c.

def _g3_polynomials(a):
    a11, a12, a13 = a[0]
    a21, a22, a23 = a[1]
    a31, a32, a33 = a[2]
    return [
        a31 * a31 * a13,
        a31 * a31 - a31 * a31 * a23,
        a31 * a31 * a33,
        a32 * a32 * a13,
        a32 * a32 - a32 * a32 * a23,
        a32 * a32 * a33,
        a33 * a33 * a13 + 2 * a33 * a12,
        a33 * a33 - (a33 * a33 * a23 + 2 * a33 * a22),
        a33 * a33 * a33 + 2 * a33 * a32,
        a31 * a32 * a13,
        a31 * a32 - a31 * a32 * a23,
        a31 * a32 * a33,
        a31 * a33 * a13 + a31 * a12,
        a31 * a33 - (a31 * a33 * a23 + a31 * a22),
        a31 * a33 * a33 + a31 * a32,
        a32 * a33 * a13 + a32 * a12,
        a32 * a33 - (a32 * a33 * a23 + a32 * a22),
        a32 * a33 * a33 + a32 * a32,
    ]


def coboundary_at(a: PreLieAlgebra, rep: Representation, f: Cochain, args) -> tuple:
    """The coboundary formula evaluated at an arbitrary basis-index tuple.

    For f of degree n and arguments x_1, ..., x_{n+1}:

      sum_i (-1)^{i+1} L_{x_i} f(..., x_i omitted, ..., x_{n+1})
    + sum_i (-1)^{i+1} R_{x_{n+1}} f(..., x_i omitted, ..., x_n, x_i)
    - sum_i (-1)^{i+1} f(..., x_i omitted, ..., x_n, x_i . x_{n+1})
    + sum_{i<j<=n} (-1)^{i+j} f([x_i, x_j], ..., x_i, x_j omitted, ..., x_{n+1})

    with i running over 1..n.  The result is antisymmetric in the first
    n arguments.
    """
    n = f.degree
    if len(args) != n + 1:
        raise ShapeError(f"expected {n + 1} arguments")
    out = zero_vec(a.field, f.dim_target)
    last = args[-1]
    head = list(args[:-1])
    for i in range(n):
        sign = 1 if i % 2 == 0 else -1
        omitted = head[:i] + head[i + 1:]
        fv = f.eval_basis(tuple(omitted) + (last,))
        term = act_L(rep, basis(a, head[i]), fv)
        out = add_vec(out, term if sign == 1 else neg_vec(term))

        fv2 = f.eval_basis(tuple(omitted) + (head[i],))
        term = act_R(rep, basis(a, last), fv2)
        out = add_vec(out, term if sign == 1 else neg_vec(term))

        prod = a.product[head[i]][last]
        term = cochain_eval(f, list(omitted) + [prod])
        out = sub_vec(out, term) if sign == 1 else add_vec(out, term)
    for i in range(n):
        for j in range(i + 1, n):
            sign = 1 if (i + j) % 2 == 0 else -1  # (-1)^{(i+1)+(j+1)} = (-1)^{i+j}
            br = bracket(a, basis(a, head[i]), basis(a, head[j]))
            rest = [head[k] for k in range(n) if k not in (i, j)]
            term = cochain_eval(f, [br] + rest + [last])
            out = add_vec(out, term) if sign == 1 else sub_vec(out, term)
    return out


def field_coboundary(a: PreLieAlgebra, rep: Representation, f: Cochain) -> Cochain:
    """The coboundary of f, `coboundary_at` once per canonical key."""
    degree = f.degree + 1
    return Cochain(a.field, degree, a.dim, rep.dim_v,
                   [coboundary_at(a, rep, f, fb + (last,))
                    for fb, last in cochain_keys(a.dim, degree)])


def block_rows(c, L, R, m: int, degree: int) -> list:
    """Sparse rows {column: coefficient} of the coboundary matrix on
    `algebra.action_arrays` (module dim m), one m x m block per term and key."""
    n = len(c)
    index = {key: pos for pos, key in enumerate(cochain_keys(n, degree))}

    def nonzero(M):
        return [(t, s, x) for t, row in enumerate(M) for s, x in enumerate(row) if x]

    def add_block(acc, entries, base, negate):
        for t, s, x in entries:
            acc[t][base + s] = acc[t].get(base + s, 0) + (-x if negate else x)

    def add_diagonal(acc, x, base):
        for t, row in enumerate(acc):
            row[base + t] = row.get(base + t, 0) + x

    L = [nonzero(M) for M in L]
    R = [nonzero(M) for M in R]
    rows = []
    for fb, last in cochain_keys(n, degree + 1):
        acc = [{} for _ in range(m)]
        for i, x in enumerate(fb):
            odd = i % 2 == 1
            rest = fb[:i] + fb[i + 1:]
            add_block(acc, L[x], index[(rest, last)] * m, odd)
            add_block(acc, R[last], index[(rest, x)] * m, odd)
            for k, ck in enumerate(c[x][last]):
                if ck:
                    add_diagonal(acc, ck if odd else -ck, index[(rest, k)] * m)
        for i in range(degree):
            for j in range(i + 1, degree):
                x, y = fb[i], fb[j]
                rest = fb[:i] + fb[i + 1:j] + fb[j + 1:]
                for k, (cxy, cyx) in enumerate(zip(c[x][y], c[y][x])):
                    bk = cxy - cyx
                    norm = _sort_with_sign((k,) + rest) if bk else None
                    if norm is not None:
                        sign, key = norm
                        if (i + j) % 2:
                            sign = -sign
                        add_diagonal(acc, bk if sign == 1 else -bk, index[(key, last)] * m)
        rows.extend({j: v for j, v in row.items() if v} for row in acc)
    return rows


def rows_cohomology(c, L, R, m: int, p: int, degree: int) -> tuple:
    """(dim Z, dim B, dim H) at ``degree`` on integer `block_rows`, mod p if p > 0:
    both maps ranked in full, d o d = 0 checked on their whole product."""
    def rows(k):
        out = block_rows(c, L, R, m, k)
        return [{j: r for j, v in row.items() if (r := v % p)} for row in out] if p else out

    d_n = rows(degree)
    dim_b = 0
    if degree > 1:
        d_prev = rows(degree - 1)
        if any(sparse_mul(d_n, d_prev, p)):
            raise InvariantError("coboundary does not square to zero")
        dim_b = integer_rank(d_prev, p)
    dim_z = cochain_space_dim(len(c), m, degree) - integer_rank(d_n, p)
    return dim_z, dim_b, dim_z - dim_b


def generic_cochain(field, degree: int, dim_source: int, dim_target: int) -> Cochain:
    """The cochain whose coordinate (key p, target t) is the variable x_{p*m+t}."""
    one = field.one
    m = dim_target
    n_keys = cochain_space_dim(dim_source, 1, degree)
    return Cochain(field, degree, dim_source, dim_target,
                   [[Poly({(p * m + t,): one}) for t in range(m)] for p in range(n_keys)])


def field_induced_representation(data: ReynoldsData) -> Representation:
    """The induced representation, built on the field scalars of the bundle."""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    n, m = g.dim, rep.dim_v
    field = g.field
    base = PreLieAlgebra(field, field_induced_table(g, rep, H, K))
    Lbar, Rbar = [], []
    for u in range(m):
        Ku = K.column(u)
        eu = basis_vec(field, m, u)
        lcols, rcols = [], []
        for x in range(n):
            ex = basis(g, x)
            lv = sub_vec(mul(g, Ku, ex), K.apply(act_R(rep, ex, eu)))
            lcols.append(sub_vec(lv, K.apply(cochain_eval(H, [Ku, ex]))))
            rv = sub_vec(mul(g, ex, Ku), K.apply(act_L(rep, ex, eu)))
            rcols.append(sub_vec(rv, K.apply(cochain_eval(H, [ex, Ku]))))
        Lbar.append(Matrix.from_columns(field, lcols, n))
        Rbar.append(Matrix.from_columns(field, rcols, n))
    return Representation(base, n, Lbar, Rbar)


def cochain_eval(f: Cochain, args) -> tuple:
    """Multilinear evaluation of f; each argument is a basis index or a vector.

    One pass: every combination of the vectors' nonzero coordinates is
    evaluated on the basis and accumulated, scaled by the product of
    its coefficients.
    """
    if len(args) != f.degree:
        raise ShapeError(f"expected {f.degree} arguments, got {len(args)}")
    expanded = [((a, None),) if isinstance(a, int)
                else [(i, c) for i, c in enumerate(a) if c] for a in args]
    out = [None] * f.dim_target
    for combo in product(*expanded):
        coeff = None
        for _, c in combo:
            if c is not None:
                coeff = c if coeff is None else coeff * c
        v = f.eval_basis(tuple(i for i, _ in combo))
        for t, x in enumerate(v):
            if x:
                term = x if coeff is None else coeff * x
                s = out[t]
                out[t] = term if s is None else s + term
    zero = f.field.zero
    return tuple(zero if s is None else s for s in out)


def expanded_eval(f: Cochain, args) -> tuple:
    """f at ``args`` (basis indices or vectors), basis tuple by basis tuple.

    The sum, over every tuple of basis indices, of the product of the
    arguments' coordinates there times f on that tuple.
    """
    field = f.field
    ranges = [[(a, field.one)] if isinstance(a, int) else list(enumerate(a)) for a in args]
    out = zero_vec(field, f.dim_target)
    for combo in product(*ranges):
        coeff = field.one
        for _, c in combo:
            coeff = coeff * c
        v = f.eval_basis(tuple(i for i, _ in combo))
        out = tuple(s + coeff * x for s, x in zip(out, v))
    return out


def operator_identity(g: PreLieAlgebra, K: Matrix, table) -> Report:
    """K e_i . K e_j - K(table[i][j]) on all pairs of source basis indices.

    K is a morphism from the product ``table`` to g, so this is the
    morphism identity of `algebra.morphism_defects` as the library
    evaluated it before it ran on the integer lift: on field scalars,
    with the sign K(x).K(y) - K(x o y).
    """
    cols = [K.column(i) for i in range(K.cols)]
    return residual_report(
        ((i, j), sub_vec(tensor_mul(g.field, g.product, Ki, Kj), K.apply(table[i][j])))
        for i, Ki in enumerate(cols) for j, Kj in enumerate(cols))


def star_table(g: PreLieAlgebra, K: Matrix, weight) -> tuple:
    """The star product x*y = x.K(y) + K(x).y + weight K(x).K(y) on basis indices."""
    if K.rows != g.dim or K.cols != g.dim:
        raise ShapeError(f"operator is {K.rows}x{K.cols}, expected {g.dim}x{g.dim}")
    lam, e = g.field(weight), [basis(g, i) for i in range(g.dim)]
    return derived_tensor(K, lambda i, j, Kx, Ky: add_vec(
        add_vec(mul(g, e[i], Ky), mul(g, Kx, e[j])), scale_vec(lam, mul(g, Kx, Ky))))


def field_check_weighted_reynolds(g: PreLieAlgebra, K: Matrix, weight) -> Report:
    """K(x).K(y) = K(x*y) on all basis pairs, on field scalars."""
    return operator_identity(g, K, star_table(g, K, weight))


def field_check_d_reynolds(g: PreLieAlgebra, D: Matrix, K: Matrix) -> Report:
    """K(x).K(y) = K(K(x).y + x.K(y) - (K(x).D(1)).K(y)) on basis pairs, on field scalars."""
    unit = g.require_unit()
    if D.rows != g.dim or D.cols != g.dim or K.rows != g.dim or K.cols != g.dim:
        raise ShapeError("operator shapes must match the algebra dimension")
    d1 = D.apply(unit)
    e = [basis(g, i) for i in range(g.dim)]
    return operator_identity(g, K, derived_tensor(K, lambda i, j, Kx, Ky: sub_vec(
        add_vec(mul(g, Kx, e[j]), mul(g, e[i], Ky)), mul(g, mul(g, Kx, d1), Ky))))


def field_reynolds_report(g: PreLieAlgebra, rep: Representation, H: Cochain,
                          K: Matrix) -> Report:
    """The Reynolds identity on all V-basis pairs, for an already verified H, on field scalars."""
    _check_operator_shape(g, rep, K)
    return operator_identity(g, K, field_induced_table(g, rep, H, K))


def field_check_nijenhuis(g: PreLieAlgebra, N: Matrix) -> Report:
    """Nx.Ny = N(x ._N y) on all basis pairs, on field scalars."""
    return operator_identity(g, N, field_deformed_table(g, N))


def field_checker(spec: SearchSpec):
    """The checker of ``spec``'s predicate on field scalars (see the module docstring)."""
    b = spec.bundle
    if spec.predicate == "rcw-reynolds":
        return partial(field_reynolds_report, b["algebra"], b["rep"], b["cocycle"])
    if spec.predicate == "nijenhuis":
        return partial(field_check_nijenhuis, b["algebra"])
    if spec.predicate == "weighted-reynolds":
        return lambda K: field_check_weighted_reynolds(b["algebra"], K, b["weight"])
    if spec.predicate == "d-reynolds":
        return partial(field_check_d_reynolds, b["algebra"], b["operatorD"])
    return PREDICATES[spec.predicate](b)


def _placed(spec: SearchSpec, field, values) -> tuple:
    """The rows of the candidate whose free entries, in row-major order, are
    ``values``; the fixed entries coerced into ``field``."""
    rows, cols = spec.shape
    entries = [[field(spec.fixed.get((i, j), 0)) for j in range(cols)] for i in range(rows)]
    for (i, j), v in zip(spec.free_positions(), values):
        entries[i][j] = v
    return tuple(map(tuple, entries))


def candidate(spec: SearchSpec, values, field) -> Matrix:
    """The candidate whose free entries, in row-major order, are ``values``."""
    return Matrix(field, _placed(spec, field, values))


def field_equations(spec: SearchSpec, field) -> tuple:
    """The search's equations compiled on field scalars (see the module docstring).

    Returns (the equations over ``field``, their lift homogenised, the
    lifted domain): one equation per distinct nonzero residual coordinate
    of the checker at the generic candidate, in the order it found them,
    a nonzero scalar as a constant polynomial.  The lift is by the common
    denominator D of 1, the domain, the fixed entries and the coefficients
    (1 over F_p), and a homogenised equation is 0 (mod p) at the lifted
    entries of a candidate exactly when the field equation vanishes at it.
    """
    check = PREDICATES[spec.predicate](spec.bundle)
    generic = _placed(spec, field, [Poly({(k,): field.one}) for k in range(spec.free_count())])
    residuals = (x if isinstance(x, Poly) else Poly({(): x})
                 for _, residual in check(_matrix(field, generic, spec.shape[1])).violations
                 for x in residual if x)
    equations = list({frozenset(eq.terms.items()): eq for eq in residuals}.values())
    template = _placed(spec, field, ())
    (D, values, _, lifted), _ = lift(field, (field.one, [field(v) for v in spec.domain],
                                             template, equations))
    homogenised = []
    for eq in lifted:
        top = max(map(len, eq.terms))
        homogenised.append(Poly({mono: c * D ** (top - len(mono))
                                 for mono, c in eq.terms.items()}))
    return equations, homogenised, values


def poly_at(poly: Poly, values, zero):
    """The value of ``poly`` at x_i = values[i]; ``zero`` is the field's zero."""
    total = zero
    for mono, c in poly.terms.items():
        for i in mono:
            c = c * values[i]
        total = total + c
    return total


def vanish(equations, values, zero) -> bool:
    return all(not poly_at(eq, values, zero) for eq in equations)


def dense_sweep(spec: SearchSpec, field) -> list:
    """The solutions of ``spec`` from every candidate, in `product` order.

    Each candidate is decided by `field_equations` on field scalars and
    by `field_checker`; the two must agree.
    """
    equations = field_equations(spec, field)[0]
    check = field_checker(spec)
    zero = field.zero
    solutions = []
    for values in product([field(v) for v in spec.domain],
                          repeat=len(spec.free_positions())):
        K = candidate(spec, values, field)
        passes = check(K).ok
        assert vanish(equations, values, zero) == passes, \
            "the compiled equations and the field checker disagree"
        if passes:
            solutions.append(K)
    return solutions


@dataclass(frozen=True)
class PolynomialSystemReport:
    total: int
    solutions: int
    equivalent: bool
    mismatches: tuple


def verify_polynomial_system(field: PrimeField,
                             budget: int = DEFAULT_BUDGET) -> PolynomialSystemReport:
    """predicate(K) <=> the 18-equation polynomial system, exhaustively.

    Enumerates every 3x3 matrix over F_p on the worked 3-dimensional
    bundle and evaluates both the equations compiled from the Reynolds
    checker and the hand-derived polynomial system; any disagreement is
    returned (none are expected).
    """
    if not isinstance(field, PrimeField):
        raise ShapeError("the polynomial sweep needs a prime field")
    g = PreLieAlgebra.build(field, 3, {(2, 2, 1): 1})
    H = Cochain.from_entries(field, 2, 3, 3, {((2,), 2): (0, 0, 1)})
    spec = SearchSpec("rcw-reynolds",
                      {"algebra": g, "rep": regular_representation(g), "cocycle": H},
                      (3, 3), tuple(field.elements()))
    total = spec.count()
    if total > budget:
        raise BudgetExceededError(f"{total} candidates exceed the budget of {budget}")
    equations = field_equations(spec, field)[0]
    p, zero = field.p, field.zero
    mismatches = []
    solutions = 0
    for values in product(spec.domain, repeat=9):
        flat = tuple(x.value for x in values)
        a = [flat[0:3], flat[3:6], flat[6:9]]
        polys_ok = all(v % p == 0 for v in _g3_polynomials(a))
        pred_ok = vanish(equations, values, zero)
        if pred_ok:
            solutions += 1
        if polys_ok != pred_ok:
            mismatches.append((flat, pred_ok, polys_ok))
    return PolynomialSystemReport(total, solutions, not mismatches, tuple(mismatches))


# ---------------------------------------------------------------------------
# reference elimination on field scalars


def dense_rref(m: Matrix):
    """Reduced row echelon form by Gauss-Jordan on the dense entries.

    The pivot of a column is the first nonzero entry at or below the
    current row.  Returns (reduced rows as tuples, pivot columns).
    """
    rows = [list(row) for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r >= m.rows:
            break
        pr = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = m.field.one / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in rows], pivots


def dense_kernel(m: Matrix) -> tuple:
    red, pivots = dense_rref(m)
    vectors = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [m.field.zero] * m.cols
        v[fc] = m.field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        vectors.append(tuple(v))
    return tuple(vectors)


def dense_solve(m: Matrix, b: Matrix):
    """One solution x of m * x = b, or None if the system is inconsistent."""
    if b.rows != m.rows:
        raise DimensionMismatchError(f"rhs has {b.rows} rows, lhs has {m.rows}")
    red, pivots = dense_rref(Matrix(m.field, [r1 + r2 for r1, r2 in zip(m.data, b.data)],
                                    cols=m.cols + b.cols))
    if any(pc >= m.cols for pc in pivots):
        return None
    x = [[m.field.zero] * b.cols for _ in range(m.cols)]
    for r, pc in enumerate(pivots):
        x[pc] = red[r][m.cols:]
    return Matrix(m.field, x, cols=b.cols)


def dense_inverse(m: Matrix):
    n = m.rows
    eye = Matrix.identity(m.field, n)
    red, pivots = dense_rref(Matrix(m.field, [r1 + r2 for r1, r2 in zip(m.data, eye.data)],
                                    cols=2 * n))
    if pivots != list(range(n)):
        return None
    return Matrix(m.field, [row[n:] for row in red], cols=n)


def scalar_sparse_rank(rows) -> int:
    """Rank of sparse rows {column: scalar} by elimination on the scalars.

    Forward elimination in column order: the pivot of a column is the
    first row, in row order, nonzero there among the rows not yet used as
    pivots, and it clears that column from the rows starting there.
    """
    work = {}
    by_lead = {}
    for i, row in enumerate(rows):
        if row:
            work[i] = row
            by_lead.setdefault(min(row), []).append(i)
    heap = list(by_lead)
    heapq.heapify(heap)
    rank = 0
    while heap:
        c = heapq.heappop(heap)
        bucket = by_lead.pop(c)
        p = min(bucket)
        pivot = work.pop(p)
        rank += 1
        for i in bucket:
            if i == p:
                continue
            row = dict(work.pop(i))
            f = row[c] / pivot[c]
            for j, v in pivot.items():
                s = row.get(j, 0) - f * v
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
            if row:
                work[i] = row
                lead = min(row)
                if lead not in by_lead:
                    by_lead[lead] = []
                    heapq.heappush(heap, lead)
                by_lead[lead].append(i)
    return rank


def integer_rows(rows, p: int) -> list:
    """Sparse rows over Q (p = 0) or F_p, as sparse rows of Python ints.

    Over F_p an entry becomes its residue.  Over Q each row is multiplied
    by the lcm of its own denominators, which keeps its span.
    """
    if p:
        return [{j: x.value for j, x in row.items()} for row in rows]
    dens = [lcm(*(x.denominator for x in row.values())) for row in rows]
    return [{j: x.numerator * (d // x.denominator) for j, x in row.items()}
            for row, d in zip(rows, dens)]


def dense_rank(rows, cols: int) -> int:
    """Rank of dense rows of field scalars by textbook Gaussian elimination.

    Column by column: the first remaining row nonzero there is swapped up
    as the pivot and its multiples are subtracted from every row below,
    dividing in the field.  Shares no code with `linalg`.
    """
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / top[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def sparse_rank(rows) -> int:
    """Exact rank of a matrix given as sparse rows, over its own scalars (`dense_rank`)."""
    x = next((x for row in rows for x in row.values()), None)
    if x is None:
        return 0
    cols = 1 + max(j for row in rows for j in row)
    return dense_rank([[row.get(j, x - x) for j in range(cols)] for row in rows], cols)


@dataclass(frozen=True)
class Unshuffle:
    """A block-monotone permutation with its parity sign.

    ``perm`` maps positions to values, 0-based: position k holds value
    perm[k].  Within each block of the pattern the values increase.
    """

    perm: tuple
    sign: int


def enumerate_unshuffles(pattern) -> list:
    """The unshuffles of a pattern; block sizes must be nonnegative."""
    pattern = tuple(pattern)
    if any(b < 0 for b in pattern):
        raise ValueError(f"negative block size in {pattern}")
    return [Unshuffle(word, sign) for sign, word in unshuffles(pattern)]


# ---------------------------------------------------------------------------
# axiom checkers on the field scalars


def field_check_prelie(field, tensor) -> Report:
    t = _as_tensor(field, tensor)
    n = len(t)
    basis = [basis_vec(field, n, i) for i in range(n)]

    def mul(x, y):
        return tensor_mul(field, t, x, y)

    def associator(x, y, z):
        return sub_vec(mul(mul(x, y), z), mul(x, mul(y, z)))

    return residual_report(
        ((i, j, k), sub_vec(associator(basis[i], basis[j], basis[k]),
                            associator(basis[j], basis[i], basis[k])))
        for i in range(n) for j in range(i + 1, n) for k in range(n))


def four_term_prelie_defects(rows, triples, start):
    """(a.b).c - a.(b.c) - (b.a).c + b.(a.c) at each triple, as `algebra.prelie_defects`."""
    dim = len(rows)
    tails = [[[(k - start, x) for k, x in row if k >= start] for row in plane]
             for plane in rows]
    for a, b, c in triples:
        out = [0] * (dim - start)
        for sign, p, q in ((1, a, b), (-1, b, a)):
            for k, x in rows[p][q]:  # (p.q).c
                for t, y in tails[k][c]:
                    out[t] += sign * x * y
            for k, x in rows[q][c]:  # p.(q.c)
                for t, y in tails[p][k]:
                    out[t] -= sign * x * y
        yield out


def field_check_derivation(a: PreLieAlgebra, d: Matrix) -> Report:
    """d(x.y) = d(x).y + x.d(y) on all basis pairs, written out on the field scalars."""
    if d.rows != a.dim or d.cols != a.dim:
        raise ShapeError(f"derivation candidate is {d.rows}x{d.cols}, algebra dim {a.dim}")
    return residual_report(
        ((i, j), sub_vec(d.apply(a.product[i][j]),
                         add_vec(mul(a, d.column(i), basis(a, j)),
                                 mul(a, basis(a, i), d.column(j)))))
        for i in range(a.dim) for j in range(a.dim))


def field_check_jacobi(field, bracket_tensor) -> Report:
    t = _as_tensor(field, bracket_tensor)
    n = len(t)
    basis = [basis_vec(field, n, i) for i in range(n)]

    def br(x, y):
        return tensor_mul(field, t, x, y)

    def jacobiator(x, y, z):
        return add_vec(add_vec(br(x, br(y, z)), br(y, br(z, x))), br(z, br(x, y)))

    antisym = [(("antisym", i, j), add_vec(t[i][j], t[j][i]))
               for i in range(n) for j in range(n)]
    jacobi = [(("jacobi", i, j, k), jacobiator(basis[i], basis[j], basis[k]))
              for i in range(n) for j in range(n) for k in range(n)]
    return residual_report(antisym + jacobi)


def field_check_representation(algebra: PreLieAlgebra, dim_v: int, L, R) -> Report:
    field = algebra.field

    def combo(mats, coeffs) -> Matrix:
        out = Matrix.zero(field, dim_v, dim_v)
        for c, M in zip(coeffs, mats):
            if c:
                out = out + M.scale(c)
        return out

    def defects(i, j):
        l_ij = combo(L, algebra.product[i][j])
        l_ji = combo(L, algebra.product[j][i])
        r_ij = combo(R, algebra.product[i][j])
        d1 = (L[i] * L[j] - l_ij) - (L[j] * L[i] - l_ji)
        d2 = (L[i] * R[j] - R[j] * L[i]) - (r_ij - R[j] * R[i])
        for u in range(dim_v):
            yield ("left", i, j, u), d1.column(u)
            yield ("mixed", i, j, u), d2.column(u)

    n = algebra.dim
    return residual_report(pair for i in range(n) for j in range(n)
                           for pair in defects(i, j))


def dense_semidirect_tensor(product, dim_v, L, R, H=None) -> list:
    """The n+m cube of `algebra.semidirect_rows`, every entry written out."""
    n, m = len(product), dim_v
    dim = n + m
    tensor = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            tensor[i][j][:n] = product[i][j]
            if H is not None:
                tensor[i][j][n:] = H[i][j]
        for u in range(m):
            for k in range(m):
                tensor[i][n + u][n + k] = L[i][k][u]
                tensor[n + u][i][n + k] = R[i][k][u]
    return tensor


def full_representation_report(c, dim_v: int, L, R, back) -> Report:
    """`algebra.representation_report` with the left identity at every (x, y, u)."""
    n = len(c)
    where = [(name, i, j, u) for i in range(n) for j in range(n) for u in range(dim_v)
             for name in ("left", "mixed")]
    triples = [(i, j, n + u) if name == "left" else (i, n + u, j) for name, i, j, u in where]
    defects = prelie_defects(nonzero_rows(dense_semidirect_tensor(c, dim_v, L, R)), triples, n)
    return lifted_report(zip(where, defects), lambda r: back([-x for x in r]))


def coboundary_check_two_cocycle(a: PreLieAlgebra, rep: Representation, H: Cochain) -> Report:
    """`cochain.check_two_cocycle` on the coboundary: dH at every basis triple."""
    _check_map_to_module("H", a, rep, H, 2)
    dH = coboundary(a, rep, H)
    n = a.dim
    return residual_report(((x, y, z), dH.eval_basis((x, y, z)))
                           for x in range(n) for y in range(n) for z in range(n))


def tensor_cochain(field, tensor) -> Cochain:
    """A raw cubical tensor as a degree-2 cochain (no axioms assumed)."""
    dim = len(tensor)
    values = [tensor[fb[0]][last] for fb, last in cochain_keys(dim, 2)]
    return Cochain(field, 2, dim, dim, values)


def untwisted_structure(g: PreLieAlgebra, rep: Representation) -> Cochain:
    """mu + L + R as a degree-2 cochain on W (the H = 0 semidirect product)."""
    product, L, R, _ = _semidirect_arrays(g, rep, None)
    return tensor_cochain(g.field, dense_semidirect_tensor(product, rep.dim_v, L, R))


def cocycle_structure(g: PreLieAlgebra, rep: Representation, H: Cochain) -> Cochain:
    """The lift of H to a degree-2 cochain on W: ((x,u),(y,v)) -> (0, H(x,y))."""
    n, m = g.dim, rep.dim_v
    zero = [[0] * m] * m
    return tensor_cochain(g.field, dense_semidirect_tensor(
        [[[0] * n] * n] * n, m, [zero] * n, [zero] * n, _semidirect_arrays(g, rep, H)[3]))


def field_check_ns_prelie(field, tri, trl, circ) -> Report:
    t_tri = _as_tensor(field, tri)
    t_trl = _as_tensor(field, trl)
    t_circ = _as_tensor(field, circ)
    n = len(t_tri)

    def mul(tensor, x, y):
        return tensor_mul(field, tensor, x, y)

    def star(x, y):
        return add_vec(add_vec(mul(t_tri, x, y), mul(t_trl, x, y)), mul(t_circ, x, y))

    def a1_side(x, y, z):
        return sub_vec(mul(t_tri, star(x, y), z), mul(t_tri, x, mul(t_tri, y, z)))

    def a1(x, y, z):
        return sub_vec(a1_side(x, y, z), a1_side(y, x, z))

    def a2(x, y, z):
        lhs = sub_vec(mul(t_tri, x, mul(t_trl, y, z)), mul(t_trl, mul(t_tri, x, y), z))
        rhs = sub_vec(mul(t_trl, y, star(x, z)), mul(t_trl, mul(t_trl, y, x), z))
        return sub_vec(lhs, rhs)

    def a3_side(x, y, z):
        side = sub_vec(mul(t_circ, star(x, y), z), mul(t_circ, x, star(y, z)))
        side = add_vec(side, mul(t_trl, mul(t_circ, x, y), z))
        return sub_vec(side, mul(t_tri, x, mul(t_circ, y, z)))

    def a3(x, y, z):
        return sub_vec(a3_side(x, y, z), a3_side(y, x, z))

    basis = [basis_vec(field, n, i) for i in range(n)]
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    return _combine({
        name: residual_report(((i, j, k), axiom(basis[i], basis[j], basis[k]))
                              for i, j, k in triples)
        for name, axiom in (("A1", a1), ("A2", a2), ("A3", a3))})


def literal_element_groups(data: ReynoldsData, x) -> dict:
    """The closed-form element condition groups of the paper, one report each."""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    field = g.field
    x = tuple(field(c) for c in x)
    n, m = g.dim, rep.dim_v

    def vbasis(u):
        return basis_vec(field, m, u)

    def psi1(u_vec):
        out = sub_vec(act_L(rep, x, u_vec), act_R(rep, x, u_vec))
        return add_vec(out, cochain_eval(H, [x, K.apply(u_vec)]))

    psi1_basis = [psi1(vbasis(u)) for u in range(m)]

    def grid(pairs_at, rows, cols):
        return residual_report(p for a in range(rows) for b in range(cols)
                               for p in pairs_at(a, b))

    def alg_map(y, z):
        ey, ez = basis(g, y), basis(g, z)
        yield ("comm-product", y, z), mul(g, bracket(g, x, ey), bracket(g, x, ez))
        yield ("product-by-x", y, z), mul(g, g.product[y][z], x)

    def action(side, act, y, u):
        ey, eu = basis(g, y), vbasis(u)
        yield ((f"{side}-cocycle", y, u),
               sub_vec(cochain_eval(H, [x, K.apply(act(ey, eu))]),
                       act(ey, cochain_eval(H, [x, K.column(u)]))))
        yield (f"{side}-second", y, u), act(bracket(g, x, ey), psi1_basis[u])

    def weight(y, z):
        ey, ez = basis(g, y), basis(g, z)
        hyz = H.eval_basis((y, z))
        lhs = add_vec(sub_vec(act_L(rep, x, hyz), act_R(rep, x, hyz)),
                      cochain_eval(H, [x, K.apply(hyz)]))
        rhs = add_vec(cochain_eval(H, [bracket(g, x, ey), ez]),
                      cochain_eval(H, [ey, bracket(g, x, ez)]))
        yield ("weight-cocycle", y, z), sub_vec(lhs, rhs)
        yield ("weight-second", y, z), cochain_eval(H, [bracket(g, x, ey), bracket(g, x, ez)])

    return {
        "algebra_morphism": grid(alg_map, n, n),
        "left_action": grid(lambda y, u: action("left", partial(act_L, rep), y, u), n, m),
        "right_action": grid(lambda y, u: action("right", partial(act_R, rep), y, u), n, m),
        "weight_compat": grid(weight, n, n),
    }


def basis_dk_columns(data: ReynoldsData, n: int) -> list:
    """Column c of d_K - (-1)^{n-1} d, one basis cochain at a time.

    ``brackets.d_K`` is looked up on each call, so a test that patches it
    reaches this loop as well.
    """
    m, dim_g = data.rep.dim_v, data.algebra.dim
    d = operator_coboundary_matrix(data, n)
    basis = ((key, t) for key in cochain_keys(m, n) for t in range(dim_g))
    columns = []
    for c, (key, t) in enumerate(basis):
        f = Cochain.from_entries(data.field, n, m, dim_g,
                                 {key: basis_vec(data.field, dim_g, t)})
        dk = (x for v in brackets.d_K(data, f).values for x in v)
        expected = d.column(c) if n % 2 else [-e for e in d.column(c)]
        columns.append([x - e for x, e in zip(dk, expected)])
    return columns


# ---------------------------------------------------------------------------
# the pre-Lie axiom and the bracket combinations on the field scalars


def product_cochain(a: PreLieAlgebra) -> Cochain:
    """The multiplication of an algebra as a degree-2 cochain on itself."""
    values = [a.product[fb[0]][last] for fb, last in cochain_keys(a.dim, 2)]
    return Cochain(a.field, 2, a.dim, a.dim, values)


def check_prelie_via_bracket(field, tensor) -> Report:
    """pi is pre-Lie iff [pi, pi] = 0; an independent route to the axiom."""
    pi = tensor_cochain(field, tensor)
    return brackets._cochain_report(brackets.mn_bracket(pi, pi))


@lru_cache(maxsize=None)
def unshuffles(pattern: tuple):
    """All unshuffles of the pattern as (sign, word) pairs, lexicographic by word.

    A word lists the values at positions 0, 1, ... (0-based), increasing
    within each block of the pattern; each block is a subset of the
    values the earlier blocks left, taken with `itertools.combinations`.
    The sign is the parity of the word, from `cochain._sort_with_sign`.
    Any negative block size yields the empty tuple; `full_space_diamond`
    relies on that convention for boundary arities.
    """
    if any(b < 0 for b in pattern):
        return ()
    words = [()]
    for b in pattern:
        words = [w + chosen for w in words
                 for chosen in combinations([x for x in range(sum(pattern)) if x not in w], b)]
    return tuple((_sort_with_sign(w)[0], w) for w in words)


def full_space_diamond(P: Cochain, Q: Cochain) -> Cochain:
    """P <> Q filled densely on every key of C(X, X), P evaluated at the vector Q(...)."""
    if P.dim_source != P.dim_target or Q.dim_source != Q.dim_target:
        raise ShapeError("diamond is defined on cochains from a space to itself")
    if P.dim_source != Q.dim_source:
        raise ShapeError("cochains live on different spaces")
    dim, field = P.dim_source, P.field
    p, q = P.degree - 1, Q.degree - 1
    outer_sign = 1 if (p * q) % 2 == 0 else -1
    values = []
    for fb, last in cochain_keys(dim, p + q + 1):
        letters = list(fb)  # the p+q permutable arguments
        acc = zero_vec(field, dim)
        for sign, word in unshuffles((q, 1, p - 1)):
            inner = Q.eval_basis(tuple(letters[word[i]] for i in range(q + 1)))
            if is_zero_vec(inner):
                continue
            term = cochain_eval(P, [inner] + [letters[word[i]] for i in range(q + 1, p + q)]
                                + [last])
            acc = add_vec(acc, term if sign == 1 else neg_vec(term))
        for sign, word in unshuffles((p, q)):
            inner = Q.eval_basis(tuple(letters[word[i]] for i in range(p, p + q)) + (last,))
            if is_zero_vec(inner):
                continue
            term = cochain_eval(P, [letters[word[i]] for i in range(p)] + [inner])
            acc = add_vec(acc, term if outer_sign * sign == 1 else neg_vec(term))
        values.append(acc)
    return Cochain(field, p + q + 1, dim, dim, values)


def full_space_mn_bracket(P: Cochain, Q: Cochain) -> Cochain:
    """[P, Q] = P <> Q - (-1)^{pq} Q <> P on `full_space_diamond`."""
    second = full_space_diamond(Q, P)
    if ((P.degree - 1) * (Q.degree - 1)) % 2 == 1:
        return full_space_diamond(P, Q) + second
    return full_space_diamond(P, Q) - second


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


def full_space_derived(structure: Cochain, cochains) -> Cochain:
    """[[...[structure, P_1^], ...], P_k^] filled on every key of C(W, W), then
    restricted: evaluated on V-basis tuples, g-coordinates kept."""
    dim_g, dim_v = cochains[0].dim_target, cochains[0].dim_source
    nested = structure
    for P in cochains:
        nested = full_space_mn_bracket(nested, lift_operator_cochain(P))
    values = [nested.eval_basis(tuple(i + dim_g for i in fb) + (last + dim_g,))[:dim_g]
              for fb, last in cochain_keys(dim_v, nested.degree)]
    return Cochain(nested.field, nested.degree, dim_v, dim_g, values)


def full_space_derived_bracket(mu: Cochain, P: Cochain, Q: Cochain) -> Cochain:
    """[[P, Q]] = (-1)^{p-1} [[mu, P], Q] on the full space."""
    out = full_space_derived(mu, (P, Q))
    return -out if (P.degree - 1) % 2 == 1 else out


def full_space_ternary_bracket(hw: Cochain, P: Cochain, Q: Cochain, R: Cochain) -> Cochain:
    """[[P, Q, R]] = -[[[hw, P], Q], R] on the full space."""
    return -full_space_derived(hw, (P, Q, R))


def field_combination(g: PreLieAlgebra, rep: Representation, H: Cochain,
                      cochains: list, terms: list) -> Cochain:
    """The sum of coefficient * bracket over ``terms``, in the field's scalars,
    each bracket on the full space (`full_space_derived`)."""
    acc = None
    for coeff, idxs in terms:
        args = [cochains[i] for i in idxs]
        c = full_space_derived_bracket(untwisted_structure(g, rep), *args) \
            if len(args) == 2 else \
            full_space_ternary_bracket(cocycle_structure(g, rep, H), *args)
        c = c.scale(g.field(coeff))
        acc = c if acc is None else acc + c
    return acc


def field_mc_residual(g, rep, H, K: Matrix) -> Cochain:
    """1/2 [[K,K]] - 1/6 [[K,K,K]]."""
    return field_combination(g, rep, H, [Cochain.from_matrix(K)],
                             [(Fraction(1, 2), (0, 0)), (Fraction(-1, 6), (0, 0, 0))])


def field_d_K(data: ReynoldsData, f: Cochain) -> Cochain:
    """[[K, f]] - 1/2 [[K, K, f]]."""
    return field_combination(data.algebra, data.rep, data.cocycle,
                             [Cochain.from_matrix(data.operator), f],
                             [(Fraction(1), (0, 1)), (Fraction(-1, 2), (0, 0, 1))])


def field_twisted_mc_residual(data: ReynoldsData, K2: Matrix) -> Cochain:
    """d_K(K') + 1/2 ([[K',K']] - [[K,K',K']]) - 1/6 [[K',K',K']]."""
    return field_combination(
        data.algebra, data.rep, data.cocycle,
        [Cochain.from_matrix(data.operator), Cochain.from_matrix(K2)],
        [(Fraction(1), (0, 1)), (Fraction(-1, 2), (0, 0, 1)),
         (Fraction(1, 2), (1, 1)), (Fraction(-1, 2), (0, 1, 1)),
         (Fraction(-1, 6), (1, 1, 1))])


def field_check_rcw_morphism(data: ReynoldsData, data2: ReynoldsData,
                             phi: Matrix, psi: Matrix) -> Report:
    """The five morphism conditions of a pair (phi, psi), each written out by hand."""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    g2, rep2, H2, K2 = data2.algebra, data2.rep, data2.cocycle, data2.operator
    if phi.rows != g2.dim or phi.cols != g.dim:
        raise ShapeError("phi has the wrong shape")
    if psi.rows != rep2.dim_v or psi.cols != rep.dim_v:
        raise ShapeError("psi has the wrong shape")
    if g.field != g2.field:
        raise DimensionMismatchError("algebras live over different fields")
    n, m = g.dim, rep.dim_v
    diff = phi * K - K2 * psi
    e = [basis_vec(g.field, m, u) for u in range(m)]

    def action_defects(act):
        return residual_report(
            ((i, u), sub_vec(psi.apply(act(rep, basis(g, i), e[u])),
                             act(rep2, phi.column(i), psi.column(u))))
            for i in range(n) for u in range(m))

    return _combine({
        "algebra_morphism": residual_report(
            ((i, j), sub_vec(phi.apply(g.product[i][j]),
                             mul(g2, phi.column(i), phi.column(j))))
            for i in range(n) for j in range(n)),
        "intertwines_operator": residual_report(((u,), diff.column(u)) for u in range(m)),
        "intertwines_left_action": action_defects(act_L),
        "intertwines_right_action": action_defects(act_R),
        "intertwines_weight": residual_report(
            ((i, j), sub_vec(psi.apply(H.eval_basis((i, j))),
                             cochain_eval(H2, [phi.column(i), phi.column(j)])))
            for i in range(n) for j in range(n)),
    })


def element_maps(terms, x) -> tuple:
    """(P, S, [Rbar_u x]) of the element maps ``terms`` (`deformation._ElementTerms`) at x,
    mapped back to the field."""
    field, n = terms.field, terms.n
    _, P, T, s = terms.lifted(x)
    down = descend(field, s)
    P, T = [down(c) for c in P], [down(c) for c in T]
    return (Matrix.from_columns(field, P, n),
            Matrix.from_columns(field, [c[n:] for c in T], len(T)), [c[:n] for c in T])


def element_morphism_in_t(check, P: Matrix, S: Matrix, operators=(None, None)) -> dict:
    """The parts of a Matrix-level ``check`` (`reynolds.morphism_checker`) at
    (phi_t, psi_t) = (id + tP, id + tS), each condition's t^k coefficient at
    ``(Order(k), *where)`` for k = 1, 2; ``operators`` are K + t K1 and
    K + t K1' in t, or None for the four conditions without them."""
    field = P.field
    report = check(*operators, _in_t((Matrix.identity(field, P.rows), P)),
                   _in_t((Matrix.identity(field, S.rows), S)))
    zero = field.zero
    return {name: residual_report(((Order(k), *where), _order(r, k, zero))
                                  for k in (1, 2) for where, r in part.violations)
            for name, part in report.parts.items()}


def in_t_element_checks(data: ReynoldsData) -> tuple:
    """(x -> Nijenhuis-element `Report`, (K1, K1', x) -> equivalence `Report`), in t."""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    field, terms = g.field, _ElementTerms(data, operator_frames(g, rep, H))
    twisted = (g, twisted_rows(g, rep, H))
    check = morphism_checker(twisted, twisted)

    def nijenhuis(x) -> Report:
        x = tuple(field(c) for c in x)
        P, S, rbar = element_maps(terms, x)
        parts = {"rbar_condition": residual_report(
            (("rbar-commutes", u), sub_vec(mul(g, x, r), mul(g, r, x)))
            for u, r in enumerate(rbar))}
        parts.update(element_morphism_in_t(check, P, S))
        return _combine(parts)

    def equivalence(K1: Matrix, K1p: Matrix, x) -> Report:
        P, S, _ = element_maps(terms, tuple(field(c) for c in x))
        return _combine(element_morphism_in_t(check, P, S, (_in_t((K, K1)), _in_t((K, K1p)))))

    return nijenhuis, equivalence


def left_mult(a: PreLieAlgebra, x) -> Matrix:
    """Matrix of y -> x.y for a coordinate vector x."""
    return Matrix.from_columns(a.field, [mul(a, x, basis(a, j)) for j in range(a.dim)], a.dim)


def right_mult(a: PreLieAlgebra, x) -> Matrix:
    """Matrix of y -> y.x for a coordinate vector x."""
    return Matrix.from_columns(a.field, [mul(a, basis(a, j), x) for j in range(a.dim)], a.dim)


def bracket(a: PreLieAlgebra, x, y) -> tuple:
    """The commutator x.y - y.x."""
    return sub_vec(mul(a, x, y), mul(a, y, x))


def heap_order(equations, n_free: int) -> list:
    """`search._order` on a heap with lazy entries: O((n + terms) log n)."""
    unassigned = [{v for mono in eq.terms for v in mono} for eq in equations]
    occurs = [[] for _ in range(n_free)]
    completes = [0] * n_free
    for e, variables in enumerate(unassigned):
        for v in variables:
            occurs[v].append(e)
        if len(variables) == 1:
            completes[next(iter(variables))] += 1
    heap = [(-completes[v], -len(occurs[v]), v) for v in range(n_free)]
    heapq.heapify(heap)
    order, placed = [], [False] * n_free
    while heap:
        done, _, v = heapq.heappop(heap)
        if placed[v] or -done != completes[v]:  # a stale entry
            continue
        placed[v] = True
        order.append(v)
        for e in occurs[v]:
            variables = unassigned[e]
            variables.discard(v)
            if len(variables) == 1:
                (w,) = variables
                completes[w] += 1
                heapq.heappush(heap, (-completes[w], -len(occurs[w]), w))
    return order


def _two_walk(arrays, p: int, D: int, dens: set) -> tuple:
    out = []
    for x in arrays:
        if type(x) is Fraction and not p:
            d = x.denominator
            dens.add(d)
            out.append(x.numerator * (D // d))
        elif type(x) is FpElement and x.p == p:
            out.append(x.value)
        elif isinstance(x, (tuple, list)):
            out.append(_two_walk(x, p, D, dens))
        elif isinstance(x, Poly):
            out.append(Poly(dict(zip(x.terms, _two_walk(tuple(x.terms.values()), p, D, dens)))))
        else:
            raise TypeError(f"cannot lift {x!r} from {'F_%d' % p if p else 'Q'}")
    return tuple(out)


def two_walk_lift(field, arrays) -> tuple:
    """(the lifted ``arrays``, D): the reference for `scalars.lift`."""
    p, dens = field.char, set()
    lifted = _two_walk(arrays, p, 1, dens)
    D = lcm(*dens)
    if D != 1:
        lifted = _two_walk(arrays, p, D, dens)
    return lifted, D


def fraction_parse(field, s: str):
    """The scalar of a string without a modulus: the reference for ``field.parse``."""
    value = Fraction(s.strip())
    return field(value) if field.char else value


class UnverifiedSeriesError(UnverifiedError):
    """The supplied deformation series fails its coefficient identities."""


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


def two_pass_induced_check(n: int, frame):
    """The `InvariantError` text of the re-verification of the induced pair read off
    ``frame`` (n = dim g), two passes, pre-Lie first; None when both identities hold."""
    mul, graph, proj, products, back = frame
    e = int_basis(n, n + len(graph))
    table = [[w[n:] for w in row] for row in products]
    Lbar = [list(zip(*map(proj, row))) for row in mul(graph, e)]
    right = mul(e, graph)
    Rbar = [list(zip(*[proj(row[u]) for row in right])) for u in range(len(graph))]
    down = back(4, 2)
    for failed, report in (("structure constants fail the pre-Lie identity",
                            prelie_report(table, down)),
                           ("actions fail the representation identities",
                            representation_report(table, n, Lbar, Rbar, down))):
        if not report.ok:
            return f"{failed}:\n" + report.describe()
    return None
