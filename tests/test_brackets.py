import inspect
import json
import random
import textwrap
from itertools import permutations, product

import pytest

from conftest import (
    CORPUS,
    _random_matrix,
    _replace_everywhere,
    as_terms,
    count_calls,
    fractional_reynolds_data,
    g2_algebra,
    padded_reynolds_data,
    random_algebra,
    random_cochain,
    random_pair,
    random_reynolds_data,
)
from oracles import (
    act_L,
    act_R,
    basis_dk_columns,
    check_prelie_via_bracket,
    cochain_eval,
    field_d_K,
    field_mc_residual,
    field_twisted_mc_residual,
    full_space_derived,
    full_space_derived_bracket,
    full_space_diamond,
    full_space_mn_bracket,
    full_space_ternary_bracket,
    generic_cochain,
    cocycle_structure,
    lift_operator_cochain,
    mul,
    product_cochain,
    tensor_cochain,
    untwisted_structure,
)
from prelie import brackets, cochain
from prelie.algebra import PreLieAlgebra, check_prelie, regular_representation
from prelie.brackets import (
    check_maurer_cartan,
    check_twisted_mc,
    d_K,
    derived_bracket,
    diamond,
    dk_difference,
    mc_residual,
    mn_bracket,
    ternary_bracket,
    twisted_mc_residual,
)
from prelie.bundle import parse_bundle
from prelie.cli import EXIT_INVARIANT, main
from prelie.cochain import Cochain, cochain_keys
from prelie.errors import InvariantError, ShapeError
from prelie.linalg import Matrix, add_vec, basis_vec, scale_vec, sub_vec
from prelie.reynolds import ReynoldsData, check_rcw_reynolds
from prelie.scalars import QQ, Poly, PrimeField, field_name


# ---------------------------------------------------------------------------
# diamond and the bracket on C*(X, X)


def test_diamond_zero_annihilates():
    rng = random.Random(0)
    P = random_cochain(rng, QQ, 2, 2, 2)
    Z = Cochain.zero(QQ, 2, 2, 2)
    assert diamond(P, Z).is_zero() and diamond(Z, P).is_zero()
    assert mn_bracket(Z, P).is_zero()


def test_diamond_bilinear_hand_expansion():
    # for bilinear P, Q:  (P<>Q)(x,y,z) = P(Q(x,y),z) - P(Q(y,x),z)
    #                                    - P(x,Q(y,z)) + P(y,Q(x,z))
    rng = random.Random(1)
    P = random_cochain(rng, QQ, 2, 2, 2)
    Q = random_cochain(rng, QQ, 2, 2, 2)
    D = diamond(P, Q)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                expected = cochain_eval(P, [Q.eval_basis((x, y)), z])
                expected = sub_vec(expected, cochain_eval(P, [Q.eval_basis((y, x)), z]))
                expected = sub_vec(expected, cochain_eval(P, [x, Q.eval_basis((y, z))]))
                expected = add_vec(expected, cochain_eval(P, [y, Q.eval_basis((x, z))]))
                assert D.eval_basis((x, y, z)) == expected


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=repr)
def test_diamond_matches_the_dense_oracle(field):
    # the kernel `_scatter` is the full-space diamond, by value, on random and
    # on generic (`Poly`) cochains
    rng = random.Random(5)

    def terms(c: Cochain) -> list:
        return [as_terms(v) for v in c.values]

    nonzero = 0
    for dim, p, q in product(range(1, 5), range(1, 4), range(1, 4)):
        P = random_cochain(rng, field, p, dim, dim)
        Q = random_cochain(rng, field, q, dim, dim)
        for a, b in ((P, Q), (generic_cochain(field, p, dim, dim), Q),
                     (P, generic_cochain(field, q, dim, dim))):
            got = diamond(a, b)
            assert (got.degree, got.dim_source) == (p + q - 1, dim)
            assert terms(got) == terms(full_space_diamond(a, b))
            nonzero += not got.is_zero()
    assert nonzero


def test_prelie_iff_bracket_square_zero():
    rng = random.Random(2)
    hits = {True: 0, False: 0}
    for _ in range(30):
        if rng.random() < 0.5:
            tensor = random_algebra(rng).product
        else:
            tensor = [[[QQ(rng.randint(-1, 1)) for _ in range(2)] for _ in range(2)]
                      for _ in range(2)]
            if len(tensor) != 2:
                continue
        dim = len(tensor)
        direct = check_prelie(QQ, tensor).ok
        via = check_prelie_via_bracket(QQ, tensor).ok
        assert direct == via
        hits[direct] += 1
    assert hits[True] and hits[False]  # both verdicts exercised


def test_square_zero_derivation_of_bracket():
    # d_pi = [pi, -] squares to zero for a verified product pi
    rng = random.Random(3)
    for _ in range(6):
        a = random_algebra(rng, max_dim=2)
        pi = product_cochain(a)
        f = random_cochain(rng, QQ, rng.randint(1, 2), a.dim, a.dim)
        df = mn_bracket(pi, f)
        assert mn_bracket(pi, df).is_zero()


def test_bracket_graded_identity_odd_degree():
    # for odd MN-degree P: [P, P] = 2 P<>P (never asserted to vanish)
    rng = random.Random(4)
    P = random_cochain(rng, QQ, 2, 2, 2)  # MN-degree 1
    assert mn_bracket(P, P) == diamond(P, P).scale(QQ(2))


# ---------------------------------------------------------------------------
# derived brackets


def test_binary_bracket_reproduces_closed_form(g3_bundle):
    a, rep, _ = g3_bundle
    rng = random.Random(5)
    for _ in range(10):
        K = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        kc = Cochain.from_matrix(K)
        b = derived_bracket(untwisted_structure(a, rep), kc, kc)
        for u in range(3):
            for v in range(3):
                Ku, Kv = K.column(u), K.column(v)
                inner = add_vec(act_L(rep, Ku, basis_vec(QQ, 3, v)),
                                act_R(rep, Kv, basis_vec(QQ, 3, u)))
                expected = scale_vec(QQ(2), sub_vec(mul(a, Ku, Kv), K.apply(inner)))
                assert b.eval_basis((u, v)) == expected


def test_binary_bracket_polarized_form(g3_bundle):
    # [[K, K']](u,v) = Ku.K'v + K'u.Kv - K(L_{K'u}v + R_{K'v}u) - K'(L_{Ku}v + R_{Kv}u)
    a, rep, _ = g3_bundle
    rng = random.Random(6)
    K = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
    K2 = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
    b = derived_bracket(untwisted_structure(a, rep), Cochain.from_matrix(K),
                        Cochain.from_matrix(K2))
    for u in range(3):
        for v in range(3):
            eu, ev = basis_vec(QQ, 3, u), basis_vec(QQ, 3, v)
            expected = add_vec(mul(a, K.column(u), K2.column(v)),
                               mul(a, K2.column(u), K.column(v)))
            expected = sub_vec(expected, K.apply(
                add_vec(act_L(rep, K2.column(u), ev), act_R(rep, K2.column(v), eu))))
            expected = sub_vec(expected, K2.apply(
                add_vec(act_L(rep, K.column(u), ev), act_R(rep, K.column(v), eu))))
            assert b.eval_basis((u, v)) == expected


def test_ternary_bracket_reproduces_closed_form(g3_bundle):
    a, rep, H = g3_bundle
    rng = random.Random(7)
    for _ in range(10):
        K = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        kc = Cochain.from_matrix(K)
        t = ternary_bracket(cocycle_structure(a, rep, H), kc, kc, kc)
        for u in range(3):
            for v in range(3):
                expected = scale_vec(QQ(6), K.apply(
                    cochain_eval(H, [K.column(u), K.column(v)])))
                assert t.eval_basis((u, v)) == expected


def test_ternary_zero_argument(g3_bundle):
    a, rep, H = g3_bundle
    rng = random.Random(8)
    K = Cochain.from_matrix(Matrix(QQ, [[rng.randint(-2, 2)] * 3 for _ in range(3)]))
    Z = Cochain.zero(QQ, 1, 3, 3)
    assert ternary_bracket(cocycle_structure(a, rep, H), Z, K, K).is_zero()
    assert ternary_bracket(cocycle_structure(a, rep, H), K, Z, K).is_zero()
    assert ternary_bracket(cocycle_structure(a, rep, H), K, K, Z).is_zero()


def test_ternary_symmetric_at_degree_one(g3_bundle):
    a, rep, H = g3_bundle
    rng = random.Random(9)
    cs = [Cochain.from_matrix(Matrix(QQ, [[rng.randint(-2, 2) for _ in range(3)]
                                          for _ in range(3)])) for _ in range(3)]
    ref = ternary_bracket(cocycle_structure(a, rep, H), *cs)
    for p in permutations(range(3)):
        assert ternary_bracket(cocycle_structure(a, rep, H), cs[p[0]], cs[p[1]], cs[p[2]]) == ref


def test_derived_bracket_graded_antisymmetry():
    rng = random.Random(10)
    a, rep = random_pair(rng, max_dim=2)
    for (p, q) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        P = random_cochain(rng, QQ, p, rep.dim_v, a.dim)
        Q = random_cochain(rng, QQ, q, rep.dim_v, a.dim)
        lhs = derived_bracket(untwisted_structure(a, rep), P, Q)
        rhs = derived_bracket(untwisted_structure(a, rep), Q, P)
        sign = QQ(-1 if (p * q) % 2 == 0 else 1)  # -(-1)^{pq}
        assert lhs == rhs.scale(sign)


def test_lifted_cochains_commute(g3_bundle):
    a, rep, _ = g3_bundle
    rng = random.Random(11)
    P = lift_operator_cochain(random_cochain(rng, QQ, 2, 3, 3))
    Q = lift_operator_cochain(random_cochain(rng, QQ, 1, 3, 3))
    assert mn_bracket(P, Q).is_zero()


def test_semidirect_square_zero_iff_cocycle(g3_bundle):
    # [mu~_H, mu~_H] = 0 exactly when H is a 2-cocycle
    a, rep, H = g3_bundle
    mu = untwisted_structure(a, rep)
    good = tensor_cochain(QQ, [[list(add_vec(mu.eval_basis((i, j)),
                                             cocycle_structure(a, rep, H).eval_basis((i, j))))
                                for j in range(6)] for i in range(6)])
    assert mn_bracket(good, good).is_zero()
    bad_H = Cochain.from_entries(QQ, 2, 3, 3, {((2,), 1): (0, 0, 1)})
    bad = tensor_cochain(QQ, [[list(add_vec(mu.eval_basis((i, j)),
                                            cocycle_structure(a, rep, bad_H).eval_basis((i, j))))
                               for j in range(6)] for i in range(6)])
    assert not mn_bracket(bad, bad).is_zero()


def test_brackets_reject_structures_and_cochains_of_the_wrong_shape(g3_bundle):
    a, rep, H = g3_bundle
    mu, hw = untwisted_structure(a, rep), cocycle_structure(a, rep, H)
    K = Cochain.from_matrix(Matrix.zero(QQ, 3, 3))
    narrow = Cochain.from_matrix(Matrix.zero(QQ, 3, 2))  # V of dimension 2: W is 5-dimensional
    with pytest.raises(ShapeError, match="structure does not live on g \\+ V"):
        derived_bracket(mu, narrow, narrow)
    with pytest.raises(ShapeError, match="structure does not live on g \\+ V"):
        ternary_bracket(hw, narrow, narrow, narrow)
    for args in [(K, narrow), (narrow, K)]:
        with pytest.raises(ShapeError, match="different shapes"):
            derived_bracket(mu, *args)
    with pytest.raises(ShapeError, match="different shapes"):
        ternary_bracket(hw, K, K, narrow)
    # one shape, different degrees: the brackets are defined
    f = random_cochain(random.Random(3), QQ, 2, 3, 3)
    assert derived_bracket(mu, K, f).degree == ternary_bracket(hw, K, K, f).degree == 3


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_lift_operator_cochain_lands_in_the_algebra_coordinates(field):
    # dim V > dim g, so the g- and V-coordinates of W cannot be confused
    rng = random.Random(14)
    for _ in range(3):
        data = padded_reynolds_data(rng, field, max_dim=2)
        n, m = data.algebra.dim, data.rep.dim_v
        assert m > n
        for degree in (1, 2):
            P = random_cochain(rng, field, degree, m, n)
            lifted = lift_operator_cochain(P)
            assert (lifted.dim_source, lifted.dim_target) == (n + m, n + m)
            for fb, last in cochain_keys(n + m, degree):
                idxs = fb + (last,)
                expected = (P.eval_basis(tuple(i - n for i in idxs)) + (field.zero,) * m
                            if min(idxs) >= n else (field.zero,) * (n + m))
                assert lifted.eval_basis(idxs) == expected


def _values(c: Cochain) -> list:
    """The coordinates of c, a zero `Poly` read as 0 (the full-space route keeps them)."""
    return [[(x.terms if x else 0) if isinstance(x, Poly) else x for x in v] for v in c.values]


def _assert_brackets_match_the_full_space_oracle(field, degree, seed):
    """Binary and ternary brackets of K with a random and with the generic degree-n
    cochain (the one `dk_difference` evaluates), against `oracles.full_space_derived`,
    on `corpus/g3-k-twisted.json`, on a random bundle padded to dim V > dim g and,
    over Q, on a bundle whose g, H and K are all fractional."""
    rng = random.Random(seed)
    corpus = parse_bundle(str(CORPUS / "g3-k-twisted.json"), field_name(field))
    bundles = [corpus.reynolds_data(), padded_reynolds_data(rng, field, max_dim=3)]
    if field == QQ:
        bundles.append(fractional_reynolds_data(rng))
    nonzero = 0
    for data in bundles:
        g, rep, H = data.algebra, data.rep, data.cocycle
        mu, hw = untwisted_structure(g, rep), cocycle_structure(g, rep, H)
        K = Cochain.from_matrix(data.operator)
        for f in (random_cochain(rng, field, degree, rep.dim_v, g.dim, -2, 2),
                  generic_cochain(field, degree, rep.dim_v, g.dim)):
            pairs = [(K, f), (f, K)] + ([(f, f)] if degree < 3 else [])
            for route, oracle, args in (
                    [(derived_bracket, full_space_derived_bracket, (mu, *a)) for a in pairs]
                    + [(ternary_bracket, full_space_ternary_bracket, (hw, *a))
                       for a in [(K, K, f), (K, f, K), (f, K, K)]]):
                got = route(*args)
                assert _values(got) == _values(oracle(*args))
                nonzero += not got.is_zero()
    assert nonzero  # the comparisons see nonzero brackets


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)],
                         ids=repr)
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_derived_brackets_match_the_full_space_oracle(field, degree):
    _assert_brackets_match_the_full_space_oracle(field, degree, 60 + degree)


# the five sign sites of [N, P^] = N <> P^ - (-1)^{pq} P^ <> N in `_derived`: the
# sign of each unshuffle sum of the composition in `_scatter`, the position sign
# of t in the outer block (`_by_argument`), and the sign of each scatter pass in a
# level; and the sort sign of the merged key (`_add`), which both sums share
_SIGN_FLIPS = {
    "compose-first-sum": ("_scatter", "ov, c, sign * s)", "ov, c, -(sign * s))"),
    "compose-second-sum": ("_scatter", "ov, c, flip)", "ov, c, -flip)"),
    "position-of-t": ("_by_argument", "(-1 if i % 2 else 1,", "(1,"),
    "level-N-outside": ("_derived", "_scatter(acc, 1, N, lifted, p, q)",
                        "_scatter(acc, -1, N, lifted, p, q)"),
    "level-P-outside": ("_derived", "_scatter(acc, -flip, lifted, N, q, p)",
                        "_scatter(acc, flip, lifted, N, q, p)"),
    "merged-key-sort": ("_add", "if norm[0] != sign:", "if sign != 1:"),
}


@pytest.mark.parametrize("case", sorted(_SIGN_FLIPS))
def test_a_sign_flip_in_one_unshuffle_sum_fails_the_oracle_comparison(monkeypatch, case):
    name, term, mutant = _SIGN_FLIPS[case]
    source = textwrap.dedent(inspect.getsource(getattr(brackets, name)))
    assert source.count(term) == 1
    namespace = dict(vars(brackets))
    exec(compile(source.replace(term, mutant), brackets.__file__, "exec"), namespace)
    monkeypatch.setattr(brackets, name, namespace[name])
    with pytest.raises((AssertionError, InvariantError)):
        _assert_brackets_match_the_full_space_oracle(QQ, 2, 62)


def test_the_full_space_oracle_never_reaches_the_kernel(monkeypatch):
    # the reference has its own dense composition: with `_scatter` gone it
    # still runs, so a sign error there cannot flip both sides of a comparison
    data = parse_bundle(str(CORPUS / "g3-k-twisted.json")).reynolds_data()
    g, rep = data.algebra, data.rep
    mu, hw = untwisted_structure(g, rep), cocycle_structure(g, rep, data.cocycle)
    K = Cochain.from_matrix(data.operator)
    f = random_cochain(random.Random(71), QQ, 1, rep.dim_v, g.dim)
    expected = (derived_bracket(mu, K, f), ternary_bracket(hw, K, f, f))

    def forbidden(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(brackets, "_scatter", forbidden)
    with pytest.raises(AssertionError, match="the kernel was called"):
        derived_bracket(mu, K, f)
    got = (full_space_derived_bracket(mu, K, f), full_space_ternary_bracket(hw, K, f, f))
    assert got == expected
    assert not any(c.is_zero() for c in got)


def test_a_nonzero_v_part_of_the_restriction_is_an_invariant_error():
    # on a structure that is no semidirect product the restricted bracket can
    # have V-coordinates; the route raises exactly when the full space has them
    rng = random.Random(70)
    raised = 0
    for _ in range(8):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        structure = random_cochain(rng, QQ, 2, n + m, n + m, -1, 1)
        K = random_cochain(rng, QQ, 1, m, n, -1, 1)
        nested = structure
        for P in (K, K):
            nested = full_space_mn_bracket(nested, lift_operator_cochain(P))
        v_part = any(any(nested.eval_basis(tuple(i + n for i in fb) + (last + n,))[n:])
                     for fb, last in cochain_keys(m, 2))
        if v_part:
            raised += 1
            with pytest.raises(InvariantError,
                               match="V-part of the restricted derived bracket"):
                derived_bracket(structure, K, K)
        else:
            assert derived_bracket(structure, K, K) == full_space_derived(structure, (K, K))
    assert 0 < raised < 8  # both outcomes exercised


def _combination_args(combination: str) -> tuple:
    """Arguments for one bracket combination on `corpus/g3-k-twisted.json`."""
    bundle = parse_bundle(str(CORPUS / "g3-k-twisted.json"))
    data, K2 = bundle.reynolds_data(), bundle.matrix("operatorKprime")
    return {"mc_residual": (data.algebra, data.rep, data.cocycle, data.operator),
            "d_K": (data, Cochain.from_matrix(K2)),
            "twisted_mc_residual": (data, K2),
            "dk_difference": (data, 3)}[combination]


@pytest.mark.parametrize("combination", ["mc_residual", "d_K", "twisted_mc_residual",
                                         "dk_difference"])
def test_combinations_do_not_fill_the_full_space(monkeypatch, combination):
    # the derived brackets never call diamond or mn_bracket
    args = _combination_args(combination)
    expected = getattr(brackets, combination)(*args)

    def forbidden(*args):
        raise AssertionError("the full-space route was called")

    for name in ("diamond", "mn_bracket"):
        monkeypatch.setattr(brackets, name, forbidden)
    assert _values(getattr(brackets, combination)(*args)) == _values(expected)


# the cochains a call builds on `corpus/g3-k-rowzero.json`: the combination's one
# sum, mapped back once, besides the cochains of K (and K'); dk_difference also
# builds the generic f, its operator differential and the difference of the two
COCHAINS = {"check_maurer_cartan": 2, "dk_difference": 5, "twisted_mc_residual": 3}


@pytest.mark.parametrize("name", sorted(COCHAINS))
def test_each_combination_maps_its_sum_back_once(monkeypatch, name):
    data = parse_bundle(str(CORPUS / "g3-k-rowzero.json")).reynolds_data()
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    call = {"check_maurer_cartan": lambda: check_maurer_cartan(g, rep, H, K),
            "dk_difference": lambda: dk_difference(data, 1),
            "twisted_mc_residual": lambda: twisted_mc_residual(data, K)}[name]
    built = count_calls(monkeypatch, Cochain, "__init__")
    sums = count_calls(monkeypatch, brackets, "_as_cochain")
    call()
    assert (len(built), len(sums)) == (COCHAINS[name], 1)


# the products each combination adds on `corpus/g3-k-twisted.json`: one per
# coordinate of an outer value that a nonzero inner coordinate reaches
PRODUCTS = {"mc_residual": 6, "d_K": 6, "twisted_mc_residual": 14, "dk_difference": 18}


@pytest.mark.parametrize("combination", sorted(PRODUCTS))
def test_combinations_never_read_a_lifted_cochain_at_a_g_argument(monkeypatch, combination):
    # a level is two passes, N <> P^ then P^ <> N, over the same table of P^;
    # that table holds only V keys (letters >= dim g = 3) and g-coordinates,
    # so no product feeds P^ an index of g and no floor is needed
    args = _combination_args(combination)
    passes = count_calls(monkeypatch, brackets, "_scatter")
    adds = count_calls(monkeypatch, brackets, "_add")
    getattr(brackets, combination)(*args)
    lifted = [inner for _, _, _, inner, _, _ in passes[0::2]]
    assert len(passes) == 2 * len(lifted)
    assert all(outer is table for (_, _, outer, _, _, _), table in zip(passes[1::2], lifted))
    assert all(min(fb + (last,)) >= 3 and max(t for t, _ in pairs) < 3
               for table in lifted for (fb, last), pairs in table.items())
    products = sum(len(pairs) for _, letters, _, pairs, _, _ in adds
                   if cochain._sort_with_sign(letters) is not None)
    assert products == PRODUCTS[combination]


@pytest.mark.parametrize("combination", ["mc_residual", "d_K", "twisted_mc_residual",
                                         "dk_difference"])
def test_each_combination_builds_its_structures_once(monkeypatch, combination):
    # (g, rep, H) is prepared once (`cochain.twisted_rows`), and mu + L + R
    # and the lift of H are both read off the rows of that one preparation,
    # once; no structure is built on the field and lifted densely (the
    # field-scalar builders are test oracles)
    args = _combination_args(combination)
    prepared = []

    def make(original):
        def preparing(*args):
            prepared.append(original(*args))
            return prepared[-1]
        return preparing

    _replace_everywhere(monkeypatch, cochain, "twisted_rows", make)
    tables = count_calls(monkeypatch, brackets, "_structure_tables")
    getattr(brackets, combination)(*args)
    assert len(prepared) == len(tables) == 1
    assert tables[0][0] is prepared[0][0]


# ---------------------------------------------------------------------------
# Maurer-Cartan


def test_mc_zero_operator(g3_bundle):
    a, rep, H = g3_bundle
    assert check_maurer_cartan(a, rep, H, Matrix.zero(QQ, 3, 3)).ok


def test_mc_vanishing_third_row_family(g3_bundle):
    a, rep, H = g3_bundle
    rng = random.Random(12)
    for _ in range(5):
        K = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
                   + [[0, 0, 0]])
        assert check_maurer_cartan(a, rep, H, K).ok


def test_mc_agrees_with_direct_checker_rationals(g3_bundle):
    a, rep, H = g3_bundle
    rng = random.Random(13)
    seen = {True: 0, False: 0}
    for _ in range(30):
        K = Matrix(QQ, [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
        mc = check_maurer_cartan(a, rep, H, K).ok
        direct = check_rcw_reynolds(a, rep, H, K).ok
        assert mc == direct
        seen[direct] += 1
    assert seen[True] and seen[False]


def test_mc_agrees_with_direct_checker_on_fractional_bundles():
    # g, H and K all fractional (D_g > 1 on the lift): K and a fractional
    # perturbation of it get one verdict from both checks, and the residual
    # is its field evaluation
    rng = random.Random(33)
    seen = {True: 0, False: 0}
    for _ in range(6):
        data = fractional_reynolds_data(rng)
        g, rep, H = data.algebra, data.rep, data.cocycle
        for K in (data.operator, data.operator + _random_matrix(rng, QQ, g.dim, rep.dim_v)):
            mc = check_maurer_cartan(g, rep, H, K).ok
            assert mc == check_rcw_reynolds(g, rep, H, K).ok
            assert mc_residual(g, rep, H, K) == field_mc_residual(g, rep, H, K)
            seen[mc] += 1
    assert seen[True] and seen[False]


def test_mc_agrees_over_f3():
    F3 = PrimeField(3)
    a = PreLieAlgebra.build(F3, 3, {(2, 2, 1): 1})
    rep = regular_representation(a)
    H = Cochain.from_entries(F3, 2, 3, 3, {((2,), 2): (0, 0, 1)})
    rng = random.Random(14)
    for _ in range(100):
        K = Matrix(F3, [[rng.randint(0, 2) for _ in range(3)] for _ in range(3)])
        assert check_maurer_cartan(a, rep, H, K).ok == \
            check_rcw_reynolds(a, rep, H, K).ok


def test_mc_lift_matches_direct_over_f5():
    # 6 is invertible mod 5: direct evaluation must agree with the checker
    F5 = PrimeField(5)
    a = PreLieAlgebra.build(F5, 3, {(2, 2, 1): 1})
    rep = regular_representation(a)
    H = Cochain.from_entries(F5, 2, 3, 3, {((2,), 2): (0, 0, 1)})
    rng = random.Random(15)
    for _ in range(40):
        K = Matrix(F5, [[rng.randint(0, 4) for _ in range(3)] for _ in range(3)])
        assert check_maurer_cartan(a, rep, H, K).ok == \
            check_rcw_reynolds(a, rep, H, K).ok


# ---------------------------------------------------------------------------
# d_K


def test_dk_zero(g3_data):
    assert d_K(g3_data, Cochain.zero(QQ, 1, 3, 3)).is_zero()


def test_dk_equals_signed_partial(g3_data):
    from prelie.opcohomology import operator_coboundary

    rng = random.Random(16)
    for n in (1, 2):
        for _ in range(5):
            f = random_cochain(rng, QQ, n, 3, 3)
            dk = d_K(g3_data, f)
            pd = operator_coboundary(g3_data, f)
            assert dk == (pd if n % 2 == 1 else -pd)


def test_dk_squares_to_zero(g3_data):
    rng = random.Random(17)
    for _ in range(5):
        f = random_cochain(rng, QQ, 1, 3, 3)
        assert d_K(g3_data, d_K(g3_data, f)).is_zero()


def test_dk_over_f2():
    F2 = PrimeField(2)
    a = PreLieAlgebra.build(F2, 3, {(2, 2, 1): 1})
    rep = regular_representation(a)
    H = Cochain.from_entries(F2, 2, 3, 3, {((2,), 2): (0, 0, 1)})
    K = Matrix(F2, [[1, 0, 1], [0, 1, 0], [0, 0, 0]])
    data = ReynoldsData.build(a, rep, H, K)
    from prelie.opcohomology import operator_coboundary

    rng = random.Random(18)
    for n in (1, 2):
        f = random_cochain(rng, F2, n, 3, 3, 0, 1)
        dk = d_K(data, f)
        pd = operator_coboundary(data, f)
        assert dk == (pd if n % 2 == 1 else -pd)
        assert d_K(data, dk).is_zero()


def _difference_columns(diff: Cochain, cols: int) -> list:
    """The columns of the differential that dk_difference holds as linear forms."""
    coords = [x for v in diff.values for x in v]
    zero = diff.field.zero
    return [[x.terms.get((c,), zero) if isinstance(x, Poly) else zero for x in coords]
            for c in range(cols)]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)],
                         ids=repr)
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_dk_difference_matches_the_per_basis_loop(monkeypatch, field, degree):
    rng = random.Random(90 + degree)
    for _ in range(3):
        data = random_reynolds_data(rng, field, max_dim=2)
        cols = len(cochain_keys(data.rep.dim_v, degree)) * data.algebra.dim
        diff = dk_difference(data, degree)
        assert diff.is_zero()
        assert _difference_columns(diff, cols) == basis_dk_columns(data, degree)

    # a wrong d_K: both routes see the same nonzero difference, column by column
    original = brackets._d_K
    monkeypatch.setattr(brackets, "_d_K",
                        lambda data, twisted, f: original(data, twisted, f).scale(2))
    data = parse_bundle(str(CORPUS / "g3-k-rowzero.json"), field_name(field)).reynolds_data()
    cols = len(cochain_keys(data.rep.dim_v, degree)) * data.algebra.dim
    oracle = basis_dk_columns(data, degree)
    assert _difference_columns(dk_difference(data, degree), cols) == oracle
    assert any(any(column) for column in oracle)


@pytest.mark.parametrize("degree", [0, -1])
def test_dk_difference_rejects_degree_below_one(g3_data, degree):
    with pytest.raises(ShapeError, match="degree must be >= 1"):
        dk_difference(g3_data, degree)


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(7)], ids=repr)
def test_combinations_on_the_integer_lift_match_direct_field_evaluation(field):
    # 6 is invertible in each field, so the combinations can also be taken
    # in the field's own scalars; over Q the draws include fractional data
    rng = random.Random(40 + field.char)
    scaled = 0
    for _ in range(6):
        data = random_reynolds_data(rng, field, max_dim=2)
        g, rep, H = data.algebra, data.rep, data.cocycle
        m = rep.dim_v
        K = Matrix(field, [[field(rng.randint(-3, 3)) / field(rng.choice([1, 2, 3]))
                            for _ in range(m)] for _ in range(g.dim)])
        K2 = Matrix(field, [[field(rng.randint(-2, 2)) for _ in range(m)]
                            for _ in range(g.dim)])
        f = random_cochain(rng, field, rng.randint(1, 2), m, g.dim).scale(
            field(1) / field(rng.choice([1, 2, 3])))
        scaled += any(getattr(x, "denominator", 1) > 1
                      for x in K.data[0] + f.values[0] + K2.data[0])
        assert mc_residual(g, rep, H, K) == field_mc_residual(g, rep, H, K)
        assert d_K(data, f) == field_d_K(data, f)
        assert twisted_mc_residual(data, K2) == field_twisted_mc_residual(data, K2)
    assert scaled if field == QQ else not scaled  # over Q the lift's D exceeds 1


def _off_by_one(derived):
    """`brackets._derived` with one added to every coordinate of a ternary bracket,
    before the term is divided by its denominator."""
    def patched(structure, dim, cochains, values):
        top, degree, sign = derived(structure, dim, cochains, values)
        if len(cochains) < 3:
            return top, degree, sign
        P = cochains[0]
        return {key: [(t, dict(top.get(key, ())).get(t, 0) + 1) for t in range(P.dim_target)]
                for key in cochain_keys(P.dim_source, degree)}, degree, sign
    return patched


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=repr)
def test_a_term_its_denominator_does_not_divide_is_an_invariant_error(monkeypatch, field):
    data = parse_bundle(str(CORPUS / "g3-k-rowzero.json"), field_name(field)).reynolds_data()
    monkeypatch.setattr(brackets, "_derived", _off_by_one(brackets._derived))
    with pytest.raises(InvariantError, match="not divisible by 6"):
        mc_residual(data.algebra, data.rep, data.cocycle, data.operator)
    with pytest.raises(InvariantError, match="not divisible by 2"):
        dk_difference(data, 1)  # the Poly entries are divided coefficient by coefficient


@pytest.mark.parametrize("command", ["mc-check", "check mc", "check twisted-mc",
                                     "dk-consistency --degree 2"])
def test_cli_a_term_its_denominator_does_not_divide_exits_4(monkeypatch, capsys, tmp_path,
                                                            command):
    doc = json.loads((CORPUS / "g3-k-rowzero.json").read_text())
    doc["operatorKprime"] = doc["operatorK"]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(brackets, "_derived", _off_by_one(brackets._derived))
    words = command.split()
    at = 2 if words[0] == "check" else 1
    code = main(words[:at] + [str(path)] + words[at:])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_INVARIANT
    assert out["error"] == "InvariantError" and "not divisible by" in out["message"]


# ---------------------------------------------------------------------------
# twisted structure


def test_twisted_mc_zero_and_negative(g3_data):
    assert check_twisted_mc(g3_data, Matrix.zero(QQ, 3, 3)).ok
    assert check_twisted_mc(g3_data, -g3_data.operator).ok  # K + K' = 0 is Reynolds


def test_twisted_mc_agrees_with_sum_checker(g3_data):
    rng = random.Random(19)
    data = g3_data
    seen = {True: 0, False: 0}
    for _ in range(25):
        K2 = Matrix(QQ, [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
        twisted = check_twisted_mc(data, K2).ok
        direct = check_rcw_reynolds(data.algebra, data.rep, data.cocycle,
                                    data.operator + K2).ok
        assert twisted == direct
        seen[direct] += 1
    assert seen[True] and seen[False]


def test_twisted_mc_over_f3():
    F3 = PrimeField(3)
    a = PreLieAlgebra.build(F3, 3, {(2, 2, 1): 1})
    rep = regular_representation(a)
    H = Cochain.from_entries(F3, 2, 3, 3, {((2,), 2): (0, 0, 1)})
    K = Matrix(F3, [[1, 2, 0], [0, 1, 1], [0, 0, 0]])
    data = ReynoldsData.build(a, rep, H, K)
    rng = random.Random(20)
    for _ in range(60):
        K2 = Matrix(F3, [[rng.randint(0, 2) for _ in range(3)] for _ in range(3)])
        assert check_twisted_mc(data, K2).ok == \
            check_rcw_reynolds(a, rep, H, K + K2).ok


def test_mn_bracket_graded_leibniz():
    # [P,[Q,R]] = [[P,Q],R] + (-1)^{pq}[Q,[P,R]] with MN degrees p = arity-1
    rng = random.Random(50)
    for _ in range(4):
        for (ap, aq, ar) in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)]:
            P = random_cochain(rng, QQ, ap, 2, 2)
            Q = random_cochain(rng, QQ, aq, 2, 2)
            R = random_cochain(rng, QQ, ar, 2, 2)
            p, q = ap - 1, aq - 1
            lhs = mn_bracket(P, mn_bracket(Q, R))
            rhs = mn_bracket(mn_bracket(P, Q), R)
            corr = mn_bracket(Q, mn_bracket(P, R))
            rhs = (rhs - corr) if (p * q) % 2 == 1 else (rhs + corr)
            assert lhs == rhs


def test_derived_bracket_graded_leibniz():
    # same shape with operator-cochain degrees p = arity
    rng = random.Random(51)
    a = g2_algebra()
    rep = regular_representation(a)

    def br(P, Q):
        return derived_bracket(untwisted_structure(a, rep), P, Q)

    for _ in range(4):
        for (p, q, r) in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 1)]:
            P = random_cochain(rng, QQ, p, 2, 2)
            Q = random_cochain(rng, QQ, q, 2, 2)
            R = random_cochain(rng, QQ, r, 2, 2)
            lhs = br(P, br(Q, R))
            rhs = br(br(P, Q), R)
            corr = br(Q, br(P, R))
            rhs = (rhs - corr) if (p * q) % 2 == 1 else (rhs + corr)
            assert lhs == rhs


def test_a_term_whose_denominator_is_one_is_not_divided(monkeypatch):
    # a term with an integer coefficient skips the exact division; the
    # 1/2 and -1/6 of the Maurer-Cartan terms keep it
    divisions = count_calls(monkeypatch, brackets, "_divide_exactly")
    data = parse_bundle(str(CORPUS / "g3-k-deform.json")).reynolds_data()
    mc_residual(data.algebra, data.rep, data.cocycle, data.operator)
    dk_difference(data, 1)
    assert {b for _, b in divisions} == {2, 6}
