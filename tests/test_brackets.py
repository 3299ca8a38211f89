import json
import random
from itertools import permutations

import pytest

from conftest import (
    CORPUS,
    count_calls,
    g2_algebra,
    g3_algebra,
    g3_cocycle,
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
    field_d_K,
    field_mc_residual,
    field_twisted_mc_residual,
    product_cochain,
)
from prelie import brackets
from prelie.algebra import PreLieAlgebra, check_prelie, regular_representation
from prelie.brackets import (
    check_maurer_cartan,
    check_twisted_mc,
    cocycle_structure,
    d_K,
    derived_bracket,
    diamond,
    dk_difference,
    lift_operator_cochain,
    mc_residual,
    mn_bracket,
    tensor_cochain,
    ternary_bracket,
    twisted_mc_residual,
    untwisted_structure,
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
                expected = P.eval([Q.eval_basis((x, y)), z])
                expected = sub_vec(expected, P.eval([Q.eval_basis((y, x)), z]))
                expected = sub_vec(expected, P.eval([x, Q.eval_basis((y, z))]))
                expected = add_vec(expected, P.eval([y, Q.eval_basis((x, z))]))
                assert D.eval_basis((x, y, z)) == expected


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
                expected = scale_vec(QQ(2), sub_vec(a.mul(Ku, Kv), K.apply(inner)))
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
            expected = add_vec(a.mul(K.column(u), K2.column(v)),
                               a.mul(K2.column(u), K.column(v)))
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
                    H.eval([K.column(u), K.column(v)])))
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


@pytest.mark.parametrize("combination", ["mc_residual", "d_K", "twisted_mc_residual",
                                         "dk_difference"])
def test_each_combination_builds_its_structures_once(monkeypatch, combination):
    bundle = parse_bundle(str(CORPUS / "g3-k-twisted.json"))
    data, K2 = bundle.reynolds_data(), bundle.matrix("operatorKprime")
    args = {"mc_residual": (data.algebra, data.rep, data.cocycle, data.operator),
            "d_K": (data, Cochain.from_matrix(K2)),
            "twisted_mc_residual": (data, K2),
            "dk_difference": (data, 2)}[combination]
    calls = {name: count_calls(monkeypatch, brackets, name)
             for name in ("untwisted_structure", "cocycle_structure")}
    getattr(brackets, combination)(*args)
    assert {name: len(c) for name, c in calls.items()} == \
        {"untwisted_structure": 1, "cocycle_structure": 1}


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
    original = brackets.d_K
    monkeypatch.setattr(brackets, "d_K", lambda data, f: original(data, f).scale(2))
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


def _off_by_one(bracket):
    """A ternary bracket with one added to every coordinate of its value."""
    def patched(*args):
        c = bracket(*args)
        return Cochain(c.field, c.degree, c.dim_source, c.dim_target,
                       [[x + 1 for x in v] for v in c.values])
    return patched


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=repr)
def test_a_term_its_denominator_does_not_divide_is_an_invariant_error(monkeypatch, field):
    data = parse_bundle(str(CORPUS / "g3-k-rowzero.json"), field_name(field)).reynolds_data()
    monkeypatch.setattr(brackets, "ternary_bracket", _off_by_one(brackets.ternary_bracket))
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
    monkeypatch.setattr(brackets, "ternary_bracket", _off_by_one(brackets.ternary_bracket))
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
