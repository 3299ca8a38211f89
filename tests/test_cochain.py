import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    abelian,
    as_terms,
    conjugate_algebra,
    g3_algebra,
    g3_cocycle,
    random_cochain,
    random_pair,
    zero_representation,
)
from oracles import (
    act_L,
    act_R,
    coboundary_at,
    dense_rref,
    enumerate_unshuffles,
    expanded_eval,
    field_coboundary,
    generic_cochain,
    scalar_sparse_rank,
    sparse_rank,
)
from prelie.algebra import (
    PreLieAlgebra,
    Representation,
    regular_representation,
)
from prelie.cochain import (
    Cochain,
    check_two_cocycle,
    coboundary,
    coboundary_matrix,
    cochain_keys,
    cochain_space_dim,
    cohomology,
)
from prelie.errors import ShapeError
from prelie.linalg import Matrix, add_vec, basis_vec, is_zero_vec, neg_vec
from prelie.scalars import QQ, Poly, PrimeField


# ---------------------------------------------------------------------------
# unshuffles


def test_unshuffles_1_1():
    us = enumerate_unshuffles((1, 1))
    assert [(u.perm, u.sign) for u in us] == [((0, 1), 1), ((1, 0), -1)]


def test_unshuffles_trivial_blocks():
    for n in range(4):
        us = enumerate_unshuffles((0, n))
        assert len(us) == 1 and us[0].perm == tuple(range(n)) and us[0].sign == 1
        us = enumerate_unshuffles((n, 0))
        assert len(us) == 1 and us[0].sign == 1


def test_unshuffles_2_1():
    us = enumerate_unshuffles((2, 1))
    assert [u.sign for u in us] == [1, -1, 1]
    assert [u.perm for u in us] == [(0, 1, 2), (0, 2, 1), (1, 2, 0)]


def test_unshuffles_negative_rejected():
    with pytest.raises(ValueError):
        enumerate_unshuffles((1, -1))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_unshuffle_count_is_multinomial(pattern):
    n = sum(pattern)
    if n > 6:
        return
    expected = math.factorial(n)
    for b in pattern:
        expected //= math.factorial(b)
    assert len(enumerate_unshuffles(tuple(pattern))) == expected


def test_unshuffle_signs_against_full_enumeration():
    # every unshuffle sign equals the parity computed by brute inversion count
    for pattern in [(2, 2), (1, 3), (3, 1), (2, 1, 1), (1, 1, 1)]:
        for u in enumerate_unshuffles(pattern):
            inversions = sum(1 for i in range(len(u.perm)) for j in range(i)
                             if u.perm[j] > u.perm[i])
            assert u.sign == (-1) ** inversions


# ---------------------------------------------------------------------------
# cochain evaluation


def test_eval_table_lookup_degree2():
    f = Cochain.from_entries(QQ, 2, 2, 2, {((0,), 0): (1, 2)})
    assert f.eval_basis((0, 0)) == (QQ(1), QQ(2))
    assert f.eval_basis((1, 1)) == (QQ(0), QQ(0))


def test_eval_antisymmetry_repeated_first_block():
    f = random_cochain(random.Random(1), QQ, 3, 3, 2)
    assert is_zero_vec(f.eval_basis((1, 1, 0)))


def test_eval_sign_rule_degree3():
    f = random_cochain(random.Random(2), QQ, 3, 3, 2)
    stored = f.value_at((0, 1), 2)
    got = f.eval_basis((1, 0, 2))
    assert got == tuple(-x for x in stored)


def test_eval_transposition_sign_change():
    rng = random.Random(3)
    f = random_cochain(rng, QQ, 4, 4, 2)
    for args in [(0, 1, 2, 0), (2, 1, 0, 3)]:
        base = f.eval_basis(args)
        swapped = list(args)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert f.eval_basis(tuple(swapped)) == tuple(-x for x in base)


def test_eval_multilinear_vectors():
    f = Cochain.from_entries(QQ, 2, 2, 1, {((0,), 1): (1,), ((1,), 0): (2,)})
    v = f.eval([(QQ(1), QQ(1)), (QQ(1), QQ(1))])
    # f(e1+e2, e1+e2) = f(e1,e2) + f(e2,e1) = 1 + 2
    assert v == (QQ(3),)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_eval_matches_the_basis_expansion(field):
    rng = random.Random(11)
    f = random_cochain(rng, field, 3, 3, 2)
    f = Cochain(field, 3, 3, 2, [[x / 3 if field is QQ else x for x in v] for v in f.values])
    x = tuple(field(rng.randint(-2, 2)) for _ in range(3))
    y = tuple(field(rng.randint(-2, 2)) for _ in range(3))
    zero = (field(0),) * 3
    for args in ([x, 1, y], [0, x, 2], [x, y, x], [2, 0, 1], [x, x, 0],
                 [zero, 1, y], [x, zero, zero], [zero] * 3):
        assert f.eval(args) == expanded_eval(f, args)
    assert f.eval([zero, 1, y]) == (field(0),) * 2


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_eval_matches_the_basis_expansion_on_poly_entries(field):
    # polynomial arguments on a scalar cochain, scalar arguments on the
    # generic cochain, and both
    rng = random.Random(12)
    f = random_cochain(rng, field, 2, 3, 3)
    generic = generic_cochain(field, 2, 3, 3)
    one = field.one
    xs = tuple(Poly({(k,): one}) for k in range(3))
    u = (field(1), field(0), field(2))
    for h in (f, generic):
        for args in ([xs, 2], [1, xs], [xs, u], [u, xs], [xs, xs], [u, 0],
                     [(field(0),) * 3, xs]):
            assert as_terms(h.eval(args)) == as_terms(expanded_eval(h, args))


def test_degree1_matrix_roundtrip():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    assert Cochain.from_matrix(m).as_matrix() == m


@pytest.mark.parametrize("degree", [0, -1])
def test_a_degree_below_one_is_a_shape_error(degree):
    makers = (lambda: Cochain.zero(QQ, degree, 2, 2),
              lambda: Cochain.from_entries(QQ, degree, 2, 2, {}),
              lambda: Cochain(QQ, degree, 2, 2, []),
              lambda: cochain_space_dim(2, 2, degree),
              lambda: cochain_keys(2, degree))
    for make in makers:
        with pytest.raises(ShapeError, match="^degree must be >= 1$"):
            make()


# ---------------------------------------------------------------------------
# coboundary


def test_coboundary_of_zero_is_zero(g3_setup=None):
    a = g3_algebra()
    rep = regular_representation(a)
    z = Cochain.zero(QQ, 2, 3, 3)
    assert coboundary(a, rep, z).is_zero()


def test_coboundary_vanishes_for_zero_structure():
    a = abelian(QQ, 2)
    rep = zero_representation(a, 2)
    rng = random.Random(4)
    for degree in (1, 2):
        f = random_cochain(rng, QQ, degree, 2, 2)
        assert coboundary(a, rep, f).is_zero()


def test_coboundary_single_relation_value():
    # f = e3 -> e3: (df)(e3, e3) = e3.f(e3) + f(e3).e3 - f(e3.e3) = 2 e2
    a = g3_algebra()
    rep = regular_representation(a)
    f = Cochain.from_entries(QQ, 1, 3, 3, {((), 2): (0, 0, 1)})
    df = coboundary(a, rep, f)
    assert df.eval_basis((2, 2)) == (QQ(0), QQ(2), QQ(0))


def test_coboundary_linear():
    a = g3_algebra()
    rep = regular_representation(a)
    rng = random.Random(5)
    f = random_cochain(rng, QQ, 2, 3, 3)
    g = random_cochain(rng, QQ, 2, 3, 3)
    lhs = coboundary(a, rep, f.scale(QQ(3)) + g.scale(QQ(-2)))
    rhs = coboundary(a, rep, f).scale(QQ(3)) + coboundary(a, rep, g).scale(QQ(-2))
    assert lhs == rhs


def test_coboundary_formula_is_antisymmetric():
    rng = random.Random(6)
    a, rep = random_pair(rng)
    f = random_cochain(rng, QQ, 2, a.dim, rep.dim_v)
    for args in [(i, j, k) for i in range(a.dim) for j in range(a.dim)
                 for k in range(a.dim)]:
        direct = coboundary_at(a, rep, f, args)
        swapped = coboundary_at(a, rep, f, (args[1], args[0], args[2]))
        assert direct == tuple(-x for x in swapped)


def test_coboundary_squares_to_zero_randomized():
    rng = random.Random(7)
    for _ in range(25):
        a, rep = random_pair(rng)
        degree = rng.randint(1, 3)
        f = random_cochain(rng, QQ, degree, a.dim, rep.dim_v)
        assert coboundary(a, rep, coboundary(a, rep, f)).is_zero()


# ---------------------------------------------------------------------------
# 2-cocycles


def test_zero_is_cocycle():
    a = g3_algebra()
    rep = regular_representation(a)
    assert check_two_cocycle(a, rep, Cochain.zero(QQ, 2, 3, 3)).ok


def test_g3_weight_is_cocycle():
    a = g3_algebra()
    rep = regular_representation(a)
    assert check_two_cocycle(a, rep, g3_cocycle()).ok


def test_coboundaries_are_cocycles():
    rng = random.Random(8)
    for _ in range(10):
        a, rep = random_pair(rng)
        h = random_cochain(rng, QQ, 1, a.dim, rep.dim_v)
        H = -coboundary(a, rep, h)
        assert check_two_cocycle(a, rep, H).ok


def test_non_cocycle_detected():
    a = g3_algebra()
    rep = regular_representation(a)
    H = Cochain.from_entries(QQ, 2, 3, 3, {((2,), 1): (0, 0, 1)})
    report = check_two_cocycle(a, rep, H)
    assert not report.ok and report.violations


def _closed_form_two_cocycle_violations(a, rep, H):
    """The 2-cocycle condition expanded by hand, on every basis triple:

        L_x H(y,z) - L_y H(x,z) + R_z H(y,x) - R_z H(x,y)
          - H(y, x.z) + H(x, y.z) - H([x,y], z) = 0
    """
    violations = []
    for x in range(a.dim):
        for y in range(a.dim):
            for z in range(a.dim):
                ex, ey, ez = a.basis(x), a.basis(y), a.basis(z)
                terms = [
                    act_L(rep, ex, H.eval_basis((y, z))),
                    neg_vec(act_L(rep, ey, H.eval_basis((x, z)))),
                    act_R(rep, ez, H.eval_basis((y, x))),
                    neg_vec(act_R(rep, ez, H.eval_basis((x, y)))),
                    neg_vec(H.eval([y, a.mul_basis(x, z)])),
                    H.eval([x, a.mul_basis(y, z)]),
                    neg_vec(H.eval([a.bracket(ex, ey), z])),
                ]
                total = terms[0]
                for t in terms[1:]:
                    total = add_vec(total, t)
                if not is_zero_vec(total):
                    violations.append(((x, y, z), total))
    return violations


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_two_cocycle_report_matches_closed_form(field):
    rng = random.Random(81)
    failing = 0
    for _ in range(40):
        a, rep = random_pair(rng, field)
        if rng.random() < 0.5:
            H = -coboundary(a, rep, random_cochain(rng, field, 1, a.dim, rep.dim_v))
        else:
            H = random_cochain(rng, field, 2, a.dim, rep.dim_v, -1, 1)
        report = check_two_cocycle(a, rep, H)
        expected = _closed_form_two_cocycle_violations(a, rep, H)
        assert report.violations == expected
        assert report.ok == (not expected)
        failing += not report.ok
    assert 5 <= failing <= 35


# ---------------------------------------------------------------------------
# cohomology dimensions


def test_coboundary_matrix_shape():
    a = g3_algebra()
    rep = regular_representation(a)
    m = coboundary_matrix(a, rep, 1)
    assert (m.rows, m.cols) == (3 * 3 * 3, 3 * 3)


def test_cohomology_full_space_for_zero_structure():
    a = abelian(QQ, 2)
    rep = zero_representation(a, 2)
    for degree in (1, 2, 3):
        report = cohomology(a, rep, degree)
        expected = cochain_space_dim(2, 2, degree)
        assert (report.dim_z, report.dim_b, report.dim_h) == (expected, 0, expected)


def test_cohomology_degree1_b_is_zero():
    a = g3_algebra()
    rep = regular_representation(a)
    report = cohomology(a, rep, 1)
    assert report.dim_b == 0 and report.dim_h == report.dim_z


def test_g3_degree1_cohomology_is_derivation_space():
    # Z^1 for the regular representation = derivations; dimension 5 here
    a = g3_algebra()
    rep = regular_representation(a)
    report = cohomology(a, rep, 1)
    assert report.dim_z == 9 - len(dense_rref(coboundary_matrix(a, rep, 1))[1])
    assert report.dim_z == 5


def test_cohomology_consistency_rank_nullity():
    rng = random.Random(9)
    for _ in range(5):
        a, rep = random_pair(rng)
        for degree in (1, 2):
            report = cohomology(a, rep, degree)
            assert report.dim_h == report.dim_z - report.dim_b >= 0


def test_unshuffle_block_refinement_signs():
    # an (a, b, c)-unshuffle is an (a+b, c)-unshuffle composed with an
    # (a, b)-unshuffle of its first block; signs multiply
    for (a, b, c) in [(2, 1, 2), (1, 2, 2), (2, 2, 1), (1, 1, 3)]:
        n = a + b + c
        fine = {(u.perm, u.sign) for u in enumerate_unshuffles((a, b, c))}
        composed = set()
        for outer in enumerate_unshuffles((a + b, c)):
            for inner in enumerate_unshuffles((a, b)):
                perm = tuple(outer.perm[inner.perm[i]] if i < a + b else outer.perm[i]
                             for i in range(n))
                composed.add((perm, outer.sign * inner.sign))
        assert fine == composed


def _independent_rank(rows):
    """Fraction-based elimination written independently of Matrix.rref."""
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    col = 0
    while rank < n_rows and col < n_cols:
        # pivot on the largest magnitude to vary the elimination order
        pivot, best = None, Fraction(0)
        for r in range(rank, n_rows):
            if abs(m[r][col]) > best:
                pivot, best = r, abs(m[r][col])
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(n_rows):
            if r != rank and m[r][col]:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def test_cohomology_ranks_cross_checked_by_independent_elimination():
    a = g3_algebra()
    rep = regular_representation(a)
    for degree in (1, 2):
        d = coboundary_matrix(a, rep, degree)
        rows = [[x for x in row] for row in d.data]
        assert sparse_rank(_sparse_rows(d)) == _independent_rank(rows)


# ---------------------------------------------------------------------------
# sparse coboundary assembly against the per-column reference


def _reference_coboundary_matrix(a, rep, degree):
    """One full coboundary per basis cochain, one column each, by the oracle formula."""
    field = a.field
    keys_n = cochain_keys(a.dim, degree)
    m = rep.dim_v
    columns = []
    for key in keys_n:
        for t in range(m):
            basis_cochain = Cochain.from_entries(field, degree, a.dim, m,
                                                 {key: basis_vec(field, m, t)})
            image = field_coboundary(a, rep, basis_cochain)
            columns.append([x for v in image.values for x in v])
    return Matrix.from_columns(field, columns, cochain_space_dim(a.dim, m, degree + 1))


def _sparse_rows(d):
    return [{j: x for j, x in enumerate(row) if x} for row in d.data]


FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_coboundary_matrix_matches_per_column_reference(field):
    rng = random.Random(10 + field.char)
    for _ in range(8):
        a, rep = random_pair(rng, field)
        for degree in (1, 2, 3):
            d = coboundary_matrix(a, rep, degree)
            assert d == _reference_coboundary_matrix(a, rep, degree)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_coboundary_matches_the_oracle_formula(field):
    # the block rows on the integer lift against the formula evaluated term
    # by term on the field scalars; over Q, f has fractional coordinates
    rng = random.Random(30 + field.char)
    third = field(1) / field(3) if field.char != 3 else field(2)
    for _ in range(6):
        a, rep = random_pair(rng, field)
        for degree in (1, 2, 3):
            f = random_cochain(rng, field, degree, a.dim, rep.dim_v).scale(third)
            assert coboundary(a, rep, f) == field_coboundary(a, rep, f)
    a = g3_algebra(field)
    rep = regular_representation(a)
    generic = generic_cochain(field, 2, a.dim, rep.dim_v)
    got, expected = coboundary(a, rep, generic), field_coboundary(a, rep, generic)
    assert [as_terms(v) for v in got.values] == [as_terms(v) for v in expected.values]
    assert any(any(as_terms(v)) for v in got.values)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_sparse_rank_of_coboundary_matches_dense_ranks(field):
    rng = random.Random(20 + field.char)
    for _ in range(6):
        a, rep = random_pair(rng, field)
        for degree in (1, 2, 3):
            d = coboundary_matrix(a, rep, degree)
            rank = sparse_rank(_sparse_rows(d))
            assert rank == len(dense_rref(d)[1])
            if field == QQ:
                assert rank == _independent_rank(d.data)


def test_cohomology_raises_when_coboundary_does_not_square_to_zero():
    # the actions violate the representation identities, so d o d != 0
    for field in (QQ, PrimeField(3)):
        g = PreLieAlgebra.build(field, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
        L = [Matrix(field, [[1, 1], [0, 1]]), Matrix(field, [[0, 1], [0, 0]])]
        R = [Matrix(field, [[0, 0], [1, 0]]), Matrix(field, [[1, 0], [0, 0]])]
        rep = Representation(g, 2, L, R, check=False)
        with pytest.raises(AssertionError, match="coboundary does not square to zero"):
            cohomology(g, rep, 2)


def test_cohomology_with_unequal_denominators():
    # rescaling the basis of k[x]/(x^4) by 1, 2, 3, 5 gives structure
    # constants and coboundary rows with unequal denominators; the
    # dimensions are invariants, and d o d = 0 must still be seen as zero
    a = _truncated_polynomial(4)
    b = conjugate_algebra(a, Matrix(QQ, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0],
                                          [0, 0, 0, 5]]))
    assert any(x.denominator > 1 for plane in b.product for row in plane for x in row)
    rep_a, rep_b = regular_representation(a), regular_representation(b)
    for degree in (2, 3):
        ra, rb = cohomology(a, rep_a, degree), cohomology(b, rep_b, degree)
        assert (ra.dim_z, ra.dim_b, ra.dim_h) == (rb.dim_z, rb.dim_b, rb.dim_h)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)], ids=repr)
def test_cohomology_over_prime_fields_checks_d_squared_mod_p(field):
    # the integer product of the residue rows is nonzero; only mod p is it zero
    a = PreLieAlgebra.build(field, 4, {(i, j, i + j): 1 for i in range(4) for j in range(4)
                                       if i + j < 4})
    rep = regular_representation(a)
    for degree in (2, 3):
        report = cohomology(a, rep, degree)
        assert report.dim_h == report.dim_z - report.dim_b >= 0


def test_cohomology_sees_a_fractional_nonzero_composite():
    half, third = "1/2", "-1/3"
    g = PreLieAlgebra.build(QQ, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    L = [Matrix(QQ, [[1, half], [0, 1]]), Matrix(QQ, [[0, third], [0, 0]])]
    R = [Matrix(QQ, [[0, 0], [half, 0]]), Matrix(QQ, [[third, 0], [0, 0]])]
    rep = Representation(g, 2, L, R, check=False)
    with pytest.raises(AssertionError, match="coboundary does not square to zero"):
        cohomology(g, rep, 2)


def _truncated_polynomial(n):
    """k[x]/(x^n) over Q on the basis 1, x, ..., x^(n-1)."""
    entries = {(i, j, i + j): 1 for i in range(n) for j in range(n) if i + j < n}
    return PreLieAlgebra.build(QQ, n, entries)


@pytest.mark.parametrize("n, degree, expected", [
    (5, 2, (41, 21, 20)),
    (4, 3, (57, 39, 18)),
    (4, 4, (51, 39, 12)),
    (6, 2, (61, 31, 30)),
    (5, 3, (124, 84, 40)),
    (6, 3, (230, 155, 75)),
    (6, 4, (410, 310, 100)),
])
def test_truncated_polynomial_ladder(n, degree, expected):
    a = _truncated_polynomial(n)
    report = cohomology(a, regular_representation(a), degree)
    assert (report.dim_z, report.dim_b, report.dim_h) == expected


@pytest.mark.parametrize("n, degree, expected", [
    (3, 2, (15, 6, 9)),   # (13, 7, 6) over Q
    (4, 3, (57, 39, 18)),
    (5, 3, (124, 84, 40)),
])
def test_truncated_polynomial_over_f3_matches_the_field_rank_oracle(n, degree, expected):
    # the lifted rows reduced mod 3 against the field rows of coboundary_matrix,
    # ranked by the elimination on F_3 scalars
    F3 = PrimeField(3)
    a = PreLieAlgebra.build(F3, n, {(i, j, i + j): 1 for i in range(n) for j in range(n)
                                    if i + j < n})
    rep = regular_representation(a)
    dim = cochain_space_dim(n, n, degree)
    rank_n = scalar_sparse_rank(_sparse_rows(coboundary_matrix(a, rep, degree)))
    rank_prev = scalar_sparse_rank(_sparse_rows(coboundary_matrix(a, rep, degree - 1)))
    report = cohomology(a, rep, degree)
    assert (report.dim_z, report.dim_b) == (dim - rank_n, rank_prev)
    assert (report.dim_z, report.dim_b, report.dim_h) == expected
