import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    dense_inverse,
    dense_kernel,
    dense_rref,
    dense_solve,
    integer_rows,
    poly_at,
    scalar_sparse_rank,
    sparse_rank,
)
from prelie.errors import DimensionMismatchError, NotSquareError
from prelie.linalg import (
    Matrix,
    _echelon,
    add_vec,
    basis_vec,
    integer_rank,
    is_zero_vec,
    neg_vec,
    scale_vec,
    sparse_mul,
    sub_vec,
)
from prelie.scalars import QQ, FpElement, Poly, PrimeField, lift, scalar_to_str


def qmat(rows):
    return Matrix(QQ, rows)


def _sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m.data]


def _rank(m):
    return sparse_rank(_sparse(m))


def test_rank_identity_and_zero():
    assert _rank(Matrix.identity(QQ, 2)) == 2
    assert _rank(Matrix.zero(QQ, 3, 4)) == 0


def test_rank_dependent_rows():
    assert _rank(qmat([[1, 2], [2, 4]])) == 1


# the kernel and solve oracles: tests read cocycle spaces off `dense_kernel`
# and decide span membership with `dense_solve`

def test_kernel_identity_empty():
    assert len(dense_kernel(Matrix.identity(QQ, 2))) == 0


def test_kernel_zero_standard_basis():
    assert dense_kernel(Matrix.zero(QQ, 2, 2)) == (basis_vec(QQ, 2, 0), basis_vec(QQ, 2, 1))


def test_kernel_line():
    kb = dense_kernel(qmat([[1, 1]]))
    assert len(kb) == 1
    v = kb[0]
    assert v[0] + v[1] == 0 and any(v)


def test_solve_identity():
    b = qmat([[5], [7]])
    assert dense_solve(Matrix.identity(QQ, 2), b) == b


def test_solve_scalar_division():
    x = dense_solve(qmat([[2]]), qmat([[1]]))
    assert x == qmat([["1/2"]])


def test_solve_inconsistent_returns_none():
    assert dense_solve(qmat([[1, 1], [2, 2]]), qmat([[1], [3]])) is None


def test_solve_shape_error():
    with pytest.raises(DimensionMismatchError):
        dense_solve(qmat([[1, 1]]), qmat([[1], [2]]))


def test_inverse_identity_and_diagonal():
    assert Matrix.identity(QQ, 3).inverse() == Matrix.identity(QQ, 3)
    assert qmat([[2, 0], [0, 3]]).inverse() == qmat([["1/2", 0], [0, "1/3"]])


def test_inverse_singular_returns_none():
    assert qmat([[1, 1], [1, 1]]).inverse() is None


def test_inverse_not_square():
    with pytest.raises(NotSquareError):
        qmat([[1, 2, 3]]).inverse()


def test_kernel_canonical_for_equal_kernels():
    # equal row spaces yield identical reduced rows and kernel bases, whatever
    # the presentation
    a = qmat([[1, 2, 3], [2, 4, 6]])
    b = qmat([[3, 6, 9], [1, 2, 3], [2, 4, 6]])
    assert [r for r in a.rref()[0].data if any(r)] == [r for r in b.rref()[0].data if any(r)]
    assert dense_kernel(a) == dense_kernel(b)


small_entries = st.integers(min_value=-5, max_value=5)


@st.composite
def q_matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(st.lists(st.lists(small_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Matrix(QQ, data)


@given(q_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert _rank(m) + len(dense_kernel(m)) == m.cols


@given(q_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in dense_kernel(m):
        assert is_zero_vec(m.apply(v))


@given(q_matrices())
@settings(max_examples=40, deadline=None)
def test_solve_solution_is_exact(m):
    rng = random.Random(0)
    x = Matrix(QQ, [[rng.randint(-3, 3)] for _ in range(m.cols)])
    b = m * x
    sol = dense_solve(m, b)
    assert sol is not None
    assert m * sol == b


@given(q_matrices(max_dim=4))
@settings(max_examples=40, deadline=None)
def test_inverse_two_sided(m):
    if m.rows != m.cols:
        return
    inv = m.inverse()
    if inv is None:
        assert len(dense_rref(m)[1]) < m.rows
    else:
        eye = Matrix.identity(QQ, m.rows)
        assert m * inv == eye and inv * m == eye


def test_prime_field_linalg():
    F5 = PrimeField(5)
    m = Matrix(F5, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert inv is not None
    assert m * inv == Matrix.identity(F5, 2)
    assert Matrix(F5, [[1, 2], [2, 4]]).inverse() is None


def test_determinism_bitwise():
    rng = random.Random(42)
    data = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
    a = Matrix(QQ, data)
    b = Matrix(QQ, data)
    assert a.rref() == b.rref()


@given(q_matrices(max_dim=6), st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
@settings(max_examples=80, deadline=None)
def test_sparse_rank_matches_dense_rank(m, field):
    m = Matrix(field, m.data)
    assert _rank(m) == len(dense_rref(m)[1])


@given(q_matrices(max_dim=5), st.sampled_from([QQ, PrimeField(3)]))
@settings(max_examples=60, deadline=None)
def test_sparse_mul_matches_dense_product(m, field):
    m = Matrix(field, m.data)
    rng = random.Random(m.rows * 7 + m.cols)
    other = Matrix(field, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(m.cols)])
    assert sparse_mul(_sparse(m), _sparse(other)) == _sparse(m * other)


def test_sparse_rank_leaves_its_rows_unchanged():
    rows = [{0: QQ(1), 1: QQ(2)}, {0: QQ(2), 1: QQ(4)}, {}, {1: QQ(1)}]
    before = [dict(r) for r in rows]
    assert sparse_rank(rows) == 2
    assert rows == before


# ---------------------------------------------------------------------------
# the integer elimination engine against the scalar reference loops

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
# unequal denominators on purpose: only these tests clear them
Q_ENTRIES = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6),
             Fraction(7, 3), Fraction(-2, 5)]


@st.composite
def field_matrices(draw, field, max_rows=5, max_cols=5, square=False, shape=None):
    """Matrices with zero rows, empty shapes and unequal denominators."""
    if shape is None:
        rows = draw(st.integers(0, max_rows))
        cols = rows if square else draw(st.integers(0, max_cols))
    else:
        rows, cols = shape
    entries = (st.sampled_from(Q_ENTRIES) if field == QQ else st.integers(-6, 6))
    data = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=2)):
        if rows:
            data[i] = [0] * cols
    return Matrix(field, data, cols=cols)


def field_and_matrix(**kwargs):
    return st.sampled_from(FIELDS).flatmap(
        lambda f: st.tuples(st.just(f), field_matrices(f, **kwargs)))


def _entry_type(field):
    return Fraction if field == QQ else FpElement


def _all_field_elements(field, rows):
    kind = _entry_type(field)
    for row in rows:
        for x in row:
            assert type(x) is kind
            scalar_to_str(x)


@given(field_and_matrix(max_rows=7, max_cols=7))
@settings(max_examples=150, deadline=None)
def test_sparse_rank_matches_scalar_reference(fm):
    _, m = fm
    rows = _sparse(m)
    assert sparse_rank(rows) == scalar_sparse_rank(rows) == len(dense_rref(m)[1])


@given(field_and_matrix())
@settings(max_examples=150, deadline=None)
def test_rref_and_rank_match_dense_reference(fm):
    field, m = fm
    red, pivots = m.rref()
    ref_rows, ref_pivots = dense_rref(m)
    assert pivots == ref_pivots
    assert list(red.data) == ref_rows
    assert (red.rows, red.cols) == (m.rows, m.cols)
    _all_field_elements(field, red.data)


@given(field_and_matrix(square=True))
@settings(max_examples=120, deadline=None)
def test_inverse_matches_dense_reference(fm):
    field, m = fm
    inv = m.inverse()
    assert inv == dense_inverse(m)
    if inv is not None:
        _all_field_elements(field, inv.data)


def test_engine_on_unequal_denominators():
    rows = [{0: Fraction(1, 2), 1: Fraction(-3, 4), 2: Fraction(5, 6)},
            {0: Fraction(1, 3), 1: Fraction(-1, 2), 2: Fraction(5, 9)},
            {},
            {1: Fraction(1, 7), 2: Fraction(-2, 5)}]
    # row 1 is 2/3 of row 0
    assert sparse_rank(rows) == scalar_sparse_rank(rows) == 2
    m = Matrix(QQ, [[row.get(j, 0) for j in range(3)] for row in rows])
    assert m.rref()[0].data == tuple(dense_rref(m)[0])


def test_singular_and_inconsistent_systems():
    for field in FIELDS:
        m = Matrix(field, [[1, 2, 3], [2, 4, 6], [0, 0, 0]])
        assert m.inverse() is None and dense_inverse(m) is None
    assert Matrix(QQ, [[], []]).rref() == (Matrix(QQ, [[], []]), [])
    assert sparse_rank([]) == sparse_rank([{}, {}]) == 0


# ---------------------------------------------------------------------------
# zero-skipping kernels against the dense loops they replace


def _dense_mul(a, b):
    zero = a.field.zero
    return [[sum((a.data[i][k] * b.data[k][j] for k in range(a.cols)), zero)
             for j in range(b.cols)] for i in range(a.rows)]


def _dense_apply(a, v):
    zero = a.field.zero
    return tuple(sum((a.data[i][k] * v[k] for k in range(a.cols)), zero)
                 for i in range(a.rows))


@st.composite
def matrix_triples(draw):
    field = draw(st.sampled_from([QQ, PrimeField(3)]))
    n, k, m = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = draw(field_matrices(field, shape=(n, k)))
    b = draw(field_matrices(field, shape=(k, m)))
    c = draw(field_matrices(field, shape=(n, k)))
    scalar = draw(st.sampled_from(Q_ENTRIES if field == QQ else [0, 1, 2]))
    return field, a, b, c, field(scalar)


@given(matrix_triples())
@settings(max_examples=120, deadline=None)
def test_matrix_arithmetic_matches_dense_loops(t):
    field, a, b, c, s = t
    cases = [
        (a * b, _dense_mul(a, b)),
        (a + c, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.data, c.data)]),
        (a - c, [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a.data, c.data)]),
        (-a, [[-x for x in row] for row in a.data]),
        (a.scale(s), [[s * x for x in row] for row in a.data]),
    ]
    for got, expected in cases:
        assert [list(row) for row in got.data] == expected
        _all_field_elements(field, got.data)
    v = b.column(0) if b.cols else tuple(field.zero for _ in range(b.rows))
    got = a.apply(v)
    assert got == _dense_apply(a, v)
    _all_field_elements(field, [got])


@given(st.sampled_from([QQ, PrimeField(3)]).flatmap(
    lambda f: st.integers(0, 4).flatmap(
        lambda n: st.tuples(st.just(f), field_matrices(f, shape=(3, n))))))
@settings(max_examples=80, deadline=None)
def test_vector_helpers_match_dense_loops(fm):
    field, m = fm
    u, v, s = m.data[0], m.data[1], m.data[2][0] if m.cols else field.one
    for got, expected in [(add_vec(u, v), [x + y for x, y in zip(u, v)]),
                          (sub_vec(u, v), [x - y for x, y in zip(u, v)]),
                          (neg_vec(u), [-x for x in u]),
                          (scale_vec(s, u), [s * x for x in u]),
                          (scale_vec(field.zero, u), [field.zero * x for x in u])]:
        assert list(got) == expected
        _all_field_elements(field, [got])


def test_poly_entries_pass_through_matrix():
    # the search compiler runs checkers on matrices of polynomial entries
    x0, x1 = Poly({(0,): QQ(1)}), Poly({(1,): QQ(2)})
    generic = Matrix(QQ, [[x0, 0], [1, x1]])
    numeric = Matrix(QQ, [[3, 0], [1, 10]])
    other = Matrix(QQ, [["1/2", 1], [0, -1]])
    values = (QQ(3), QQ(5))

    def at(m):
        return [[poly_at(x, values, QQ(0)) if isinstance(x, Poly) else x for x in row]
                for row in m.data]

    assert at(generic * other) == [list(r) for r in (numeric * other).data]
    assert at(other * generic) == [list(r) for r in (other * numeric).data]
    assert at(generic + other) == [list(r) for r in (numeric + other).data]
    assert at(generic - other) == [list(r) for r in (numeric - other).data]
    assert at(generic.scale(2)) == [list(r) for r in numeric.scale(2).data]
    got = generic.apply((QQ(1), QQ(-1)))
    assert [poly_at(x, values, QQ(0)) if isinstance(x, Poly) else x for x in got] == \
        list(numeric.apply((QQ(1), QQ(-1))))
    assert isinstance(generic.apply((QQ(0), QQ(1)))[0], Fraction)


# ---------------------------------------------------------------------------
# d o d on integer rows


def _lift_together(field, *matrices):
    """Sparse rows lifted to ints by one `scalars.lift` over all the matrices."""
    width = 1 + max((j for rows in matrices for row in rows for j in row), default=0)
    dense = [[[row.get(j, field.zero) for j in range(width)] for row in rows]
             for rows in matrices]
    lifted, _ = lift(field, dense)
    return [[{j: v for j, v in enumerate(row) if v} for row in rows] for rows in lifted]


def test_nonzero_product_with_fractions_stays_nonzero():
    a = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {1: Fraction(-5, 6)}]
    b = [{0: Fraction(3, 4)}, {0: Fraction(-1, 2), 2: Fraction(2, 7)}]
    assert any(sparse_mul(a, b))
    assert any(sparse_mul(*_lift_together(QQ, a, b), 0))
    for field in (PrimeField(5), PrimeField(11)):
        fa = [{j: field(x) for j, x in row.items()} for row in a]
        fb = [{j: field(x) for j, x in row.items()} for row in b]
        assert any(sparse_mul(fa, fb)) == any(
            sparse_mul(integer_rows(fa, field.p), integer_rows(fb, field.p), field.p))


def test_zero_product_needs_one_common_scale_on_the_right():
    # a*b = b0 - 2 b1 = 0, but b0 and b1 have different denominators
    a = [{0: Fraction(1), 1: Fraction(-2)}]
    b = [{0: Fraction(1, 2)}, {0: Fraction(1, 4)}]
    assert not any(sparse_mul(a, b))
    assert not any(sparse_mul(*_lift_together(QQ, a, b), 0))
    # scaling b row by row would have reported a nonzero composite
    assert any(sparse_mul(integer_rows(a, 0), integer_rows(b, 0), 0))


# ---------------------------------------------------------------------------
# integer_rank, off the shorter side, against textbook Gaussian elimination

BIG = 2 ** 64
BIG_Q_ENTRIES = [0, 0, 1, -1, 3, Fraction(-2, 3), BIG + 1, -3 * BIG + 7,
                 Fraction(BIG ** 2 + 5, 7), Fraction(-11, BIG - 1)]
SHAPES = ["tall", "wide", "square", "zero", "duplicate", "column"]


def _shaped_matrix(field, shape: str, rng: random.Random) -> Matrix:
    """A matrix of ``shape``; over Q with entries above 2^64."""
    def entry():
        return rng.choice(BIG_Q_ENTRIES) if field == QQ else rng.randint(-6, 6)

    def full(rows, cols):
        return [[entry() for _ in range(cols)] for _ in range(rows)]

    cols = rng.randint(1, 5)
    if shape == "column":
        return Matrix(field, full(rng.randint(1, 7), 1), cols=1)
    if shape == "zero":
        return Matrix(field, [[0] * cols for _ in range(rng.randint(0, 7))], cols=cols)
    if shape == "square":
        return Matrix(field, full(cols, cols), cols=cols)
    rows = rng.randint(cols + 1, 2 * cols + 4)
    if shape == "duplicate":  # scaled copies of a few rows
        base = full(rng.randint(1, cols), cols)
        data = [[rng.choice([1, -1, 2]) * x for x in rng.choice(base)] for _ in range(rows)]
    elif rng.random() < 0.5:  # of rank at most k < cols
        k = rng.randint(1, cols)
        data = (Matrix(field, full(rows, k)) * Matrix(field, full(k, cols))).data
    else:
        data = full(rows, cols)
    m = Matrix(field, data, cols=cols)
    return Matrix(field, [m.column(j) for j in range(cols)]) if shape == "wide" else m


def _integer_rows(m: Matrix) -> list:
    (data,), _ = lift(m.field, (m.data,))
    return [{j: x for j, x in enumerate(row) if x} for row in data]


def _check_rank(rank, field, shape, seed) -> None:
    """``rank`` on the lifted rows of a matrix and of its transpose, against `sparse_rank`."""
    m = _shaped_matrix(field, shape, random.Random(seed))
    t = Matrix(field, [m.column(j) for j in range(m.cols)], cols=m.rows)
    expected = sparse_rank(_sparse(m))
    assert rank(_integer_rows(m), field.char) == expected
    assert rank(_integer_rows(t), field.char) == expected


@given(st.sampled_from(FIELDS), st.sampled_from(SHAPES), st.integers(0, 2 ** 32))
@settings(max_examples=200, deadline=None)
def test_integer_rank_matches_gaussian_elimination_and_its_transpose(field, shape, seed):
    _check_rank(integer_rank, field, shape, seed)


def test_the_rank_oracle_sees_entries_above_two_to_the_64():
    m = Matrix(QQ, [[BIG + 1, BIG], [BIG, BIG - 1], [1, 1]])  # det of the top 2x2 is -1
    assert sparse_rank(_sparse(m)) == integer_rank(_integer_rows(m), 0) == 2
    assert sparse_rank(_sparse(Matrix(QQ, [[BIG, 1], [BIG ** 2, BIG]]))) == 1


def test_a_transpose_that_drops_a_column_fails_the_rank_check():
    # a mutant of `integer_rank` whose transpose takes its columns from the
    # first row's keys: a tall matrix whose first row misses a column loses it
    def mutant(rows, p):
        rows = [row for row in rows if row]
        if len(rows) > len({j for row in rows for j in row}):
            transpose = {j: {} for j in rows[0]}
            for i, row in enumerate(rows):
                for j, v in row.items():
                    if j in transpose:
                        transpose[j][i] = v
            rows = list(transpose.values())
        return len(_echelon(rows, p))

    failures = 0
    for seed in range(40):
        for field in FIELDS:
            try:
                _check_rank(mutant, field, "tall", seed)
            except AssertionError:
                failures += 1
    assert failures
