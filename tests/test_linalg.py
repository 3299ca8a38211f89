import random

import pytest
from hypothesis import given, settings, strategies as st

from prelie.errors import DimensionMismatchError, NotSquareError
from prelie.linalg import Matrix, basis_vec, is_zero_vec, sparse_mul, sparse_rank
from prelie.scalars import QQ, PrimeField


def qmat(rows):
    return Matrix(QQ, rows)


def test_rank_identity_and_zero():
    assert Matrix.identity(QQ, 2).rank() == 2
    assert Matrix.zero(QQ, 3, 4).rank() == 0


def test_rank_dependent_rows():
    assert qmat([[1, 2], [2, 4]]).rank() == 1


def test_kernel_identity_empty():
    assert len(Matrix.identity(QQ, 2).kernel()) == 0


def test_kernel_zero_standard_basis():
    kb = Matrix.zero(QQ, 2, 2).kernel()
    assert kb.vectors == (basis_vec(QQ, 2, 0), basis_vec(QQ, 2, 1))


def test_kernel_line():
    kb = qmat([[1, 1]]).kernel()
    assert len(kb) == 1
    v = kb.vectors[0]
    assert v[0] + v[1] == 0 and any(v)


def test_solve_identity():
    b = qmat([[5], [7]])
    assert Matrix.identity(QQ, 2).solve(b) == b


def test_solve_scalar_division():
    x = qmat([[2]]).solve(qmat([[1]]))
    assert x == qmat([["1/2"]])


def test_solve_inconsistent_returns_none():
    assert qmat([[1, 1], [2, 2]]).solve(qmat([[1], [3]])) is None


def test_solve_shape_error():
    with pytest.raises(DimensionMismatchError):
        qmat([[1, 1]]).solve(qmat([[1], [2]]))


def test_inverse_identity_and_diagonal():
    assert Matrix.identity(QQ, 3).inverse() == Matrix.identity(QQ, 3)
    assert qmat([[2, 0], [0, 3]]).inverse() == qmat([["1/2", 0], [0, "1/3"]])


def test_inverse_singular_returns_none():
    assert qmat([[1, 1], [1, 1]]).inverse() is None


def test_inverse_not_square():
    with pytest.raises(NotSquareError):
        qmat([[1, 2, 3]]).inverse()


def test_kernel_canonical_for_equal_kernels():
    # equal kernels yield identical canonical bases, whatever the presentation
    a = qmat([[1, 2, 3], [2, 4, 6]])
    b = qmat([[3, 6, 9], [1, 2, 3], [2, 4, 6]])
    assert a.kernel().vectors == b.kernel().vectors


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
    assert m.rank() + len(m.kernel()) == m.cols


@given(q_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in m.kernel():
        assert is_zero_vec(m.apply(v))


@given(q_matrices())
@settings(max_examples=40, deadline=None)
def test_solve_solution_is_exact(m):
    rng = random.Random(0)
    x = Matrix(QQ, [[rng.randint(-3, 3)] for _ in range(m.cols)])
    b = m * x
    sol = m.solve(b)
    assert sol is not None
    assert m * sol == b


@given(q_matrices(max_dim=4))
@settings(max_examples=40, deadline=None)
def test_inverse_two_sided(m):
    if m.rows != m.cols:
        return
    inv = m.inverse()
    if inv is None:
        assert m.rank() < m.rows
    else:
        eye = Matrix.identity(QQ, m.rows)
        assert m * inv == eye and inv * m == eye


def test_prime_field_linalg():
    F5 = PrimeField(5)
    m = Matrix(F5, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert inv is not None
    assert m * inv == Matrix.identity(F5, 2)
    assert Matrix(F5, [[1, 2], [2, 4]]).rank() == 1


def test_determinism_bitwise():
    rng = random.Random(42)
    data = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
    a = Matrix(QQ, data)
    b = Matrix(QQ, data)
    assert a.rref()[0] == b.rref()[0]
    assert a.kernel() == b.kernel()


def _sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m.data]


@given(q_matrices(max_dim=6), st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
@settings(max_examples=80, deadline=None)
def test_sparse_rank_matches_dense_rank(m, field):
    m = Matrix(field, m.data)
    assert sparse_rank(_sparse(m)) == m.rank()


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
