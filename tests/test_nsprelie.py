import random
from itertools import product

import pytest

from conftest import (
    abelian,
    g2_algebra,
    g3_algebra,
    g3b_algebra,
    g3_cocycle,
    padded_reynolds_data,
    random_reynolds_data,
    zero_representation,
)
from oracles import act_L, act_R
from prelie.algebra import check_prelie, regular_representation
from prelie.cochain import Cochain
from prelie.errors import ShapeError, SingularError, UnverifiedNSError, UnverifiedOperatorError
from prelie.linalg import Matrix, basis_vec
from prelie.nsprelie import (
    NSPreLie,
    check_nijenhuis,
    check_ns_prelie,
    compatible_ns_from_invertible,
    deformed_product,
    ns_from_nijenhuis,
    _deformed_tensor,
    ns_from_reynolds,
    reynolds_from_ns,
    subadjacent,
)
from prelie.reynolds import (
    ReynoldsData,
    _induced_tensor,
    induced_product,
    reynolds_from_invertible_cochain,
)
from prelie.scalars import QQ, PrimeField


def zero_tensor(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------------------
# axioms


def test_zero_ns_passes():
    report = check_ns_prelie(QQ, zero_tensor(2), zero_tensor(2), zero_tensor(2))
    assert report.ok
    assert set(report.parts) == {"A1", "A2", "A3"}


def test_ldendriform_pair_with_trivial_circle():
    # tri/trl from a Nijenhuis construction have vanishing circle exactly
    # when N kills every product; N = 0 gives an (L-dendriform-style) pair
    a = g2_algebra()
    N = Matrix.zero(QQ, 2, 2)
    ns = ns_from_nijenhuis(a, N)
    assert all(not any(v) for plane in ns.circ for v in plane)
    assert check_ns_prelie(QQ, ns.tri, ns.trl, ns.circ).ok


def test_two_dim_table_passes():
    # c = d = 1 table
    tri = zero_tensor(2)
    trl = zero_tensor(2)
    circ = zero_tensor(2)
    tri[1][0][0] = -1
    tri[1][1][1] = 1
    trl[1][0][0] = -1
    trl[1][1] = [-1, 1]
    circ[1][0][0] = 1
    circ[1][1] = [-1, -1]
    report = check_ns_prelie(QQ, tri, trl, circ)
    assert report.ok


def test_broken_table_fails_with_axiom_verdicts():
    tri = zero_tensor(2)
    tri[1][0][0] = -1
    tri[1][1][1] = 1
    trl = zero_tensor(2)
    trl[1][1][0] = 5  # break A2 only
    circ = zero_tensor(2)
    report = check_ns_prelie(QQ, tri, trl, circ)
    assert not report.ok
    assert not report.parts["A2"].ok


def test_dimension_mismatch_rejected():
    with pytest.raises(ShapeError):
        check_ns_prelie(QQ, zero_tensor(2), zero_tensor(3), zero_tensor(2))


# ---------------------------------------------------------------------------
# subadjacent product


def test_subadjacent_zero():
    ns = NSPreLie(QQ, zero_tensor(2), zero_tensor(2), zero_tensor(2))
    sub = subadjacent(ns)
    assert all(not any(v) for plane in sub.product for v in plane)


def test_subadjacent_paper_two_dim_table():
    a = g2_algebra()
    ns = ns_from_nijenhuis(a, Matrix(QQ, [[1, 1], [0, 1]]))
    sub = subadjacent(ns)
    # e2*e1 = -e1 - e1 + e1 = -e1;  e2*e2 = e2 + (-e1+e2) + (-e1-e2) = -2e1 + e2
    assert sub.mul_basis(1, 0) == (QQ(-1), QQ(0))
    assert sub.mul_basis(1, 1) == (QQ(-2), QQ(1))
    assert check_prelie(QQ, sub.product).ok


# ---------------------------------------------------------------------------
# Nijenhuis operators


def test_identity_and_zero_are_nijenhuis():
    for a in (g2_algebra(), g3_algebra(), g3b_algebra()):
        assert check_nijenhuis(a, Matrix.identity(QQ, a.dim)).ok
        assert check_nijenhuis(a, Matrix.zero(QQ, a.dim, a.dim)).ok


def test_upper_triangular_family_two_dim():
    a = g2_algebra()
    for c in (0, 1, 2, -3):
        for d in (0, 1, -2):
            N = Matrix(QQ, [[c, d], [0, c]])
            assert check_nijenhuis(a, N).ok


def test_three_dim_family():
    a = g3b_algebra()
    for (d, e, f) in [(1, 1, 0), (1, 1, 1), (2, 3, -1), (0, 0, 5)]:
        N = Matrix(QQ, [[d, 0, 0], [0, e, f], [0, 0, e]])
        assert check_nijenhuis(a, N).ok


def test_non_nijenhuis_detected():
    a = g2_algebra()
    N = Matrix(QQ, [[0, 1], [1, 0]])
    report = check_nijenhuis(a, N)
    assert not report.ok


# ---------------------------------------------------------------------------
# deformed product


def test_deformed_zero_and_identity():
    a = g2_algebra()
    z = deformed_product(a, Matrix.zero(QQ, 2, 2))
    assert all(not any(v) for plane in z.product for v in plane)
    same = deformed_product(a, Matrix.identity(QQ, 2))
    assert same.product == a.product


def test_deformed_product_passes_and_is_compatible():
    a = g2_algebra()
    N = Matrix(QQ, [[1, 1], [0, 1]])
    out = deformed_product(a, N)  # re-verifies compatibility internally
    assert check_prelie(QQ, out.product).ok


def test_deformed_requires_nijenhuis():
    a = g2_algebra()
    with pytest.raises(UnverifiedOperatorError):
        deformed_product(a, Matrix(QQ, [[0, 1], [1, 0]]))


# ---------------------------------------------------------------------------
# construction from Nijenhuis operators: the two worked tables


def expected_two_dim_table(c, d):
    tri = zero_tensor(2)
    trl = zero_tensor(2)
    circ = zero_tensor(2)
    tri[1][0][0] = -c
    tri[1][1][1] = c
    trl[1][0][0] = -c
    trl[1][1] = [-d, c]
    circ[1][0][0] = c
    circ[1][1] = [-d, -c]
    return tri, trl, circ


def test_ns_from_nijenhuis_two_dim_tables():
    a = g2_algebra()
    for (c, d) in [(1, 0), (1, 1), (2, 3)]:
        ns = ns_from_nijenhuis(a, Matrix(QQ, [[c, d], [0, c]]))
        tri, trl, circ = expected_two_dim_table(c, d)
        assert ns.tri == NSPreLie(QQ, tri, trl, circ).tri
        assert ns.trl == NSPreLie(QQ, tri, trl, circ).trl
        assert ns.circ == NSPreLie(QQ, tri, trl, circ).circ


def expected_three_dim_table(d, e, f):
    tri = zero_tensor(3)
    trl = zero_tensor(3)
    circ = zero_tensor(3)
    tri[2][1][1] = e
    tri[2][2][2] = -e
    trl[2][1][1] = e
    trl[2][2] = [0, f, -e]
    circ[2][1][1] = -e
    circ[2][2] = [0, f, e]
    return tri, trl, circ


def test_ns_from_nijenhuis_three_dim_tables():
    a = g3b_algebra()
    for (d, e, f) in [(1, 1, 0), (1, 1, 1)]:
        N = Matrix(QQ, [[d, 0, 0], [0, e, f], [0, 0, e]])
        ns = ns_from_nijenhuis(a, N)
        tri, trl, circ = expected_three_dim_table(d, e, f)
        ref = NSPreLie(QQ, tri, trl, circ)
        assert (ns.tri, ns.trl, ns.circ) == (ref.tri, ref.trl, ref.circ)


def test_ns_subadjacent_equals_deformed_product():
    rng = random.Random(40)
    a = g2_algebra()
    for _ in range(5):
        c = rng.randint(-2, 2)
        d = rng.randint(-2, 2)
        N = Matrix(QQ, [[c, d], [0, c]])
        ns = ns_from_nijenhuis(a, N)
        assert ns.star_tensor() == deformed_product(a, N).product


# ---------------------------------------------------------------------------
# construction from Reynolds operators


def test_ns_from_reynolds_zero_data():
    a = abelian(QQ, 2)
    rep = zero_representation(a, 2)
    data = ReynoldsData.build(a, rep, Cochain.zero(QQ, 2, 2, 2),
                              Matrix.zero(QQ, 2, 2))
    ns = ns_from_reynolds(data)
    assert all(not any(v) for t in (ns.tri, ns.trl, ns.circ) for plane in t
               for v in plane)


def test_ns_from_reynolds_e11_zero(g3_bundle):
    a, rep, H = g3_bundle
    K = Matrix(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    data = ReynoldsData.build(a, rep, H, K)
    ns = ns_from_reynolds(data)
    assert all(not any(v) for t in (ns.tri, ns.trl, ns.circ) for plane in t
               for v in plane)


def test_ns_from_reynolds_subadjacent_matches_induced():
    rng = random.Random(41)
    for _ in range(15):
        data = random_reynolds_data(rng)
        ns = ns_from_reynolds(data)
        assert ns.star_tensor() == induced_product(data).product


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_subadjacent_tables_are_the_derived_tables(field):
    # the sum of the three splitting tables is, summand by summand, the
    # induced (resp. deformed) table, so the constructors do not compare them
    rng = random.Random(42)
    for _ in range(8):
        data = random_reynolds_data(rng, field)
        ns = ns_from_reynolds(data)
        assert ns.star_tensor() == _induced_tensor(
            data.algebra, data.rep, data.cocycle, data.operator)
    a = g2_algebra(field)
    for c, d in product((-1, 0, 1), repeat=2):
        N = Matrix(field, [[c, d], [0, c]])
        assert ns_from_nijenhuis(a, N).star_tensor() == _deformed_tensor(a, N)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_ns_from_reynolds_frame_readings_on_padded_bundles(field):
    # dim V > dim g and K != 0: each table read off the frame is the action
    # or weight formula, and the three sum to the induced table
    rng = random.Random(43)
    for _ in range(6):
        data = padded_reynolds_data(rng, field)
        g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
        m = rep.dim_v
        assert m > g.dim and not K.is_zero()
        e = [basis_vec(field, m, u) for u in range(m)]
        ns = ns_from_reynolds(data)
        for u in range(m):
            for v in range(m):
                Ku, Kv = K.column(u), K.column(v)
                assert ns.tri[u][v] == act_L(rep, Ku, e[v])
                assert ns.trl[u][v] == act_R(rep, Kv, e[u])
                assert ns.circ[u][v] == H.eval([Ku, Kv])
        assert ns.star_tensor() == _induced_tensor(g, rep, H, K)


# ---------------------------------------------------------------------------
# packaging an NS-structure as an identity-operator bundle


def test_reynolds_from_ns_round_trip():
    a = g2_algebra()
    ns = ns_from_nijenhuis(a, Matrix(QQ, [[1, 1], [0, 1]]))
    data = reynolds_from_ns(ns)
    assert data.operator == Matrix.identity(QQ, 2)
    back = ns_from_reynolds(data)
    assert back == ns


def test_reynolds_from_ns_zero():
    ns = NSPreLie(QQ, zero_tensor(2), zero_tensor(2), zero_tensor(2))
    data = reynolds_from_ns(ns)
    assert data.operator == Matrix.identity(QQ, 2)
    assert data.cocycle.is_zero()


# ---------------------------------------------------------------------------
# compatible structure through an invertible operator


def test_compatible_ns_from_invertible(g3_bundle):
    a, rep, _ = g3_bundle
    h = Cochain.from_matrix(Matrix(QQ, [[1, 0, 1], [0, 1, 0], [0, 0, 2]]))
    data = reynolds_from_invertible_cochain(a, rep, h)
    ns = compatible_ns_from_invertible(data)
    assert ns.star_tensor() == a.product


def test_compatible_ns_zero_algebra():
    a = abelian(QQ, 2)
    rep = zero_representation(a, 2)
    data = ReynoldsData.build(a, rep, Cochain.zero(QQ, 2, 2, 2),
                              Matrix.identity(QQ, 2))
    ns = compatible_ns_from_invertible(data)
    assert all(not any(v) for t in (ns.tri, ns.trl, ns.circ) for plane in t
               for v in plane)


def test_compatible_ns_requires_invertible(g3_bundle):
    a, rep, H = g3_bundle
    data = ReynoldsData.build(a, rep, H, Matrix.zero(QQ, 3, 3))
    with pytest.raises(SingularError):
        compatible_ns_from_invertible(data)


def test_compatible_ns_requires_square():
    a = abelian(QQ, 2)
    rep = zero_representation(a, 3)
    data = ReynoldsData.build(a, rep, Cochain.zero(QQ, 2, 2, 3),
                              Matrix.zero(QQ, 2, 3))
    with pytest.raises(ShapeError):
        compatible_ns_from_invertible(data)


def test_every_constructor_output_passes_axioms():
    rng = random.Random(42)
    for _ in range(10):
        data = random_reynolds_data(rng)
        ns = ns_from_reynolds(data)
        assert check_ns_prelie(ns.field, ns.tri, ns.trl, ns.circ).ok
