import random

import pytest

import prelie.algebra as algebra
import prelie.nsprelie as nsprelie
from conftest import (
    CORPUS,
    abelian,
    as_terms,
    combination,
    g2_algebra,
    g3_algebra,
    g3b_algebra,
    random_algebra,
    random_pair,
    truncated_poly_algebra,
    zero_representation,
)
from oracles import act_L, act_R
from prelie.algebra import (
    PreLieAlgebra,
    check_derivation,
    check_jacobi,
    check_morphism,
    check_prelie,
    check_representation,
    regular_representation,
    subadjacent_lie,
)
from prelie.bundle import parse_bundle
from prelie.errors import NoUnitError, ShapeError, UnverifiedError
from prelie.linalg import Matrix
from prelie.scalars import QQ, Poly, PrimeField


def test_check_prelie_g3_passes():
    tensor = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    tensor[2][2][1] = 1
    assert check_prelie(QQ, tensor).ok


def test_check_prelie_zero_product():
    tensor = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    assert check_prelie(QQ, tensor).ok


def test_check_prelie_failure_with_residual():
    # e1.e1 = e2, e2.e1 = e1: the identity fails at the mixed triple (1,2,1)
    tensor = [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]
    report = check_prelie(QQ, tensor)
    assert not report.ok
    assert ((0, 1, 0), (QQ(0), QQ(-2))) in report.violations


def test_check_prelie_shape_error():
    with pytest.raises(ShapeError):
        check_prelie(QQ, [[[0, 0], [0, 0]], [[0, 0]]])


def test_check_prelie_basis_permutation_invariance():
    rng = random.Random(5)
    for _ in range(10):
        a = random_algebra(rng)
        perm = list(range(a.dim))
        rng.shuffle(perm)
        permuted = [[[a.product[perm[i]][perm[j]][perm[k]] for k in range(a.dim)]
                     for j in range(a.dim)] for i in range(a.dim)]
        # conjugating the tensor by a basis permutation preserves the verdict
        assert check_prelie(QQ, permuted).ok


def test_unit_validation():
    with pytest.raises(UnverifiedError):
        PreLieAlgebra.build(QQ, 2, {}, unit=(1, 0))  # abelian: 1.x = 0 != x
    a = truncated_poly_algebra()
    assert a.unit is not None
    with pytest.raises(NoUnitError):
        g3_algebra().require_unit()


def test_subadjacent_abelian_is_zero():
    a = abelian(QQ, 3)
    t = subadjacent_lie(a)
    assert all(not any(v) for plane in t for v in plane)


def test_subadjacent_g2():
    a = g2_algebra()
    t = subadjacent_lie(a)
    # [e2, e1] = e2.e1 - e1.e2 = -e1; [e1, e2] = e1
    assert t[1][0] == (QQ(-1), QQ(0))
    assert t[0][1] == (QQ(1), QQ(0))


def test_subadjacent_g3_is_zero():
    # the only product e3.e3 is symmetric, so the bracket vanishes
    t = subadjacent_lie(g3_algebra())
    assert all(not any(v) for plane in t for v in plane)


def test_subadjacent_satisfies_jacobi_on_randoms():
    rng = random.Random(9)
    for _ in range(15):
        a = random_algebra(rng)
        assert check_jacobi(QQ, subadjacent_lie(a)).ok


def test_regular_representation_passes_all():
    rng = random.Random(13)
    for _ in range(10):
        a = random_algebra(rng)
        rep = regular_representation(a)
        assert check_representation(a, rep.dim_v, rep.L, rep.R).ok


def test_zero_representation_passes():
    a = g3_algebra()
    rep = zero_representation(a, 2)
    assert check_representation(a, 2, rep.L, rep.R).ok


def test_regular_rep_g3_structure():
    a = g3_algebra()
    rep = regular_representation(a)
    # L_3 sends e3 to e2, everything else to 0
    assert rep.L[2].column(2) == (QQ(0), QQ(1), QQ(0))
    assert rep.L[2].column(0) == (QQ(0), QQ(0), QQ(0))
    assert rep.L[0].is_zero() and rep.L[1].is_zero()
    assert rep.R[2].column(2) == (QQ(0), QQ(1), QQ(0))


def test_regular_rep_g2_structure():
    a = g2_algebra()
    rep = regular_representation(a)
    # L_2 = diag(-1, 1); R_2 sends e2 to e2 and e1 to 0
    assert rep.L[1] == Matrix(QQ, [[-1, 0], [0, 1]])
    assert rep.R[1].column(1) == (QQ(0), QQ(1))
    assert rep.R[1].column(0) == (QQ(0), QQ(0))


def test_corrupted_regular_rep_fails():
    a = g3_algebra()
    rep = regular_representation(a)
    bad_r = list(rep.R)
    data = [list(row) for row in bad_r[2].data]
    data[0][0] = QQ(1)
    bad_r[2] = Matrix(QQ, data)
    report = check_representation(a, 3, rep.L, bad_r)
    assert not report.ok
    assert any(where[1] == 2 or where[2] == 2 for where, _ in report.violations)


def test_derivation_zero_and_abelian():
    a = g3_algebra()
    assert check_derivation(a, Matrix.zero(QQ, 3, 3)).ok
    ab = abelian(QQ, 2)
    assert check_derivation(ab, Matrix(QQ, [[1, 2], [3, 4]])).ok


def test_derivation_diagonal_family_on_g3():
    a = g3_algebra()
    for alpha, beta in [(0, 1), (2, 3), (-1, 5)]:
        d = Matrix(QQ, [[alpha, 0, 0], [0, 2 * beta, 0], [0, 0, beta]])
        assert check_derivation(a, d).ok
    # wrong scaling between the e2 and e3 weights breaks it
    assert not check_derivation(a, Matrix(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])).ok


def test_morphism_identity_and_zero():
    a = g2_algebra()
    assert check_morphism(a, a, Matrix.identity(QQ, 2)).ok
    assert check_morphism(a, a, Matrix.zero(QQ, 2, 2)).ok


def test_morphism_shape_error():
    with pytest.raises(ShapeError):
        check_morphism(g2_algebra(), g3_algebra(), Matrix.identity(QQ, 2))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_actions_match_the_action_matrices(field):
    # x and u with zero, scalar and polynomial coordinates
    rng = random.Random(4)
    one = field.one
    for _ in range(5):
        a, rep = random_pair(rng, field)
        n, m = a.dim, rep.dim_v
        xs = [tuple(field(rng.randint(-2, 2)) for _ in range(n)), (field(0),) * n,
              tuple(Poly({(k,): one}) if k % 2 else field(k) for k in range(n))]
        us = [tuple(field(rng.randint(-2, 2)) for _ in range(m)), (field(0),) * m,
              tuple(Poly({(n + k,): one}) for k in range(m))]
        for x in xs:
            for u in us:
                assert as_terms(act_L(rep, x, u)) == as_terms(combination(rep.L, x).apply(u))
                assert as_terms(act_R(rep, x, u)) == as_terms(combination(rep.R, x).apply(u))


def test_left_right_mult_matrices():
    a = g2_algebra()
    x = (QQ(0), QQ(1))  # e2
    assert a.left_mult(x).apply((1, 0)) == (QQ(-1), QQ(0))
    assert a.right_mult(x).apply((0, 1)) == (QQ(0), QQ(1))


def test_each_axiom_checker_makes_one_prelie_defects_pass(monkeypatch):
    a = g3_algebra()
    rep = regular_representation(a)
    ns = parse_bundle(str(CORPUS / "ns3.json")).nsprelie()
    kernel = algebra.prelie_defects
    starts = []

    def counted(tensor, triples, start):
        starts.append(start)
        return kernel(tensor, triples, start)

    def no_tensor_mul(*args):
        raise AssertionError("an axiom checker called tensor_mul")

    for module in (algebra, nsprelie):
        monkeypatch.setattr(module, "prelie_defects", counted, raising=False)
        monkeypatch.setattr(module, "tensor_mul", no_tensor_mul, raising=False)
    checks = [(lambda: check_prelie(QQ, a.product), 0),
              (lambda: check_representation(a, 3, rep.L, rep.R), 3),
              (lambda: nsprelie.check_ns_prelie(QQ, ns.tri, ns.trl, ns.circ), ns.dim)]
    for check, start in checks:
        starts.clear()
        assert check().ok
        assert starts == [start]
