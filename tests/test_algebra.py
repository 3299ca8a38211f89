import inspect
import itertools
import random
import textwrap

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
    random_algebra,
    random_pair,
    truncated_poly_algebra,
    zero_representation,
)
from oracles import act_L, act_R, four_term_prelie_defects, left_mult, right_mult
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
from prelie.cochain import Cochain, check_two_cocycle
from prelie.errors import InvariantError, NoUnitError, ShapeError, UnverifiedError
from prelie.linalg import Matrix, add_vec
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


def test_subadjacent_lie_reverifies_its_bracket(monkeypatch):
    # x.y + y.x in place of the commutator is symmetric, so it fails antisymmetry
    monkeypatch.setattr(algebra, "sub_vec", add_vec)
    for a in (g2_algebra(), g3_algebra()):
        with pytest.raises(InvariantError, match="not a Lie bracket"):
            subadjacent_lie(a)


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
    assert left_mult(a, x).apply((1, 0)) == (QQ(-1), QQ(0))
    assert right_mult(a, x).apply((0, 1)) == (QQ(0), QQ(1))


def _broken(tensor, where=(0, 1, 2)):
    """A copy of a cubical table with 1 added at ``where``."""
    out = [[list(row) for row in plane] for plane in tensor]
    i, j, k = where
    out[i][j][k] += 1
    return out


def _axiom_checks():
    """(name, check, start, verdict): each axiom checker on an input that passes and on
    one that fails, with the first coordinate its `prelie_defects` pass keeps."""
    a = g3_algebra()
    rep = regular_representation(a)
    ns = parse_bundle(str(CORPUS / "ns3.json")).nsprelie()
    L = [Matrix(QQ, M) for M in _broken([M.data for M in rep.L], (1, 2, 1))]
    H = Cochain(QQ, 2, 3, 3, [[QQ(int(i == 3 and k == 2)) for k in range(3)]
                              for i in range(9)])  # H(e_2, e_1) = e_3
    return [
        ("prelie", lambda: check_prelie(QQ, a.product), 0, True),
        ("broken-tensor", lambda: check_prelie(QQ, _broken(a.product)), 0, False),
        ("representation", lambda: check_representation(a, 3, rep.L, rep.R), 3, True),
        ("broken-representation", lambda: check_representation(a, 3, L, rep.R), 3, False),
        ("cocycle", lambda: check_two_cocycle(a, rep, Cochain.zero(QQ, 2, 3, 3)), 3, True),
        ("non-cocycle", lambda: check_two_cocycle(a, rep, H), 3, False),
        ("ns", lambda: nsprelie.check_ns_prelie(QQ, ns.tri, ns.trl, ns.circ), ns.dim, True),
        ("broken-ns", lambda: nsprelie.check_ns_prelie(QQ, _broken(ns.tri), ns.trl, ns.circ),
         ns.dim, False),
    ]


def test_each_axiom_checker_makes_one_prelie_defects_pass(monkeypatch):
    # one kernel pass whether the check passes or fails, and the same report
    # as the four-term kernel gives
    starts = []

    def counted(kernel):
        def run(rows, triples, start):
            starts.append(start)
            return kernel(rows, triples, start)
        return run

    for name, check, start, verdict in _axiom_checks():
        reports = []
        for kernel in (algebra.prelie_defects, four_term_prelie_defects):
            for module in (algebra, nsprelie):
                monkeypatch.setattr(module, "prelie_defects", counted(kernel), raising=False)
            starts.clear()
            reports.append(check())
            assert starts == [start], name
        monkeypatch.undo()
        report, oracle = reports
        assert report.ok is verdict, name
        assert report == oracle and report.parts == oracle.parts, name


def _random_rows(rng: random.Random, dim: int) -> list:
    """`nonzero_rows` of a random int tensor, half of its entries 0."""
    return algebra.nonzero_rows([[[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(dim)]
                                  for _ in range(dim)] for _ in range(dim)])


def _kernel_cases() -> list:
    rng = random.Random(3701)
    cases = []
    for dim in (1, 2, 3, 4, 5):
        for _ in range(4):
            rows = _random_rows(rng, dim)
            triples = list(itertools.product(range(dim), repeat=3))
            rng.shuffle(triples)  # a pair's commutator row is read out of order too
            cases += [(rows, triples, start) for start in range(dim + 1)]
    return cases


def _kernel_mismatches(kernel) -> int:
    return sum(list(kernel(rows, triples, start))
               != list(four_term_prelie_defects(rows, triples, start))
               for rows, triples, start in _kernel_cases())


def test_the_commutator_kernel_matches_the_four_term_oracle():
    # every start and all triples, a = b and a > b included
    assert _kernel_mismatches(algebra.prelie_defects) == 0
    assert any(any(map(any, four_term_prelie_defects(*case))) for case in _kernel_cases())


# each mutant of the kernel must disagree with the four-term oracle
_KERNEL_MUTANTS = {
    "drop-b-times-a-times-c": ("for k, x in rows[a][c]:  # b.(a.c)", "for k, x in ():"),
    "a-times-b-for-the-commutator": ("for k, x in rows[b][a]:", "for k, x in ():"),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_MUTANTS))
def test_a_kernel_mutant_disagrees_with_the_four_term_oracle(case):
    term, replacement = _KERNEL_MUTANTS[case]
    source = textwrap.dedent(inspect.getsource(algebra.prelie_defects))
    assert source.count(term) == 1
    namespace = dict(vars(algebra))
    exec(compile(source.replace(term, replacement), algebra.__file__, "exec"), namespace)
    assert _kernel_mismatches(namespace["prelie_defects"]) > 0


def _outcome(build, *args):
    """What ``build(*args)`` returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except (TypeError, ZeroDivisionError, UnverifiedError) as exc:
        return type(exc), str(exc)


def _q_tensors() -> list:
    """Coerced Q tensors with denominators 2 and 3: verified products and raw tensors."""
    rng = random.Random(3811)
    halved = [[[x / 2 for x in row] for row in plane] for plane in g2_algebra().product]
    tensors = [PreLieAlgebra(QQ, halved).product, random_algebra(rng).product]
    entries = [0, 0, 0, 1, -1, QQ("1/2"), QQ("-2/3")]
    for n in (1, 2, 3):
        for _ in range(4):
            tensors.append(algebra._as_tensor(QQ, [[[rng.choice(entries) for _ in range(n)]
                                                    for _ in range(n)] for _ in range(n)]))
    return tensors


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_coerced_tensor_of_another_field_is_read_like_its_lists(p):
    # a tensor coerced over Q is coerced again into F_p, as the same scalars
    # given as lists are; only a tensor of the same field passes as it is
    field = PrimeField(p)
    for t in _q_tensors():
        lists = [[list(row) for row in plane] for plane in t]
        for build in (check_prelie, PreLieAlgebra,
                      lambda f, x: nsprelie.check_ns_prelie(f, x, x, x)):
            assert _outcome(build, field, t) == _outcome(build, field, lists)
        assert algebra._coerced(QQ, t) is t
