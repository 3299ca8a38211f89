import random
from itertools import product

import pytest

from conftest import (
    CORPUS,
    abelian,
    g3_algebra,
    g3_cocycle,
    padded_reynolds_data,
    random_reynolds_data,
    zero_representation,
)
from oracles import act_L, act_R, cochain_eval, dense_kernel
from prelie import deformation
from prelie.algebra import Order, PreLieAlgebra, regular_representation
from prelie.bundle import parse_bundle
from prelie.cochain import Cochain
from prelie.deformation import (
    DeformationSeries,
    check_equivalence_data,
    check_formal_deformation,
    check_linear_deformation,
    check_nijenhuis_element,
    element_coboundary,
    infinitesimal,
    is_cocycle,
    nijenhuis_elements,
    rigidity_probe,
)
from prelie.errors import InfiniteFieldError, ShapeError, UnverifiedSeriesError
from prelie.linalg import Matrix, sub_vec
from prelie.opcohomology import operator_coboundary_matrix
from prelie.reynolds import ReynoldsData, reynolds_from_invertible_cochain
from prelie.scalars import QQ, PrimeField


def cocycle_space(data):
    """All degree-1 cocycles as matrices (kernel of the differential)."""
    d1 = operator_coboundary_matrix(data, 1)
    m = data.rep.dim_v
    n = data.algebra.dim
    out = []
    for vec in dense_kernel(d1):
        out.append(Matrix(data.field,
                          [[vec[u * n + t] for u in range(m)] for t in range(n)]))
    return out


# ---------------------------------------------------------------------------
# linear deformations


def test_zero_direction_passes(g3_data):
    assert check_linear_deformation(g3_data, Matrix.zero(QQ, 3, 3)).ok


def test_cocycle_passes_order_t1(g3_data):
    rng = random.Random(30)
    basis = cocycle_space(g3_data)
    assert basis
    for _ in range(8):
        K1 = Matrix.zero(QQ, 3, 3)
        for b in basis:
            K1 = K1 + b.scale(QQ(rng.randint(-2, 2)))
        report = check_linear_deformation(g3_data, K1)
        assert report.parts["order_t1"].ok
        assert is_cocycle(g3_data, K1)


def test_non_cocycle_fails_order_t1(g3_data):
    bad = Matrix(QQ, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    assert not is_cocycle(g3_data, bad)
    report = check_linear_deformation(g3_data, bad)
    assert not report.parts["order_t1"].ok and not report.ok


def test_order_t1_agrees_with_the_cohomology_matrix_over_f3():
    F3 = PrimeField(3)
    rng = random.Random(33)
    verdicts = []
    for _ in range(12):
        data = random_reynolds_data(rng, F3, max_dim=3)
        n, m = data.algebra.dim, data.rep.dim_v
        draws = [Matrix(F3, [[rng.randint(0, 2) for _ in range(m)] for _ in range(n)])
                 for _ in range(3)]
        draws += [sum(cocycle_space(data), Matrix.zero(F3, n, m))]
        for K1 in draws:
            verdict = is_cocycle(data, K1)
            assert check_linear_deformation(data, K1).parts["order_t1"].ok == verdict
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_self_deformation_of_rota_baxter():
    # K = 0 and H = 0: K1 generates a deformation iff K1 is itself a
    # weight-zero operator (K1 u . K1 v = K1(L_{K1 u} v + R_{K1 v} u))
    a = g3_algebra()
    rep = regular_representation(a)
    H0 = Cochain.zero(QQ, 2, 3, 3)
    data = ReynoldsData.build(a, rep, H0, Matrix.zero(QQ, 3, 3))
    from prelie.reynolds import check_rcw_reynolds

    rng = random.Random(31)
    for _ in range(10):
        K1 = Matrix(QQ, [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
        full = check_linear_deformation(data, K1)
        direct = check_rcw_reynolds(a, rep, H0, K1)
        assert full.parts["order_t2"].ok == direct.ok


def test_shape_rejected(g3_data):
    with pytest.raises(ShapeError):
        check_linear_deformation(g3_data, Matrix.zero(QQ, 2, 3))


# ---------------------------------------------------------------------------
# formal (truncated) deformations


def test_order_zero_series_is_base_check(g3_data):
    series = DeformationSeries(g3_data, (g3_data.operator,))
    report = check_formal_deformation(series)
    assert report.ok
    assert list(report.parts.keys()) == ["order_0"]


def test_series_must_start_at_base(g3_data):
    with pytest.raises(ShapeError):
        DeformationSeries(g3_data, (Matrix.zero(QQ, 3, 3),))


def test_linear_and_formal_checkers_agree_at_order_one(g3_data):
    rng = random.Random(32)
    basis = cocycle_space(g3_data)
    candidates = []
    for _ in range(6):
        K1 = Matrix.zero(QQ, 3, 3)
        for b in basis:
            K1 = K1 + b.scale(QQ(rng.randint(-1, 1)))
        candidates.append(K1)
    candidates.append(Matrix(QQ, [[0, 0, 0], [0, 0, 0], [1, 0, 0]]))  # non-cocycle
    for K1 in candidates:
        linear = check_linear_deformation(g3_data, K1)
        series = DeformationSeries(g3_data, (g3_data.operator, K1))
        formal = check_formal_deformation(series)
        assert linear.ok == formal.ok
        assert formal.parts["order_1"].ok == linear.parts["order_t1"].ok
        assert formal.parts["order_2"].ok == linear.parts["order_t2"].ok
        assert formal.parts["order_3"].ok == linear.parts["order_t3"].ok


def test_linear_and_formal_checkers_report_the_same_residuals():
    # the linear checker is the formal one on (K, K1): same pairs, same residuals
    orders_seen = set()
    for field in (QQ, PrimeField(3)):
        rng = random.Random(34)
        for _ in range(6):
            data = random_reynolds_data(rng, field, max_dim=3)
            n, m = data.algebra.dim, data.rep.dim_v
            K1 = Matrix(field, [[rng.randint(-1, 1) for _ in range(m)] for _ in range(n)])
            linear = check_linear_deformation(data, K1)
            formal = check_formal_deformation(DeformationSeries(data, (data.operator, K1)))
            for k in (1, 2, 3):
                got = linear.parts[f"order_t{k}"].violations
                want = [(where[1:], r) for where, r in formal.parts[f"order_{k}"].violations]
                assert got == want
                if got:
                    orders_seen.add(k)
    assert orders_seen == {1, 2, 3}


def test_formal_checker_reports_first_failure(g3_data):
    bad = Matrix(QQ, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    series = DeformationSeries(g3_data, (g3_data.operator, bad))
    report = check_formal_deformation(series)
    assert not report.parts["order_1"].ok


def test_infinitesimal_of_verified_series(g3_data):
    basis = cocycle_space(g3_data)
    K1 = basis[0]
    series = DeformationSeries(g3_data, (g3_data.operator, K1))
    report = check_formal_deformation(series)
    if not report.ok:
        pytest.skip("cocycle direction does not extend at higher order here")
    got, verdict = infinitesimal(series)
    assert got == K1 and verdict.ok


def test_infinitesimal_rejects_broken_series(g3_data):
    bad = Matrix(QQ, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    series = DeformationSeries(g3_data, (g3_data.operator, bad))
    with pytest.raises(UnverifiedSeriesError):
        infinitesimal(series)


def test_trivial_series_infinitesimal_is_zero(g3_data):
    series = DeformationSeries(g3_data, (g3_data.operator,))
    K1, verdict = infinitesimal(series)
    assert K1.is_zero() and verdict.ok


# ---------------------------------------------------------------------------
# equivalences and the element coboundary


def test_difference_identity_constructed_pair(g3_data):
    rng = random.Random(33)
    basis = cocycle_space(g3_data)
    for x in [(1, 0, 0), (0, 1, 0), (2, -1, 3)]:
        K1 = basis[0].scale(QQ(rng.randint(-1, 1)))
        dx = element_coboundary(g3_data, x)
        K1p = K1 - dx
        assert (K1 - K1p) == dx
        report = check_equivalence_data(g3_data, K1, K1p, x)
        # the operator intertwining holds at order t by construction
        diff_viol = [v for v in report.parts["intertwines_operator"].violations
                     if v[0][0] == 1]
        assert not diff_viol


def test_equivalence_trivial_case(g3_data):
    K1 = cocycle_space(g3_data)[0]
    report = check_equivalence_data(g3_data, K1, K1, (0, 0, 0))
    assert report.ok


def test_equivalence_abelian_everything_passes():
    a = abelian(QQ, 2)
    rep = zero_representation(a, 2)
    H0 = Cochain.zero(QQ, 2, 2, 2)
    data = ReynoldsData.build(a, rep, H0, Matrix.zero(QQ, 2, 2))
    K1 = Matrix(QQ, [[1, 0], [0, 1]])
    for x in [(0, 0), (1, 0), (2, -1)]:
        report = check_equivalence_data(data, K1, K1, x)
        assert report.ok


@pytest.mark.parametrize("x", [(1, 0), (1, 0, 0, 0)])
def test_equivalence_element_of_the_wrong_length_is_a_shape_error(x):
    data = parse_bundle(str(CORPUS / "g3-k0.json")).reynolds_data()
    K1 = Matrix.zero(QQ, 3, 3)
    with pytest.raises(ShapeError, match="element has the wrong length"):
        check_equivalence_data(data, K1, K1, x)


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 3)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("wrong", ["K1", "K1prime"])
def test_equivalence_direction_of_the_wrong_shape_is_a_shape_error(shape, wrong):
    data = parse_bundle(str(CORPUS / "g3-k0.json")).reynolds_data()
    good, bad = Matrix.zero(QQ, 3, 3), Matrix.zero(QQ, *shape)
    K1, K1p = (bad, good) if wrong == "K1" else (good, bad)
    with pytest.raises(ShapeError, match="deformation direction has the wrong shape"):
        check_equivalence_data(data, K1, K1p, (0, 0, 0))


def test_element_coboundary_zero_element(g3_data):
    assert element_coboundary(g3_data, (0, 0, 0)).is_zero()


def test_element_coboundary_matches_formula(g3_data):
    data = g3_data
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    x = (1, 2, -1)
    out = element_coboundary(data, x)
    from prelie.linalg import add_vec, basis_vec, sub_vec

    xv = tuple(QQ(c) for c in x)
    for u in range(3):
        eu = basis_vec(QQ, 3, u)
        Ku = K.column(u)
        inner = sub_vec(act_L(rep, xv, eu), act_R(rep, xv, eu))
        inner = add_vec(inner, cochain_eval(H, [xv, Ku]))
        expected = sub_vec(K.apply(inner), g.mul(xv, Ku))
        expected = add_vec(expected, g.mul(Ku, xv))
        assert out.column(u) == expected


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_element_coboundary_on_padded_bundles_is_K_S_minus_P_K(field):
    # dim V > dim g and K != 0: S read off the frame is the action formula
    from prelie.linalg import add_vec, basis_vec

    rng = random.Random(31)
    for _ in range(6):
        data = padded_reynolds_data(rng, field)
        g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
        m = rep.dim_v
        assert m > g.dim and not K.is_zero()
        x = tuple(field(rng.randint(-2, 2)) for _ in range(g.dim))
        S = Matrix.from_columns(field, [
            add_vec(sub_vec(act_L(rep, x, e), act_R(rep, x, e)), cochain_eval(H, [x, K.column(u)]))
            for u, e in enumerate(basis_vec(field, m, u) for u in range(m))], m)
        P = g.left_mult(x) - g.right_mult(x)
        assert element_coboundary(data, x) == K * S - P * K


# ---------------------------------------------------------------------------
# Nijenhuis elements and rigidity


def test_zero_element_is_nijenhuis(g3_data):
    assert check_nijenhuis_element(g3_data, (0, 0, 0)).ok


def test_abelian_everything_is_nijenhuis():
    a = abelian(QQ, 2)
    rep = zero_representation(a, 2)
    data = ReynoldsData.build(a, rep, Cochain.zero(QQ, 2, 2, 2),
                              Matrix.zero(QQ, 2, 2))
    for x in [(0, 0), (1, 0), (3, -2)]:
        assert check_nijenhuis_element(data, x).ok


def _f2_fixture():
    F2 = PrimeField(2)
    a = PreLieAlgebra.build(F2, 3, {(2, 2, 1): 1})
    rep = regular_representation(a)
    H = Cochain.from_entries(F2, 2, 3, 3, {((2,), 2): (0, 0, 1)})
    K = Matrix(F2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    return ReynoldsData.build(a, rep, H, K)


def test_nijenhuis_enumeration_f2_golden():
    data = _f2_fixture()
    nij = nijenhuis_elements(data)
    # golden: every vector passes on this degenerate bundle
    assert len(nij) == 8
    assert nij[0] == tuple([PrimeField(2)(0)] * 3)


def test_nijenhuis_enumeration_needs_finite_field(g3_data):
    with pytest.raises(InfiniteFieldError):
        nijenhuis_elements(g3_data)


def test_rigidity_probe_golden_g3_f2():
    report = rigidity_probe(_f2_fixture())
    assert (report.cocycle_count, report.nijenhuis_count,
            report.image_count, report.criterion_holds) == (512, 8, 1, False)


def test_rigidity_probe_golden_dim1():
    F2 = PrimeField(2)
    a = abelian(F2, 1)
    rep = regular_representation(a)
    data = ReynoldsData.build(a, rep, Cochain.zero(F2, 2, 1, 1),
                              Matrix.identity(F2, 1))
    report = rigidity_probe(data)
    assert (report.cocycle_count, report.nijenhuis_count,
            report.image_count, report.criterion_holds) == (2, 2, 1, False)


def _abelian_zero_bundle(dim):
    F2 = PrimeField(2)
    a = abelian(F2, dim)
    return ReynoldsData.build(a, regular_representation(a), Cochain.zero(F2, 2, dim, dim),
                              Matrix.zero(F2, dim, dim))


@pytest.mark.parametrize("dim", [4, 5])
def test_rigidity_probe_counts_z1_without_listing_it(dim):
    # H = 0 and K = 0 on abelian F_2^dim: all of Hom(V, g) is Z^1, every
    # element is Nijenhuis, and every d_K x vanishes
    report = rigidity_probe(_abelian_zero_bundle(dim))
    assert (report.cocycle_count, report.nijenhuis_count,
            report.image_count, report.criterion_holds) == (2 ** (dim * dim), 2 ** dim, 1, False)


def _unital_line(field):
    """k with e.e = e, acting on itself, and K = id (weight -d(id))."""
    a = PreLieAlgebra.build(field, 1, {(0, 0, 0): 1})
    return reynolds_from_invertible_cochain(a, regular_representation(a),
                                            Cochain.from_matrix(Matrix.identity(field, 1)))


@pytest.mark.parametrize("p", [2, 3])
def test_rigidity_probe_criterion_holds_on_the_unital_line(p):
    # Z^1 = 0 and the only Nijenhuis element is 0
    report = rigidity_probe(_unital_line(PrimeField(p)))
    assert (report.cocycle_count, report.nijenhuis_count,
            report.image_count, report.criterion_holds) == (1, 1, 1, True)


def test_rigidity_probe_checks_that_the_image_is_closed(monkeypatch):
    # the counts still match, but the one coboundary is not killed by d1
    F2 = PrimeField(2)
    monkeypatch.setattr(deformation, "_coboundaries",
                        lambda data, terms: lambda x: Matrix.identity(F2, 1))
    report = rigidity_probe(_unital_line(F2))
    assert (report.cocycle_count, report.image_count, report.criterion_holds) == (1, 1, False)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rigidity_probe_counts_z1_like_the_dense_kernel(p):
    rng = random.Random(40 + p)
    for _ in range(6):
        data = random_reynolds_data(rng, PrimeField(p), max_dim=2)
        dense = len(dense_kernel(operator_coboundary_matrix(data, 1)))
        assert rigidity_probe(data).cocycle_count == p ** dense


def test_rigidity_probe_rejects_rationals(g3_data):
    with pytest.raises(InfiniteFieldError):
        rigidity_probe(g3_data)


def test_rigidity_probe_deterministic():
    a = rigidity_probe(_f2_fixture())
    b = rigidity_probe(_f2_fixture())
    assert a == b


def test_nijenhuis_elements_equal_brute_force():
    # on g3b with K = id (weight -d(id)) only some elements pass
    from conftest import g3b_algebra

    for p in (2, 3):
        F = PrimeField(p)
        a = g3b_algebra(F)
        data = reynolds_from_invertible_cochain(a, regular_representation(a),
                                                Cochain.from_matrix(Matrix.identity(F, 3)))
        expected = [x for x in product(F.elements(), repeat=3)
                    if check_nijenhuis_element(data, x).ok]
        assert 0 < len(expected) < p ** 3
        assert nijenhuis_elements(data) == expected


# ---------------------------------------------------------------------------
# the definition: (phi_t, psi_t) is a morphism from K + t d_K x to K


@pytest.mark.parametrize("p", [2, 3])
def test_nijenhuis_elements_are_the_trivialising_elements(p):
    # x is Nijenhuis exactly when (phi_t, psi_t) is an equivalence from
    # K + t d_K x to K, and then d_K x generates a linear deformation
    F = PrimeField(p)
    rng = random.Random(90 + p)
    for _ in range(20):
        data = random_reynolds_data(rng, F)
        zero = Matrix.zero(F, data.algebra.dim, data.rep.dim_v)
        for x in product(F.elements(), repeat=data.algebra.dim):
            dx = element_coboundary(data, x)
            nijenhuis = check_nijenhuis_element(data, x).ok
            assert nijenhuis == check_equivalence_data(data, dx, zero, x).ok, x
            if nijenhuis:
                assert check_linear_deformation(data, dx).ok, x


def _elements(rng, field, n):
    if isinstance(field, PrimeField):
        return list(product(field.elements(), repeat=n))
    return [tuple(field(rng.randint(-2, 2)) for _ in range(n)) for _ in range(8)]


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), QQ], ids=str)
def test_rbar_condition_matches_the_field_induced_representation(field):
    # Rbar_u x read off the graph frame against the hand-expanded Rbar of
    # the oracle; padded bundles (dim V > dim g, K != 0) come second
    from oracles import field_induced_representation

    rng = random.Random(97)
    violated = 0
    for i in range(16):
        data = random_reynolds_data(rng, field) if i < 10 else padded_reynolds_data(rng, field)
        g, Rbar = data.algebra, field_induced_representation(data).R
        for x in _elements(rng, field, g.dim):
            x = tuple(field(c) for c in x)
            expected = []
            for u, R in enumerate(Rbar):
                r = R.apply(x)
                commutator = sub_vec(g.mul(x, r), g.mul(r, x))
                if any(commutator):
                    expected.append((("rbar-commutes", u), commutator))
            condition = check_nijenhuis_element(data, x).parts["rbar_condition"]
            assert condition.violations == expected, x
            violated += not condition.ok
    assert violated


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), QQ], ids=str)
def test_literal_element_groups_accept_only_nijenhuis_elements(field):
    from oracles import literal_element_groups

    rng = random.Random(95)
    accepted = 0
    for _ in range(20):
        data = random_reynolds_data(rng, field)
        for x in _elements(rng, field, data.algebra.dim):
            report = check_nijenhuis_element(data, x)
            literal = all(r.ok for r in literal_element_groups(data, x).values())
            if literal and report.parts["rbar_condition"].ok:
                accepted += 1
                assert report.ok, x
    assert accepted


def test_deformation_checkers_mark_the_order_in_where():
    bundle = parse_bundle(str(CORPUS / "g3-k-deform.json"))
    data, (K, _) = bundle.reynolds_data(), bundle.series()
    K1 = Matrix(data.field, [[0, 0, 0], [0, 1, 1], [0, 0, 0]])
    report = check_formal_deformation(DeformationSeries(data, (K, K1)))
    where = report.parts["order_1"].violations[0][0]
    assert where == (1, 2, 2) and isinstance(where[0], Order)
    assert not any(isinstance(w, Order) for w in where[1:])
