"""The prepared checkers on the integer lift against the field oracles.

`reynolds.reynolds_checker` and `nsprelie.nijenhuis_checker` lift their
fixed data once and each candidate on its own, so a residual comes back
divided by D_g D_K^3 (Reynolds) or D_g D_N^2 (Nijenhuis) over Q.  The
oracles in `oracles.py` evaluate the same identities on the field
scalars.  Both must return the same `Report`: verdict, violation order,
residual values and, for scalar candidates, scalar types.  Over Q the
data are fractional on both sides of the split (D_g != 1 != D_K), so a
map back by one of the two denominators alone fails here.  The weighted
and D-Reynolds checkers, now rcw instances on the regular
representation, are compared with their field route the same way.

Every other reading of the graph of K comes off the same prepared frame
(`reynolds.operator_frames`) with its own power of D_K: the induced
table, Lbar and Rbar, graph closure, the NS-pre-Lie tables and the maps
of an algebra element, and the deformed product off the Nijenhuis
checker's ints.  Each is compared here with the hand-expanded field
oracle on the same fractional data, and mapping the induced table back
by D_K^2 alone is shown to fail.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from cli_sweep import _load, _padded, cases, run
from conftest import (
    CORPUS,
    _replace_everywhere,
    as_terms,
    conjugate_algebra,
    count_calls,
    g2_algebra,
    g3b_algebra,
    g3_algebra,
    padded_reynolds_data,
    random_algebra,
    random_reynolds_data,
    truncated_poly_algebra,
    unimodular,
    unital_algebras,
)
import oracles
from oracles import (
    act_L,
    act_R,
    cochain_eval,
    field_check_d_reynolds,
    field_check_nijenhuis,
    field_check_rcw_morphism,
    field_check_weighted_reynolds,
    field_deformed_table,
    field_induced_representation,
    field_induced_table,
    field_reynolds_report,
    star_table,
)
import prelie
from prelie import algebra, deformation, reynolds, scalars
from prelie.algebra import (
    Order,
    PreLieAlgebra,
    Representation,
    regular_representation,
    residual_report,
)
from prelie.bundle import parse_bundle
from prelie.cochain import Cochain
from prelie.deformation import (
    DeformationSeries,
    _element_morphism,
    _element_terms,
    _in_t,
    _order,
    check_formal_deformation,
    check_linear_deformation,
    element_coboundary,
)
from prelie.linalg import Matrix, add_vec, basis_vec, is_zero_vec, sub_vec
from prelie.nsprelie import check_nijenhuis, deformed_product, nijenhuis_checker, ns_from_reynolds
from prelie.opcohomology import induced_representation
from prelie.reynolds import (
    ReynoldsData,
    _semidirect_arrays,
    check_d_reynolds,
    check_graph_subalgebra,
    check_rcw_reynolds,
    check_weighted_reynolds,
    induced_product,
    reynolds_checker,
    reynolds_from_invertible_cochain,
    star_product,
)
from prelie.scalars import INTEGERS, QQ, FpElement, Poly, PrimeField, descend, field_name, lift
from prelie.search import SearchSpec, _candidate, exhaustive_search

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
Q_ENTRIES = ["0", "0", "1", "-1", "1/2", "-2/3", "3/4"]


def _entry(rng, field):
    return field(rng.choice(Q_ENTRIES)) if field == QQ else field(rng.randrange(field.p))


def _random_matrix(rng, field, rows, cols):
    return Matrix(field, [[_entry(rng, field) for _ in range(cols)] for _ in range(rows)])


def _denominator(field, arrays) -> int:
    """The common denominator `scalars.lift` takes for ``arrays`` (1 over F_p)."""
    (*_, D), _ = lift(field, (*arrays, field.one))
    return D


def _fractional_algebra(rng):
    """A non-abelian algebra over Q on the basis e_i / (i + 2): fractional constants."""
    a = rng.choice([g3_algebra(QQ), g2_algebra(QQ), g3b_algebra(QQ),
                    truncated_poly_algebra(QQ)])
    P = Matrix(QQ, [[Fraction(1, i + 2) if i == j else 0 for j in range(a.dim)]
                    for i in range(a.dim)])
    return conjugate_algebra(a, P)


def fractional_reynolds_data(rng) -> ReynoldsData:
    """A verified bundle over Q whose g, H and K all have fractional entries."""
    g = _fractional_algebra(rng)
    for _ in range(50):
        h = _random_matrix(rng, QQ, g.dim, g.dim)
        if h.inverse() is not None:
            return reynolds_from_invertible_cochain(g, regular_representation(g),
                                                    Cochain.from_matrix(h))
    raise AssertionError("no invertible h drawn")


def _bundles(rng, field, count):
    """Random verified bundles: fractional (over Q), random and padded (dim V > dim g)."""
    out = []
    for t in range(count):
        if field == QQ and t % 3 == 0:
            out.append(fractional_reynolds_data(rng))
        elif t % 3 == 1:
            out.append(padded_reynolds_data(rng, field))
        else:
            out.append(random_reynolds_data(rng, field))
    return out


def assert_same_report(lifted, oracle, field):
    assert lifted == oracle
    scalar = Fraction if field == QQ else FpElement
    for _, residual in lifted.violations:
        assert all(type(x) is scalar for x in residual)


def _by_value(report):
    """A report's verdict and violations, with `Poly` coordinates compared by their terms."""
    return report.ok, [(where, as_terms(r)) for where, r in report.violations]


# ---------------------------------------------------------------------------
# scalar candidates


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_reynolds_checker_matches_the_field_oracle(field):
    rng = random.Random(2201)
    failing = split = 0
    for data in _bundles(rng, field, 18):
        g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
        check = reynolds_checker(g, rep, H)
        D_g = _denominator(field, _semidirect_arrays(g, rep, H))
        for op in (K, K + _random_matrix(rng, field, K.rows, K.cols)):
            report = check(op)
            assert_same_report(report, field_reynolds_report(g, rep, H, op), field)
            assert report == check_rcw_reynolds(g, rep, H, op)
            failing += not report.ok
            split += D_g != 1 != _denominator(field, (op.data,))
    assert failing >= 10
    assert split >= 4 if field == QQ else split == 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_nijenhuis_checker_matches_the_field_oracle(field):
    rng = random.Random(2202)
    passing = failing = split = 0
    for t in range(30):
        if field == QQ and t % 2:
            g = _fractional_algebra(rng)
        else:
            g = rng.choice([g3_algebra(field), g2_algebra(field), g3b_algebra(field),
                            truncated_poly_algebra(field)])
        check = nijenhuis_checker(g)
        D_g = _denominator(field, (g.product,))
        # the identity and its multiples are Nijenhuis; random maps mostly are not
        for N in (Matrix.identity(field, g.dim).scale(_entry(rng, field)),
                  _random_matrix(rng, field, g.dim, g.dim)):
            report = check(N)
            assert_same_report(report, field_check_nijenhuis(g, N), field)
            assert report == check_nijenhuis(g, N)
            passing += report.ok
            failing += not report.ok
            split += D_g != 1 != _denominator(field, (N.data,))
    assert passing >= 30 and failing >= 10
    assert split >= 4 if field == QQ else split == 0


def _padded_g3(field):
    """A g3 bundle padded to dim V = 4 > dim g = 3, as in the CLI sweep.

    Over Q it is the sweep's `corpus/g3-k-deform.json` (K has a 1/2); over
    F_p the integer `corpus/g3-k-rowzero.json`.
    """
    doc = _padded(_load("g3-k-deform.json" if field == QQ else "g3-k-rowzero.json"))
    return parse_bundle(doc, field_name(field))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_reynolds_checker_matches_the_oracle_on_the_padded_bundle(field):
    data = _padded_g3(field).reynolds_data()
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    assert (g.dim, rep.dim_v) == (3, 4)
    check = reynolds_checker(g, rep, H)
    rng = random.Random(2203)
    failing = 0
    for op in [K] + [K + _random_matrix(rng, field, 3, 4) for _ in range(6)]:
        report = check(op)
        assert_same_report(report, field_reynolds_report(g, rep, H, op), field)
        failing += not report.ok
    assert check(K).ok and failing >= 3


# ---------------------------------------------------------------------------
# polynomial candidates: the search's generic candidate and series in t


def _generic(field, rows, cols, fixed):
    spec = SearchSpec("rcw-reynolds", {}, (rows, cols), (), fixed=fixed)
    return _candidate(spec, [Poly({(k,): field.one}) for k in range(spec.free_count())],
                      field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_checkers_match_the_oracle_on_generic_candidates(field):
    rng = random.Random(2204)
    failing = 0
    for data in _bundles(rng, field, 6):
        g, rep, H = data.algebra, data.rep, data.cocycle
        n, m = g.dim, rep.dim_v
        fixed = {(0, j): _entry(rng, field) for j in range(m)}
        for fix in ({}, fixed):
            K = _generic(field, n, m, fix)
            lifted = reynolds_checker(g, rep, H)(K)
            assert _by_value(lifted) == _by_value(field_reynolds_report(g, rep, H, K))
            failing += not lifted.ok
        N = _generic(field, n, n, {})
        lifted = nijenhuis_checker(g)(N)
        assert _by_value(lifted) == _by_value(field_check_nijenhuis(g, N))
        failing += not lifted.ok
    assert failing >= 8


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_reynolds_checker_matches_the_oracle_on_series_in_t(field):
    rng = random.Random(2205)
    bundles = _bundles(rng, field, 6) + [_padded_g3(field).reynolds_data()]
    failing = 0
    for data in bundles:
        g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
        for order in (1, 2):
            Kt = _in_t([K] + [_random_matrix(rng, field, K.rows, K.cols)
                              for _ in range(order)])
            lifted = reynolds_checker(g, rep, H)(Kt)
            assert _by_value(lifted) == _by_value(field_reynolds_report(g, rep, H, Kt))
            failing += not lifted.ok
    assert failing >= 6


# ---------------------------------------------------------------------------
# the weighted and D-Reynolds identities: rcw instances against the field route


def _unital(rng, field):
    """A unital test algebra, over Q on a fractional basis every other draw."""
    a = rng.choice(unital_algebras(field))
    if field == QQ and rng.random() < 0.5:
        return conjugate_algebra(a, Matrix(QQ, [[Fraction(1, i + 2) if i == j else 0
                                                 for j in range(a.dim)]
                                                for i in range(a.dim)]))
    return conjugate_algebra(a, unimodular(rng, field, a.dim))


def _generic_square(field, n):
    return _generic(field, n, n, {})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_weighted_instance_matches_the_field_route(field):
    rng = random.Random(2301)
    passing = failing = fractional = 0
    for t in range(24):
        g = _fractional_algebra(rng) if field == QQ and t % 2 else random_algebra(rng, field)
        lam = _entry(rng, field)
        ops = [_random_matrix(rng, field, g.dim, g.dim)]
        if lam:  # -1/lam id inverts the derivation 0 shifted by lam
            ops.append(Matrix.identity(field, g.dim).scale(-1 / lam))
        for K in ops:
            report = check_weighted_reynolds(g, K, lam)
            assert_same_report(report, field_check_weighted_reynolds(g, K, lam), field)
            passing += report.ok
            failing += not report.ok
            fractional += _denominator(field, ((lam,), K.data)) != 1
        K = _generic_square(field, g.dim)
        assert _by_value(check_weighted_reynolds(g, K, lam)) == \
            _by_value(field_check_weighted_reynolds(g, K, lam))
    assert passing >= 8 and failing >= 8
    assert fractional >= 8 if field == QQ else fractional == 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_d_reynolds_instance_matches_the_field_route(field):
    rng = random.Random(2302)
    passing = failing = 0
    for t in range(24):
        g = _unital(rng, field)
        n = g.dim
        if t % 2:
            D = _random_matrix(rng, field, n, n)
            ops = [Matrix.zero(field, n, n), _random_matrix(rng, field, n, n)]
        else:  # D(1) = c 1 turns the identity into the weight -c one, solved by id / c
            c = _entry(rng, field) or field.one
            D = Matrix.identity(field, n).scale(c)
            ops = [Matrix.identity(field, n).scale(1 / c), _random_matrix(rng, field, n, n)]
        for K in ops:
            report = check_d_reynolds(g, D, K)
            assert_same_report(report, field_check_d_reynolds(g, D, K), field)
            passing += report.ok
            failing += not report.ok
        K = _generic_square(field, n)
        assert _by_value(check_d_reynolds(g, D, K)) == \
            _by_value(field_check_d_reynolds(g, D, K))
    assert passing >= 16 and failing >= 8


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_star_product_is_the_field_star_table(field):
    rng = random.Random(2303)
    for t in range(12):
        g = _fractional_algebra(rng) if field == QQ and t % 2 else random_algebra(rng, field)
        lam = _entry(rng, field) or field.one
        K = Matrix.identity(field, g.dim).scale(-1 / lam)
        star = star_product(g, K, lam)
        assert star.product == PreLieAlgebra(field, star_table(g, K, lam)).product


# ---------------------------------------------------------------------------
# no checker reaches the field route


def _forbid(monkeypatch, module, name):
    """Make ``module.name`` raise, in ``module`` and wherever ``prelie`` binds it."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    _replace_everywhere(monkeypatch, module, name, lambda original: forbidden)
    monkeypatch.setattr(module, name, forbidden)


def test_the_identities_never_reach_the_field_route(monkeypatch):
    F2 = PrimeField(2)
    deform = parse_bundle(str(CORPUS / "g3-k-deform.json"))
    data = deform.reynolds_data()
    g3 = parse_bundle(str(CORPUS / "g3.json"), "f2")
    g, rep, H = g3.algebra(), g3.representation(), g3.cocycle()
    K1 = deform.matrix("operatorK1")
    series = deform.series()
    N = Matrix.identity(data.field, data.algebra.dim)
    star = parse_bundle(str(CORPUS / "weighted-star.json"))
    star_g, star_K = star.algebra(), star.matrix("operatorK")
    d_bundle = parse_bundle(str(CORPUS / "unital-d-reynolds.json"))
    unital, unital_D, unital_K = (d_bundle.algebra(), d_bundle.matrix("operatorD"),
                                  d_bundle.matrix("operatorK"))
    d_f2 = parse_bundle(str(CORPUS / "unital-d-reynolds.json"), "f2")
    unital_f2, unital_D_f2 = d_f2.algebra(), d_f2.matrix("operatorD")
    calls = {
        "check_rcw_reynolds": lambda: check_rcw_reynolds(data.algebra, data.rep,
                                                         data.cocycle, data.operator),
        "build": lambda: ReynoldsData.build(data.algebra, data.rep, data.cocycle,
                                            data.operator),
        "check_nijenhuis": lambda: check_nijenhuis(data.algebra, N),
        "check_linear_deformation": lambda: check_linear_deformation(data, K1),
        "check_formal_deformation": lambda: check_formal_deformation(
            DeformationSeries(data, series)),
        "search rcw-reynolds": lambda: exhaustive_search(SearchSpec(
            "rcw-reynolds", {"algebra": g, "rep": rep, "cocycle": H}, (3, 3),
            tuple(F2.elements())), F2).solutions,
        "search nijenhuis": lambda: exhaustive_search(SearchSpec(
            "nijenhuis", {"algebra": g}, (3, 3), tuple(F2.elements())), F2).solutions,
        "check_weighted_reynolds": lambda: check_weighted_reynolds(star_g, star_K, 1),
        "check_d_reynolds": lambda: check_d_reynolds(unital, unital_D, unital_K),
        "search weighted-reynolds": lambda: exhaustive_search(SearchSpec(
            "weighted-reynolds", {"algebra": g, "weight": F2(1)}, (3, 3),
            tuple(F2.elements())), F2).solutions,
        "search d-reynolds": lambda: exhaustive_search(SearchSpec(
            "d-reynolds", {"algebra": unital_f2, "operatorD": unital_D_f2}, (3, 3),
            tuple(F2.elements())), F2).solutions,
    }
    expected = {name: call() for name, call in calls.items()}
    for module, name in ((oracles, "operator_identity"), (algebra, "morphism_defects"),
                         (algebra, "tensor_mul")):
        _forbid(monkeypatch, module, name)
    for name, call in calls.items():
        assert call() == expected[name], name


def test_the_field_scalar_frame_is_gone_from_src():
    # every reading of the graph of K runs on the integer lift; the field
    # route lives on only as the oracles of tests/oracles.py
    source = "\n".join(path.read_text() for path in Path(prelie.__file__).parent.glob("*.py"))
    for name in ("field_frame", "_induced_tensor", "_deformed_tensor"):
        assert name not in source, name


def test_deformed_product_checks_the_operator_on_the_lift(monkeypatch):
    # the identity and the deformed table both come off the ints of one
    # evaluation of N; no field-scalar identity is evaluated
    g = g2_algebra(QQ)
    N = Matrix(QQ, [[1, 2], [0, 1]])
    expected = deformed_product(g, N)
    _forbid(monkeypatch, oracles, "operator_identity")
    assert deformed_product(g, N) == expected


def test_a_representation_of_dim_v_one_checks_every_pair():
    # (u, v) ranges over V x V, not over g x g
    rng = random.Random(2206)
    g = g3_algebra(QQ)
    zero = [Matrix.zero(QQ, 1, 1)] * 3
    rep = Representation(g, 1, zero, zero)
    H = Cochain.zero(QQ, 2, 3, 1)
    for _ in range(5):
        K = _random_matrix(rng, QQ, 3, 1)
        assert reynolds_checker(g, rep, H)(K) == field_reynolds_report(g, rep, H, K)


# ---------------------------------------------------------------------------
# every reading of the graph of K, lifted, against its field oracle


def _split(field, data) -> bool:
    """Do g (with the actions and H) and K both have a denominator other than 1?"""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    return _denominator(field, _semidirect_arrays(g, rep, H)) != 1 != \
        _denominator(field, (K.data,))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_induced_readings_match_the_field_oracles(field):
    # the induced table, Lbar, Rbar and the three NS-pre-Lie tables, each
    # mapped back by D_g D_K^2
    rng = random.Random(2401)
    split = 0
    for data in _bundles(rng, field, 9):
        g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
        m = rep.dim_v
        table = field_induced_table(g, rep, H, K)
        assert induced_product(data).product == PreLieAlgebra(field, table).product
        lifted, oracle = induced_representation(data), field_induced_representation(data)
        assert lifted.algebra.product == oracle.algebra.product
        assert [M.data for M in lifted.L] == [M.data for M in oracle.L]
        assert [M.data for M in lifted.R] == [M.data for M in oracle.R]
        ns = ns_from_reynolds(data)
        e, cols = [basis_vec(field, m, u) for u in range(m)], [K.column(u) for u in range(m)]
        assert ns.tri == tuple(tuple(act_L(rep, cols[u], e[v]) for v in range(m))
                               for u in range(m))
        assert ns.trl == tuple(tuple(act_R(rep, cols[v], e[u]) for v in range(m))
                               for u in range(m))
        assert ns.circ == tuple(tuple(cochain_eval(H, [cols[u], cols[v]]) for v in range(m))
                                for u in range(m))
        split += _split(field, data)
    assert split >= 3 if field == QQ else split == 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_graph_closure_matches_the_field_oracle(field):
    # a product off the graph is kept whole, (Ku.Kv, u ._K v), exactly where
    # the Reynolds residual is nonzero
    rng = random.Random(2402)
    failing = 0
    for data in _bundles(rng, field, 12):
        g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
        for op in (K, K + _random_matrix(rng, field, K.rows, K.cols)):
            table = field_induced_table(g, rep, H, op)
            expected = [((u, v), g.mul(op.column(u), op.column(v)) + table[u][v])
                        for (u, v), _ in field_reynolds_report(g, rep, H, op).violations]
            report = check_graph_subalgebra(g, rep, H, op)
            assert report.violations == expected
            failing += not report.ok
    assert failing >= 6


def _element_oracle(data, x) -> tuple:
    """S e_u = L_x u - R_x u + H(x, Ku) and Rbar_u x = x.Ku - K(L_x u) - K H(x, Ku)."""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    m = rep.dim_v
    S, rbar = [], []
    for u in range(m):
        eu, Ku = basis_vec(g.field, m, u), K.column(u)
        hx = cochain_eval(H, [x, Ku])
        S.append(add_vec(sub_vec(act_L(rep, x, eu), act_R(rep, x, eu)), hx))
        rbar.append(sub_vec(sub_vec(g.mul(x, Ku), K.apply(act_L(rep, x, eu))), K.apply(hx)))
    return S, rbar


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_element_maps_match_the_field_oracle(field):
    # S and Rbar_u x, read once at the basis of g (degrees 1 and 2) and
    # combined with the coordinates of x, for field and generic elements
    rng = random.Random(2403)
    split = 0
    for data in _bundles(rng, field, 9):
        g, K = data.algebra, data.operator
        terms = _element_terms(data)
        generic = tuple(Poly({(k,): field.one}) for k in range(g.dim))
        for x in (tuple(_entry(rng, field) for _ in range(g.dim)), generic):
            _, S, rbar = terms(x)
            S_oracle, rbar_oracle = _element_oracle(data, x)
            columns = [S.column(u) for u in range(S.cols)]
            assert [as_terms(c) for c in columns] == [as_terms(c) for c in S_oracle]
            assert [as_terms(r) for r in rbar] == [as_terms(r) for r in rbar_oracle]
        # (d_K x)(u) = K S e_u - x.Ku + Ku.x
        x = tuple(_entry(rng, field) for _ in range(g.dim))
        S_oracle, _ = _element_oracle(data, x)
        cols = [K.column(u) for u in range(K.cols)]
        d = [add_vec(sub_vec(K.apply(S_oracle[u]), g.mul(x, Ku)), g.mul(Ku, x))
             for u, Ku in enumerate(cols)]
        assert element_coboundary(data, x) == Matrix.from_columns(field, d, g.dim)
        split += _split(field, data)
    assert split >= 3 if field == QQ else split == 0


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_element_morphism_in_t_matches_the_field_oracle(field):
    # (phi_t, psi_t) = (id + tP, id + tS) through the prepared morphism
    # checker, against the hand-written conditions on the same matrices in
    # t: every condition vanishes at t^0 and t^3, and agrees at t and t^2
    rng = random.Random(2701)
    zero, failing, fractional = field.zero, set(), 0
    for _ in range(10):
        data = random_reynolds_data(rng, field)
        g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
        n, m = g.dim, rep.dim_v
        x = tuple(_entry(rng, field) for _ in range(n))
        P, S, _ = _element_terms(data)(x)
        phi, psi = _in_t((Matrix.identity(field, n), P)), _in_t((Matrix.identity(field, m), S))
        operators = tuple(_in_t((K, _random_matrix(rng, field, n, m))) for _ in range(2))
        oracle = field_check_rcw_morphism(*(ReynoldsData(g, rep, H, Kt) for Kt in operators),
                                          phi, psi)
        for k in (0, 3):
            assert all(is_zero_vec(_order(r, k, zero)) for _, r in oracle.violations)
        expected = {name: residual_report(((Order(k), *where), _order(r, k, zero))
                                          for k in (1, 2) for where, r in part.violations)
                    for name, part in oracle.parts.items()}
        check = deformation._same_bundle(data)
        assert _element_morphism(check, P, S, operators) == expected
        failing.update(name for name, part in expected.items() if not part.ok)
        del expected["intertwines_operator"]
        assert _element_morphism(check, P, S) == expected
        fractional += field == QQ and any(c.denominator != 1 for c in x)
    assert failing == {"algebra_morphism", "intertwines_operator", "intertwines_left_action",
                       "intertwines_right_action", "intertwines_weight"}
    assert fractional >= 3 if field == QQ else fractional == 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_deformed_product_matches_the_field_oracle(field):
    # the table comes off the Nijenhuis checker's ints, mapped back by D_g D_N
    rng = random.Random(2404)
    split = 0
    for t in range(12):
        g = _fractional_algebra(rng) if field == QQ and t % 2 else \
            rng.choice([g3_algebra(field), g2_algebra(field), g3b_algebra(field)])
        N = Matrix.identity(field, g.dim).scale(_entry(rng, field) or field.one)
        expected = PreLieAlgebra(field, field_deformed_table(g, N)).product
        assert deformed_product(g, N).product == expected
        split += _denominator(field, (g.product,)) != 1 != _denominator(field, (N.data,))
    g = g2_algebra(field)
    for c, d in ((1, 2), (-1, 1), (0, 1)):
        N = Matrix(field, [[c, d], [0, c]])
        assert deformed_product(g, N).product == \
            PreLieAlgebra(field, field_deformed_table(g, N)).product
    assert split >= 2 if field == QQ else split == 0


def test_the_induced_table_mapped_back_by_dk_squared_alone_fails(monkeypatch):
    # a mutant that forgets D_g: on fractional g, H and K it must disagree
    # with the oracle on every bundle, where the library agrees
    def mutant(n, frame):
        _, graph, _, products, _ = frame
        down = descend(QQ, graph[0][n] ** 2)  # gr(0) = (k e_0, D_K e_0)
        return [[down(w[n:]) for w in row] for row in products]

    rng = random.Random(2405)
    bundles = [data for data in (fractional_reynolds_data(rng) for _ in range(12))
               if _split(QQ, data)][:4]
    assert len(bundles) == 4

    def mismatches():
        return sum(induced_product(data).product != PreLieAlgebra(QQ, field_induced_table(
            data.algebra, data.rep, data.cocycle, data.operator)).product for data in bundles)

    assert mismatches() == 0
    _replace_everywhere(monkeypatch, reynolds, "_induced_table", lambda original: mutant)
    monkeypatch.setattr(reynolds, "_induced_table", mutant)
    assert mismatches() == len(bundles)


# ---------------------------------------------------------------------------
# the frame's product kernel against the dense field product


def _frame_mismatches(g, rep, H, K) -> int:
    """The pairs (u, v) at which the frame's gr(u).gr(v), mapped back, is not
    `algebra.tensor_mul` on the field semidirect tensor at (K e_u, e_u), (K e_v, e_v)."""
    *_, products, back = reynolds.operator_frames(g, rep, H)(K)
    down, field, m = back(2), g.field, rep.dim_v
    tensor = reynolds.semidirect_tensor(g, rep, H)
    graph = [K.column(u) + basis_vec(field, m, u) for u in range(m)]
    return sum(as_terms(down(products[u][v]))
               != as_terms(algebra.tensor_mul(field, tensor, graph[u], graph[v]))
               for u in range(m) for v in range(m))


def _frame_cases_for(field, rng) -> list:
    """(g, rep, H, K): random verified bundles (over Q also fractional ones, D_g != 1)
    and, last, the search's generic candidate on three of them."""
    bundles = [random_reynolds_data(rng, field) for _ in range(8)]
    if field == QQ:
        bundles += [fractional_reynolds_data(rng) for _ in range(3)]
    out = [(data.algebra, data.rep, data.cocycle, data.operator) for data in bundles]
    for data in out[:3]:
        g, rep, H, _ = data
        out.append((g, rep, H, _generic(field, g.dim, rep.dim_v, {})))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_frame_products_equal_the_dense_field_product(field):
    cases = _frame_cases_for(field, random.Random(2811))
    if field == QQ:  # fractional on both sides of the split
        assert any(_denominator(QQ, (K.data,)) != 1 for *_, K in cases)
        assert any(_denominator(QQ, _semidirect_arrays(g, rep, H)) != 1
                   for g, rep, H, _ in cases)
    assert all(_frame_mismatches(*case) == 0 for case in cases)


def test_a_frame_without_the_rows_of_the_v_block_fails(monkeypatch):
    # dropping the prepared rows j >= dim g loses L_{Ku} v: the dense product sees it
    original = reynolds.graph_frame
    bundles = {field: _frame_cases_for(field, random.Random(2811)) for field in FIELDS}

    def without_v_rows(field, planes, k, one):
        n = len(k)
        return original(field, [[(j, row) for j, row in plane if j < n] for plane in planes],
                        k, one)

    monkeypatch.setattr(reynolds, "graph_frame", without_v_rows)
    for field, cases in bundles.items():
        assert sum(_frame_mismatches(*case) for case in cases) > 0
        # so does the generic candidate, whose entries are the search's variables
        assert sum(_frame_mismatches(*case) for case in cases[-3:]) > 0


# ---------------------------------------------------------------------------
# frames: only on the integers, a fixed number per command


FRAME_BUNDLES = {"corpus/g3-k-deform.json", "corpus/g3-gauge-shift.json",
                 "corpus/weighted-star.json", "corpus/g3-f2-e11.json", "corpus/ns2.json"}


def _frame_cases() -> list:
    """The sweep's commands on `FRAME_BUNDLES`: under the bundle's own field, at degree 1."""
    return [argv for argv in cases() if FRAME_BUNDLES & set(argv)
            and ("--field" not in argv or argv[0] == "search")
            and ("--degree" not in argv or argv[argv.index("--degree") + 1] == "1")]


def test_graph_frame_runs_only_on_the_integers(monkeypatch):
    calls = count_calls(monkeypatch, reynolds, "graph_frame")
    for argv in _frame_cases():
        run(argv)
    assert len(calls) > 100
    assert all(args[0] is INTEGERS for args in calls)


DEFORM_CASES = (("dim1-abelian-f2.json", "f2"), ("g3-f2-e11.json", "f2"),
                ("g3-f2-e11.json", "f3"))


@pytest.mark.parametrize("action, frames", [("rigidity", 3), ("nijenhuis", 2)])
def test_deform_builds_a_fixed_number_of_frames(monkeypatch, action, frames):
    # the bundle's build, the element maps prepared once (for rigidity, shared
    # by the search's checker and the image), and for rigidity the induced
    # representation
    built = count_calls(monkeypatch, reynolds, "graph_frame")
    candidates = count_calls(monkeypatch, deformation, "_element_morphism")
    seen = set()
    for bundle, field in DEFORM_CASES:
        built.clear()
        candidates.clear()
        run(("deform", action, "--bundle", f"corpus/{bundle}", "--field", field))
        assert len(built) == frames
        seen.add(len(candidates))
    assert len(seen) == 3


@pytest.mark.parametrize("action, arrays", [("rigidity", 5), ("nijenhuis", 4)])
def test_deform_prepares_the_morphism_check_once(monkeypatch, action, arrays):
    # the twisted semidirect arrays are built for the bundle's build, the
    # element maps (shared by the image, for rigidity) and the two sides of
    # the morphism checker, and for rigidity the induced representation:
    # a fixed number whatever the number of candidates.  An element
    # check lifts phi_t and psi_t together, once, and nothing else
    built = count_calls(monkeypatch, reynolds, "_semidirect_arrays")
    lifts = count_calls(monkeypatch, scalars, "lift")
    per_check = []

    def make(original):
        def prepared(data, terms):
            check = original(data, terms)

            def counted(x):
                before = len(lifts)
                report = check(x)
                per_check.append(len(lifts) - before)
                return report
            return counted
        return prepared

    _replace_everywhere(monkeypatch, deformation, "_element_checker", make)
    seen = set()
    for bundle, field in DEFORM_CASES:
        built.clear()
        per_check.clear()
        run(("deform", action, "--bundle", f"corpus/{bundle}", "--field", field))
        assert len(built) == arrays
        assert per_check and set(per_check) == {1}
        seen.add(len(per_check))
    assert len(seen) == 3
