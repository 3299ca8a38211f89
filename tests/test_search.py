import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CORPUS,
    abelian,
    count_calls,
    g2_algebra,
    g3_algebra,
    g3_cocycle,
    g3b_algebra,
    zero_representation,
)
import oracles
from oracles import dense_sweep, heap_order, verify_polynomial_system
from prelie import algebra, reynolds, scalars
from prelie import search as search_module
from prelie.algebra import PreLieAlgebra, regular_representation
from prelie.bundle import parse_bundle
from prelie.cochain import Cochain, coboundary
from prelie.deformation import check_nijenhuis_element
from prelie.errors import BudgetExceededError, InvariantError, ShapeError
from prelie.linalg import Matrix
from prelie.nsprelie import check_nijenhuis
from prelie.reynolds import (
    ReynoldsData,
    check_d_reynolds,
    check_rcw_reynolds,
    check_weighted_reynolds,
    reynolds_from_invertible_cochain,
)
from prelie.scalars import QQ, PrimeField
from prelie.search import SearchSpec, exhaustive_search


def f2_g3_bundle():
    F2 = PrimeField(2)
    a = PreLieAlgebra.build(F2, 3, {(2, 2, 1): 1})
    rep = regular_representation(a)
    H = Cochain.from_entries(F2, 2, 3, 3, {((2,), 2): (0, 0, 1)})
    return F2, {"algebra": a, "rep": rep, "cocycle": H}


def test_rcw_search_f2_counts_and_reverification():
    F2, bundle = f2_g3_bundle()
    spec = SearchSpec("rcw-reynolds", bundle, (3, 3), tuple(F2.elements()))
    result = exhaustive_search(spec, F2)
    assert result.count_checked == 512
    # 64 vanishing-third-row solutions plus the a31 != 0 family
    assert result.count_solutions == 68
    third_zero = [K for K in result.solutions if all(not x for x in K.data[2])]
    assert len(third_zero) == 64
    # every solution satisfies the checker (already re-verified internally)
    for K in result.solutions[:5]:
        assert check_rcw_reynolds(bundle["algebra"], bundle["rep"],
                                  bundle["cocycle"], K).ok


def test_search_with_fixed_entries():
    F2, bundle = f2_g3_bundle()
    fixed = {(2, 0): F2(0), (2, 1): F2(0), (2, 2): F2(0)}
    spec = SearchSpec("rcw-reynolds", bundle, (3, 3), tuple(F2.elements()),
                      fixed=fixed)
    result = exhaustive_search(spec, F2)
    assert result.count_checked == 64
    assert result.count_solutions == 64  # the whole slice passes


def test_search_budget_enforced():
    F2, bundle = f2_g3_bundle()
    spec = SearchSpec("rcw-reynolds", bundle, (3, 3), tuple(F2.elements()),
                      budget=100)
    with pytest.raises(BudgetExceededError):
        exhaustive_search(spec, F2)


def test_abelian_zero_weight_everything_passes():
    F2 = PrimeField(2)
    a = abelian(F2, 2)
    rep = zero_representation(a, 2)
    H = Cochain.zero(F2, 2, 2, 2)
    spec = SearchSpec("rcw-reynolds", {"algebra": a, "rep": rep, "cocycle": H},
                      (2, 2), tuple(F2.elements()))
    result = exhaustive_search(spec, F2)
    assert result.count_solutions == result.count_checked == 16
    assert result.nodes == 1 + 2 + 4 + 8 + 16  # nothing to prune: the whole tree


def test_nijenhuis_search_upper_triangular_f3():
    F3 = PrimeField(3)
    a = PreLieAlgebra.build(F3, 2, {(1, 0, 0): -1, (1, 1, 1): 1})
    spec = SearchSpec("nijenhuis", {"algebra": a}, (2, 2), tuple(F3.elements()),
                      fixed={(1, 0): F3(0)})
    result = exhaustive_search(spec, F3)
    # all nine [[c,d],[0,c]] candidates pass (c = 0 included)
    family = [K for K in result.solutions if K.data[0][0] == K.data[1][1]]
    assert len(family) == 9


def test_weighted_search_identity_found():
    F3 = PrimeField(3)
    a = PreLieAlgebra.build(F3, 2, {(1, 0, 0): -1, (1, 1, 1): 1})
    spec = SearchSpec("weighted-reynolds", {"algebra": a, "weight": F3(-1)},
                      (2, 2), tuple(F3.elements()))
    result = exhaustive_search(spec, F3)
    assert Matrix.identity(F3, 2) in result.solutions


def test_nijenhuis_element_search_rejects_a_second_column():
    F2 = PrimeField(2)
    data = parse_bundle(str(CORPUS / "g3-f2-e11.json")).reynolds_data()
    spec = SearchSpec("nijenhuis-element", {"data": data}, (3, 2), tuple(F2.elements()))
    with pytest.raises(ShapeError, match="one column"):
        exhaustive_search(spec, F2)


def test_nijenhuis_element_search_matches_enumeration():
    from prelie.deformation import nijenhuis_elements
    from prelie.reynolds import ReynoldsData

    F2 = PrimeField(2)
    a = PreLieAlgebra.build(F2, 3, {(2, 2, 1): 1})
    rep = regular_representation(a)
    H = Cochain.from_entries(F2, 2, 3, 3, {((2,), 2): (0, 0, 1)})
    K = Matrix(F2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    data = ReynoldsData.build(a, rep, H, K)
    spec = SearchSpec("nijenhuis-element", {"data": data}, (3, 1),
                      tuple(F2.elements()))
    result = exhaustive_search(spec, F2)
    direct = nijenhuis_elements(data)
    assert [tuple(K.column(0)) for K in result.solutions] == list(direct)


# ---------------------------------------------------------------------------
# the polynomial system of the worked example


def test_polynomial_system_equivalence_f2():
    report = verify_polynomial_system(PrimeField(2))
    assert report.total == 512
    assert report.solutions == 68
    assert report.equivalent and not report.mismatches


def test_polynomial_system_equivalence_f3():
    report = verify_polynomial_system(PrimeField(3))
    assert report.total == 19683
    assert report.solutions == 747
    assert report.equivalent and not report.mismatches


def test_polynomial_system_budget():
    with pytest.raises(BudgetExceededError):
        verify_polynomial_system(PrimeField(3), budget=100)


def test_graph_checker_agrees_on_f2_sweep():
    # every enumerated solution passes the independent graph-closure route;
    # a deterministic sample of rejected candidates fails it
    import random

    from prelie.reynolds import check_graph_subalgebra

    F2, bundle = f2_g3_bundle()
    a, rep, H = bundle["algebra"], bundle["rep"], bundle["cocycle"]
    spec = SearchSpec("rcw-reynolds", bundle, (3, 3), tuple(F2.elements()))
    result = exhaustive_search(spec, F2)
    solutions = set(result.solutions)
    for K in result.solutions:
        assert check_graph_subalgebra(a, rep, H, K).ok
    rng = random.Random(8)
    rejected = 0
    while rejected < 25:
        K = Matrix(F2, [[rng.randint(0, 1) for _ in range(3)] for _ in range(3)])
        if K in solutions:
            continue
        assert not check_graph_subalgebra(a, rep, H, K).ok
        rejected += 1


# ---------------------------------------------------------------------------
# the compiled equations against a brute-force sweep of the checkers


def _brute_force(spec, field, check):
    """[K for K in all candidates if check(K).ok], enumerated independently."""
    rows, cols = spec.shape
    free = [(i, j) for i in range(rows) for j in range(cols) if (i, j) not in spec.fixed]
    found = []
    for values in itertools.product(spec.domain, repeat=len(free)):
        entries = [[None] * cols for _ in range(rows)]
        for (i, j), v in list(spec.fixed.items()) + list(zip(free, values)):
            entries[i][j] = v
        K = Matrix(field, entries)
        if check(K).ok:
            found.append(K)
    return found


def _predicate_cases(field):
    """(predicate, bundle, shape, fixed, checker of one candidate) tuples."""
    F = field
    g2 = g2_algebra(F)
    rep2 = regular_representation(g2)
    H2 = coboundary(g2, rep2, Cochain.from_matrix(Matrix(F, [[1, 0], [1, 1]])))
    g3 = g3_algebra(F)
    rep3 = regular_representation(g3)
    H3 = g3_cocycle(F)
    g3b = g3b_algebra(F)
    unital = PreLieAlgebra.build(F, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1},
                                 unit=(1, 0))
    D = Matrix(F, [[0, 0], [1, 0]])
    data = reynolds_from_invertible_cochain(g3b, regular_representation(g3b),
                                            Cochain.from_matrix(Matrix.identity(F, 3)))
    rows_fixed = {(i, j): F(v) for (i, j), v in
                  {(0, 0): 1, (0, 1): 0, (0, 2): 1, (1, 0): 0, (1, 1): 1, (1, 2): 0}.items()}

    def rcw(g, rep, H):
        return lambda K: check_rcw_reynolds(g, rep, H, K)

    return [
        ("rcw-reynolds", {"algebra": g2, "rep": rep2, "cocycle": H2}, (2, 2), {},
         rcw(g2, rep2, H2)),
        ("rcw-reynolds", {"algebra": g3, "rep": rep3, "cocycle": H3}, (3, 3), rows_fixed,
         rcw(g3, rep3, H3)),
        ("weighted-reynolds", {"algebra": g2, "weight": F(-1)}, (2, 2), {},
         lambda K: check_weighted_reynolds(g2, K, F(-1))),
        ("weighted-reynolds", {"algebra": g2, "weight": F(1)}, (2, 2), {(1, 0): F(0)},
         lambda K: check_weighted_reynolds(g2, K, F(1))),
        ("nijenhuis", {"algebra": g2}, (2, 2), {}, lambda N: check_nijenhuis(g2, N)),
        ("nijenhuis", {"algebra": g3b}, (3, 3), rows_fixed,
         lambda N: check_nijenhuis(g3b, N)),
        ("d-reynolds", {"algebra": unital, "operatorD": D}, (2, 2), {},
         lambda K: check_d_reynolds(unital, D, K)),
        ("d-reynolds", {"algebra": unital, "operatorD": D}, (2, 2), {(0, 1): F(1)},
         lambda K: check_d_reynolds(unital, D, K)),
        ("nijenhuis-element", {"data": data}, (3, 1), {},
         lambda x: check_nijenhuis_element(data, x.column(0))),
        ("nijenhuis-element", {"data": data}, (3, 1), {(0, 0): F(1)},
         lambda x: check_nijenhuis_element(data, x.column(0))),
    ]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("case", range(10))
def test_search_equals_brute_force(p, case):
    F = PrimeField(p)
    predicate, bundle, shape, fixed, check = _predicate_cases(F)[case]
    spec = SearchSpec(predicate, bundle, shape, tuple(F.elements()), fixed=fixed)
    result = exhaustive_search(spec, F)
    assert list(result.solutions) == _brute_force(spec, F, check)
    assert result.count_checked == p ** (shape[0] * shape[1] - len(fixed))


def test_brute_force_cases_are_not_trivial():
    # over both fields, most cases keep some candidates and reject others
    for p in (2, 3):
        F = PrimeField(p)
        mixed = 0
        for predicate, bundle, shape, fixed, check in _predicate_cases(F):
            spec = SearchSpec(predicate, bundle, shape, tuple(F.elements()), fixed=fixed)
            found = exhaustive_search(spec, F).count_solutions
            mixed += 0 < found < spec.count()
        assert mixed >= 8


def count_checks(monkeypatch, predicate: str) -> tuple:
    """Record every candidate that the prepared checker of ``predicate`` is called on,
    and every (k, one) that its integer core is called on."""
    calls, cores = [], []
    prepare = search_module.PREDICATES[predicate]

    def counting_prepare(bundle):
        check = prepare(bundle)

        def counting(K):
            calls.append(K)
            return check(K)

        def core(k, one):
            cores.append((k, one))
            return check.core(k, one)

        counting.core, counting.require_shape = core, check.require_shape
        return counting

    monkeypatch.setitem(search_module.PREDICATES, predicate, counting_prepare)
    return calls, cores


def _residues(K) -> tuple:
    """The rows of a matrix over F_p as residues: its lift, with D = 1."""
    return tuple(tuple(x.value for x in row) for row in K.data)


def _checked_once_then_by_the_core(calls, cores, result):
    # the field checker never runs; the core runs once on the generic
    # candidate, then re-verifies each solution on its residues, in the
    # order of the solutions
    assert calls == []
    (generic, one), *per_solution = cores
    assert one == 1 and any(isinstance(x, scalars.Poly) for row in generic for x in row)
    assert [(_residues(K), 1) for K in result.solutions] == per_solution


def test_rcw_search_runs_the_checker_once_plus_once_per_solution(monkeypatch):
    calls, cores = count_checks(monkeypatch, "rcw-reynolds")
    F2, bundle = f2_g3_bundle()
    spec = SearchSpec("rcw-reynolds", bundle, (3, 3), tuple(F2.elements()),
                      fixed={(0, 0): F2(0)})
    result = exhaustive_search(spec, F2)
    assert (result.count_checked, result.count_solutions) == (256, 34)
    _checked_once_then_by_the_core(calls, cores, result)


def test_nijenhuis_search_runs_the_checker_once_plus_once_per_solution(monkeypatch):
    calls, cores = count_checks(monkeypatch, "nijenhuis")
    F2 = PrimeField(2)
    g = parse_bundle(str(CORPUS / "g3.json"), "f2").algebra()
    spec = SearchSpec("nijenhuis", {"algebra": g}, (3, 3), tuple(F2.elements()))
    result = exhaustive_search(spec, F2)
    assert (result.count_checked, result.count_solutions) == (512, 48)
    _checked_once_then_by_the_core(calls, cores, result)


def _f2_sections(predicate: str) -> dict:
    """Bundle sections over F_2 for each predicate with a prepared checker."""
    F2, bundle = f2_g3_bundle()
    if predicate == "rcw-reynolds":
        return bundle
    if predicate == "weighted-reynolds":
        return {"algebra": bundle["algebra"], "weight": F2(1)}
    if predicate == "d-reynolds":
        unital = parse_bundle(str(CORPUS / "unital-d-reynolds.json"), "f2")
        return {"algebra": unital.algebra(), "operatorD": unital.matrix("operatorD")}
    return {"algebra": bundle["algebra"]}


@pytest.mark.parametrize("predicate, solutions", [
    ("weighted-reynolds", 80), ("d-reynolds", 16)])
def test_classical_searches_run_the_checker_once_plus_once_per_solution(
        monkeypatch, predicate, solutions):
    calls, cores = count_checks(monkeypatch, predicate)
    F2 = PrimeField(2)
    spec = SearchSpec(predicate, _f2_sections(predicate), (3, 3), tuple(F2.elements()))
    result = exhaustive_search(spec, F2)
    assert (result.count_checked, result.count_solutions) == (512, solutions)
    _checked_once_then_by_the_core(calls, cores, result)


PREPARED = ["rcw-reynolds", "weighted-reynolds", "d-reynolds", "nijenhuis"]


def _holds_a_poly(x) -> bool:
    if isinstance(x, (tuple, list)):
        return any(map(_holds_a_poly, x))
    return isinstance(x, scalars.Poly)


@pytest.mark.parametrize("predicate", PREPARED)
def test_search_prepares_the_fixed_data_once(monkeypatch, predicate):
    # the fixed data are lifted, and their tensor rows built, once per
    # search (the twisted semidirect rows, or the algebra's for nijenhuis);
    # beyond that preparation a search makes one lift, of 1, the domain and
    # the fixed entries: the generic candidate, the equations and the
    # solutions are read off that lift and lift nothing
    F2 = PrimeField(2)
    sections = _f2_sections(predicate)
    checks, cores = count_checks(monkeypatch, predicate)
    lifts = count_calls(monkeypatch, scalars, "lift")
    rows = count_calls(monkeypatch, algebra, "nonzero_rows")
    twisted = count_calls(monkeypatch, algebra, "semidirect_rows")
    arrays = count_calls(monkeypatch, reynolds, "_semidirect_arrays")
    search_module.PREDICATES[predicate](sections)
    preparation = len(lifts)
    assert preparation >= 1
    domain = tuple(F2.elements())
    found = set()
    for fixed in ({}, {(0, 0): F2(0)}, {(2, 2): F2(1), (0, 0): F2(0)}):
        for calls in (checks, cores, lifts, rows, twisted, arrays):
            calls.clear()
        spec = SearchSpec(predicate, sections, (3, 3), domain, fixed=fixed)
        result = exhaustive_search(spec, F2)
        assert (len(checks), len(cores)) == (0, 1 + result.count_solutions)
        assert len(lifts) == preparation + 1
        template = [fixed.get((i, j), F2(0)) for i in range(3) for j in range(3)]
        assert lifts[-1][1] == (F2.one, list(domain), template)
        assert not any(_holds_a_poly(args) for args in lifts)
        assert (len(rows), len(twisted)) == ((1, 0) if predicate == "nijenhuis" else (0, 1))
        assert len(arrays) == (predicate != "nijenhuis")
        found.add(result.count_solutions)
    # the lifts do not grow with the solutions
    assert len(found) == 3


def _all_predicates_f2() -> list:
    """One F_2 case of `_predicate_cases` per predicate that has a non-solution."""
    F2, cases = PrimeField(2), {}
    for predicate, bundle, shape, fixed, _ in _predicate_cases(PrimeField(2)):
        spec = SearchSpec(predicate, bundle, shape, tuple(F2.elements()), fixed=fixed)
        if predicate not in cases and exhaustive_search(spec, F2).count_solutions < spec.count():
            cases[predicate] = spec
    assert sorted(cases) == sorted(search_module.PREDICATES)
    return list(cases.values())


@pytest.mark.parametrize("predicate", PREPARED)
@pytest.mark.parametrize("k", [1, 5])
def test_a_checker_that_rejects_a_solution_is_an_invariant_error(monkeypatch, predicate, k):
    # the compiled equations accept the k-th solution, its re-verification
    # by the checker's integer core rejects it: the two routes disagree,
    # which is a fault in the package.  The core's first call is the
    # compile, on the generic candidate
    prepare = search_module.PREDICATES[predicate]

    def rejecting_prepare(bundle):
        check = prepare(bundle)
        original, calls = check.core, []

        def core(ints, one):
            calls.append(ints)
            residuals = original(ints, one)
            return [((0, 0), (1,))] if len(calls) == 1 + k else residuals

        check.core = core
        return check

    monkeypatch.setitem(search_module.PREDICATES, predicate, rejecting_prepare)
    F2 = PrimeField(2)
    spec = SearchSpec(predicate, _f2_sections(predicate), (3, 3), tuple(F2.elements()))
    with pytest.raises(InvariantError, match="the checker rejects"):
        exhaustive_search(spec, F2)


def test_a_sweep_that_accepts_a_non_solution_is_an_invariant_error(monkeypatch):
    # every predicate's core rejects a candidate that the sweep wrongly adds
    original = search_module._sweep

    def one_more(levels, values, p):
        found, nodes = original(levels, values, p)
        extra = next(c for c in itertools.product(range(len(values)), repeat=len(levels) - 1)
                     if c not in found)
        return found + [extra], nodes

    specs = _all_predicates_f2()
    monkeypatch.setattr(search_module, "_sweep", one_more)
    message = "the compiled equations accepted a candidate the checker rejects"
    for spec in specs:
        with pytest.raises(InvariantError, match=message):
            exhaustive_search(spec, PrimeField(2))


def _fractional_fixed(fixed) -> dict:
    """The fixed entries moved off the integers: v -> v + 1/3."""
    return {pos: QQ(v) + QQ("1/3") for pos, v in fixed.items()}


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), QQ], ids=repr)
def test_each_core_gives_the_checker_verdict_on_every_candidate(field):
    # the candidates of each case are lifted together, with one D, as the
    # sweep lifts its domain and fixed entries; over Q the domain has 1/2
    # and the fixed entries thirds, so D = 6
    domain = (QQ(0), QQ("1/2"), QQ(-1)) if field == QQ else tuple(field.elements())
    verdicts, predicates = set(), set()
    for predicate, bundle, shape, fixed, _ in _predicate_cases(field):
        if field == QQ:
            fixed = _fractional_fixed(fixed)
        spec = SearchSpec(predicate, bundle, shape, domain, fixed=fixed)
        check = search_module.PREDICATES[predicate](bundle)
        candidates = [oracles.candidate(spec, values, field)
                      for values in itertools.product(domain, repeat=spec.free_count())]
        (D, ints), _ = scalars.lift(field, (field.one, [K.data for K in candidates]))
        assert D == ((6 if fixed else 2) if field == QQ else 1)
        p = field.char
        for K, k in zip(candidates, ints):
            ok = check(K).ok
            assert ok == (not any(x % p if p else x for _, r in check.core(k, D) for x in r))
            verdicts.add(ok)
        predicates.add(predicate)
    assert verdicts == {True, False}
    assert predicates == set(search_module.PREDICATES)


def test_rcw_search_checks_the_cocycle_once(monkeypatch):
    import prelie.cochain as cochain_module

    checks = count_calls(monkeypatch, cochain_module, "cocycle_report")
    F2, bundle = f2_g3_bundle()
    spec = SearchSpec("rcw-reynolds", bundle, (3, 3), tuple(F2.elements()),
                      fixed={(0, 0): F2(0)})
    result = exhaustive_search(spec, F2)
    assert result.count_solutions == 34
    assert len(checks) == 1


@pytest.mark.parametrize("shape, fixed", [
    ((3, 3), {(3, 0): 0}),
    ((3, 3), {(0, -1): 0}),
    ((0, 3), {}),
    ((3, 0), {}),
])
def test_search_rejects_shapes_and_fixed_positions_outside(shape, fixed):
    F2, bundle = f2_g3_bundle()
    spec = SearchSpec("rcw-reynolds", bundle, shape, tuple(F2.elements()),
                      fixed={pos: F2(v) for pos, v in fixed.items()})
    with pytest.raises(ShapeError):
        exhaustive_search(spec, F2)


def test_search_shape_mismatch_is_a_shape_error():
    F2, bundle = f2_g3_bundle()
    spec = SearchSpec("rcw-reynolds", bundle, (2, 2), tuple(F2.elements()))
    with pytest.raises(ShapeError):
        exhaustive_search(spec, F2)


def test_search_with_every_entry_fixed():
    # no free entry: the residuals are scalars, and a nonzero one rejects
    F2, bundle = f2_g3_bundle()
    for rows, solutions in (([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 0),
                            ([[1, 1, 0], [0, 1, 1], [0, 0, 0]], 1)):
        fixed = {(i, j): F2(v) for i, row in enumerate(rows) for j, v in enumerate(row)}
        spec = SearchSpec("rcw-reynolds", bundle, (3, 3), tuple(F2.elements()),
                          fixed=fixed)
        result = exhaustive_search(spec, F2)
        assert (result.count_checked, result.count_solutions) == (1, solutions)
        assert list(result.solutions) == dense_sweep(spec, F2)
        assert result.nodes == 1


def test_a_repeated_domain_scalar_is_a_shape_error():
    # compared after coercion: 2 is 0 in F_2
    F2 = PrimeField(2)
    data = parse_bundle(str(CORPUS / "g3-f2-e11.json")).reynolds_data()
    for domain in ((F2(0), F2(1), F2(1)), (0, 2)):
        spec = SearchSpec("nijenhuis-element", {"data": data}, (3, 1), domain)
        with pytest.raises(ShapeError, match="repeats a scalar"):
            exhaustive_search(spec, F2)


# ---------------------------------------------------------------------------
# the pruned integer sweep against the dense sweep on field scalars


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("case", range(10))
def test_pruned_sweep_equals_dense_sweep(p, case):
    F = PrimeField(p)
    predicate, bundle, shape, fixed, _ = _predicate_cases(F)[case]
    spec = SearchSpec(predicate, bundle, shape, tuple(F.elements()), fixed=fixed)
    assert list(exhaustive_search(spec, F).solutions) == dense_sweep(spec, F)


def test_pruned_sweep_equals_dense_sweep_over_q_with_a_fractional_domain():
    # the equations mix degrees, so a fractional domain exercises the powers of
    # D that the core at one = D puts on the terms of lower degree
    domain = (QQ(0), QQ("1/2"), QQ(-1))
    fractional = 0
    for predicate, bundle, shape, fixed, _ in _predicate_cases(QQ):
        spec = SearchSpec(predicate, bundle, shape, domain, fixed=fixed)
        solutions = list(exhaustive_search(spec, QQ).solutions)
        assert solutions == dense_sweep(spec, QQ)
        fractional += sum(any(x.denominator == 2 for row in K.data for x in row)
                          for K in solutions)
    assert fractional > 0


# ---------------------------------------------------------------------------
# the compile on the integer core against the compile on field scalars


def _field_route(spec, field) -> tuple:
    """(solutions, nodes) of `oracles.field_equations` swept by the search's own
    order, lowering and sweep."""
    _, equations, values = oracles.field_equations(spec, field)
    order = search_module._order(equations, spec.free_count())
    position = sorted(range(len(order)), key=order.__getitem__)
    found, nodes = search_module._sweep(search_module._lower(equations, position), values,
                                        field.char)
    domain = [field(v) for v in spec.domain]
    return ([oracles.candidate(spec, [domain[j] for j in choice], field)
             for choice in sorted(tuple(c[k] for k in position) for c in found)], nodes)


def _route_specs():
    """(field, spec) for every case over F_2, F_3 and F_5 on the whole field, and over
    Q on the domain 0, 1/2, -1 with the fixed entries as they are and moved off the
    integers (D = 2 and D = 6)."""
    for p in (2, 3, 5):
        F = PrimeField(p)
        for predicate, bundle, shape, fixed, _ in _predicate_cases(F):
            yield F, SearchSpec(predicate, bundle, shape, tuple(F.elements()), fixed=fixed)
    domain = (QQ(0), QQ("1/2"), QQ(-1))
    for predicate, bundle, shape, fixed, _ in _predicate_cases(QQ):
        for moved in ((fixed, _fractional_fixed(fixed)) if fixed else (fixed,)):
            yield QQ, SearchSpec(predicate, bundle, shape, domain, fixed=moved)


def test_the_core_compile_gives_the_field_compile_solutions_and_nodes():
    specs = list(_route_specs())
    assert len(specs) == 3 * 10 + 10 + 5
    mixed = set()  # the fields with a case that keeps some candidates and rejects others
    for field, spec in specs:
        result = exhaustive_search(spec, field)
        assert (list(result.solutions), result.nodes) == _field_route(spec, field)
        if field.char:
            # over F_p, D = 1: the same equations, in the same order
            assert [eq.terms for eq in search_module._compile(spec, field)[1]] == \
                [eq.terms for eq in oracles.field_equations(spec, field)[1]]
        if 0 < result.count_solutions < spec.count():
            mixed.add(field.char)
    assert mixed == {0, 2, 3, 5}
    # the core reads only the entries it is given: an element of two columns
    # fails both routes alike, before any equation is compiled
    field, spec = specs[8]
    spec = SearchSpec(spec.predicate, spec.bundle, (3, 2), spec.domain)
    for route in (exhaustive_search, oracles.field_equations):
        with pytest.raises(ShapeError, match="^an element is one column, not 2$"):
            route(spec, field)


@pytest.mark.parametrize("case, shape", [
    (8, (3, 2)), (8, (2, 1)), (0, (3, 3)), (2, (3, 2)), (4, (2, 3)), (6, (3, 3))])
def test_both_compiles_reject_a_wrong_shape_alike(case, shape):
    # the core reads only the entries it is given: a wrong shape is
    # rejected before the compile, with the field checker's message
    F2 = PrimeField(2)
    predicate, bundle, *_ = _predicate_cases(F2)[case]
    spec = SearchSpec(predicate, bundle, shape, tuple(F2.elements()))
    with pytest.raises(ShapeError) as core_route:
        exhaustive_search(spec, F2)
    with pytest.raises(ShapeError) as field_route:
        oracles.field_equations(spec, F2)
    assert str(core_route.value) == str(field_route.value)


@pytest.mark.parametrize("p", [2, 3])
def test_pruned_sweep_with_no_solution(p):
    # K33 = 1 leaves K33^3 = 1 in the Reynolds identity at (e3, e3)
    F = PrimeField(p)
    bundle = parse_bundle(str(CORPUS / "g3.json"), f"f{p}")
    spec = SearchSpec("rcw-reynolds", {"algebra": bundle.algebra(),
                                       "rep": bundle.representation(),
                                       "cocycle": bundle.cocycle()},
                      (3, 3), tuple(F.elements()), fixed={(2, 2): F(1), (0, 0): F(0)})
    result = exhaustive_search(spec, F)
    assert result.count_solutions == 0 < result.count_checked
    assert dense_sweep(spec, F) == []


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([2, 3]), predicate=st.sampled_from(["rcw-reynolds", "nijenhuis"]),
       data=st.data())
def test_pruned_sweep_equals_dense_sweep_on_random_fixed_maps(p, predicate, data):
    F = PrimeField(p)
    bundle = parse_bundle(str(CORPUS / "g3.json"), f"f{p}")
    sections = {"algebra": bundle.algebra()}
    if predicate == "rcw-reynolds":
        sections.update(rep=bundle.representation(), cocycle=bundle.cocycle())
    cells = [(i, j) for i in range(3) for j in range(3)]
    # at most 3^5 candidates over F_3
    positions = data.draw(st.sets(st.sampled_from(cells), min_size=0 if p == 2 else 4))
    fixed = {pos: F(data.draw(st.integers(0, p - 1))) for pos in sorted(positions)}
    spec = SearchSpec(predicate, sections, (3, 3), tuple(F.elements()), fixed=fixed)
    assert list(exhaustive_search(spec, F).solutions) == dense_sweep(spec, F)


# ---------------------------------------------------------------------------
# the sweep's variable order, the compile's work and the solution path


def _x(*variables):
    """The product of the given variables, as an equation with coefficient 1."""
    return scalars.Poly({tuple(sorted(variables)): 1})


def test_the_order_completes_the_most_equations_first():
    # x3 alone completes x3 = 0; then x2, in two equations; then x0 and x1
    # each complete one, the tie going to x0
    assert search_module._order([_x(0, 2), _x(1, 2), _x(3)], 4) == [3, 2, 0, 1]
    # no variable completes one at first and all are in one: x0; then x3
    # completes x0 x3, and the tie of x1 and x2 goes to x1
    assert search_module._order([_x(1, 2), _x(0, 3)], 4) == [0, 3, 1, 2]


def test_the_order_with_no_equation_is_row_major():
    assert search_module._order([], 5) == [0, 1, 2, 3, 4]
    assert search_module._order([scalars.Poly({(): 1})], 3) == [0, 1, 2]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("case", range(10))
def test_the_order_is_a_permutation_of_the_free_variables(p, case):
    F = PrimeField(p)
    predicate, bundle, shape, fixed, _ = _predicate_cases(F)[case]
    spec = SearchSpec(predicate, bundle, shape, tuple(F.elements()), fixed=fixed)
    _, equations, *_ = search_module._compile(spec, F)
    assert sorted(search_module._order(equations, spec.free_count())) == \
        list(range(spec.free_count()))


def _random_system(rng):
    """Up to 12 variables and 15 equations of up to 4 terms: constants, squares and
    variables repeated across equations included; no variable when n = 0."""
    n = rng.randrange(13)
    equations = []
    for _ in range(rng.randrange(16)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            degree = rng.randrange(4) if n else 0
            terms[tuple(sorted(rng.randrange(n) for _ in range(degree)))] = rng.randint(1, 3)
        equations.append(scalars.Poly(terms))
    return equations, n


def test_the_order_is_the_order_of_the_heap_oracle():
    rng = random.Random(3131)
    systems = [_random_system(rng) for _ in range(1500)]
    assert {n for _, n in systems} >= {0, 12}
    assert any(eq.terms.keys() == {()} for eqs, _ in systems for eq in eqs)
    assert any(len(set(mono)) < len(mono) for eqs, _ in systems for eq in eqs
               for mono in eq.terms)
    for equations, n in systems:
        assert search_module._order(equations, n) == heap_order(equations, n)


def _power_truncation(field, n):
    """k[x]/(x^n) on the basis 1, x, ..., x^(n-1): commutative and associative."""
    return PreLieAlgebra.build(field, n, {(i, j, i + j): 1 for i in range(n)
                                          for j in range(n) if i + j < n})


def test_the_order_costs_little_next_to_the_compile(monkeypatch):
    # one scalar in the domain lets a 64-entry shape pass the budget (1^64 = 1);
    # the order is O(n^2 + terms), the compile far more.  Times are
    # noisy, so the best of three ratios is compared, with a wide margin
    F3 = PrimeField(3)
    spec = SearchSpec("weighted-reynolds", {"algebra": _power_truncation(F3, 8),
                                            "weight": F3(1)}, (8, 8), (F3(0),))
    spent = {}

    def timed(name):
        original = getattr(search_module, name)

        def run(*args):
            start = time.perf_counter()
            out = original(*args)
            spent[name] = time.perf_counter() - start
            return out
        monkeypatch.setattr(search_module, name, run)

    timed("_compile")
    timed("_order")
    ratios = []
    for _ in range(3):
        result = exhaustive_search(spec, F3)
        ratios.append(spent["_order"] / spent["_compile"])
    assert result.count_solutions == 1 and result.nodes == 1 + 64
    assert min(ratios) < 0.25


def test_one_rcw_compile_on_g3_makes_at_most_90_polynomial_products(monkeypatch):
    # a deterministic guard on the frame's work: the product visits only
    # the nonempty rows of the tensor, so a pair of coordinates whose row
    # is empty costs no multiplication
    F2, bundle = f2_g3_bundle()
    spec = SearchSpec("rcw-reynolds", bundle, (3, 3), tuple(F2.elements()))
    products = count_calls(monkeypatch, scalars.Poly, "__mul__")
    search_module._compile(spec, F2)
    assert 0 < len(products) <= 90


@pytest.mark.parametrize("p", [2, 3])
def test_fixed_entries_given_as_ints_give_field_scalar_solutions(p):
    F = PrimeField(p)
    bundle = {"algebra": g3_algebra(F), "rep": regular_representation(g3_algebra(F)),
              "cocycle": g3_cocycle(F)}
    spec = SearchSpec("rcw-reynolds", bundle, (3, 3), tuple(F.elements()),
                      fixed={(0, 0): 1, (1, 1): 0, (2, 0): 0, (2, 1): 0, (2, 2): 0})
    solutions = list(exhaustive_search(spec, F).solutions)
    assert solutions and solutions == dense_sweep(spec, F)
    assert all(type(x) is scalars.FpElement for K in solutions for row in K.data for x in row)
