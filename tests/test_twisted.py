"""The weight and the actions read off the twisted semidirect product.

`cochain.check_two_cocycle` reads dH(x, y, z) as minus the V-part of the
pre-Lie defect of g + V twisted by H, evaluated at x < y only, and
`algebra.representation_report` reads the left identity at x < y only
(`SIGNS.md` proves both halvings).  Each must return the `Report` of the
route it replaced (`oracles.coboundary_check_two_cocycle`,
`oracles.full_representation_report`): verdict, violation order,
residuals and scalar types, over Q with fractional g and H (D_g > 1) and
over F_2, F_3 and F_5, on data that pass and data that fail.  The rows
they read, `algebra.semidirect_rows`, are the nonzero rows of the dense
product.  The bundle's build, `check_graph_subalgebra` and an rcw search
lift (g, rep, H) once and take the cocycle verdict and the frames from
that one preparation.
"""

import itertools
import random

import pytest

from conftest import (
    CORPUS,
    _entry,
    _random_matrix,
    count_calls,
    fractional_reynolds_data,
    random_pair,
    random_two_cocycle,
)
from oracles import (
    coboundary_check_two_cocycle,
    dense_semidirect_tensor,
    full_representation_report,
)
from test_prepared_checkers import _denominator, assert_same_report
from prelie import cochain, scalars
from prelie.algebra import (
    _as_tensor,
    check_representation,
    nonzero_rows,
    representation_report,
    semidirect_rows,
    semidirect_tensor,
)
from prelie.bundle import parse_bundle
from prelie.cochain import Cochain, _semidirect_arrays, check_two_cocycle
from prelie.deformation import nijenhuis_element_checker
from prelie.linalg import Matrix
from prelie.reynolds import ReynoldsData, check_graph_subalgebra, check_rcw_reynolds
from prelie.scalars import QQ, Poly, PrimeField, lift
from prelie.search import SearchSpec, exhaustive_search

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]


def _weights(rng, field, count=10):
    """(g, rep, H) triples, H a 2-cocycle and H plus a random bilinear map.

    Over Q every other cocycle is the weight of `fractional_reynolds_data`,
    so g and H have fractional entries and D_g > 1.
    """
    out = []
    for t in range(count):
        if field == QQ and t % 2 == 0:
            data = fractional_reynolds_data(rng)
            g, rep, H = data.algebra, data.rep, data.cocycle
        else:
            g, rep = random_pair(rng, field)
            H = random_two_cocycle(rng, g, rep)
        noise = Cochain(field, 2, g.dim, rep.dim_v,
                        [[_entry(rng, field) for _ in range(rep.dim_v)] for _ in H.values])
        out += [(g, rep, H), (g, rep, H + noise)]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_check_two_cocycle_matches_the_coboundary_route(field):
    rng = random.Random(2901)
    verdicts, fractional = set(), 0
    for g, rep, H in _weights(rng, field):
        report = check_two_cocycle(g, rep, H)
        assert_same_report(report, coboundary_check_two_cocycle(g, rep, H), field)
        verdicts.add(report.ok)
        fractional += _denominator(field, _semidirect_arrays(g, rep, H)) != 1
        at = [where for where, _ in report.violations]
        assert all(x != y for x, y, _ in at)
        assert sorted((y, x, z) for x, y, z in at) == sorted(at)
    assert verdicts == {True, False}
    assert fractional >= 5 if field == QQ else fractional == 0


def _actions(rng, field, count=8):
    """(g, dim V, L, R): representations, and ones with a perturbed L_k."""
    out = []
    for t in range(count):
        if field == QQ and t % 2 == 0:
            data = fractional_reynolds_data(rng)
            g, rep = data.algebra, data.rep
        else:
            g, rep = random_pair(rng, field)
        m, k = rep.dim_v, rng.randrange(g.dim)
        L = list(rep.L)
        L[k] = L[k] + _random_matrix(rng, field, m, m)
        out += [(g, m, rep.L, rep.R), (g, m, L, rep.R)]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_representation_report_matches_the_full_evaluation(field):
    # the left identity at x < y only, the rest read off antisymmetry
    rng = random.Random(2902)
    verdicts, swapped, fractional = set(), 0, 0
    for g, m, L, R in _actions(rng, field):
        (c, Ll, Rl, D), down = lift(field, (g.product, [M.data for M in L],
                                            [M.data for M in R], field.one))
        report = representation_report(c, m, Ll, Rl, lambda r: down(r, 2))
        assert_same_report(report, full_representation_report(
            c, m, Ll, Rl, lambda r: down(r, 2)), field)
        assert check_representation(g, m, L, R) == report
        verdicts.add(report.ok)
        swapped += any(w[0] == "left" and w[1] > w[2] for w, _ in report.violations)
        fractional += D != 1
    assert verdicts == {True, False}
    assert swapped >= 3
    assert fractional >= 4 if field == QQ else fractional == 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_semidirect_rows_are_the_nonzero_rows_of_the_dense_product(field):
    rng = random.Random(2903)
    for g, rep, H in _weights(rng, field, 4):
        product, L, R, table = _semidirect_arrays(g, rep, H)
        for h in (table, None):
            dense = dense_semidirect_tensor(product, rep.dim_v, L, R, h)
            assert semidirect_rows(product, rep.dim_v, L, R, h) == nonzero_rows(dense)
            assert _as_tensor(field, semidirect_tensor(product, rep.dim_v, L, R, h)) == \
                _as_tensor(field, dense)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_twisted_rows_with_no_weight_are_the_untwisted_rows(field):
    # H = None: (g, rep) lifted alone, by their own denominator, and no twist
    rng = random.Random(2904)
    fractional = 0
    for g, rep, _ in _weights(rng, field, 4):
        product, L, R, _ = _semidirect_arrays(g, rep, None)
        (c, Ll, Rl, D), _ = lift(field, (product, L, R, field.one))
        assert cochain.twisted_rows(g, rep, None) == \
            (semidirect_rows(c, rep.dim_v, Ll, Rl, None), D)
        fractional += D != 1
    assert fractional >= 2 if field == QQ else fractional == 0


def test_check_two_cocycle_reads_no_coboundary(monkeypatch):
    # one pass of the cocycle kernel per check, no coboundary, no cochain evaluation
    bundle = parse_bundle(str(CORPUS / "g3-k-rowzero.json"))
    g, rep, H = bundle.algebra(), bundle.representation(), bundle.cocycle()
    bad = H + Cochain.from_entries(QQ, 2, g.dim, rep.dim_v, {((0,), 1): (0, 1, 0)})
    calls = {name: count_calls(monkeypatch, cochain, name)
             for name in ("coboundary", "cocycle_report")}
    evaluations = count_calls(monkeypatch, Cochain, "eval_basis")
    assert check_two_cocycle(g, rep, H).ok
    assert not check_two_cocycle(g, rep, bad).ok
    assert (len(calls["coboundary"]), len(evaluations), len(calls["cocycle_report"])) == \
        (0, 0, 2)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_a_nijenhuis_element_check_does_no_matrix_arithmetic(monkeypatch, field):
    # the element maps are combined with x on the frame's ints, and phi_t,
    # psi_t built entry by entry, for field elements and the generic one
    rng = random.Random(2904)
    for _ in range(3):
        data = fractional_reynolds_data(rng) if field == QQ else \
            parse_bundle(str(CORPUS / "g3-f2-e11.json"), "f3").reynolds_data()
        check = nijenhuis_element_checker(data)
        n = data.algebra.dim
        calls = {name: count_calls(monkeypatch, Matrix, name)
                 for name in ("__add__", "__sub__", "scale", "__mul__")}
        elements = [tuple(_entry(rng, field) for _ in range(n)) for _ in range(4)]
        elements.append(tuple(Poly({(k,): field.one}) for k in range(n)))
        for x in elements:
            check(x)
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)
        monkeypatch.undo()


def _weight_lifts(lifts, H) -> list:
    """The `scalars.lift` calls whose arrays hold H: its values, or a table of them."""
    def holds(a):
        return a is H.values or isinstance(a, list) and bool(a) and \
            isinstance(a[0], tuple) and bool(a[0]) and a[0][0] is H.values[0]
    return [args for args in lifts if any(holds(a) for a in args[1])]


def test_the_build_and_the_graph_check_lift_the_weight_once(monkeypatch):
    bundle = parse_bundle(str(CORPUS / "g3-k-rowzero.json"))
    g, rep, H, K = bundle.algebra(), bundle.representation(), bundle.cocycle(), bundle.operator()
    lifts = count_calls(monkeypatch, scalars, "lift")
    checks = count_calls(monkeypatch, cochain, "cocycle_report")
    for entry in (ReynoldsData.build, check_rcw_reynolds, check_graph_subalgebra):
        lifts.clear()
        checks.clear()
        entry(g, rep, H, K)
        assert (len(_weight_lifts(lifts, H)), len(checks)) == (1, 1)


def test_an_rcw_search_lifts_the_weight_once(monkeypatch):
    F2 = PrimeField(2)
    bundle = parse_bundle(str(CORPUS / "g3.json"), "f2")
    sections = {"algebra": bundle.algebra(), "rep": bundle.representation(),
                "cocycle": bundle.cocycle()}
    lifts = count_calls(monkeypatch, scalars, "lift")
    checks = count_calls(monkeypatch, cochain, "cocycle_report")
    for fixed in ({(0, 0): F2(0)}, dict.fromkeys(itertools.product(range(3), [2]), F2(0))):
        lifts.clear()
        checks.clear()
        spec = SearchSpec("rcw-reynolds", sections, (3, 3), tuple(F2.elements()), fixed=fixed)
        assert exhaustive_search(spec, F2).count_solutions
        assert (len(_weight_lifts(lifts, sections["cocycle"])), len(checks)) == (1, 1)
