"""The axiom checkers on lifted integers against the same formulas on field scalars.

`check_prelie`, `check_jacobi`, `check_representation`,
`check_ns_prelie` and `check_derivation` (dD = 0 through
`cochain.coboundary`) evaluate on Python ints after one `scalars.lift`;
the oracles in `oracles.py` evaluate the same formulas on the field scalars.
Both must return the same `Report`: verdict, violation order, residual
values and scalar types, and the parts.
"""

import inspect
import random
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CORPUS,
    conjugate_algebra,
    count_calls,
    g3b_algebra,
    random_algebra,
    random_reynolds_data,
    unital_algebras,
)
from oracles import (
    field_check_derivation,
    field_check_jacobi,
    field_check_ns_prelie,
    field_check_prelie,
    field_check_representation,
    field_is_unit,
)
from prelie import algebra, linalg, scalars
from prelie.algebra import (
    PreLieAlgebra,
    Representation,
    check_derivation,
    check_jacobi,
    check_prelie,
    check_representation,
    regular_representation,
    subadjacent_lie,
)
from prelie.brackets import d_K, dk_difference, mc_residual, twisted_mc_residual
from prelie.bundle import parse_bundle
from prelie.cochain import Cochain, check_two_cocycle, coboundary, cohomology
from prelie.deformation import rigidity_probe
from prelie.errors import SchemaError, UnverifiedError
from prelie.linalg import Matrix
from prelie.nsprelie import check_ns_prelie, ns_from_reynolds
from prelie.opcohomology import induced_representation, operator_cohomology
from prelie.scalars import QQ, FpElement, Poly, PrimeField, field_by_name, lift

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
FRACTIONS = ["1/2", "-1/3", "3/4", "-5/6", "7/2"]
Q_ENTRIES = ["0", "0", "0", "1", "-1", "2"] + FRACTIONS
FP_ENTRIES = [0, 0, 0, 1, 2, 3, 4]


def assert_same_report(lifted, oracle, field):
    assert lifted == oracle
    assert list(lifted.parts or ()) == list(oracle.parts or ())
    scalar = Fraction if field == QQ else FpElement
    for report in [lifted, *(lifted.parts or {}).values()]:
        for _, residual in report.violations:
            assert all(type(x) is scalar for x in residual)


@st.composite
def tensors(draw, field, n):
    """An n*n*n tensor of small scalars; over Q at least one is a fraction."""
    size = n ** 3
    flat = draw(st.lists(st.sampled_from(Q_ENTRIES if field == QQ else FP_ENTRIES),
                         min_size=size, max_size=size))
    if field == QQ:
        flat[draw(st.integers(0, size - 1))] = draw(st.sampled_from(FRACTIONS))
    return [[[field(flat[(i * n + j) * n + k]) for k in range(n)] for j in range(n)]
            for i in range(n)]


@st.composite
def matrices(draw, field, n):
    flat = draw(st.lists(st.sampled_from(Q_ENTRIES if field == QQ else FP_ENTRIES),
                         min_size=n * n, max_size=n * n))
    return Matrix(field, [[field(flat[i * n + j]) for j in range(n)] for i in range(n)])


def _scaled(a: PreLieAlgebra) -> PreLieAlgebra:
    """Over Q, the algebra on the basis e_i / (i + 1): fractional constants."""
    if a.field != QQ:
        return a
    P = Matrix(QQ, [[Fraction(1, i + 1) if i == j else 0 for j in range(a.dim)]
                    for i in range(a.dim)])
    return conjugate_algebra(a, P)


# ---------------------------------------------------------------------------
# failing (and sometimes passing) raw inputs


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_check_prelie_matches_field_oracle_on_raw_tensors(field, data):
    t = data.draw(tensors(field, data.draw(st.integers(1, 3))))
    assert_same_report(check_prelie(field, t), field_check_prelie(field, t), field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_check_jacobi_matches_field_oracle_on_raw_tensors(field, data):
    t = data.draw(tensors(field, data.draw(st.integers(1, 3))))
    assert_same_report(check_jacobi(field, t), field_check_jacobi(field, t), field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_check_representation_matches_field_oracle_on_raw_actions(field, data):
    n = data.draw(st.integers(1, 3))
    dim_v = data.draw(st.integers(1, 3))
    a = PreLieAlgebra(field, data.draw(tensors(field, n)), check=False)
    L = [data.draw(matrices(field, dim_v)) for _ in range(n)]
    R = [data.draw(matrices(field, dim_v)) for _ in range(n)]
    assert_same_report(check_representation(a, dim_v, L, R),
                       field_check_representation(a, dim_v, L, R), field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_check_ns_prelie_matches_field_oracle_on_raw_tensors(field, data):
    n = data.draw(st.integers(1, 3))
    tri, trl, circ = (data.draw(tensors(field, n)) for _ in range(3))
    assert_same_report(check_ns_prelie(field, tri, trl, circ),
                       field_check_ns_prelie(field, tri, trl, circ), field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_check_derivation_matches_field_oracle_on_raw_maps(field, data):
    n = data.draw(st.integers(1, 3))
    a = PreLieAlgebra(field, data.draw(tensors(field, n)), check=False)
    D = data.draw(matrices(field, n))
    assert_same_report(check_derivation(a, D), field_check_derivation(a, D), field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_check_derivation_matches_field_oracle_on_verified_algebras(field):
    # verified algebras: D = 0 always passes, the identity and random maps
    # mostly fail, so both verdicts occur
    rng = random.Random(31)
    verdicts = set()
    for _ in range(12):
        a = _scaled(random_algebra(rng, field))
        for D in (Matrix.zero(field, a.dim, a.dim), Matrix.identity(field, a.dim),
                  Matrix(field, [[field(rng.randint(-1, 1)) for _ in range(a.dim)]
                                 for _ in range(a.dim)])):
            report = check_derivation(a, D)
            assert_same_report(report, field_check_derivation(a, D), field)
            verdicts.add(report.ok)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# verified inputs: regular and induced representations, their algebras


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_lifted_checks_pass_on_regular_representations(field, seed):
    a = _scaled(random_algebra(random.Random(seed), field))
    rep = regular_representation(a)
    bracket = subadjacent_lie(a)
    for lifted, oracle in (
            (check_prelie(field, a.product), field_check_prelie(field, a.product)),
            (check_jacobi(field, bracket), field_check_jacobi(field, bracket)),
            (check_representation(a, a.dim, rep.L, rep.R),
             field_check_representation(a, a.dim, rep.L, rep.R))):
        assert lifted.ok
        assert_same_report(lifted, oracle, field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_lifted_checks_pass_on_induced_representations(field, seed):
    data = random_reynolds_data(random.Random(seed), field)
    induced = induced_representation(data)
    base = induced.algebra
    ns = ns_from_reynolds(data)
    for lifted, oracle in (
            (check_prelie(field, base.product), field_check_prelie(field, base.product)),
            (check_representation(base, induced.dim_v, induced.L, induced.R),
             field_check_representation(base, induced.dim_v, induced.L, induced.R)),
            (check_ns_prelie(field, ns.tri, ns.trl, ns.circ),
             field_check_ns_prelie(field, ns.tri, ns.trl, ns.circ))):
        assert lifted.ok
        assert_same_report(lifted, oracle, field)


def test_fractional_constants_pass_with_a_common_denominator():
    a = _scaled(g3b_algebra())
    assert {x.denominator for plane in a.product for row in plane for x in row} == {1, 3}
    rep = regular_representation(a)
    assert check_representation(a, a.dim, rep.L, rep.R).ok
    # one constant off by 1/6: the residuals are fractions, exactly as over Q
    tensor = [[list(row) for row in plane] for plane in a.product]
    tensor[2][1][2] += Fraction(1, 6)
    report = check_prelie(QQ, tensor)
    assert not report.ok
    assert any(x.denominator > 1 for _, r in report.violations for x in r)
    assert_same_report(report, field_check_prelie(QQ, tensor), QQ)


# ---------------------------------------------------------------------------
# the lift itself


def test_lift_scales_by_one_common_denominator():
    lifted, down = lift(QQ, ((Fraction(1, 2), Fraction(2, 3)), [[Fraction(-5, 4)]]))
    assert lifted == ((6, 8), ((-15,),))
    assert down((6, 0), 1) == (Fraction(1, 2), QQ.zero)
    assert down((36,), 2) == (Fraction(1, 4),)


def test_lift_over_a_prime_field_takes_residues():
    F5 = PrimeField(5)
    lifted, down = lift(F5, ((F5(3), F5(-1)),))
    assert lifted == ((3, 4),)
    assert down((12, 5), 2) == (F5(2), F5(0))


def test_polynomial_entries_lift_and_come_back_coefficient_by_coefficient():
    x = Poly({(0,): Fraction(1, 2), (1, 1): Fraction(-2, 3)})
    (lifted,), down = lift(QQ, ((Fraction(1, 4), x),))
    assert lifted[0] == 3 and lifted[1].terms == {(0,): 6, (1, 1): -8}
    back = down((lifted[1] * 2, 0), 1)
    assert back[0].terms == {(0,): Fraction(1), (1, 1): Fraction(-4, 3)} and back[1] == 0
    assert down((lifted[1] * 12,), 2)[0].terms == x.terms

    F3 = PrimeField(3)
    (lifted,), down = lift(F3, ((Poly({(0,): F3(2), (2,): F3(1)}),),))
    assert lifted[0].terms == {(0,): 2, (2,): 1}
    # a coefficient that reduces to zero mod p drops out
    assert down((Poly({(0,): 4, (2,): 3}),), 2)[0].terms == {(0,): F3(1)}


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_polynomial_entries_with_foreign_coefficients_cannot_be_lifted(field):
    for coeff in (1, 0.5, PrimeField(5)(1)):
        with pytest.raises(TypeError):
            lift(field, ((field.one, Poly({(0,): coeff})),))
    with pytest.raises(TypeError):
        check_prelie(field, [[[Poly({(0,): 1})]]])


def test_a_prime_field_rejects_rationals_and_foreign_residues():
    F3 = PrimeField(3)
    with pytest.raises(TypeError):
        lift(F3, ((Fraction(1, 2),),))
    with pytest.raises(TypeError):
        lift(F3, ((PrimeField(5)(1),),))


@pytest.mark.parametrize("name", ["z", "zz", "int", "integers", "Z"])
def test_the_integer_ring_has_no_name(name):
    with pytest.raises(ValueError):
        field_by_name(name)
    with pytest.raises(SchemaError):
        parse_bundle({"field": name, "algebra": {"dim": 1, "product": []}})


def _record_fields(monkeypatch) -> list:
    """The field of every `PreLieAlgebra`, `Representation`, `Matrix` and `Cochain` built
    from now on."""
    fields = []

    def recording(original, field_of):
        def build(*args, **kwargs):
            fields.append(field_of(*args))
            return original(*args, **kwargs)
        return build

    for cls in (PreLieAlgebra, Matrix, Cochain):
        monkeypatch.setattr(cls, "__init__", recording(cls.__init__, lambda _, field, *__: field))
    monkeypatch.setattr(Representation, "__init__", recording(
        Representation.__init__, lambda _, algebra, *__: algebra.field))
    monkeypatch.setattr(linalg, "_matrix", recording(linalg._matrix, lambda field, *_: field))
    return fields


@pytest.mark.parametrize("name", ["q", "f3"])
def test_no_algebra_representation_or_matrix_is_built_over_the_integers(monkeypatch, name):
    # the integer lift is held in raw arrays, never in these objects, cochains
    # included; the induced representation is built on the field, so the
    # recorder sees at least one object on every field
    bundle = parse_bundle(str(CORPUS / "g3-k-twisted.json"), name)
    data, K2 = bundle.reynolds_data(), bundle.matrix("operatorKprime")
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    fields = _record_fields(monkeypatch)
    cohomology(g, rep, 2)
    coboundary(g, rep, H)
    check_two_cocycle(g, rep, H)
    operator_cohomology(data, 2)
    induced_representation(data)
    if name == "f3":
        rigidity_probe(data)
    mc_residual(g, rep, H, K)
    d_K(data, Cochain.from_matrix(K2))
    twisted_mc_residual(data, K2)
    dk_difference(data, 2)
    assert fields
    assert all(field == data.field for field in fields)


def test_a_verified_input_maps_no_residual_back(monkeypatch, g3_data):
    # every residual of a verified g3 bundle is the int 0, so the checkers
    # never build a field scalar for it; a failing one still maps back
    a, rep = g3_data.algebra, g3_data.rep
    ns = ns_from_reynolds(g3_data)
    mapped = count_calls(monkeypatch, scalars, "descend")
    assert check_prelie(QQ, a.product).ok
    assert check_representation(a, rep.dim_v, rep.L, rep.R).ok
    assert check_ns_prelie(QQ, ns.tri, ns.trl, ns.circ).ok
    assert mapped == []
    bad = [[list(row) for row in plane] for plane in a.product]
    bad[0][1][2] += 1
    assert not check_prelie(QQ, bad).ok
    assert mapped


# ---------------------------------------------------------------------------
# the declared unit, checked on the lift


def _one_sided(field, side: str) -> PreLieAlgebra:
    """dim 2, associative: e_0.e_0 = e_0 and e_0.e_1 = e_1 (e_0 a left unit only)
    or e_1.e_0 = e_1 (a right unit only)."""
    return PreLieAlgebra.build(field, 2, {(0, 0, 0): 1, (0, 1, 1) if side == "left"
                                          else (1, 0, 1): 1})


def _unit_case(field, choose) -> tuple:
    """(tensor, candidate unit, base): a unital or one-sided algebra conjugated by an
    invertible upper triangular P (over Q with fractional entries, so D > 1), its unit
    or one-sided unit carried along, perturbed or not; ``choose`` picks from a list."""
    bases = [(a, a.unit, "unit") for a in unital_algebras(field)]
    bases += [(_one_sided(field, side), (1, 0), side) for side in ("left", "right")]
    a, unit, base = choose(bases)
    entries = Q_ENTRIES if field == QQ else FP_ENTRIES
    nonzero = [x for x in entries if field(x)]
    P = Matrix(field, [[field(choose(nonzero if i == j else entries)) if i <= j else 0
                        for j in range(a.dim)] for i in range(a.dim)])
    u = P.inverse().apply(tuple(field(x) for x in unit))
    if choose([False, True]):
        u = tuple(x + field(choose(entries)) for x in u)
    return conjugate_algebra(PreLieAlgebra(field, a.product), P).product, u, base


def _accepts(field, tensor, u) -> bool:
    try:
        PreLieAlgebra(field, tensor, unit=u)
    except UnverifiedError:
        return False
    return True


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_unit_check_on_the_lift_matches_the_field_product(field, data):
    tensor, u, _ = _unit_case(field, lambda items: data.draw(st.sampled_from(items)))
    assert _accepts(field, tensor, u) == field_is_unit(PreLieAlgebra(field, tensor), u)


# each mutant of `algebra._unit_report` accepts or rejects where the field product does not
_UNIT_MUTANTS = {
    "raw-ints-not-reduced-mod-p": ("descend(field, s))", "tuple)"),
    "left-side-only": ('(("left", left[i]), ("right", right[i][0]))', '(("left", left[i]),)'),
}


def _unit_cases() -> list:
    rng = random.Random(3501)
    return [(field, *_unit_case(field, rng.choice)) for field in FIELDS for _ in range(25)]


def test_the_unit_cases_cover_fractions_one_sided_units_and_both_verdicts():
    cases = _unit_cases()
    verdicts = {(base, field_is_unit(PreLieAlgebra(field, t), u)) for field, t, u, base in cases}
    assert verdicts >= {("unit", True), ("unit", False), ("left", False), ("right", False)}
    assert any(lift(QQ, (t, u, QQ.one))[0][-1] > 1 for field, t, u, _ in cases if field == QQ)


@pytest.mark.parametrize("case", sorted(_UNIT_MUTANTS))
def test_a_unit_check_mutant_disagrees_with_the_field_product(monkeypatch, case):
    term, replacement = _UNIT_MUTANTS[case]
    source = textwrap.dedent(inspect.getsource(algebra._unit_report))
    assert source.count(term) == 1
    namespace = dict(vars(algebra))
    exec(compile(source.replace(term, replacement), algebra.__file__, "exec"), namespace)
    monkeypatch.setattr(algebra, "_unit_report", namespace["_unit_report"])
    assert any(_accepts(field, t, u) != field_is_unit(PreLieAlgebra(field, t), u)
               for field, t, u, _ in _unit_cases())


def test_a_unital_algebra_lifts_its_product_once(monkeypatch):
    # the product and the unit are lifted together and both checks read
    # that lift: `check d-reynolds` on the unital bundle lifts (g, unit, 1),
    # the rows of the regular representation with D(1)'s weight, and K
    from cli_sweep import run

    lifts = count_calls(monkeypatch, scalars, "lift")
    assert run(("check", "d-reynolds", "corpus/unital-d-reynolds.json"))[0] == 0
    assert [len(args[1]) for args in lifts] == [3, 5, 2]
    # a unit that fails is still rejected on that lift, with the same message
    tensor, u, _ = next(case for case in (_unit_case(QQ, random.Random(s).choice)
                                          for s in range(50))
                        if not field_is_unit(PreLieAlgebra(QQ, case[0]), case[1]))
    with pytest.raises(UnverifiedError, match="not a two-sided unit"):
        PreLieAlgebra(QQ, tensor, unit=u)


@pytest.mark.parametrize("command, lifts", [
    (("construct", "star", "corpus/weighted-star.json"), 6),
    (("construct", "gauge", "corpus/g3-gauge-shift.json"), 10),
    # g for its check, g and N in the Nijenhuis frame, whose lift the three
    # tables read, and the three tables for their re-verification
    (("construct", "ns-from-nijenhuis", "corpus/nijenhuis3.json"), 4),
], ids=["star", "gauge", "ns-from-nijenhuis"])
def test_a_construction_lifts_each_operator_once_for_its_check_and_frame(monkeypatch, command,
                                                                        lifts):
    # the Reynolds check of K and the frame read off K share one lift of K
    from cli_sweep import run

    calls = count_calls(monkeypatch, scalars, "lift")
    assert run(command)[0] == 0
    assert len(calls) == lifts


def test_a_graph_that_is_a_subalgebra_builds_no_products(monkeypatch, g3_data):
    from prelie import reynolds

    g, rep, H, K = g3_data.algebra, g3_data.rep, g3_data.cocycle, g3_data.operator
    products = count_calls(monkeypatch, algebra, "family_products")
    assert reynolds.check_graph_subalgebra(g, rep, H, K).ok
    assert products == []
    bad = Matrix(QQ, [[x + 1 for x in row] for row in K.data])
    report = reynolds.check_graph_subalgebra(g, rep, H, bad)
    assert not report.ok and len(products) == 1
