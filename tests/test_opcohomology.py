import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from math import lcm

import pytest

from conftest import (
    _replace_everywhere,
    abelian,
    count_calls,
    fractional_ladder_data,
    g2_algebra,
    padded_reynolds_data,
    random_cochain,
    random_reynolds_data,
    zero_representation,
)
from oracles import (
    cochain_eval,
    compare_explicit_paths,
    explicit_coboundary,
    field_induced_representation,
    two_pass_induced_check,
)
from prelie import reynolds, scalars
from prelie.algebra import (
    PreLieAlgebra,
    check_prelie,
    check_representation,
    regular_representation,
)
from prelie.bundle import reynolds_data_to_json
from prelie.cli import main
from prelie.cochain import Cochain, cochain_space_dim, cohomology
from prelie.deformation import check_nijenhuis_element, rigidity_probe
from prelie.errors import InvariantError
from prelie.linalg import Matrix
from prelie.opcohomology import (
    induced_representation,
    operator_coboundary,
    operator_coboundary_matrix,
    operator_cohomology,
)
from prelie.reynolds import (
    ReynoldsData,
    check_graph_subalgebra,
    induced_product,
    reynolds_from_invertible_cochain,
)
from prelie.scalars import QQ, Poly, PrimeField


def test_induced_rep_zero_data(g3_bundle):
    a, rep, _ = g3_bundle
    H0 = Cochain.zero(QQ, 2, 3, 3)
    data = ReynoldsData.build(a, rep, H0, Matrix.zero(QQ, 3, 3))
    irep = induced_representation(data)
    assert all(m.is_zero() for m in irep.L) and all(m.is_zero() for m in irep.R)


def test_graph_frame_on_a_zero_dimensional_algebra():
    # g = 0 acting on V = Q^2: K = 0, the graph is all of V, the induced
    # product is zero and the induced representation is on the zero space
    a = abelian(QQ, 0)
    rep = zero_representation(a, 2)
    H, K = Cochain.zero(QQ, 2, 0, 2), Matrix(QQ, [], cols=2)
    data = ReynoldsData.build(a, rep, H, K)
    assert check_graph_subalgebra(a, rep, H, K).ok
    assert induced_product(data) == abelian(QQ, 2)
    induced = induced_representation(data)
    assert induced.dim_v == 0 and len(induced.L) == len(induced.R) == 2
    assert check_nijenhuis_element(data, ()).ok


def test_induced_rep_e22_values(g3_bundle):
    a, rep, H = g3_bundle
    K = Matrix(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    data = ReynoldsData.build(a, rep, H, K)
    irep = induced_representation(data)
    # K e2 = e2 and every product through e2 vanishes on this table, so the
    # e2-actions are zero; but Lbar_{e3} x = -K(x.e3) picks up
    # Lbar_{e3} e3 = -K(e2) = -e2 (and the same for Rbar_{e3})
    assert irep.L[1].is_zero() and irep.R[1].is_zero()
    assert irep.L[0].is_zero() and irep.R[0].is_zero()
    assert irep.L[2].column(2) == (QQ(0), QQ(-1), QQ(0))
    assert irep.R[2].column(2) == (QQ(0), QQ(-1), QQ(0))


def test_induced_rep_satisfies_axioms_randomized():
    rng = random.Random(21)
    for _ in range(20):
        data = random_reynolds_data(rng)
        irep = induced_representation(data)
        base = induced_product(data)
        assert check_representation(base, irep.dim_v, irep.L, irep.R).ok


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_induced_structure_on_the_lift_matches_the_field_construction(field):
    # over Q the bundles have fractional entries, so the lift scales by D > 1
    # and a homogenisation error would show
    # the padded bundles have dim V > dim g and K != 0, so a mix-up of the
    # two dimensions in the graph frame would show
    rng = random.Random(27)
    scales = []
    for i in range(22):
        data = random_reynolds_data(rng, field) if i < 12 else padded_reynolds_data(rng, field)
        induced = induced_representation(data)
        assert induced == field_induced_representation(data)
        assert induced.algebra == induced_product(data)
        if field == QQ:
            g, rep = data.algebra, data.rep
            scalars = [x for plane in g.product for row in plane for x in row]
            scalars += [x for M in rep.L + rep.R + (data.operator,) for row in M.data
                        for x in row]
            scalars += [x for v in data.cocycle.values for x in v]
            scales.append(lcm(*(x.denominator for x in scalars)))
    assert field != QQ or max(scales) > 1


def test_cohomology_builds_no_polynomial(monkeypatch):
    data = _unipotent_operator_data(4)
    built = []
    original = Poly.__init__

    def counting(self, terms):
        built.append(terms)
        original(self, terms)

    monkeypatch.setattr(Poly, "__init__", counting)
    operator_cohomology(data, 3)
    cohomology(data.algebra, data.rep, 3)
    assert built == []
    Poly({(0,): QQ(1)})
    assert len(built) == 1


def test_operator_coboundary_squares_to_zero():
    rng = random.Random(22)
    for _ in range(10):
        data = random_reynolds_data(rng)
        m = data.rep.dim_v
        degree = rng.randint(1, 2)
        f = random_cochain(rng, QQ, degree, m, data.algebra.dim)
        twice = operator_coboundary(data, operator_coboundary(data, f))
        assert twice.is_zero()


def test_operator_of_itself(g3_bundle):
    # partial_K(K) = -K H(K., K.): zero on the vanishing-third-row family
    a, rep, H = g3_bundle
    K = Matrix(QQ, [[1, 2, 3], [4, 5, 6], [0, 0, 0]])
    data = ReynoldsData.build(a, rep, H, K)
    assert operator_coboundary(data, Cochain.from_matrix(K)).is_zero()


def test_operator_of_itself_general_identity():
    rng = random.Random(23)
    for _ in range(8):
        data = random_reynolds_data(rng)
        K = data.operator
        out = operator_coboundary(data, Cochain.from_matrix(K))
        H = data.cocycle
        for u in range(data.rep.dim_v):
            for v in range(data.rep.dim_v):
                expected = tuple(-x for x in K.apply(
                    cochain_eval(H, [K.column(u), K.column(v)])))
                assert out.eval_basis((u, v)) == expected


def test_zero_operator_zero_differential(g3_bundle):
    a, rep, H = g3_bundle
    data = ReynoldsData.build(a, rep, H, Matrix.zero(QQ, 3, 3))
    d1 = operator_coboundary_matrix(data, 1)
    assert d1.is_zero()
    report = operator_cohomology(data, 1)
    assert report.dim_z == cochain_space_dim(3, 3, 1) == 9
    assert report.dim_h == 9 and report.dim_b == 0


def test_cohomology_golden_values(g3_bundle):
    a, rep, H = g3_bundle
    e11 = ReynoldsData.build(a, rep, H, Matrix(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    r1 = operator_cohomology(e11, 1)
    assert (r1.dim_z, r1.dim_b, r1.dim_h) == (9, 0, 9)
    rowzero = ReynoldsData.build(a, rep, H, Matrix(QQ, [[1, 2, 3], [4, 5, 6], [0, 0, 0]]))
    r2 = operator_cohomology(rowzero, 1)
    assert (r2.dim_z, r2.dim_b, r2.dim_h) == (6, 0, 6)
    r3 = operator_cohomology(rowzero, 2)
    assert r3.dim_h == r3.dim_z - r3.dim_b >= 0


def _unipotent_operator_data(n):
    """k[x]/(x^n) over Q with the operator built from h = I + superdiagonal."""
    a = PreLieAlgebra.build(QQ, n, {(i, j, i + j): 1 for i in range(n) for j in range(n)
                                    if i + j < n})
    h = Matrix(QQ, [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)])
    return reynolds_from_invertible_cochain(a, regular_representation(a),
                                            Cochain.from_matrix(h))


@pytest.mark.parametrize("n, degree, expected", [
    (4, 3, (57, 39, 18)),
    (4, 4, (51, 39, 12)),
    (5, 2, (41, 21, 20)),
    (5, 3, (124, 84, 40)),
    (6, 2, (61, 31, 30)),
    (6, 3, (230, 155, 75)),
    (6, 4, (410, 310, 100)),
])
def test_operator_cohomology_ladder(n, degree, expected):
    report = operator_cohomology(_unipotent_operator_data(n), degree)
    assert (report.dim_z, report.dim_b, report.dim_h) == expected


def test_cohomology_report_carries_fingerprint(g3_data):
    r = operator_cohomology(g3_data, 1)
    assert r.operator_hash == g3_data.fingerprint()
    assert len(r.operator_hash) == 16


def test_fingerprint_stable_and_sensitive(g3_bundle):
    a, rep, H = g3_bundle
    K1 = Matrix(QQ, [[1, 2, 3], [4, 5, 6], [0, 0, 0]])
    K2 = Matrix(QQ, [[1, 2, 3], [4, 5, 7], [0, 0, 0]])
    d1 = ReynoldsData.build(a, rep, H, K1)
    d1b = ReynoldsData.build(a, rep, H, K1)
    d2 = ReynoldsData.build(a, rep, H, K2)
    assert d1.fingerprint() == d1b.fingerprint()
    assert d1.fingerprint() != d2.fingerprint()


# ---------------------------------------------------------------------------
# the explicit formula and its typo detector


def _rich_data():
    a = g2_algebra()
    rep = regular_representation(a)
    h = Cochain.from_matrix(Matrix(QQ, [[1, 1], [0, 1]]))
    return reynolds_from_invertible_cochain(a, rep, h)


def test_explicit_expansion_equals_generic():
    rng = random.Random(24)
    data = _rich_data()
    for n in (1, 2):
        for _ in range(4):
            f = random_cochain(rng, QQ, n, 2, 2)
            assert explicit_coboundary(data, f) == operator_coboundary(data, f)


def test_explicit_variants_disagree_on_rich_data():
    rng = random.Random(25)
    data = _rich_data()
    f1 = random_cochain(rng, QQ, 1, 2, 2)
    verdict = compare_explicit_paths(data, f1)
    assert verdict["expanded"] is True
    assert verdict["all_variants"] is False
    # at degree 1 the collapsed group has only the i = n slice, so that
    # variant cannot differ; the other two are already visible
    assert verdict["collapsed_group"] is True
    assert verdict["right_slot"] is False
    assert verdict["bracket_group"] is False
    f2 = random_cochain(rng, QQ, 2, 2, 2)
    verdict2 = compare_explicit_paths(data, f2)
    assert verdict2["expanded"] is True
    assert verdict2["all_variants"] is False
    assert verdict2["collapsed_group"] is False
    assert verdict2["right_slot"] is False
    assert verdict2["bracket_group"] is False


def test_explicit_variant_can_coincide_on_degenerate_data(g3_data):
    # the worked bundle has symmetric actions on the relevant range, so the
    # right-slot variant is invisible there; the detector must not cry wolf
    rng = random.Random(26)
    f = random_cochain(rng, QQ, 1, 3, 3)
    verdict = compare_explicit_paths(g3_data, f)
    assert verdict["expanded"] is True
    assert verdict["right_slot"] is True


def test_induced_product_built_once_per_call(g3_data, monkeypatch):
    # the induced structure is read off one graph frame per call, on the
    # integer lift; a Nijenhuis element check builds one frame too,
    # whatever dim V is
    calls = count_calls(monkeypatch, reynolds, "graph_frame")
    f = Cochain.zero(QQ, 1, 3, 3)
    padded = padded_reynolds_data(random.Random(5))
    assert padded.rep.dim_v > padded.algebra.dim
    for call in (lambda: operator_coboundary(g3_data, f),
                 lambda: operator_coboundary_matrix(g3_data, 1),
                 lambda: operator_cohomology(g3_data, 2),
                 lambda: check_nijenhuis_element(g3_data, (1, 0, 1)),
                 lambda: check_nijenhuis_element(padded, (1,) * padded.algebra.dim)):
        calls.clear()
        call()
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# the induced pair on the frame's integers: one lift, two routes, and a
# re-verification that still bites


def test_operator_cohomology_lifts_the_data_twice(monkeypatch):
    # g, rep and H once, K once (`operator_frames`); the induced table,
    # Lbar and Rbar are verified and ranked on the frame's ints
    data = fractional_ladder_data()
    lifts = count_calls(monkeypatch, scalars, "lift")
    operator_cohomology(data, 2)
    assert len(lifts) == 2


def _route_cases():
    rng = random.Random(2606)
    cases = [(f"ladder-{n}", _unipotent_operator_data(n)) for n in (2, 3, 4, 5)]
    for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(5)):
        for i in range(4):
            make = random_reynolds_data if i < 2 else padded_reynolds_data
            cases.append((f"{make.__name__}-{field!r}-{i}", make(rng, field)))
    return cases


def test_operator_cohomology_is_the_cohomology_of_the_induced_pair():
    # the frame route against the objects route through `cochain.cohomology`;
    # the padded bundles have dim V != dim g
    padded = 0
    for _, data in _route_cases():
        induced = induced_representation(data)
        padded += data.rep.dim_v != data.algebra.dim
        for degree in (1, 2, 3):
            got = operator_cohomology(data, degree)
            want = cohomology(induced.algebra, induced, degree)
            assert (got.degree, got.dim_z, got.dim_b, got.dim_h) == \
                (want.degree, want.dim_z, want.dim_b, want.dim_h)
    assert padded >= 8


def test_fractional_ladder_rung_has_the_ladder_dimensions():
    # denominators in H and K: the induced arrays are at a
    # scale D_g D_K^2 > 1, which the integer ladder never reaches
    data = fractional_ladder_data()
    report = operator_cohomology(data, 2)
    assert (report.dim_z, report.dim_b, report.dim_h) == (41, 21, 20)
    _, graph, *_, back = reynolds.operator_frames(data.algebra, data.rep, data.cocycle)(
        data.operator)
    assert graph[0][data.algebra.dim] > 1  # D_K
    assert back(0)((1,)) != (QQ(1),)  # 1 / D_g


def _corrupt(monkeypatch, *parts) -> None:
    """Add 1 to one int of each of the ``parts`` of every frame's products: "table" at
    the first V-coordinate of gr(0).gr(m - 1) (the induced table at e_0 ._K e_(m-1)),
    "lbar" at coordinate 0 of gr(0).e_0 (Lbar_0 e_0), "rbar" at coordinate 0 of
    e_0.gr(0) (Rbar_0 e_0)."""
    def make(original):
        def graph_frame(entries, cols, one):
            mul, graph, p = original(entries, cols, one)
            n = len(graph[0]) - len(graph) if graph else 0

            def corrupted(left, right):
                out = mul(left, right)
                if left is graph and right is graph:
                    part, (a, b, t) = "table", (0, len(graph) - 1, n)
                else:
                    part, (a, b, t) = ("lbar" if left is graph else "rbar"), (0, 0, 0)
                if part in parts:
                    out[a][b][t] += 1
                return out
            return corrupted, graph, p
        return graph_frame

    _replace_everywhere(monkeypatch, reynolds, "graph_frame", make)


def _failing_bundles():
    # on each, either corruption breaks its identity (a +1 can keep it on
    # sparse data, as on corpus/g3-f2-e11.json, whose Lbar are almost all 0)
    f3 = random_reynolds_data(random.Random(5), PrimeField(3), invertible_only=True)
    return [("ladder", _unipotent_operator_data(3)), ("fractional", fractional_ladder_data()),
            ("f3", f3)]


@pytest.mark.parametrize("where, identity", [("table", "pre-Lie identity"),
                                             ("lbar", "representation identities")])
def test_a_corrupted_induced_pair_fails_its_reverification(monkeypatch, where, identity):
    bundles = _failing_bundles()
    _corrupt(monkeypatch, where)
    for name, data in bundles:
        calls = [lambda: operator_cohomology(data, 2), lambda: induced_representation(data)]
        if name == "f3":
            calls.append(lambda: rigidity_probe(data))
        for call in calls:
            with pytest.raises(InvariantError, match=identity):
                call()


def test_a_failed_reverification_maps_its_residuals_back_by_the_squared_scale(monkeypatch):
    # the residuals in the message are the field's: the corrupted table
    # mapped back by D_g D_K^2 and checked by `check_prelie` over Q
    data = fractional_ladder_data()
    _corrupt(monkeypatch, "table")
    g = data.algebra
    *_, products, back = reynolds.operator_frames(g, data.rep, data.cocycle)(data.operator)
    table = [[back(2)(w[g.dim:]) for w in row] for row in products]
    expected = check_prelie(QQ, table)
    assert not expected.ok
    with pytest.raises(InvariantError) as raised:
        operator_cohomology(data, 1)
    assert str(raised.value) == \
        "structure constants fail the pre-Lie identity:\n" + expected.describe()


PAIR_FAILURES = {  # corrupted parts: the identity named first
    "table": ({"table"}, "structure constants fail the pre-Lie identity"),
    "lbar": ({"lbar"}, "actions fail the representation identities"),
    "rbar": ({"rbar"}, "actions fail the representation identities"),
    "both": ({"table", "lbar", "rbar"}, "structure constants fail the pre-Lie identity"),
}


@pytest.mark.parametrize("case", PAIR_FAILURES)
def test_a_failed_induced_pair_check_reads_as_the_two_pass_check(monkeypatch, case):
    # the one-pass check of the induced pre-Lie and representation
    # identities raises the text of the two passes it replaced, byte for
    # byte: the pre-Lie failure first, each report with its violations in
    # the same order and mapped back by the same scale
    parts, identity = PAIR_FAILURES[case]
    _corrupt(monkeypatch, *parts)
    for _, data in _failing_bundles():
        frame = reynolds.operator_frames(data.algebra, data.rep, data.cocycle)(data.operator)
        want = two_pass_induced_check(data.algebra.dim, frame)
        assert want is not None and want.startswith(identity + ":\n")
        for call in (lambda: operator_cohomology(data, 1), lambda: induced_representation(data)):
            with pytest.raises(InvariantError) as raised:
                call()
            assert str(raised.value) == want


@pytest.mark.parametrize("case", PAIR_FAILURES)
def test_a_failed_induced_pair_check_is_exit_4(monkeypatch, case):
    # the command reads the frames of the bundle's build and reports the
    # same text: exit 4, the message on stdout and its first line on stderr
    parts, identity = PAIR_FAILURES[case]
    _corrupt(monkeypatch, *parts)
    for _, data in _failing_bundles():
        frame = reynolds.operator_frames(data.algebra, data.rep, data.cocycle)(data.operator)
        want = two_pass_induced_check(data.algebra.dim, frame)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["cohomology", "--operator", json.dumps(reynolds_data_to_json(data)),
                         "--degree", "1"])
        assert code == 4
        assert json.loads(out.getvalue()) == {"error": "InvariantError", "message": want}
        assert err.getvalue() == f"internal invariant failed: {identity}:\n"
