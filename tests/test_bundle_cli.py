import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cli_sweep
from conftest import CORPUS, count_calls, fail_after
from oracles import basis_dk_columns, fraction_parse
from prelie import algebra, brackets, cochain, nsprelie, opcohomology, reynolds, search
from prelie.algebra import Report
from prelie.bundle import (
    MAX_DIM,
    algebra_from_json,
    algebra_to_json,
    cochain_from_json,
    cochain_to_json,
    matrix_from_json,
    matrix_to_json,
    nsprelie_from_json,
    nsprelie_to_json,
    parse_bundle,
)
from prelie.cli import build_parser, main
from prelie.cochain import Cochain
from prelie.errors import FieldMismatchError, InvariantError, SchemaError
from prelie.linalg import Matrix
from prelie.scalars import QQ, PrimeField, RationalField, scalar_to_str


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# bundle parsing


def test_parse_g3_bundle():
    b = parse_bundle(str(CORPUS / "g3.json"))
    assert b.algebra().dim == 3
    assert b.representation().dim_v == 3
    assert b.cocycle().eval_basis((2, 2)) == (QQ(0), QQ(0), QQ(1))


def test_empty_bundle_field_error():
    with pytest.raises(SchemaError) as err:
        parse_bundle({})
    assert err.value.path == "/field"


def test_rep_dim_mismatch_reported():
    doc = {
        "field": "q",
        "algebra": {"dim": 2, "product": []},
        "representation": {"dimV": 2, "L": [[["0", "0"], ["0", "0"]]],
                           "R": [[["0", "0"], ["0", "0"]]]},
    }
    b = parse_bundle(doc)
    with pytest.raises(FieldMismatchError) as err:
        b.representation()
    assert "/representation" in str(err.value)


def test_cocycle_dim_mismatch():
    doc = json.loads((CORPUS / "g3.json").read_text())
    doc["cocycleH"]["dim_source"] = 2
    doc["cocycleH"]["values"] = []
    b = parse_bundle(doc)
    with pytest.raises(FieldMismatchError):
        b.cocycle()


def test_schema_error_paths_are_precise():
    doc = {"field": "q", "algebra": {"dim": 2, "product": [{"i": 1, "j": 1}]}}
    b = parse_bundle(doc)
    with pytest.raises(SchemaError) as err:
        b.algebra()
    assert err.value.path == "/algebra/product/0/k"


def test_field_override_reparses_generic_fixture():
    b = parse_bundle(str(CORPUS / "g3.json"), field_override="f5")
    assert b.field == PrimeField(5)
    assert b.algebra().field == PrimeField(5)


def test_bad_scalar_reported_with_path():
    doc = {"field": "q", "algebra": {"dim": 1, "product": [
        {"i": 1, "j": 1, "k": 1, "c": "one"}]}}
    with pytest.raises(SchemaError) as err:
        parse_bundle(doc).algebra()
    assert "/algebra/product/0/c" in str(err.value)


@pytest.mark.parametrize("scalar, message", [
    ("abc", "Invalid literal for Fraction: 'abc'"),
    ("1/0", "Fraction(1, 0)"),
    ("-4/0", "Fraction(-4, 0)"),
    ("1/", "Invalid literal for Fraction: '1/'"),
    ("9" * 5000, None),
], ids=["letters", "zero-denominator", "negative-zero-denominator", "no-denominator",
        "over-the-int-limit"])
def test_cli_bad_scalar_is_exit_2_with_the_bytes_of_its_fraction_error(scalar, message):
    if message is None:  # the interpreter's own message for its digit limit
        with pytest.raises(ValueError) as exc:
            fraction_parse(QQ, scalar)
        message = str(exc.value)
    doc = json.loads((CORPUS / "g3-k-rowzero.json").read_text())
    doc["operatorK"]["entries"][0][0] = scalar
    code, out, _ = run_cli("check", "reynolds", json.dumps(doc))
    assert code == 2
    assert out == json.dumps({"error": "SchemaError", "message":
                              f"/operatorK/entries/0/0: bad scalar {scalar!r}: {message}"}) + "\n"


def test_a_bundle_coerces_each_scalar_once(monkeypatch):
    # each of the file's 13 scalars is parsed once and kept as it is; the only
    # coercions left are the 27 coordinates of H, in `Cochain.__init__`
    calls = {name: count_calls(monkeypatch, RationalField, name) for name in ("parse", "__call__")}
    parse_bundle(str(CORPUS / "g3-k-rowzero.json")).reynolds_data()
    assert {name: len(c) for name, c in calls.items()} == {"parse": 13, "__call__": 27}


# ---------------------------------------------------------------------------
# serializer round trips


def test_matrix_roundtrip():
    m = Matrix(QQ, [[1, "1/2"], [-3, 0]])
    assert matrix_from_json(QQ, matrix_to_json(m)) == m


def test_matrix_roundtrip_prime_field():
    F3 = PrimeField(3)
    m = Matrix(F3, [[1, 2], [0, 1]])
    doc = matrix_to_json(m)
    assert doc["entries"][0][0] == "1 mod 3"
    assert matrix_from_json(F3, doc) == m


def test_algebra_roundtrip():
    b = parse_bundle(str(CORPUS / "g3.json"))
    a = b.algebra()
    assert algebra_from_json(QQ, algebra_to_json(a)) == a


def test_cochain_roundtrip():
    b = parse_bundle(str(CORPUS / "g3.json"))
    H = b.cocycle()
    assert cochain_from_json(QQ, cochain_to_json(H)) == H


def test_nsprelie_roundtrip():
    b = parse_bundle(str(CORPUS / "ns2.json"))
    ns = b.nsprelie()
    assert nsprelie_from_json(QQ, nsprelie_to_json(ns)) == ns


def test_reynolds_bundle_roundtrip():
    from prelie.bundle import reynolds_data_to_json

    b = parse_bundle(str(CORPUS / "g3-k-rowzero.json"))
    data = b.reynolds_data()
    doc = reynolds_data_to_json(data)
    again = parse_bundle(doc).reynolds_data()
    assert again.operator == data.operator
    assert again.algebra == data.algebra


# ---------------------------------------------------------------------------
# CLI behavior and exit codes


def test_cli_check_reynolds_pass():
    code, out, _ = run_cli("check", "reynolds", str(CORPUS / "g3-k-rowzero.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["command"] == "check reynolds"


def test_cli_check_prelie_empty_product():
    code, out, _ = run_cli("check", "prelie", str(CORPUS / "empty-product.json"))
    assert code == 0


def test_cli_checked_and_failed_is_exit_1(tmp_path):
    doc = json.loads((CORPUS / "g3-k-rowzero.json").read_text())
    doc["operatorK"]["entries"][2] = ["1", "0", "0"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli("check", "reynolds", str(p))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["violations"]


def test_cli_input_error_is_exit_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{}")
    code, out, _ = run_cli("check", "reynolds", str(p))
    assert code == 2
    assert json.loads(out)["error"] == "SchemaError"


def test_cli_missing_file_is_exit_2():
    code, out, _ = run_cli("check", "reynolds", "no-such-file.json")
    assert code == 2


def test_cli_budget_is_exit_3():
    code, out, _ = run_cli("search", "--predicate", "rcw-reynolds",
                           "--bundle", str(CORPUS / "g3.json"),
                           "--field", "f3", "--shape", "3x3", "--budget", "10")
    assert code == 3
    assert json.loads(out.splitlines()[0])["error"] == "budget"


def test_cli_failed_squaring_invariant_is_exit_4(monkeypatch):
    # L_{e_3} e_3 = e_2 gains e_3 after the bundle is verified, so (g; L, R) is
    # no longer a representation: d_2 does not kill the coboundaries of level 1
    actions = cochain.action_arrays

    def perturbed(a, rep):
        c, L, R = actions(a, rep)
        L3 = L[2]
        return c, L[:2] + [L3[:2] + (L3[2][:2] + (a.field.one,),)], R

    monkeypatch.setattr(cochain, "action_arrays", perturbed)
    code, out, err = run_cli("cohomology", "--of", "algebra", "--degree", "2",
                             str(CORPUS / "g3.json"))
    message = "coboundary does not square to zero at degree 2"
    assert code == 4
    assert json.loads(out) == {"error": "InvariantError", "message": message}
    assert err == f"internal invariant failed: {message}\n"


def test_cli_failed_construction_reverification_is_exit_4(monkeypatch):
    # K must stay a weighted Reynolds operator on the star product; a
    # multi-line failure message stays whole in the JSON and takes one line on stderr
    failed = Report(False, [((0, 0), (QQ(1), QQ(0), QQ(0)))])
    monkeypatch.setattr(reynolds, "check_weighted_reynolds", lambda *args: failed)
    code, out, err = run_cli("construct", "star", str(CORPUS / "weighted-star.json"))
    assert code == 4
    doc = json.loads(out)
    assert doc["error"] == "InvariantError"
    assert doc["message"] == "K is not a weighted Reynolds operator on the new product"
    assert err.count("\n") == 1 and err.startswith("internal invariant failed: ")

    def broken(*args):
        raise InvariantError("first line\nsecond line")

    monkeypatch.setattr(reynolds, "check_weighted_reynolds", broken)
    code, out, err = run_cli("construct", "star", str(CORPUS / "weighted-star.json"))
    assert code == 4
    assert json.loads(out)["message"] == "first line\nsecond line"
    assert err == "internal invariant failed: first line\n"


def test_cli_mc_check():
    code, out, _ = run_cli("mc-check", str(CORPUS / "g3-k-rowzero.json"))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_cli_twisted_mc():
    doc = json.loads((CORPUS / "g3-k-rowzero.json").read_text())
    doc["operatorKprime"] = {"rows": 3, "cols": 3,
                             "entries": [["1", "0", "0"], ["0", "1", "0"],
                                         ["0", "0", "0"]]}
    code, out, _ = run_cli("check", "twisted-mc", json.dumps(doc))
    assert code == 0


@pytest.mark.parametrize("kprime, expected", [
    (None, 0),  # K' = K_e11 - K, so K + K' = K_e11
    ([["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]], 1),  # K' = E33
])
def test_cli_twisted_mc_agrees_with_the_reynolds_check_of_the_sum(kprime, expected):
    doc = json.loads((CORPUS / "g3-k-twisted.json").read_text())
    if kprime is None:
        source = str(CORPUS / "g3-k-twisted.json")
    else:
        doc["operatorKprime"]["entries"] = kprime
        source = json.dumps(doc)
    code, out, _ = run_cli("check", "twisted-mc", source)
    assert code == expected
    assert json.loads(out)["ok"] is (expected == 0)
    bundle = parse_bundle(source)
    total = bundle.operator() + bundle.matrix("operatorKprime")
    assert reynolds.check_rcw_reynolds(bundle.algebra(), bundle.representation(),
                                       bundle.cocycle(), total).ok is (expected == 0)


def test_cli_cohomology_golden():
    code, out, _ = run_cli("cohomology", "--of", "operator", "--degree", "1",
                           str(CORPUS / "g3-k-e11.json"))
    assert code == 0
    doc = json.loads(out)
    assert (doc["dimZ"], doc["dimB"], doc["dimH"]) == (9, 0, 9)


def test_cli_cohomology_operator_shorthand():
    code, out, _ = run_cli("cohomology", "--operator",
                           str(CORPUS / "g3-k-e11.json"), "--degree", "1")
    assert code == 0
    assert json.loads(out)["dimH"] == 9


def test_cli_cohomology_algebra():
    code, out, _ = run_cli("cohomology", "--of", "algebra", "--degree", "1",
                           str(CORPUS / "g3.json"))
    assert code == 0
    assert json.loads(out)["dimH"] == 5


@pytest.mark.parametrize("args", [
    ("--of", "algebra", "--operator", str(CORPUS / "g3-k-e11.json")),
    (str(CORPUS / "g3.json"), "--operator", str(CORPUS / "g3-k-e11.json")),
    (str(CORPUS / "g3-k-e11.json"), "--of", "operator", "--operator",
     str(CORPUS / "g3-k-e11.json")),
], ids=["of-algebra-with-operator", "path-and-operator", "same-bundle-twice"])
def test_cli_cohomology_conflicting_inputs_are_exit_2(args):
    code, out, _ = run_cli("cohomology", *args, "--degree", "1")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "SchemaError"
    assert doc["message"].startswith("/:")


def test_cli_construct_ns_matches_corpus():
    code, out, _ = run_cli("construct", "ns-from-nijenhuis",
                           str(CORPUS / "nijenhuis2.json"))
    assert code == 0
    result = json.loads(out)["result"]
    expected = json.loads((CORPUS / "ns2.json").read_text())["nsprelie"]
    assert result == expected


def test_cli_construct_reynolds_from_ns_verifies():
    code, out, _ = run_cli("construct", "reynolds-from-ns",
                           str(CORPUS / "ns2.json"))
    assert code == 0
    bundle = json.loads(out)["result"]
    data = parse_bundle(bundle).reynolds_data()
    assert data.operator == Matrix.identity(QQ, 2)


def test_cli_construct_semidirect():
    code, out, _ = run_cli("construct", "semidirect", str(CORPUS / "g3.json"))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dim"] == 6


def test_cli_check_weighted_and_star():
    code, _, _ = run_cli("check", "weighted", str(CORPUS / "weighted-star.json"))
    assert code == 0
    code, out, _ = run_cli("construct", "star", str(CORPUS / "weighted-star.json"))
    assert code == 0
    assert json.loads(out)["result"]["dim"] == 3


def test_cli_construct_gauge_and_shift():
    code, out, _ = run_cli("construct", "gauge", str(CORPUS / "g3-gauge-shift.json"))
    assert code == 0
    gauged = matrix_from_json(QQ, json.loads(out)["result"])
    assert gauged.rows == 3
    code, out, _ = run_cli("construct", "shift", str(CORPUS / "g3-gauge-shift.json"))
    assert code == 0


@pytest.mark.parametrize("what, checks", [("gauge", 1), ("shift", 1)])
def test_cli_construct_gauge_and_shift_verify_the_input_once(monkeypatch, what, checks):
    # the input H only: the shifted weight H + dh is a cocycle since d(dh) = 0
    calls = count_calls(monkeypatch, cochain, "cocycle_report")
    code, _, _ = run_cli("construct", what, str(CORPUS / "g3-gauge-shift.json"))
    assert code == 0
    assert len(calls) == checks


def test_cli_construct_ns_from_nijenhuis_checks_the_operator_once(monkeypatch):
    # one prepared frame verifies the operator and reads the three tables off
    # its lift, with no separate checker and no deformed table beside them
    calls = {name: count_calls(monkeypatch, nsprelie, name)
             for name in ("nijenhuis_checker", "_nijenhuis_frame")}
    code, _, _ = run_cli("construct", "ns-from-nijenhuis", str(CORPUS / "nijenhuis3.json"))
    assert code == 0
    assert {name: len(c) for name, c in calls.items()} == \
        {"nijenhuis_checker": 0, "_nijenhuis_frame": 1}


# (command, checker the output goes through, calls of it that verify the inputs)
REVERIFIED_OUTPUTS = {
    "induced": (("construct", "induced", "g3-k-rowzero.json"), algebra, "check_prelie", 1),
    "star": (("construct", "star", "weighted-star.json"), algebra, "check_prelie", 1),
    "deformed-product": (("construct", "deformed-product", "nijenhuis2.json"),
                         algebra, "check_prelie", 1),
    "deformed-sum": (("construct", "deformed-product", "nijenhuis2.json"),
                     algebra, "check_prelie", 2),
    "semidirect": (("construct", "semidirect", "g3.json"), algebra, "check_prelie", 1),
    "gauge": (("construct", "gauge", "g3-gauge-shift.json"), algebra, "check_prelie", 1),
    "shift": (("construct", "shift", "g3-gauge-shift.json"), reynolds, "_reynolds_report", 1),
    "ns-from-nijenhuis": (("construct", "ns-from-nijenhuis", "nijenhuis3.json"),
                          nsprelie, "_ns_report", 0),
    "ns-from-reynolds": (("construct", "ns-from-reynolds", "g3-k-rowzero.json"),
                         nsprelie, "_ns_report", 0),
    "compatible-ns": (("construct", "compatible-ns", "g3-k-invertible.json"),
                      nsprelie, "_ns_report", 0),
    "reynolds-from-ns-algebra": (("construct", "reynolds-from-ns", "ns2.json"),
                                 algebra, "check_prelie", 0),
    "reynolds-from-ns-rep": (("construct", "reynolds-from-ns", "ns2.json"),
                             algebra, "check_representation", 0),
    "reynolds-from-ns-operator": (("construct", "reynolds-from-ns", "ns2.json"),
                                  reynolds, "_reynolds_report", 0),
}


@pytest.mark.parametrize("case", sorted(REVERIFIED_OUTPUTS))
def test_cli_failed_reverification_of_an_output_is_exit_4(monkeypatch, case):
    # the inputs pass; the constructor applied to the construction's own
    # output fails, which is a fault in the package (exit 4), not in the input
    (*argv, name), module, checker, passes = REVERIFIED_OUTPUTS[case]
    calls = fail_after(monkeypatch, module, checker, passes)
    code, out, err = run_cli(*argv, str(CORPUS / name))
    assert len(calls) > passes
    assert code == 4
    assert json.loads(out)["error"] == "InvariantError"
    assert err.startswith("internal invariant failed: ")


NON_COCYCLE = dict(json.loads((CORPUS / "g3-k-rowzero.json").read_text()))
NON_COCYCLE["cocycleH"] = dict(NON_COCYCLE["cocycleH"],
                               values=[{"args": [1], "last": 3, "v": ["0", "0", "1"]}])


@pytest.mark.parametrize("argv", [("check", "mc"), ("mc-check",), ("check", "reynolds")],
                         ids=["check-mc", "mc-check", "check-reynolds"])
def test_cli_maurer_cartan_requires_a_two_cocycle(argv):
    code, _, _ = run_cli("check", "cocycle", json.dumps(NON_COCYCLE))
    assert code == 1
    code, out, _ = run_cli(*argv, json.dumps(NON_COCYCLE))
    assert code == 2
    assert json.loads(out) == {"error": "UnverifiedCocycleError",
                               "message": "the weight H is not a 2-cocycle"}


@pytest.mark.parametrize("argv, name, counts", [
    # every reading on the integer lift: the input's identity on the one
    # preparation of (g, rep, H) (the bundle's build, one scatter and no
    # frame), then in gauge_transform one frame per operator on it, K for
    # its table and K_B for its identity (a scatter) and table
    (("construct", "gauge"), "g3-gauge-shift.json",
     {"_frames": 1, "graph_frame": 2, "reynolds_residuals": 2, "check_morphism": 1}),
    # N verified once, then the two tables that multiply vectors (|> and <|) in
    # two scatters; o = -N(e_i.e_j) reads the lifted constants as they are
    (("construct", "ns-from-nijenhuis"), "nijenhuis3.json",
     {"_nijenhuis_frame": 1, "family_products": 2}),
    (("construct", "ns-from-reynolds"), "g3-k-rowzero.json", {"induced_product": 0}),
    (("construct", "induced"), "g3-k-rowzero.json", {"check_morphism": 0}),
    # one frame for K's identity and the star table; K's identity on the
    # star product is one more scatter, with no frame
    (("construct", "star"), "weighted-star.json",
     {"check_morphism": 0, "graph_frame": 1, "reynolds_residuals": 2}),
    (("check", "mc"), "g3-k-rowzero.json", {"cocycle_report": 1}),
    (("mc-check",), "g3-k-rowzero.json", {"cocycle_report": 1}),
    (("construct", "ns-from-reynolds"), "g3-k-rowzero.json",
     {"graph_frame": 1, "reynolds_residuals": 1}),
    # the bundle's product is coerced by its scalars' parse alone (`PreLieAlgebra`
    # and its `check_prelie` read it as it is), then each of the three NS tensors once
    (("construct", "ns-from-reynolds"), "g3-k-rowzero.json", {"_as_tensor": 3}),
], ids=["gauge", "ns-from-nijenhuis", "ns-from-reynolds", "induced", "star", "check-mc",
        "mc-check", "ns-from-reynolds-tables", "ns-from-reynolds-coercions"])
def test_cli_each_table_and_identity_is_verified_once(monkeypatch, argv, name, counts):
    modules = {"family_products": algebra, "graph_frame": reynolds, "check_morphism": algebra,
               "reynolds_residuals": reynolds,
               "induced_product": reynolds, "cocycle_report": cochain,
               "_frames": reynolds, "_nijenhuis_frame": nsprelie,
               "_as_tensor": algebra}
    calls = {fn: count_calls(monkeypatch, modules[fn], fn) for fn in counts}
    code, _, _ = run_cli(*argv, str(CORPUS / name))
    assert code == 0
    assert {fn: len(c) for fn, c in calls.items()} == counts


@pytest.mark.parametrize("command", ["check", "construct", "search"])
def test_cli_sweep_covers_every_choice(command):
    # tests/cli_sweep.py lists the choices by hand, so a new one must be added there
    cases = [argv for argv in cli_sweep.cases() if argv[0] == command]
    if command == "search":  # --predicate is free text, checked against search.PREDICATES
        assert {argv[2] for argv in cases} == set(search.PREDICATES)
        bundles = {argv[4] for argv in cases}
    else:
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        what = next(a for a in sub.choices[command]._actions if a.dest == "what")
        assert {argv[1] for argv in cases} == set(what.choices)
        bundles = {argv[2] for argv in cases}
    assert bundles == {f"corpus/{p.name}" for p in CORPUS.glob("*.json")}


def test_cli_sweep_matches_the_pinned_bytes():
    # every command of tests/cli_sweep.py against tests/cli_sweep.expected,
    # in order; the first differing command is named
    expected = (Path(cli_sweep.__file__).with_name("cli_sweep.expected")
                .read_text().splitlines())
    argvs = cli_sweep.cases() + cli_sweep.variant_cases()
    assert len(argvs) == len(expected), "the sweep's cases differ from the pinned file"
    for argv, want in zip(argvs, expected):
        _, got = cli_sweep.line(argv)
        assert got == want, f"first differing command: {' '.join(argv)}"


@pytest.mark.parametrize("argv, part, at", [
    (("check", "formal-deform", "variant:bad-series"), "order_1", [1, 3, 3]),
    (("deform", "check", "--bundle", "variant:bad-series"), "order_1", [1, 3, 3]),
    (("check", "nijenhuis-element", "variant:non-nijenhuis-element"), "algebra_morphism",
     [1, 2, 2]),
    (("check", "nijenhuis-element", "variant:non-nijenhuis-element"), "rbar_condition",
     ["rbar-commutes", 1]),
])
def test_cli_at_prints_orders_as_they_are_and_basis_indices_one_based(argv, part, at):
    # the library's where for the first order_1 violation is (Order(1), 2, 2)
    code, out = cli_sweep.run(argv)
    assert code == 1
    assert json.loads(out)["parts"][part]["violations"][0]["at"] == at


def test_cli_construct_compatible_ns():
    code, out, _ = run_cli("construct", "compatible-ns",
                           str(CORPUS / "g3-k-invertible.json"))
    assert code == 0
    ns = json.loads(out)["result"]
    assert ns["dim"] == 3


def test_cli_construct_deformed_product():
    code, out, _ = run_cli("construct", "deformed-product",
                           str(CORPUS / "nijenhuis2.json"))
    assert code == 0
    assert json.loads(out)["result"]["dim"] == 2


def test_cli_check_d_reynolds():
    code, _, _ = run_cli("check", "d-reynolds",
                         str(CORPUS / "unital-d-reynolds.json"))
    assert code == 0


def test_cli_check_morphism():
    code, _, _ = run_cli("check", "morphism", str(CORPUS / "morphism-identity.json"))
    assert code == 0


def test_cli_check_rep():
    code, _, _ = run_cli("check", "rep", str(CORPUS / "g3.json"))
    assert code == 0


def test_cli_check_formal_deform_section():
    doc = json.loads((CORPUS / "g3-k-rowzero.json").read_text())
    doc["series"] = [doc["operatorK"], {"rows": 3, "cols": 3,
                                        "entries": [["0"] * 3] * 3}]
    code, out, _ = run_cli("check", "formal-deform", json.dumps(doc))
    assert code == 0
    assert json.loads(out)["checked_orders"] == [0, 3]


def test_cli_search_g3_f2():
    code, out, _ = run_cli("search", "--predicate", "rcw-reynolds",
                           "--bundle", str(CORPUS / "g3.json"),
                           "--field", "f2", "--shape", "3x3")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["solutions"] == 68 and summary["checked"] == 512
    assert len(lines) == 69


def test_cli_search_fixed_slice():
    code, out, _ = run_cli("search", "--predicate", "rcw-reynolds",
                           "--bundle", str(CORPUS / "g3.json"),
                           "--field", "f2", "--shape", "3x3",
                           "--fix", "3,1=0;3,2=0;3,3=0")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["solutions"] == 64 == summary["checked"]


SEARCH_G3_F2 = ("search", "--predicate", "rcw-reynolds", "--bundle",
                str(CORPUS / "g3.json"), "--field", "f2")


@pytest.mark.parametrize("args, path", [
    (("--shape", "3by3"), "/shape"),
    (("--shape", "0x3"), "/shape"),
    (("--shape", "3x3", "--fix", "3,1=abc"), "/fix"),
    (("--shape", "3x3", "--fix", "3,1"), "/fix"),
    (("--shape", "3x3", "--fix", "5,5=0"), "/fix"),
    (("--shape", "3x3", "--domain", "a,b"), "/domain"),
    (("--shape", "3x3", "--budget", "0"), "/budget"),
    (("--shape", "3x3", "--budget", "-5"), "/budget"),
    (("--shape", "3x3", "--domain", "0,1,1"), "/domain"),
    (("--shape", "3x3", "--domain", "0,2"), "/domain"),  # 2 = 0 in F_2
    (("--shape", "3x3", "--domain", "1,3 mod 2"), "/domain"),
    (("--shape", "3x3", "--fix", "1,1=0;1,1=1"), "/fix"),
    (("--shape", "65x1"), "/shape"),  # a side above bundle.MAX_DIM
    (("--shape", "3x3", "--domain", ""), "/domain"),
])
def test_cli_search_bad_arguments_are_exit_2(args, path):
    code, out, _ = run_cli(*SEARCH_G3_F2, *args)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "SchemaError"
    assert doc["message"].startswith(path + ":")


def test_cli_search_over_a_huge_count_is_a_budget_error():
    # 13^4096 has more digits than int -> str converts by default
    code, out, _ = run_cli("search", "--predicate", "nijenhuis", "--bundle",
                           str(CORPUS / "g3.json"), "--shape", "64x64",
                           "--domain", ",".join(str(c) for c in range(13)))
    assert code == 3
    doc = json.loads(out)
    assert doc == {"error": "budget",
                   "message": "13^4096 candidates exceed the budget of 10000000"}


def _set_element(doc, value):
    doc["element"] = [value, "0", "0"]


def _set_product(doc, value):
    doc["algebra"]["product"][0]["c"] = value


def _set_entry(doc, value):
    doc["operatorK"]["entries"][0][0] = value


def _set_cochain(doc, value):
    doc["cocycleH"]["values"][0]["v"][2] = value


@pytest.mark.parametrize("edit, path", [
    (_set_element, "/element/0"),
    (_set_product, "/algebra/product/0/c"),
    (_set_entry, "/operatorK/entries/0/0"),
    (_set_cochain, "/cocycleH/values/0/v/2"),
])
@pytest.mark.parametrize("value", [True, False])
def test_cli_boolean_scalar_is_exit_2(edit, path, value):
    # bool subclasses int, but JSON true and false are not the scalars 1 and 0
    doc = json.loads((CORPUS / "g3-f2-e11.json").read_text())
    _set_element(doc, "0")
    edit(doc, value)
    code, out, _ = run_cli("check", "nijenhuis-element", json.dumps(doc))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "SchemaError"
    assert doc["message"] == f"{path}: scalar must be a string or integer, got bool"


def test_cli_cochain_of_degree_above_two_is_exit_2():
    doc = json.loads((CORPUS / "g3.json").read_text())
    doc["cocycleH"]["degree"] = 3
    code, out, _ = run_cli("check", "cocycle", json.dumps(doc))
    assert code == 2
    assert json.loads(out)["message"].startswith("/cocycleH/degree:")


def test_cli_prime_field_above_the_bound_is_exit_2():
    code, out, _ = run_cli("check", "prelie", str(CORPUS / "g3.json"),
                           "--field", "f100000000000031")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "SchemaError"
    assert doc["message"].startswith("/field:")


@pytest.mark.parametrize("value", ["abc", "", "0", "-3"])
def test_cli_search_bad_budget_variable_is_exit_2(monkeypatch, value):
    monkeypatch.setenv("PRELIE_BUDGET", value)
    code, out, _ = run_cli(*SEARCH_G3_F2, "--shape", "3x3")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "SchemaError"
    assert doc["message"].startswith("/budget:")


@pytest.mark.parametrize("argv, line", [
    (("rcw-reynolds", "f2", "3x3"),
     "search: 68 solutions / 512 candidates, 147 prefixes evaluated"),
    (("rcw-reynolds", "f2", "3x3", "--fix", "1,1=0"),
     "search: 34 solutions / 256 candidates, 79 prefixes evaluated"),
    (("rcw-reynolds", "f3", "3x3", "--fix", "1,1=0;1,2=0;1,3=0;2,1=0;2,2=0"),
     "search: 5 solutions / 81 candidates, 25 prefixes evaluated"),
    (("nijenhuis", "f2", "3x3"),
     "search: 48 solutions / 512 candidates, 211 prefixes evaluated"),
    (("rcw-reynolds", "f3", "3x3"),
     "search: 747 solutions / 19683 candidates, 1156 prefixes evaluated"),
    (("nijenhuis", "f3", "3x3"),
     "search: 405 solutions / 19683 candidates, 1990 prefixes evaluated"),
])
def test_cli_search_reports_the_prefixes_it_evaluated(argv, line):
    # the four benchmark sweeps and the two unconstrained F_3 sweeps; a
    # sweep that stops pruning, or assigns its variables in a worse order
    # (row-major: 639 / 319 / 61 / 479 / 10084 / 7654), evaluates more
    predicate, field, shape, *fix = argv
    code, _, err = run_cli("search", "--predicate", predicate, "--bundle",
                           str(CORPUS / "g3.json"), "--field", field, "--shape", shape, *fix)
    assert code == 0
    assert err.strip().splitlines()[-1] == line


def test_cli_search_budget_flag_overrides_the_variable(monkeypatch):
    monkeypatch.setenv("PRELIE_BUDGET", "10")
    code, out, _ = run_cli(*SEARCH_G3_F2, "--shape", "3x3", "--budget", "512")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["checked"] == 512


def test_cli_search_wrong_shape_for_the_bundle_is_exit_2():
    code, out, _ = run_cli(*SEARCH_G3_F2, "--shape", "2x2")
    assert code == 2
    assert json.loads(out)["error"] == "ShapeError"


def test_cli_nijenhuis_element_search_with_two_columns_is_exit_2():
    code, out, _ = run_cli("search", "--predicate", "nijenhuis-element", "--bundle",
                           str(CORPUS / "g3-f2-e11.json"), "--shape", "3x2")
    assert code == 2
    assert json.loads(out)["error"] == "ShapeError"


def test_cli_deform_rigidity_golden():
    code, out, _ = run_cli("deform", "rigidity", "--bundle",
                           str(CORPUS / "g3-f2-e11.json"))
    doc = json.loads(out)
    assert doc["cocycles"] == 512 and doc["nijenhuis_elements"] == 8
    assert doc["criterion_holds"] is False and code == 1


def test_cli_deform_rigidity_dim1_golden():
    code, out, _ = run_cli("deform", "rigidity", "--bundle",
                           str(CORPUS / "dim1-abelian-f2.json"))
    doc = json.loads(out)
    assert doc["cocycles"] == 2 and doc["nijenhuis_elements"] == 2
    assert doc["criterion_holds"] is False


def test_cli_deform_nijenhuis_enumeration():
    code, out, _ = run_cli("deform", "nijenhuis", "--bundle",
                           str(CORPUS / "g3-f2-e11.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 8


def test_cli_deform_check_series(tmp_path):
    doc = json.loads((CORPUS / "g3-k-rowzero.json").read_text())
    doc["series"] = [doc["operatorK"],
                     {"rows": 3, "cols": 3,
                      "entries": [["1", "0", "0"], ["0", "0", "0"],
                                  ["0", "0", "0"]]}]
    p = tmp_path / "series.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli("deform", "check", "--bundle", str(p))
    assert code in (0, 1)
    parsed = json.loads(out)
    assert parsed["order"] == 1 and parsed["checked_orders"] == [0, 3]


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (4, 3)])
def test_cli_formal_deform_misfit_coefficient_is_a_shape_error(rows, cols):
    doc = json.loads((CORPUS / "g3-k-rowzero.json").read_text())
    doc["series"] = [doc["operatorK"], {"rows": rows, "cols": cols,
                                        "entries": [["0"] * cols] * rows}]
    code, out, _ = run_cli("check", "formal-deform", json.dumps(doc))
    assert code == 2
    assert json.loads(out) == {"error": "ShapeError",
                               "message": f"coefficient 1 is {rows}x{cols}, expected 3x3"}


@pytest.mark.parametrize("order", [-1, -2])
def test_cli_deform_check_negative_order_is_a_schema_error(tmp_path, order):
    doc = json.loads((CORPUS / "g3-k-rowzero.json").read_text())
    zero = {"rows": 3, "cols": 3, "entries": [["0"] * 3] * 3}
    doc["series"] = [doc["operatorK"], zero, zero]
    p = tmp_path / "series.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli("deform", "check", "--bundle", str(p), "--order", str(order))
    assert code == 2
    assert json.loads(out) == {"error": "SchemaError",
                               "message": f"/order: order must be >= 0, got {order}"}


@pytest.mark.parametrize("order", [2, 5])
def test_cli_deform_check_order_above_the_series_is_a_schema_error(tmp_path, order):
    doc = json.loads((CORPUS / "g3-k0.json").read_text())
    doc["series"] = [doc["operatorK"], {"rows": 3, "cols": 3, "entries": [["0"] * 3] * 3}]
    p = tmp_path / "series.json"
    p.write_text(json.dumps(doc))
    argv = ("deform", "check", "--bundle", str(CORPUS / "g3-k0.json"), "--series", str(p))
    code, out, _ = run_cli(*argv, "--order", "1")
    assert code == 0 and json.loads(out)["order"] == 1
    code, out, _ = run_cli(*argv, "--order", str(order))
    assert code == 2
    assert json.loads(out) == {"error": "SchemaError",
                               "message": f"/order: order must be <= the series' order 1, "
                                          f"got {order}"}


def test_cli_dk_consistency_degrees():
    for field in ([], ["--field", "f2"], ["--field", "f3"], ["--field", "f5"]):
        for degree in (1, 2, 3):
            code, out, _ = run_cli("dk-consistency", str(CORPUS / "g3-k-rowzero.json"),
                                   "--degree", str(degree), *field)
            assert code == 0
            assert json.loads(out) == {"command": "dk-consistency", "degree": degree,
                                       "max_residual": "0", "ok": True}


@pytest.mark.parametrize("field, residual", [("q", "1"), ("f3", "1 mod 3"), ("f5", "1 mod 5")])
@pytest.mark.parametrize("degree", [1, 2])
def test_cli_dk_consistency_reports_the_first_difference(monkeypatch, field, residual, degree):
    original = brackets._d_K
    monkeypatch.setattr(brackets, "_d_K",
                        lambda data, twisted, f: original(data, twisted, f).scale(2))
    code, out, _ = run_cli("dk-consistency", str(CORPUS / "g3-k-invertible.json"),
                           "--field", field, "--degree", str(degree))
    assert code == 1
    assert json.loads(out) == {"command": "dk-consistency", "degree": degree,
                               "max_residual": residual, "ok": False}


@pytest.mark.parametrize("field, residual", [("q", "2"), ("f5", "2 mod 5")])
@pytest.mark.parametrize("degree", [1, 2])
def test_cli_dk_consistency_scans_the_difference_column_by_column(monkeypatch, field,
                                                                  residual, degree):
    # d_K with its output coordinates reversed: still linear, and its first
    # difference column by column ("2") is not the first row by row ("-10")
    original = brackets._d_K

    def reversed_d_k(data, twisted, f):
        c = original(data, twisted, f)
        return Cochain(c.field, c.degree, c.dim_source, c.dim_target,
                       [tuple(reversed(v)) for v in reversed(c.values)])

    monkeypatch.setattr(brackets, "_d_K", reversed_d_k)
    bundle = str(CORPUS / "g3-k-rowzero.json")
    columns = basis_dk_columns(parse_bundle(bundle, field).reynolds_data(), degree)
    assert scalar_to_str(next(x for column in columns for x in column if x)) == residual
    code, out, _ = run_cli("dk-consistency", bundle, "--field", field, "--degree", str(degree))
    assert code == 1
    assert json.loads(out)["max_residual"] == residual


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_cli_dk_consistency_evaluates_d_k_once(monkeypatch, degree):
    dk_calls = count_calls(monkeypatch, brackets, "_d_K")
    dense = count_calls(monkeypatch, opcohomology, "operator_coboundary_matrix")
    code, out, _ = run_cli("dk-consistency", str(CORPUS / "g3-k-invertible.json"),
                           "--degree", str(degree))
    assert code == 0 and json.loads(out)["ok"]
    assert (len(dk_calls), len(dense)) == (1, 0)


@pytest.mark.parametrize("command", [
    ("dk-consistency", str(CORPUS / "g3-k-rowzero.json")),
    ("cohomology", "--of", "operator", str(CORPUS / "g3-k-rowzero.json")),
], ids=["dk-consistency", "cohomology"])
@pytest.mark.parametrize("degree", [0, -1])
def test_cli_degree_below_one_is_an_input_error(command, degree):
    code, out, _ = run_cli(*command, "--degree", str(degree))
    assert code == 2
    assert json.loads(out) == {"error": "ShapeError", "message": "degree must be >= 1"}


@pytest.mark.parametrize("command", [
    ("dk-consistency", str(CORPUS / "g3-k-rowzero.json")),
    ("cohomology", "--of", "operator", str(CORPUS / "g3-k-rowzero.json")),
    ("cohomology", "--of", "algebra", str(CORPUS / "g3.json")),
], ids=["dk-consistency", "cohomology-operator", "cohomology-algebra"])
@pytest.mark.parametrize("degree", [MAX_DIM + 2, 99999999999])
def test_cli_degree_beyond_every_cochain_space_is_an_input_error(command, degree):
    # every accepted bundle has dimension <= MAX_DIM, so every cochain space
    # above degree MAX_DIM + 1 is zero; the degree is rejected before any work
    code, out, _ = run_cli(*command, "--degree", str(degree))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "SchemaError"
    assert doc["message"].startswith("/degree: ")


@pytest.mark.parametrize("degree", [1, 2])
def test_cli_dk_consistency_builds_the_induced_representation_once(monkeypatch, degree):
    calls = count_calls(monkeypatch, opcohomology, "_induced_arrays")
    code, out, _ = run_cli("dk-consistency", str(CORPUS / "g3-k-rowzero.json"),
                           "--degree", str(degree))
    assert code == 0 and json.loads(out)["ok"]
    assert len(calls) == 1


def test_cli_linear_deform():
    doc = json.loads((CORPUS / "g3-k-rowzero.json").read_text())
    doc["operatorK1"] = {"rows": 3, "cols": 3,
                         "entries": [["1", "0", "0"], ["0", "0", "0"],
                                     ["0", "0", "0"]]}
    code, out, _ = run_cli("check", "linear-deform", json.dumps(doc))
    assert code in (0, 1)
    assert "order_t1" in json.loads(out)["parts"]


@pytest.mark.parametrize("labels", [5, "abc", ["a", "b"], ["a", "b", 3], {"a": 1}])
@pytest.mark.parametrize("what", ["rep", "cocycle"])
def test_cli_bad_algebra_labels_are_exit_2(what, labels):
    doc = json.loads((CORPUS / "g3.json").read_text())
    doc["algebra"]["labels"] = labels
    code, out, _ = run_cli("check", what, json.dumps(doc))
    assert code == 2
    assert json.loads(out) == {"error": "SchemaError",
                               "message": "/algebra/labels: expected a list of 3 strings"}


def test_algebra_labels_list_of_strings_round_trips():
    doc = json.loads((CORPUS / "g3.json").read_text())["algebra"]
    doc["labels"] = ["e1", "e2", "e3"]
    a = algebra_from_json(QQ, doc)
    assert a.labels == ("e1", "e2", "e3")
    assert algebra_to_json(a)["labels"] == ["e1", "e2", "e3"]


JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 70) | st.text(max_size=4),
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
                    max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(["dim", "product", "unit", "labels"]), value=JSON,
       what=st.sampled_from(["rep", "cocycle"]))
def test_cli_arbitrary_algebra_section_values_never_raise(key, value, what):
    doc = json.loads((CORPUS / "g3.json").read_text())
    doc["algebra"][key] = value
    code, out, _ = run_cli("check", what, json.dumps(doc))
    assert code in (0, 1, 2)
    json.loads(out)


def test_cli_nijenhuis_element():
    doc = json.loads((CORPUS / "g3-f2-e11.json").read_text())
    doc["element"] = ["1", "1", "0"]
    code, out, _ = run_cli("check", "nijenhuis-element", json.dumps(doc))
    assert code == 0


# ---------------------------------------------------------------------------
# determinism


ALL_COMMANDS = [
    ("check", "prelie", str(CORPUS / "empty-product.json")),
    ("check", "reynolds", str(CORPUS / "g3-k-rowzero.json")),
    ("check", "cocycle", str(CORPUS / "g3.json")),
    ("check", "mc", str(CORPUS / "g3-k-rowzero.json")),
    ("check", "ns", str(CORPUS / "ns2.json")),
    ("check", "ns", str(CORPUS / "ns3.json")),
    ("check", "nijenhuis", str(CORPUS / "nijenhuis2.json")),
    ("check", "nijenhuis", str(CORPUS / "nijenhuis3.json")),
    ("cohomology", "--of", "operator", "--degree", "1",
     str(CORPUS / "g3-k-e11.json")),
    ("cohomology", "--of", "algebra", "--degree", "1", str(CORPUS / "g3.json")),
    ("construct", "semidirect", str(CORPUS / "g3.json")),
    ("construct", "induced", str(CORPUS / "g3-k-rowzero.json")),
    ("construct", "ns-from-nijenhuis", str(CORPUS / "nijenhuis2.json")),
    ("construct", "ns-from-reynolds", str(CORPUS / "g3-k-rowzero.json")),
    ("construct", "reynolds-from-ns", str(CORPUS / "ns2.json")),
    ("construct", "star", str(CORPUS / "weighted-star.json")),
    ("construct", "gauge", str(CORPUS / "g3-gauge-shift.json")),
    ("construct", "shift", str(CORPUS / "g3-gauge-shift.json")),
    ("construct", "compatible-ns", str(CORPUS / "g3-k-invertible.json")),
    ("construct", "deformed-product", str(CORPUS / "nijenhuis2.json")),
    ("check", "weighted", str(CORPUS / "weighted-star.json")),
    ("check", "d-reynolds", str(CORPUS / "unital-d-reynolds.json")),
    ("check", "morphism", str(CORPUS / "morphism-identity.json")),
    ("check", "rep", str(CORPUS / "g3.json")),
    ("check", "reynolds", str(CORPUS / "g3-k-invertible.json")),
    ("deform", "rigidity", "--bundle", str(CORPUS / "g3-f2-e11.json")),
    ("deform", "nijenhuis", "--bundle", str(CORPUS / "g3-f2-e11.json")),
    ("search", "--predicate", "rcw-reynolds", "--bundle", str(CORPUS / "g3.json"),
     "--field", "f2", "--shape", "3x3"),
    ("dk-consistency", str(CORPUS / "g3-k-rowzero.json"), "--degree", "1"),
    ("mc-check", str(CORPUS / "g3-k-rowzero.json")),
]


@pytest.mark.parametrize("args", ALL_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_cli_byte_identical_reruns(args):
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2
    assert out1 == out2


def test_env_budget_override(monkeypatch):
    monkeypatch.setenv("PRELIE_BUDGET", "10")
    code, out, _ = run_cli("search", "--predicate", "rcw-reynolds",
                           "--bundle", str(CORPUS / "g3.json"),
                           "--field", "f2", "--shape", "3x3")
    assert code == 3
    monkeypatch.setenv("PRELIE_BUDGET", "1000")
    code, out, _ = run_cli("search", "--predicate", "rcw-reynolds",
                           "--bundle", str(CORPUS / "g3.json"),
                           "--field", "f2", "--shape", "3x3")
    assert code == 0


CORPUS_CHECKS = {
    "g3.json": ("check", "cocycle"),
    "g3-k-rowzero.json": ("check", "reynolds"),
    "g3-k-twisted.json": ("check", "twisted-mc"),
    "g3-k0.json": ("check", "reynolds"),
    "g3-k-e11.json": ("check", "reynolds"),
    "g3-k-invertible.json": ("check", "reynolds"),
    "g3-gauge-shift.json": ("check", "reynolds"),
    "g3-f2-e11.json": ("check", "reynolds"),
    "dim1-abelian-f2.json": ("check", "reynolds"),
    "ns2.json": ("check", "ns"),
    "ns3.json": ("check", "ns"),
    "nijenhuis2.json": ("check", "nijenhuis"),
    "nijenhuis3.json": ("check", "nijenhuis"),
    "empty-product.json": ("check", "prelie"),
    "weighted-star.json": ("check", "weighted"),
    "unital-d-reynolds.json": ("check", "d-reynolds"),
    "morphism-identity.json": ("check", "morphism"),
    "g3-k-deform.json": ("check", "formal-deform"),
}


def test_every_corpus_file_reverifies():
    files = sorted(p.name for p in CORPUS.glob("*.json"))
    assert set(files) == set(CORPUS_CHECKS), "corpus and check table out of sync"
    for name, args in sorted(CORPUS_CHECKS.items()):
        code, _, _ = run_cli(*args, str(CORPUS / name))
        assert code == 0, f"{name} failed {args}"


@pytest.mark.parametrize("args", [
    ("check", "linear-deform", str(CORPUS / "g3-k-deform.json")),
    ("check", "formal-deform", str(CORPUS / "g3-k-deform.json")),
    ("check", "nijenhuis-element", str(CORPUS / "g3-k-deform.json")),
    ("deform", "check", "--bundle", str(CORPUS / "g3-k-deform.json")),
], ids=["linear-deform", "formal-deform", "nijenhuis-element", "deform-check"])
def test_deformation_checkers_pass_on_the_corpus_bundle(args):
    code, out, _ = run_cli(*args)
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("value", ["", " "])
@pytest.mark.parametrize("args", [
    ("check", "prelie", str(CORPUS / "g3.json")),
    ("deform", "check", "--bundle", str(CORPUS / "g3-k-deform.json")),
], ids=["check", "deform"])
def test_cli_empty_field_is_a_schema_error(args, value):
    code, out, _ = run_cli(*args, "--field", value)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "SchemaError"
    assert doc["message"].startswith("/field:")


@pytest.mark.parametrize("action", ["nijenhuis", "rigidity"])
@pytest.mark.parametrize("flag, value", [("--series", "nonexistent.json"), ("--order", "-7")])
def test_cli_deform_flags_of_check_are_rejected_on_other_actions(monkeypatch, action,
                                                                 flag, value):
    built = count_calls(monkeypatch, reynolds, "_verified")  # the bundle's build
    argv = ("deform", action, "--bundle", str(CORPUS / "g3-f2-e11.json"))
    code, out, _ = run_cli(*argv, flag, value)
    assert code == 2
    assert json.loads(out) == {"error": "SchemaError",
                               "message": f"/{flag[2:]}: {flag} belongs to deform check, "
                                          f"not deform {action}"}
    assert built == []
    assert run_cli(*argv)[0] in (0, 1) and built  # the run without the flag builds one


def test_cli_deform_check_empty_series_is_an_io_error():
    code, out, _ = run_cli("deform", "check", "--bundle", str(CORPUS / "g3-k-deform.json"),
                           "--series", "")
    assert code == 2
    assert json.loads(out)["error"] == "IoError"


def test_cli_check_prelie_failure_is_exit_1():
    doc = {"field": "q", "algebra": {"dim": 2, "product": [
        {"i": 1, "j": 1, "k": 2, "c": "1"}, {"i": 2, "j": 1, "k": 1, "c": "1"}]}}
    code, out, _ = run_cli("check", "prelie", json.dumps(doc))
    assert code == 1
    assert json.loads(out)["violations"]


def test_cli_check_rep_failure_is_exit_1():
    doc = {
        "field": "q",
        "algebra": {"dim": 2, "product": [{"i": 2, "j": 1, "k": 1, "c": "-1"},
                                          {"i": 2, "j": 2, "k": 2, "c": "1"}]},
        "representation": {
            "dimV": 2,
            "L": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
            "R": [[["0", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]]],
        },
    }
    # with L = 0 the mixed identity demands R_{x.y} = R_y R_x, violated here
    code, out, _ = run_cli("check", "rep", json.dumps(doc))
    assert code == 1


def test_cli_check_ns_failure_is_exit_1():
    doc = json.loads((CORPUS / "ns2.json").read_text())
    doc["nsprelie"]["trl"]["2,2"] = {"1": "5"}
    code, out, _ = run_cli("check", "ns", json.dumps(doc))
    assert code == 1
    assert not json.loads(out)["parts"]["A2"]["ok"]


def test_parser_fails_cleanly_on_mutated_documents():
    # structural fuzz: whatever a broken file contains, the parser must
    # answer with a schema-level error, never an uncaught crash
    import copy
    import random

    from prelie.errors import (
        FieldMismatchError,
        IoError,
        ShapeError,
        UnverifiedError,
    )

    base = json.loads((CORPUS / "g3-k-rowzero.json").read_text())
    rng = random.Random(12345)
    junk = [None, 3.5, [], {}, True, "xyz", [1, None], 999999, "1/0", "", -1]

    def mutate(doc):
        doc = copy.deepcopy(doc)
        for _ in range(rng.randint(1, 3)):
            path, node = [], doc
            while isinstance(node, (dict, list)) and node and rng.random() < 0.7:
                key = rng.choice(list(node)) if isinstance(node, dict) \
                    else rng.randrange(len(node))
                path.append(key)
                node = node[key]
            if not path:
                continue
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if rng.random() < 0.3 and isinstance(parent, dict):
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = rng.choice(junk)
        return doc

    for _ in range(200):
        doc = mutate(base)
        try:
            b = parse_bundle(doc)
            for attr in ("algebra", "representation", "cocycle", "operator"):
                try:
                    getattr(b, attr)()
                except SchemaError:
                    pass
        except (SchemaError, FieldMismatchError, IoError, ShapeError,
                UnverifiedError, ZeroDivisionError):
            pass


def test_cohomology_dimensions_stable_across_fields():
    # the worked fixture's differential has small integer entries whose
    # ranks do not drop modulo 5 or 7; the reported dimensions agree
    for field in ("q", "f5", "f7"):
        code, out, _ = run_cli("cohomology", "--of", "operator", "--degree", "1",
                               str(CORPUS / "g3-k-e11.json"), "--field", field)
        assert code == 0
        doc = json.loads(out)
        assert (doc["dimZ"], doc["dimB"], doc["dimH"]) == (9, 0, 9)
    for field in ("q", "f5", "f7"):
        code, out, _ = run_cli("cohomology", "--of", "algebra", "--degree", "1",
                               str(CORPUS / "g3.json"), "--field", field)
        assert json.loads(out)["dimH"] == 5
