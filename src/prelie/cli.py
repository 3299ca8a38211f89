"""Command-line interface.

One binary, subcommand style.  Reports are single JSON documents on
stdout with stable key order (the `search` command emits one JSON line
per solution followed by a summary line); human-readable summaries go to
stderr.  Exit codes: 0 pass/success, 1 checked-and-failed, 2 input
error, 3 budget or resource error, 4 a failed re-verification of the
package's own output (an internal invariant; a fault in the package, not
in the input).  The environment variable
PRELIE_BUDGET overrides the default search budget; --field re-reads a
field-generic bundle over another scalar field.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import brackets, deformation, nsprelie, opcohomology, reynolds, search
from .algebra import Order, check_morphism, check_prelie, check_representation
from .bundle import (
    MAX_DIM,
    algebra_tensor_from_json,
    algebra_to_json,
    matrix_to_json,
    ns_tensors_from_json,
    nsprelie_to_json,
    parse_bundle,
    representation_from_json,
    reynolds_data_to_json,
)
from .cochain import check_two_cocycle, cohomology
from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    InfiniteFieldError,
    IoError,
    NoUnitError,
    NotAdmissibleError,
    NotCocycleError,
    SchemaError,
    ShapeError,
    SingularError,
    UnverifiedError,
)
from .scalars import Poly, field_name, scalar_to_str

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _violations_json(report, limit=50):
    """The first ``limit`` violations; in "at", basis indices are 1-based and
    orders of t (`algebra.Order`) and labels are printed as they are."""
    out = []
    for where, residual in report.violations[:limit]:
        at = [w + 1 if isinstance(w, int) and not isinstance(w, Order) else w for w in where]
        out.append({"at": at, "residual": [scalar_to_str(x) for x in residual]})
    return out


def _report_json(report):
    doc = {"ok": report.ok, "violations": _violations_json(report)}
    if report.parts:
        doc["parts"] = {name: {"ok": part.ok, "violations": _violations_json(part)}
                        for name, part in report.parts.items()}
    return doc


def _emit(doc, ok):
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    sys.stderr.write(("PASS" if ok else "FAIL") + f": {doc.get('command')}\n")
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# check subcommands


def _cmd_check(args) -> int:
    bundle = parse_bundle(args.bundle, args.field)
    what = args.what
    doc = {"command": f"check {what}", "field": field_name(bundle.field)}

    if what == "prelie":
        # check the raw tensor rather than the validating constructor
        tensor = algebra_tensor_from_json(bundle.field, bundle.section("algebra"))
        report = check_prelie(bundle.field, tensor)
    elif what == "rep":
        # parse without the constructor's validation: this IS the validation
        rep = representation_from_json(bundle.field, bundle.section("representation"),
                                       bundle.algebra(), check=False)
        report = check_representation(rep.algebra, rep.dim_v, rep.L, rep.R)
    elif what == "cocycle":
        report = check_two_cocycle(bundle.algebra(), bundle.representation(),
                                   bundle.cocycle())
    elif what == "reynolds":
        report = reynolds.check_rcw_reynolds(bundle.algebra(), bundle.representation(),
                                             bundle.cocycle(), bundle.operator())
    elif what == "weighted":
        report = reynolds.check_weighted_reynolds(bundle.algebra(),
                                                  bundle.matrix("operatorK"),
                                                  bundle.weight())
    elif what == "d-reynolds":
        report = reynolds.check_d_reynolds(bundle.algebra(), bundle.matrix("operatorD"),
                                           bundle.matrix("operatorK"))
    elif what == "nijenhuis":
        report = nsprelie.check_nijenhuis(bundle.algebra(), bundle.matrix("operatorN"))
    elif what == "ns":
        report = nsprelie.check_ns_prelie(
            bundle.field, *ns_tensors_from_json(bundle.field, bundle.section("nsprelie")))
    elif what == "morphism":
        a = bundle.algebra()
        b = bundle.algebra2() if "algebra2" in bundle.raw else a
        report = check_morphism(a, b, bundle.matrix("map"))
    elif what == "mc":
        report = brackets.check_maurer_cartan(bundle.algebra(), bundle.representation(),
                                              bundle.cocycle(), bundle.operator())
    elif what == "twisted-mc":
        data = bundle.reynolds_data()
        report = brackets.check_twisted_mc(data, bundle.matrix("operatorKprime"))
    elif what == "linear-deform":
        data = bundle.reynolds_data()
        report = deformation.check_linear_deformation(data, bundle.matrix("operatorK1"))
    elif what == "formal-deform":
        data = bundle.reynolds_data()
        series = deformation.DeformationSeries(data, tuple(bundle.series()))
        report = deformation.check_formal_deformation(series)
        doc["order"] = series.order
        doc["checked_orders"] = [0, 3 * series.order]
    elif what == "nijenhuis-element":
        data = bundle.reynolds_data()
        report = deformation.check_nijenhuis_element(data, bundle.element())
    else:  # pragma: no cover - argparse restricts choices
        raise SchemaError("/", f"unknown checker {what}")

    doc.update(_report_json(report))
    return _emit(doc, report.ok)


# ---------------------------------------------------------------------------
# cohomology


def _degree(degree: int) -> int:
    """A cochain degree, rejected above `MAX_DIM` + 1 before any work.

    A degree-d cochain space on a dim-n space is zero once d - 1 > n, so
    no accepted bundle has a nonzero one above that degree.
    """
    if degree > MAX_DIM + 1:
        raise SchemaError("/degree", f"{degree} is above {MAX_DIM + 1}, beyond which "
                                     "every cochain space of a bundle is zero")
    return degree


def _cmd_cohomology(args) -> int:
    if args.operator is not None:
        if args.bundle is not None:
            raise SchemaError("/", "give the bundle as a path or with --operator, not both")
        if args.of == "algebra":
            raise SchemaError("/", "--operator asks for the operator cohomology, "
                                   "not --of algebra")
    source = args.bundle if args.bundle is not None else args.operator
    if source is None:
        raise SchemaError("/", "a bundle path is required")
    of = args.of or ("operator" if args.operator is not None else None)
    if of is None:
        raise SchemaError("/", "--of algebra|operator is required")
    degree = _degree(args.degree)
    bundle = parse_bundle(source, args.field)
    if of == "algebra":
        report = cohomology(bundle.algebra(), bundle.representation(), degree)
    else:
        report = opcohomology.operator_cohomology(bundle.reynolds_data(), degree)
    doc = {"command": "cohomology", "of": of, "degree": degree,
           "dimZ": report.dim_z, "dimB": report.dim_b, "dimH": report.dim_h}
    if of == "operator":
        doc["operator"] = report.operator_hash
    return _emit(doc, True)


# ---------------------------------------------------------------------------
# construct


def _cmd_construct(args) -> int:
    bundle = parse_bundle(args.bundle, args.field)
    what = args.what
    doc = {"command": f"construct {what}", "field": field_name(bundle.field)}

    if what == "semidirect":
        doc["result"] = algebra_to_json(
            reynolds.semidirect(bundle.algebra(), bundle.representation(), bundle.cocycle()))
    elif what == "induced":
        doc["result"] = algebra_to_json(reynolds.induced_product(bundle.reynolds_data()))
    elif what == "star":
        doc["result"] = algebra_to_json(
            reynolds.star_product(bundle.algebra(), bundle.matrix("operatorK"),
                                  bundle.weight()))
    elif what == "gauge":
        gauged = reynolds.gauge_transform(bundle.reynolds_data(), bundle.named_cochain("B"))
        doc["result"] = matrix_to_json(gauged)
    elif what == "shift":
        shifted = reynolds.shift_operator(bundle.reynolds_data(), bundle.named_cochain("h"))
        doc["result"] = matrix_to_json(shifted)
    elif what == "ns-from-nijenhuis":
        ns = nsprelie.ns_from_nijenhuis(bundle.algebra(), bundle.matrix("operatorN"))
        doc["result"] = nsprelie_to_json(ns)
    elif what == "ns-from-reynolds":
        doc["result"] = nsprelie_to_json(nsprelie.ns_from_reynolds(bundle.reynolds_data()))
    elif what == "reynolds-from-ns":
        data = nsprelie.reynolds_from_ns(bundle.nsprelie())
        doc["result"] = reynolds_data_to_json(data)
    elif what == "compatible-ns":
        ns = nsprelie.compatible_ns_from_invertible(bundle.reynolds_data())
        doc["result"] = nsprelie_to_json(ns)
    elif what == "deformed-product":
        doc["result"] = algebra_to_json(
            nsprelie.deformed_product(bundle.algebra(), bundle.matrix("operatorN")))
    else:  # pragma: no cover
        raise SchemaError("/", f"unknown construction {what}")
    return _emit(doc, True)


# ---------------------------------------------------------------------------
# search


def _parse_shape(text: str) -> tuple:
    try:
        rows, cols = (int(t) for t in text.lower().split("x"))
    except ValueError:
        raise SchemaError("/shape", f"expected ROWSxCOLS, got {text!r}") from None
    if rows < 1 or cols < 1:
        raise SchemaError("/shape", f"{text!r} has no entries")
    if rows > MAX_DIM or cols > MAX_DIM:
        raise SchemaError("/shape", f"{text!r} has a side above {MAX_DIM}")
    return rows, cols


def _parse_fix(text: str, field, shape) -> dict:
    """Fixed entries {(row, col): scalar}, 0-based, from "r,c=v;r,c=v"."""
    fixed = {}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        pos, eq, value = clause.partition("=")
        try:
            r, c = (int(t) for t in pos.split(","))
            if not eq:
                raise ValueError
            scalar = field.parse(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError("/fix", f"bad clause {clause!r}") from None
        if not (1 <= r <= shape[0] and 1 <= c <= shape[1]):
            raise SchemaError("/fix", f"position {r},{c} lies outside the "
                                      f"{shape[0]}x{shape[1]} shape")
        if (r - 1, c - 1) in fixed:
            raise SchemaError("/fix", f"position {r},{c} is fixed twice")
        fixed[(r - 1, c - 1)] = scalar
    return fixed


def _parse_budget(flag) -> int:
    """The candidate budget: --budget, else PRELIE_BUDGET, else the default."""
    if flag is not None:
        budget = flag
    else:
        text = os.environ.get("PRELIE_BUDGET")
        if text is None:
            return search.DEFAULT_BUDGET
        try:
            budget = int(text)
        except ValueError:
            raise SchemaError("/budget", f"PRELIE_BUDGET={text!r} is not an integer") from None
    if budget < 1:
        raise SchemaError("/budget", f"budget {budget} is not positive")
    return budget


def _cmd_search(args) -> int:
    bundle = parse_bundle(args.bundle, args.field)
    field = bundle.field
    if args.domain is not None:
        from .scalars import field_by_name

        try:
            dom_field = field_by_name(args.domain)
        except ValueError:
            dom_field = None
        if dom_field is not None:
            if dom_field != field:
                raise FieldMismatchError(
                    f"--domain {args.domain} conflicts with bundle field "
                    f"{field_name(field)}")
            domain = tuple(field.elements())
        else:
            try:
                domain = tuple(field.parse(t.strip()) for t in args.domain.split(","))
            except (ValueError, ZeroDivisionError):
                raise SchemaError("/domain", f"bad scalar list {args.domain!r}") from None
            try:
                domain = search.domain_scalars(field, domain)
            except ShapeError:
                raise SchemaError("/domain", f"{args.domain!r} repeats a scalar of "
                                             f"{field_name(field)}") from None
    else:
        domain = tuple(field.elements())

    rows, cols = _parse_shape(args.shape)
    fixed = _parse_fix(args.fix or "", field, (rows, cols))
    budget = _parse_budget(args.budget)

    if args.predicate == "rcw-reynolds":
        spec_bundle = {"algebra": bundle.algebra(), "rep": bundle.representation(),
                       "cocycle": bundle.cocycle()}
    elif args.predicate == "weighted-reynolds":
        spec_bundle = {"algebra": bundle.algebra(), "weight": bundle.weight()}
    elif args.predicate == "nijenhuis":
        spec_bundle = {"algebra": bundle.algebra()}
    elif args.predicate == "d-reynolds":
        spec_bundle = {"algebra": bundle.algebra(),
                       "operatorD": bundle.matrix("operatorD")}
    elif args.predicate == "nijenhuis-element":
        spec_bundle = {"data": bundle.reynolds_data()}
    else:
        raise SchemaError("/predicate", f"unknown predicate {args.predicate!r}")

    spec = search.SearchSpec(args.predicate, spec_bundle, (rows, cols), domain,
                             fixed=fixed, budget=budget)
    result = search.exhaustive_search(spec, field)
    for sol in result.solutions:
        sys.stdout.write(json.dumps({"solution": matrix_to_json(sol)}) + "\n")
    summary = {"command": "search", "predicate": args.predicate,
               "shape": [rows, cols], "domain_size": len(domain),
               "checked": result.count_checked, "solutions": result.count_solutions}
    sys.stdout.write(json.dumps(summary) + "\n")
    sys.stderr.write(f"search: {result.count_solutions} solutions / "
                     f"{result.count_checked} candidates, {result.nodes} prefixes "
                     f"evaluated\n")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# deform group


def _cmd_deform(args) -> int:
    bundle = parse_bundle(args.bundle, args.field)
    data = bundle.reynolds_data()
    if args.action == "check":
        if args.series is not None:
            series_doc = parse_bundle(args.series, field_name(bundle.field))
            coefficients = series_doc.series()
        else:
            coefficients = bundle.series()
        if args.order is not None:
            if args.order < 0:
                raise SchemaError("/order", f"order must be >= 0, got {args.order}")
            if args.order >= len(coefficients):
                raise SchemaError("/order", f"order must be <= the series' order "
                                            f"{len(coefficients) - 1}, got {args.order}")
            coefficients = coefficients[:args.order + 1]
        series = deformation.DeformationSeries(data, tuple(coefficients))
        report = deformation.check_formal_deformation(series)
        doc = {"command": "deform check", "order": series.order,
               "checked_orders": [0, 3 * series.order]}
        doc.update(_report_json(report))
        return _emit(doc, report.ok)
    if args.action == "nijenhuis":
        elements = deformation.nijenhuis_elements(data)
        doc = {"command": "deform nijenhuis",
               "count": len(elements),
               "elements": [[scalar_to_str(c) for c in x] for x in elements]}
        return _emit(doc, True)
    if args.action == "rigidity":
        report = deformation.rigidity_probe(data)
        doc = {"command": "deform rigidity",
               "cocycles": report.cocycle_count,
               "nijenhuis_elements": report.nijenhuis_count,
               "coboundary_image": report.image_count,
               "criterion_holds": report.criterion_holds}
        return _emit(doc, report.criterion_holds)
    raise SchemaError("/", f"unknown deform action {args.action}")  # pragma: no cover


# ---------------------------------------------------------------------------
# bracket consistency commands


def _cmd_mc_check(args) -> int:
    bundle = parse_bundle(args.bundle, args.field)
    report = brackets.check_maurer_cartan(bundle.algebra(), bundle.representation(),
                                          bundle.cocycle(), bundle.operator())
    doc = {"command": "mc-check", "field": field_name(bundle.field)}
    doc.update(_report_json(report))
    return _emit(doc, report.ok)


def _cmd_dk_consistency(args) -> int:
    degree = _degree(args.degree)
    bundle = parse_bundle(args.bundle, args.field)
    diff = brackets.dk_difference(bundle.reynolds_data(), degree)
    # coordinate r of the difference holds d_K f - (-1)^{n-1} d f at row r as a
    # linear form; its coefficient on x_c is the entry of column c
    coords = (x for v in diff.values for x in v)
    nonzero = [(mono[0], r, coeff) for r, x in enumerate(coords) if isinstance(x, Poly)
               for mono, coeff in x.terms.items()]
    ok = not nonzero
    max_residual = "0" if ok else scalar_to_str(min(nonzero, key=lambda e: e[:2])[2])
    doc = {"command": "dk-consistency", "degree": degree,
           "max_residual": max_residual, "ok": ok}
    return _emit(doc, ok)


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="prelie",
        description="Exact checkers, constructions, cohomology, deformations and "
                    "searches for pre-Lie algebras with cocycle-weighted Reynolds "
                    "operators.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", help="override the bundle's scalar field "
                                        "(q, f2, f3, f5, f7, ...)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run an axiom or identity checker",
                             parents=[common])
    p_check.add_argument("what", choices=[
        "prelie", "rep", "cocycle", "reynolds", "weighted", "d-reynolds",
        "nijenhuis", "ns", "morphism", "mc", "twisted-mc", "linear-deform",
        "formal-deform", "nijenhuis-element"])
    p_check.add_argument("bundle")
    p_check.set_defaults(func=_cmd_check)

    p_coh = sub.add_parser("cohomology", help="exact cohomology dimensions", parents=[common])
    p_coh.add_argument("bundle", nargs="?")
    p_coh.add_argument("--of", choices=["algebra", "operator"])
    p_coh.add_argument("--operator", metavar="BUNDLE",
                       help="shorthand for --of operator BUNDLE")
    p_coh.add_argument("--degree", type=int, required=True)
    p_coh.set_defaults(func=_cmd_cohomology)

    p_con = sub.add_parser("construct", help="build a derived object and print it", parents=[common])
    p_con.add_argument("what", choices=[
        "semidirect", "induced", "star", "gauge", "shift", "ns-from-nijenhuis",
        "ns-from-reynolds", "reynolds-from-ns", "compatible-ns", "deformed-product"])
    p_con.add_argument("bundle")
    p_con.set_defaults(func=_cmd_construct)

    p_search = sub.add_parser("search", help="exhaustive search over a finite domain", parents=[common])
    p_search.add_argument("--predicate", required=True)
    p_search.add_argument("--bundle", required=True)
    p_search.add_argument("--domain", help="field name (f2, ...) or a comma list "
                                           "of scalars")
    p_search.add_argument("--shape", required=True, help="ROWSxCOLS, e.g. 3x3")
    p_search.add_argument("--fix", help="fixed entries: \"r,c=v;r,c=v\" (1-based)")
    p_search.add_argument("--budget", type=int)
    p_search.set_defaults(func=_cmd_search)

    p_def = sub.add_parser("deform", help="deformation-theoretic commands", parents=[common])
    p_def.add_argument("action", choices=["check", "nijenhuis", "rigidity"])
    p_def.add_argument("--bundle", required=True)
    p_def.add_argument("--series", help="bundle file providing /series")
    p_def.add_argument("--order", type=int)
    p_def.set_defaults(func=_cmd_deform)

    p_mc = sub.add_parser("mc-check", help="Maurer-Cartan test for the bundle operator", parents=[common])
    p_mc.add_argument("bundle")
    p_mc.set_defaults(func=_cmd_mc_check)

    p_dk = sub.add_parser("dk-consistency",
                          help="bracket differential vs. cohomology differential",
                          parents=[common])
    p_dk.add_argument("bundle")
    p_dk.add_argument("--degree", type=int, required=True)
    p_dk.set_defaults(func=_cmd_dk_consistency)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        sys.stdout.write(json.dumps({"error": "budget", "message": str(exc)}) + "\n")
        sys.stderr.write(f"budget error: {exc}\n")
        return EXIT_BUDGET
    except (SchemaError, IoError, FieldMismatchError, ShapeError, SingularError,
            NoUnitError, NotCocycleError, NotAdmissibleError, InfiniteFieldError,
            UnverifiedError) as exc:
        sys.stdout.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except AssertionError as exc:
        # InvariantError, or any other assertion inside the package
        message = str(exc)
        sys.stdout.write(json.dumps({"error": "InvariantError", "message": message}) + "\n")
        first_line = message.splitlines()[0] if message else ""
        sys.stderr.write(f"internal invariant failed: {first_line}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
