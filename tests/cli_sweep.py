"""Byte-identity sweep of the CLI: one line ``exit argv stdout-digest`` per command.

Every command runs in-process through `prelie.cli.main`, over each
bundle of ``corpus/`` under its own field and under q, f2, f3 and f5:
every ``check`` and ``construct`` choice, ``cohomology --of
algebra|operator --degree 1..3``, ``mc-check``, ``dk-consistency
--degree 1..3``, ``deform check|nijenhuis|rigidity``, and a search for
every predicate over F_2 and F_3 (a 1-column element for
nijenhuis-element, a dim g x dim V operator for rcw-reynolds, a
dim g x dim g one for the others).

It then runs the `VARIANTS`: corpus bundles edited so that a checker
fails (a perturbed operator, a bad twist, deformation direction, series
or element, a map that is no morphism, broken algebra, representation,
cocycle and operator inputs), plus a bundle padded to dim V > dim g.
Each runs its commands under the same fields, so the violations,
residuals and parts of failing reports are byte-compared too.  A
variant is handed to the CLI as JSON text and printed as its label
``variant:<name>``.

Bundle paths are printed relative to the repository and the digest is
the first 16 hex digits of the SHA-256 of stdout, so two checkouts give
the same stdout and exit codes exactly when the outputs of

    PYTHONPATH=src python tests/cli_sweep.py > sweep.txt

taken in each are identical.  A tally of the exit codes goes to stderr.
This is a script, not a pytest module; `test_bundle_cli.py` checks that
its cases cover the parser's choices and that every line equals the
pinned one in ``tests/cli_sweep.expected``.  A change that means to
alter the CLI output regenerates that file with

    PYTHONPATH=src python tests/cli_sweep.py > tests/cli_sweep.expected

and names each changed line.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = "corpus"
FIELDS = (None, "q", "f2", "f3", "f5")  # None: the bundle's own field
CHECKS = ("prelie", "rep", "cocycle", "reynolds", "weighted", "d-reynolds", "nijenhuis",
          "ns", "morphism", "mc", "twisted-mc", "linear-deform", "formal-deform",
          "nijenhuis-element")
CONSTRUCTS = ("semidirect", "induced", "star", "gauge", "shift", "ns-from-nijenhuis",
              "ns-from-reynolds", "reynolds-from-ns", "compatible-ns", "deformed-product")


def _dims(path: Path) -> tuple:
    """(dim g, dim V) of a bundle file; 1 for a missing algebra, dim g for a missing
    or regular representation."""
    doc = json.loads(path.read_text())
    n = doc.get("algebra", {}).get("dim", 1)
    rep = doc.get("representation")
    return n, rep["dimV"] if isinstance(rep, dict) else n


def cases() -> list:
    """The argument vectors of the sweep, with bundle paths relative to the repository."""
    out = []
    for path in sorted((ROOT / CORPUS).glob("*.json")):
        bundle = f"{CORPUS}/{path.name}"
        for field in FIELDS:
            opt = () if field is None else ("--field", field)
            out += [("check", what, bundle, *opt) for what in CHECKS]
            out += [("construct", what, bundle, *opt) for what in CONSTRUCTS]
            out += [("cohomology", bundle, "--of", of, "--degree", str(d), *opt)
                    for of in ("algebra", "operator") for d in (1, 2, 3)]
            out.append(("mc-check", bundle, *opt))
            out += [("dk-consistency", bundle, "--degree", str(d), *opt) for d in (1, 2, 3)]
            out += [("deform", action, "--bundle", bundle, *opt)
                    for action in ("check", "nijenhuis", "rigidity")]
        n, m = _dims(path)
        for field in ("f2", "f3"):
            out.append(("search", "--predicate", "rcw-reynolds", "--bundle", bundle,
                        "--field", field, "--shape", f"{n}x{m}"))
            out.append(("search", "--predicate", "nijenhuis-element", "--bundle", bundle,
                        "--field", field, "--shape", f"{n}x1"))
            out += [("search", "--predicate", predicate, "--bundle", bundle,
                     "--field", field, "--shape", f"{n}x{n}")
                    for predicate in ("weighted-reynolds", "d-reynolds", "nijenhuis")]
    return out


def _load(name: str) -> dict:
    return json.loads((ROOT / CORPUS / name).read_text())


def _set(section: dict, row: int, col: int, value: str) -> None:
    """Set one entry (0-based) of a matrix section."""
    section["entries"][row][col] = value


def _regular(doc: dict) -> dict:
    """The regular representation of the bundle's algebra, written out."""
    n = doc["algebra"]["dim"]
    L = [[[0] * n for _ in range(n)] for _ in range(n)]
    R = [[[0] * n for _ in range(n)] for _ in range(n)]
    for e in doc["algebra"]["product"]:
        i, j, k = e["i"] - 1, e["j"] - 1, e["k"] - 1
        L[i][k][j] = e["c"]  # L_{e_i} e_j = e_i . e_j
        R[j][k][i] = e["c"]  # R_{e_j} e_i = e_i . e_j
    return {"dimV": n, "L": L, "R": R}


def _padded(doc: dict) -> dict:
    """V = g + k: the regular actions, the weight and K padded by zeros (dim V > dim g)."""
    rep = _regular(doc)
    for mats in (rep["L"], rep["R"]):
        for M in mats:
            for row in M:
                row.append(0)
            M.append([0] * (rep["dimV"] + 1))
    rep["dimV"] += 1
    doc["representation"] = rep
    doc["cocycleH"]["dim_target"] += 1
    for value in doc["cocycleH"]["values"]:
        value["v"].append("0")
    K = doc["operatorK"]
    K["cols"] += 1
    for row in K["entries"]:
        row.append("0")
    return doc


def _variants() -> dict:
    """label -> (bundle document, commands with ``B`` standing for the bundle)."""
    reynolds = [("check", "reynolds", "B"), ("check", "mc", "B"), ("mc-check", "B")]
    out = {}

    def variant(label, name, edit, commands):
        doc = _load(name)
        edit(doc)
        out[label] = (doc, commands)

    variant("perturbed-K", "g3-k-rowzero.json",
            lambda d: _set(d["operatorK"], 2, 2, "1"), reynolds)
    variant("perturbed-K-invertible", "g3-k-invertible.json",
            lambda d: _set(d["operatorK"], 0, 1, "1"), reynolds)
    variant("padded-K", "g3-k-deform.json", _padded,
            reynolds + [("construct", "ns-from-reynolds", "B"), ("construct", "induced", "B"),
                        ("check", "nijenhuis-element", "B"), ("deform", "rigidity", "--bundle", "B")])
    variant("padded-perturbed-K", "g3-k-deform.json",
            lambda d: _set(_padded(d)["operatorK"], 2, 3, "1"), reynolds)
    variant("bad-Kprime", "g3-k-twisted.json",
            lambda d: _set(d["operatorKprime"], 2, 2, "1"), [("check", "twisted-mc", "B")])
    variant("bad-K1", "g3-k-deform.json",
            lambda d: _set(d["operatorK1"], 2, 2, "1"), [("check", "linear-deform", "B")])
    variant("bad-series", "g3-k-deform.json",
            lambda d: d["series"][1].update(entries=[[0, 0, 0], [0, 1, 1], [0, 0, 0]]),
            [("check", "formal-deform", "B"), ("deform", "check", "--bundle", "B")])
    # every element of the g3 bundles is a Nijenhuis element; on the algebra
    # e2.e1 = -e1, e2.e2 = e2 the bundle of h = id (K = id, H = -dh = minus the
    # product) has elements that are not
    variant("non-nijenhuis-element", "nijenhuis2.json",
            lambda d: d.update(representation="regular", operatorN=None, element=["1", "1"],
                               operatorK={"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]},
                               cocycleH={"degree": 2, "dim_source": 2, "dim_target": 2,
                                         "values": [{"args": [2], "last": 1, "v": [1, 0]},
                                                    {"args": [2], "last": 2, "v": [0, -1]}]}),
            [("check", "nijenhuis-element", "B"), ("construct", "ns-from-reynolds", "B"),
             ("construct", "compatible-ns", "B"), ("deform", "rigidity", "--bundle", "B")])
    variant("non-morphism-map", "morphism-identity.json",
            lambda d: _set(d["map"], 0, 1, "1"), [("check", "morphism", "B")])
    variant("map-into-g3", "morphism-identity.json",
            lambda d: d.update(algebra2=_load("g3.json")["algebra"],
                               map={"rows": 3, "cols": 2, "entries": [[1, 0], [0, 0], [0, 1]]}),
            [("check", "morphism", "B")])
    variant("broken-prelie", "g3.json",
            lambda d: d["algebra"]["product"].append({"i": 1, "j": 3, "k": 1, "c": "1"}),
            [("check", "prelie", "B")])
    variant("broken-rep", "g3.json",
            lambda d: d.update(representation=_regular(d))
            or d["representation"]["R"].__setitem__(0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            [("check", "rep", "B")])
    variant("broken-cocycle", "g3.json",
            lambda d: d["cocycleH"]["values"].append({"args": [1], "last": 2, "v": [1, 0, 0]}),
            [("check", "cocycle", "B")])
    variant("broken-ns", "ns2.json",
            lambda d: d["nsprelie"]["tri"].update({"1,2": {"2": "1"}}), [("check", "ns", "B")])
    variant("broken-weighted", "weighted-star.json",
            lambda d: d.update(weight="2"), [("check", "weighted", "B")])
    variant("broken-d-reynolds", "unital-d-reynolds.json",
            lambda d: _set(d["operatorD"], 1, 0, "1"), [("check", "d-reynolds", "B")])
    variant("broken-nijenhuis", "nijenhuis3.json",
            lambda d: _set(d["operatorN"], 2, 1, "1"), [("check", "nijenhuis", "B")])
    return out


VARIANTS = _variants()


def variant_cases() -> list:
    """The argument vectors of the variants, each bundle written as ``variant:<label>``."""
    out = []
    for label, (_, commands) in VARIANTS.items():
        for field in FIELDS:
            opt = () if field is None else ("--field", field)
            out += [tuple(f"variant:{label}" if a == "B" else a for a in argv) + opt
                    for argv in commands]
    return out


def _resolve(arg: str) -> str:
    if arg.startswith(CORPUS + "/"):
        return str(ROOT / arg)
    if arg.startswith("variant:"):
        return json.dumps(VARIANTS[arg[len("variant:"):]][0])
    return arg


def run(argv) -> tuple:
    """(exit code, stdout) of one in-process CLI call."""
    from prelie.cli import main

    resolved = [_resolve(a) for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(resolved)
    return code, out.getvalue()


def line(argv) -> tuple:
    """(exit code, the sweep's line ``exit argv stdout-digest``) of one command."""
    code, stdout = run(argv)
    digest = hashlib.sha256(stdout.encode()).hexdigest()[:16]
    return code, f"{code} {' '.join(argv)} {digest}"


def sweep() -> None:
    tally = Counter()
    for argv in cases() + variant_cases():
        code, text = line(argv)
        tally[code] += 1
        print(text)
    print(", ".join(f"{n} exit {code}" for code, n in sorted(tally.items())),
          file=sys.stderr)


if __name__ == "__main__":
    sweep()
