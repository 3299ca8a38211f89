"""Byte-identity sweep of the CLI: one line ``exit argv stdout-digest`` per command.

Every command runs in-process through `prelie.cli.main`, over each
bundle of ``corpus/`` under its own field and under q, f2, f3 and f5:
every ``check`` and ``construct`` choice, ``cohomology --of
algebra|operator --degree 1..3``, ``mc-check``, ``dk-consistency
--degree 1..3``, ``deform check|nijenhuis|rigidity``, and a search for
every predicate over F_2 and F_3 (a 1-column element for
nijenhuis-element, a dim g x dim V operator for rcw-reynolds, a
dim g x dim g one for the others).  Bundle
paths are printed relative to the repository and the digest is the
first 16 hex digits of the SHA-256 of stdout, so two checkouts give the
same stdout and exit codes exactly when the outputs of

    PYTHONPATH=src python tests/cli_sweep.py > sweep.txt

taken in each are identical.  A tally of the exit codes goes to stderr.
This is a script, not a pytest module; `test_bundle_cli.py` checks that
its cases cover the parser's choices.
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


def run(argv) -> tuple:
    """(exit code, stdout) of one in-process CLI call."""
    from prelie.cli import main

    resolved = [str(ROOT / a) if a.startswith(CORPUS + "/") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(resolved)
    return code, out.getvalue()


def sweep() -> None:
    tally = Counter()
    for argv in cases():
        code, stdout = run(argv)
        tally[code] += 1
        digest = hashlib.sha256(stdout.encode()).hexdigest()[:16]
        print(code, " ".join(argv), digest)
    print(", ".join(f"{n} exit {code}" for code, n in sorted(tally.items())),
          file=sys.stderr)


if __name__ == "__main__":
    sweep()
