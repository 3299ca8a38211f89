"""The benchmark's workloads: their inputs, their jobs and the answers expected.

A job is one library or CLI call.  `setup(name, prelie, seen)` builds and
verifies a workload's inputs and returns its jobs; each job calls into
`prelie` through module attributes looked up at call time, so a traced
run sees the tracer's wrappers.  `Job.check` compares an answer with the
frozen value and returns None, or a message saying what differs.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

CORPUS = "corpus/"

# ---------------------------------------------------------------------------
# cohomology: the dimension ladder on k[x]/(x^n) over Q

# (kind, n, degree) -> (dim Z, dim B, dim H).  The rungs (n, d) = (5, 2)
# and (4, 3), with (41, 21, 20) and (57, 39, 18), take 4 to 12 s each at
# the seed: too few samples fit in a run to time them steadily.
COHOMOLOGY_ANSWERS = {
    ("algebra", 2, 2): (5, 3, 2),
    ("algebra", 3, 2): (13, 7, 6),
    ("algebra", 4, 2): (25, 13, 12),
    ("algebra", 2, 3): (4, 3, 1),
    ("algebra", 3, 3): (20, 14, 6),
    ("operator", 2, 1): (1, 0, 1),
    ("operator", 3, 1): (2, 0, 2),
    ("operator", 4, 1): (3, 0, 3),
    ("operator", 5, 1): (4, 0, 4),
    ("operator", 2, 2): (5, 3, 2),
    ("operator", 3, 2): (13, 7, 6),
}

# ---------------------------------------------------------------------------
# search: four exhaustive sweeps over F_2 and F_3 through the CLI

# argv -> (candidates checked, solutions).  The unconstrained sweeps take
# the integer-residue fast path; a --fix sends every candidate through the
# full checker.
SEARCH_ANSWERS = {
    ("search", "--predicate", "rcw-reynolds", "--bundle", CORPUS + "g3.json",
     "--field", "f2", "--shape", "3x3"): (512, 68),
    ("search", "--predicate", "rcw-reynolds", "--bundle", CORPUS + "g3.json",
     "--field", "f2", "--shape", "3x3", "--fix", "1,1=0"): (256, 34),
    ("search", "--predicate", "rcw-reynolds", "--bundle", CORPUS + "g3.json",
     "--field", "f3", "--shape", "3x3", "--fix", "1,1=0;1,2=0;1,3=0;2,1=0;2,2=0"):
        (81, 5),
    ("search", "--predicate", "nijenhuis", "--bundle", CORPUS + "g3.json",
     "--field", "f2", "--shape", "3x3"): (512, 48),
}

# ---------------------------------------------------------------------------
# corpus-cli: the byte-identical corpus commands of the acceptance suite

# argv -> (exit code, stdout digest).  None marks the Nijenhuis-element
# commands, whose answers are expected to change once the element
# conditions are settled: they are checked for valid JSON, an exit code
# of 0 or 1 and identical output on every pass instead.
CLI_ANSWERS = {
    ('check', 'prelie', CORPUS + 'empty-product.json'): (0, '4ea657c51c10e94b'),
    ('check', 'reynolds', CORPUS + 'g3-k-rowzero.json'): (0, '698fe054221cddcc'),
    ('check', 'cocycle', CORPUS + 'g3.json'): (0, 'a439445e08989b9e'),
    ('check', 'mc', CORPUS + 'g3-k-rowzero.json'): (0, 'f98e0bfd031a1c3e'),
    ('check', 'ns', CORPUS + 'ns2.json'): (0, '067a27dcee066abe'),
    ('check', 'ns', CORPUS + 'ns3.json'): (0, '067a27dcee066abe'),
    ('check', 'nijenhuis', CORPUS + 'nijenhuis2.json'): (0, '6cc40808f59d7608'),
    ('check', 'nijenhuis', CORPUS + 'nijenhuis3.json'): (0, '6cc40808f59d7608'),
    ('cohomology', '--of', 'operator', '--degree', '1', CORPUS + 'g3-k-e11.json'):
        (0, '7e835ebff7c48e1b'),
    ('cohomology', '--of', 'algebra', '--degree', '1', CORPUS + 'g3.json'):
        (0, '0512fd0ee8c900d5'),
    ('construct', 'semidirect', CORPUS + 'g3.json'): (0, '6182ac1e07dde318'),
    ('construct', 'induced', CORPUS + 'g3-k-rowzero.json'): (0, '753f09c9e1435f17'),
    ('construct', 'ns-from-nijenhuis', CORPUS + 'nijenhuis2.json'):
        (0, '2236fe77b9a9e627'),
    ('construct', 'ns-from-nijenhuis', CORPUS + 'nijenhuis3.json'):
        (0, '635cd523bc1a7b3b'),
    ('construct', 'ns-from-reynolds', CORPUS + 'g3-k-rowzero.json'):
        (0, '1cdab3fcff6173fe'),
    ('construct', 'reynolds-from-ns', CORPUS + 'ns2.json'): (0, 'e4c03b641120d62a'),
    ('construct', 'star', CORPUS + 'weighted-star.json'): (0, 'eac7df4088b8bc5d'),
    ('construct', 'gauge', CORPUS + 'g3-gauge-shift.json'): (0, '7315a80b46bd6769'),
    ('construct', 'shift', CORPUS + 'g3-gauge-shift.json'): (0, 'ebc13aa8f5f57ed3'),
    ('construct', 'compatible-ns', CORPUS + 'g3-k-invertible.json'):
        (0, 'd6fca9dd14f65c1d'),
    ('construct', 'deformed-product', CORPUS + 'nijenhuis2.json'):
        (0, '558554ddfd1d79f5'),
    ('check', 'weighted', CORPUS + 'weighted-star.json'): (0, '9ef6b43b24aa0e5c'),
    ('check', 'd-reynolds', CORPUS + 'unital-d-reynolds.json'): (0, 'd4b7caf78989eabe'),
    ('check', 'morphism', CORPUS + 'morphism-identity.json'): (0, 'ad709b7c24022ee4'),
    ('check', 'rep', CORPUS + 'g3.json'): (0, '862a6fc2718112a0'),
    ('check', 'reynolds', CORPUS + 'g3-k-invertible.json'): (0, '698fe054221cddcc'),
    ('deform', 'rigidity', '--bundle', CORPUS + 'g3-f2-e11.json'): None,
    ('deform', 'nijenhuis', '--bundle', CORPUS + 'g3-f2-e11.json'): None,
    ('deform', 'rigidity', '--bundle', CORPUS + 'dim1-abelian-f2.json'): None,
    ('search', '--predicate', 'rcw-reynolds', '--bundle', CORPUS + 'g3.json',
     '--field', 'f2', '--shape', '3x3'): (0, '753c43f6935b84f0'),
    ('dk-consistency', CORPUS + 'g3-k-rowzero.json', '--degree', '1'):
        (0, 'e7473094cccd6b11'),
    ('mc-check', CORPUS + 'g3-k-rowzero.json'): (0, 'b2f2b85a4974ee10'),
}

# ---------------------------------------------------------------------------


class Job:
    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name, self.call, self.check = name, call, check


def truncated_polynomial(prelie, n: int):
    """k[x]/(x^n) over Q on the basis 1, x, ..., x^(n-1)."""
    entries = {(i, j, i + j): 1 for i in range(n) for j in range(n) if i + j < n}
    return prelie.algebra.PreLieAlgebra.build(prelie.scalars.QQ, n, entries)


def _unipotent_cochain(prelie, n: int):
    """The degree-1 cochain h = I + superdiagonal."""
    rows = [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)]
    m = prelie.linalg.Matrix(prelie.scalars.QQ, rows)
    return prelie.cochain.Cochain.from_matrix(m)


def _dims_check(expected):
    def check(report):
        got = (report.dim_z, report.dim_b, report.dim_h)
        return None if got == expected else f"dimensions {got} != {expected}"
    return check


def _cohomology_jobs(prelie, seen):
    jobs = []
    algebras = {}
    for (kind, n, degree), expected in COHOMOLOGY_ANSWERS.items():
        if n not in algebras:
            g = truncated_polynomial(prelie, n)
            rep = prelie.algebra.regular_representation(g)
            algebras[n] = (g, rep, None)
        g, rep, data = algebras[n]
        name = f"{kind} n={n} d={degree}"
        if kind == "algebra":
            def call(g=g, rep=rep, degree=degree):
                return prelie.cochain.cohomology(g, rep, degree)
        else:
            if data is None:
                data = prelie.reynolds.reynolds_from_invertible_cochain(
                    g, rep, _unipotent_cochain(prelie, n))
                algebras[n] = (g, rep, data)

            def call(data=data, degree=degree):
                return prelie.opcohomology.operator_cohomology(data, degree)
        jobs.append(Job(name, call, _dims_check(expected)))
    return jobs


def run_cli(prelie, argv):
    """One in-process CLI call; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = prelie.cli.main(list(argv))
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _verify_bundles(prelie, paths):
    """Parse every bundle and build each verified object it declares."""
    for path in sorted(set(paths)):
        bundle = prelie.bundle.parse_bundle(path)
        raw = bundle.raw
        if "algebra" in raw:
            bundle.algebra()
        if "representation" in raw:
            bundle.representation()
        if "cocycleH" in raw:
            bundle.cocycle()
            if "operatorK" in raw:
                bundle.reynolds_data()
        if "nsprelie" in raw:
            bundle.nsprelie()


def _search_jobs(prelie, seen):
    _verify_bundles(prelie, [argv[4] for argv in SEARCH_ANSWERS])
    jobs = []
    for argv, expected in SEARCH_ANSWERS.items():
        def call(argv=argv):
            return run_cli(prelie, argv)

        def check(answer, expected=expected):
            code, out = answer
            if code != 0:
                return f"exit code {code}"
            lines = out.splitlines()
            summary = json.loads(lines[-1])
            got = (summary["checked"], summary["solutions"])
            if got != expected or len(lines) - 1 != expected[1]:
                return f"(checked, solutions) {got} != {expected}"
            return None
        jobs.append(Job(" ".join(argv), call, check))
    return jobs


def _cli_jobs(prelie, seen):
    _verify_bundles(prelie, [a for argv in CLI_ANSWERS for a in argv
                             if a.startswith(CORPUS)])
    jobs = []
    for argv, expected in CLI_ANSWERS.items():
        def call(argv=argv):
            return run_cli(prelie, argv)

        if expected is not None:
            def check(answer, expected=expected):
                code, out = answer
                got = (code, digest(out))
                return None if got == expected else f"(exit, digest) {got} != {expected}"
        else:
            def check(answer, argv=argv):
                code, out = answer
                if code not in (0, 1):
                    return f"exit code {code}"
                json.loads(out)
                first = seen.setdefault(argv, (code, digest(out)))
                return None if first == (code, digest(out)) else "output differs between passes"
        jobs.append(Job(" ".join(argv), call, check))
    return jobs


WORKLOADS = {
    "cohomology": _cohomology_jobs,
    "search": _search_jobs,
    "corpus-cli": _cli_jobs,
}


def setup(name, prelie, seen):
    """Build and verify the inputs of workload ``name``; returns its jobs.

    ``seen`` maps the argv of a command without a frozen answer to its
    first (exit code, digest); the caller keeps it across set-ups.
    """
    return WORKLOADS[name](prelie, seen)
