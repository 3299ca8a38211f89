"""The element conditions on the integer lift against the route in t.

`deformation.nijenhuis_element_checker` and
`deformation.check_equivalence_data` read the order-t and order-t^2
coefficients of every condition off two integer evaluations of the
morphism core at the lifted x (`SIGNS.md`, "Nijenhuis elements").
`oracles.in_t_element_checks` is the route the library had before: the
element maps on the field, phi_t and psi_t as matrices polynomial in t,
the Matrix-level morphism checker once on them and `deformation._order`.
Both must return the same `Report`: parts, ``(Order(k), *where)`` keys,
residual values and types, and violation order.  The cases are every
corpus bundle with an operator, every x over F_2, F_3 and F_5 of seeded
random bundles, and fractional bundles over Q with D_g, D_K and D_x all
above 1; a mutant of each step of the integer read fails here.

The scale pins freeze the exact output of ``deform nijenhuis`` and
``deform rigidity`` on ``corpus/g3-k-e11.json`` over F_5 and F_7, where
every candidate is a solution and so goes through the element check.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from cli_sweep import run
from conftest import CORPUS, _random_matrix, fractional_reynolds_data, random_reynolds_data
from oracles import in_t_element_checks
from prelie import deformation
from prelie.bundle import parse_bundle
from prelie.cochain import _semidirect_arrays
from prelie.deformation import _ElementTerms, check_equivalence_data, nijenhuis_element_checker
from prelie.errors import SchemaError
from prelie.scalars import QQ, FpElement, PrimeField, lift
from test_prepared_checkers import _mutant

Q_X = ["0", "1", "-1", "1/2", "-2/3", "3/5"]


def _corpus_bundles() -> list:
    """The distinct corpus bundles that carry a verified operator, under q, f2, f3 and f5."""
    out = {}
    for path in sorted(CORPUS.glob("*.json")):
        doc = json.loads(path.read_text())
        if "operatorK" not in doc:
            continue
        for field in ("q", "f2", "f3", "f5"):
            try:
                data = parse_bundle(doc, field).reynolds_data()
            except SchemaError:  # a constant with no image in the field
                continue
            out.setdefault(data.fingerprint(), data)
    return list(out.values())


def _elements(rng, data, count: int = 8) -> list:
    """Every x over F_p (p^n <= 125), else ``count`` seeded ones with fractions over Q."""
    field, n = data.field, data.algebra.dim
    if field != QQ and field.p ** n <= 125:
        return list(product(field.elements(), repeat=n))
    return [tuple(field(rng.choice(Q_X) if field == QQ else rng.randrange(field.p))
                  for _ in range(n)) for _ in range(count)]


def _mismatches(cases, rng) -> tuple:
    """(disagreeing reports, reports, failing Nijenhuis checks, failing equivalences)."""
    bad = total = failing = inequivalent = 0
    for data, elements in cases:
        field, n, m = data.field, data.algebra.dim, data.rep.dim_v
        kind = Fraction if field == QQ else FpElement
        nijenhuis, equivalence = in_t_element_checks(data)
        check = nijenhuis_element_checker(data)
        for x in elements:
            K1, K1p = (_random_matrix(rng, field, n, m) for _ in range(2))
            pairs = [(check(x), nijenhuis(x)),
                     (check_equivalence_data(data, K1, K1p, x), equivalence(K1, K1p, x))]
            for got, expected in pairs:
                total += 1
                bad += got != expected or list(got.parts) != list(expected.parts) or \
                    not all(type(c) is kind for _, r in got.violations for c in r)
            failing += not pairs[0][0].ok
            inequivalent += not pairs[1][0].ok
    return bad, total, failing, inequivalent


def _denominators(data, x) -> tuple:
    """(D_g, D_K, D_x) of a bundle and an element over Q."""
    g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
    return tuple(lift(QQ, (*arrays, QQ.one))[0][-1]
                 for arrays in (_semidirect_arrays(g, rep, H), (K.data,), (x,)))


def _fractional_cases(rng, count: int) -> list:
    """Fractional bundles over Q with D_g > 1 and D_K > 1, each with elements whose D_x > 1."""
    out = []
    while len(out) < count:
        data = fractional_reynolds_data(rng)
        elements = [x for x in _elements(rng, data, 12) if min(_denominators(data, x)) > 1]
        if elements:
            out.append((data, elements))
    return out


def test_corpus_elements_agree_with_the_route_in_t():
    # every x of a corpus bundle is a Nijenhuis element; the equivalences
    # with random K1 != K1' fail
    rng = random.Random(3301)
    cases = [(data, _elements(rng, data)) for data in _corpus_bundles()]
    assert len(cases) == 19
    bad, total, failing, inequivalent = _mismatches(cases, rng)
    assert (bad, failing) == (0, 0) and total > 1000 and inequivalent > 500


@pytest.mark.parametrize("p, bundles", [(2, 12), (3, 8), (5, 4)])
def test_every_element_over_small_fields_agrees_with_the_route_in_t(p, bundles):
    rng = random.Random(3302 + p)
    field = PrimeField(p)
    cases = []
    for _ in range(bundles):
        data = random_reynolds_data(rng, field)
        cases.append((data, list(product(field.elements(), repeat=data.algebra.dim))))
    bad, total, failing, inequivalent = _mismatches(cases, rng)
    assert bad == 0 and failing > 0 and inequivalent > 0
    assert total == 2 * sum(len(xs) for _, xs in cases)


def test_fractional_elements_agree_with_the_route_in_t():
    # D_g > 1, D_K > 1 and D_x > 1 on every case, so a wrong power of any
    # of them in the scale s = D_x D_g D_K^2 shows
    rng = random.Random(3303)
    cases = _fractional_cases(rng, 6)
    assert all(min(_denominators(data, x)) > 1 for data, xs in cases for x in xs)
    bad, total, failing, inequivalent = _mismatches(cases, rng)
    assert bad == 0 and total >= 40 and failing > 0 and inequivalent > 0


MUTANTS = {
    "c2-with-one-s": ("morphism", "self.defects(Q, 0)", "self.defects(Q, s)"),
    "c1-without-c2": ("morphism", "[a - b for a, b in zip(r, r2)] if r != r2 else ()", "r"),
    "rbar-swapped": ("commutes", "sub_vec(a, b)", "sub_vec(b, a)"),
    "back-by-s": ("morphism", "self.Dg * s * s", "self.Dg * s"),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_mutant_of_the_integer_read_disagrees(monkeypatch, mutant):
    rng = random.Random(3304)
    F3 = PrimeField(3)
    cases = _fractional_cases(rng, 3)
    for _ in range(4):
        data = random_reynolds_data(rng, F3)
        cases.append((data, list(product(F3.elements(), repeat=data.algebra.dim))))
    assert _mismatches(cases, random.Random(1))[0] == 0
    name, term, replacement = MUTANTS[mutant]
    _mutant(monkeypatch, deformation, name, term, replacement, owner=_ElementTerms)
    assert _mismatches(cases, random.Random(1))[0] > 0


# ---------------------------------------------------------------------------
# scale pins: every candidate of g3-k-e11 over F_5 and F_7 is a solution


def _all_elements(p: int) -> list:
    return [[f"{c} mod {p}" for c in x] for x in product(range(p), repeat=3)]


@pytest.mark.parametrize("p, digest", [
    (5, "1936c2e76922892cec113722bb419ae17adc36f9cec3d896280dfd0c667b797a"),
    (7, "9ff070da2cc0f4cb3eb3b5dd262947b0f15dbb2bca70b78e07f7dc0fd79f2100"),
])
def test_deform_nijenhuis_on_g3_k_e11_is_pinned(p, digest):
    code, out = run(("deform", "nijenhuis", "--bundle", "corpus/g3-k-e11.json",
                     "--field", f"f{p}"))
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    assert json.loads(out) == {"command": "deform nijenhuis", "count": p ** 3,
                               "elements": _all_elements(p)}


@pytest.mark.parametrize("p", [5, 7])
def test_deform_rigidity_on_g3_k_e11_is_pinned(p):
    code, out = run(("deform", "rigidity", "--bundle", "corpus/g3-k-e11.json",
                     "--field", f"f{p}"))
    assert code == 1
    assert out == ('{\n  "command": "deform rigidity",\n'
                   f'  "cocycles": {p ** 9},\n  "nijenhuis_elements": {p ** 3},\n'
                   '  "coboundary_image": 1,\n  "criterion_holds": false\n}\n')
