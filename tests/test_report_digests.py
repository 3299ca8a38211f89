"""Pinned reports of every checker on seeded inputs over Q and F_3.

Each checker runs on a fixed list of seeded inputs, some passing and some
failing.  Its reports (the verdict, every violation with its residual,
and the named parts, recursively) are serialized and hashed into one
digest per checker, so a change to any verdict, violation, violation
order or residual value fails the test.

The constructors are pinned the same way: the tables each one builds on
seeded bundles (the operators for the star and deformed products picked
among a search's solutions) are hashed into one digest per constructor.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import (
    random_algebra,
    random_cochain,
    random_pair,
    random_reynolds_data,
    random_two_cocycle,
    truncated_poly_algebra,
)
from oracles import check_prelie_via_bracket
from prelie.algebra import (
    check_derivation,
    check_jacobi,
    check_morphism,
    check_prelie,
    check_representation,
    subadjacent_lie,
)
from prelie.brackets import check_maurer_cartan, check_twisted_mc
from prelie.cochain import check_two_cocycle
from prelie.deformation import (
    DeformationSeries,
    check_equivalence_data,
    check_formal_deformation,
    check_linear_deformation,
    check_nijenhuis_element,
)
from prelie.linalg import Matrix
from prelie.nsprelie import (
    check_nijenhuis,
    check_ns_prelie,
    compatible_ns_from_invertible,
    deformed_product,
    ns_from_nijenhuis,
    ns_from_reynolds,
)
from prelie.reynolds import (
    check_d_reynolds,
    check_graph_subalgebra,
    check_rcw_morphism,
    check_rcw_reynolds,
    check_weighted_reynolds,
    induced_product,
    star_product,
)
from prelie.scalars import QQ, PrimeField, scalar_to_str
from prelie.search import SearchSpec, exhaustive_search

FIELDS = (QQ, PrimeField(3))
DRAWS = 3


def _serialize(report) -> list:
    doc = [report.ok, [[list(where), [scalar_to_str(x) for x in residual]]
                       for where, residual in report.violations]]
    if report.parts is not None:
        doc.append({name: _serialize(part) for name, part in report.parts.items()})
    return doc


def _digest(reports) -> str:
    text = json.dumps([_serialize(r) for r in reports])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _matrix(rng, field, rows, cols) -> Matrix:
    return Matrix(field, [[field(rng.randint(-1, 1)) for _ in range(cols)]
                          for _ in range(rows)])


def _vector(rng, field, n) -> tuple:
    return tuple(field(rng.randint(-1, 1)) for _ in range(n))


def _tensor(rng, field, n):
    return [[[field(rng.choice((0, 0, 1, -1))) for _ in range(n)] for _ in range(n)]
            for _ in range(n)]


def _bumped(M: Matrix, i: int, j: int) -> Matrix:
    """M with entry (i, j) raised by one."""
    rows = [list(row) for row in M.data]
    rows[i][j] = rows[i][j] + M.field.one
    return Matrix(M.field, rows, cols=M.cols)


def _draws(seed):
    """(rng, field) for every field and draw, each rng seeded separately."""
    for f_index, field in enumerate(FIELDS):
        for draw in range(DRAWS):
            yield random.Random(1000 * seed + 10 * f_index + draw), field


# ---------------------------------------------------------------------------
# one input generator per checker: yields the reports to pin


def _prelie_tensors(seed):
    for rng, field in _draws(seed):
        yield field, random_algebra(rng, field).product
        yield field, _tensor(rng, field, 2)


def case_prelie():
    for field, tensor in _prelie_tensors(1):
        yield check_prelie(field, tensor)


def case_prelie_via_bracket():
    for field, tensor in _prelie_tensors(1):
        yield check_prelie_via_bracket(field, tensor)


def case_jacobi():
    for rng, field in _draws(2):
        yield check_jacobi(field, subadjacent_lie(random_algebra(rng, field)))
        yield check_jacobi(field, _tensor(rng, field, 2))


def case_representation():
    for rng, field in _draws(3):
        a, rep = random_pair(rng, field)
        yield check_representation(a, rep.dim_v, rep.L, rep.R)
        L = [_matrix(rng, field, rep.dim_v, rep.dim_v) for _ in rep.L]
        yield check_representation(a, rep.dim_v, L, rep.R)


def case_derivation():
    for rng, field in _draws(4):
        a = random_algebra(rng, field)
        yield check_derivation(a, Matrix.zero(field, a.dim, a.dim))
        yield check_derivation(a, _matrix(rng, field, a.dim, a.dim))


def case_morphism():
    for rng, field in _draws(5):
        a = random_algebra(rng, field)
        yield check_morphism(a, a, Matrix.identity(field, a.dim))
        yield check_morphism(a, a, _matrix(rng, field, a.dim, a.dim))


def case_two_cocycle():
    for rng, field in _draws(6):
        a, rep = random_pair(rng, field)
        yield check_two_cocycle(a, rep, random_two_cocycle(rng, a, rep))
        yield check_two_cocycle(a, rep, random_cochain(rng, field, 2, a.dim, rep.dim_v, -1, 1))


def _operator_pairs(seed):
    """A verified bundle's (g, rep, H, K) and the same with K bumped."""
    for rng, field in _draws(seed):
        data = random_reynolds_data(rng, field)
        g, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator
        yield g, rep, H, K
        yield g, rep, H, _bumped(K, rng.randrange(K.rows), rng.randrange(K.cols))


def case_rcw_reynolds():
    for args in _operator_pairs(7):
        yield check_rcw_reynolds(*args)


def case_graph_subalgebra():
    for args in _operator_pairs(7):
        yield check_graph_subalgebra(*args)


def case_maurer_cartan():
    for args in _operator_pairs(7):
        yield check_maurer_cartan(*args)


def case_weighted_reynolds():
    for rng, field in _draws(8):
        g = random_algebra(rng, field)
        weight = field(rng.randint(-1, 1))
        yield check_weighted_reynolds(g, Matrix.zero(field, g.dim, g.dim), weight)
        yield check_weighted_reynolds(g, _matrix(rng, field, g.dim, g.dim), weight)


def case_d_reynolds():
    for rng, field in _draws(9):
        g = truncated_poly_algebra(field)
        D = _matrix(rng, field, 3, 3)
        yield check_d_reynolds(g, D, Matrix.zero(field, 3, 3))
        yield check_d_reynolds(g, D, _matrix(rng, field, 3, 3))


def case_nijenhuis():
    for rng, field in _draws(10):
        g = random_algebra(rng, field)
        yield check_nijenhuis(g, Matrix.identity(field, g.dim))
        yield check_nijenhuis(g, _matrix(rng, field, g.dim, g.dim))


def case_ns_prelie():
    for rng, field in _draws(11):
        g = random_algebra(rng, field)
        ns = ns_from_nijenhuis(g, Matrix.identity(field, g.dim))
        yield check_ns_prelie(field, ns.tri, ns.trl, ns.circ)
        yield check_ns_prelie(field, ns.tri, _tensor(rng, field, g.dim), ns.circ)


def _bundles(seed):
    for rng, field in _draws(seed):
        yield rng, field, random_reynolds_data(rng, field)


def case_rcw_morphism():
    for rng, field, data in _bundles(12):
        n, m = data.algebra.dim, data.rep.dim_v
        yield check_rcw_morphism(data, data, Matrix.identity(field, n),
                                 Matrix.identity(field, m))
        yield check_rcw_morphism(data, data, _matrix(rng, field, n, n),
                                 _matrix(rng, field, m, m))


def case_linear_deformation():
    for rng, field, data in _bundles(13):
        n, m = data.algebra.dim, data.rep.dim_v
        yield check_linear_deformation(data, Matrix.zero(field, n, m))
        yield check_linear_deformation(data, _matrix(rng, field, n, m))


def case_formal_deformation():
    for rng, field, data in _bundles(14):
        n, m = data.algebra.dim, data.rep.dim_v
        K = data.operator
        yield check_formal_deformation(DeformationSeries(data, (K,)))
        yield check_formal_deformation(DeformationSeries(data, (K, Matrix.zero(field, n, m))))
        yield check_formal_deformation(DeformationSeries(data, (K, _matrix(rng, field, n, m))))


def case_equivalence_data():
    for rng, field, data in _bundles(15):
        n, m = data.algebra.dim, data.rep.dim_v
        zero = Matrix.zero(field, n, m)
        yield check_equivalence_data(data, zero, zero, (field.zero,) * n)
        yield check_equivalence_data(data, _matrix(rng, field, n, m),
                                     _matrix(rng, field, n, m), _vector(rng, field, n))


def case_nijenhuis_element():
    for rng, field, data in _bundles(16):
        n = data.algebra.dim
        yield check_nijenhuis_element(data, (field.zero,) * n)
        yield check_nijenhuis_element(data, _vector(rng, field, n))


def case_twisted_mc():
    for rng, field, data in _bundles(17):
        n, m = data.algebra.dim, data.rep.dim_v
        yield check_twisted_mc(data, Matrix.zero(field, n, m))
        yield check_twisted_mc(data, _matrix(rng, field, n, m))


CASES = {name[len("case_"):]: fn for name, fn in list(globals().items())
         if name.startswith("case_")}

DIGESTS = {
    "d_reynolds": "eb6567792e7633db",
    "derivation": "521b11e381ca5846",
    "equivalence_data": "d08789f0677c74eb",
    "formal_deformation": "6a72eaa52663c7ff",
    "graph_subalgebra": "89ab64e13437d29d",
    "jacobi": "85494a527bceda55",
    "linear_deformation": "0031d1759e37f1d8",
    "maurer_cartan": "9c419346609dc01f",
    "morphism": "de0cd1ded4c94526",
    "nijenhuis": "5260950a9483aad5",
    "nijenhuis_element": "02a87857cc62cf34",
    "ns_prelie": "fb4cca10bd37b2fd",
    "prelie": "0b6f24b3be132280",
    "prelie_via_bracket": "9e66f29d5b72c371",
    "rcw_morphism": "afc4db85ded9bf39",
    "rcw_reynolds": "9c419346609dc01f",
    "representation": "3c57ae00204ec94c",
    "twisted_mc": "63450ef46cc489df",
    "two_cocycle": "13e6eb5d106dc11f",
    "weighted_reynolds": "754db4e5d0d37cfa",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_checker_report_digest(name):
    reports = list(CASES[name]())
    verdicts = {r.ok for r in reports}
    assert verdicts == {True, False}, f"{name}: inputs do not both pass and fail"
    assert _digest(reports) == DIGESTS[name]


# ---------------------------------------------------------------------------
# constructors: the tables they build, pinned the same way


def _operators(rng, field, predicate, bundle, n) -> list:
    """Two seeded picks among the n x n solutions with entries -1, 0, 1."""
    domain = tuple(field(c) for c in (-1, 0, 1))
    found = exhaustive_search(SearchSpec(predicate, bundle, (n, n), domain), field).solutions
    return [rng.choice(found) for _ in range(2)]


def build_induced():
    for _, _, data in _bundles(18):
        yield induced_product(data).product


def build_star():
    for rng, field, data in _bundles(19):
        g = data.algebra
        weight = field(rng.randint(-1, 1))
        for K in _operators(rng, field, "weighted-reynolds",
                            {"algebra": g, "weight": weight}, g.dim):
            yield star_product(g, K, weight).product


def build_deformed():
    for rng, field, data in _bundles(20):
        g = data.algebra
        for N in _operators(rng, field, "nijenhuis", {"algebra": g}, g.dim):
            yield deformed_product(g, N).product


def _ns_tables(ns) -> tuple:
    return ns.tri, ns.trl, ns.circ


def build_ns_from_reynolds():
    for _, _, data in _bundles(21):
        yield from _ns_tables(ns_from_reynolds(data))


def build_ns_from_nijenhuis():
    for rng, field, data in _bundles(29):
        g = data.algebra
        for N in _operators(rng, field, "nijenhuis", {"algebra": g}, g.dim):
            yield from _ns_tables(ns_from_nijenhuis(g, N))


def build_compatible_ns():
    for rng, field in _draws(23):
        data = random_reynolds_data(rng, field, invertible_only=True)
        yield from _ns_tables(compatible_ns_from_invertible(data))


BUILDS = {name[len("build_"):]: fn for name, fn in list(globals().items())
          if name.startswith("build_")}

TABLE_DIGESTS = {
    "compatible_ns": "31e4cbd42dd6139e",
    "deformed": "ef5d2f45080e77c7",
    "induced": "0f958da2d9b2c7f6",
    "ns_from_nijenhuis": "6cbb80827b4344ed",
    "ns_from_reynolds": "176061ef890fa9d1",
    "star": "bba00ace102cb6e3",
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_construction_table_digest(name):
    tables = [[[[scalar_to_str(x) for x in vec] for vec in row] for row in table]
              for table in BUILDS[name]()]
    assert any(x != "0" for table in tables for row in table for vec in row for x in vec)
    digest = hashlib.sha256(json.dumps(tables).encode()).hexdigest()[:16]
    assert digest == TABLE_DIGESTS[name]
