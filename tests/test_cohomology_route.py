"""The bottom-up cohomology route against the route it replaced.

`cochain.integer_cohomology` ranks each coboundary only on the columns
off the leading coordinates of the level below (`SIGNS.md`, "Cohomology
bottom-up").  `oracles.rows_cohomology` ranks d_{k-1} and d_k in full on
block rows and multiplies d_k d_{k-1} out.  Both must give the same
(dim Z, dim B, dim H) on every input, and the route must raise where d
does not square to zero, at whichever level and on whichever basis
column it fails.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from conftest import (CORPUS, count_calls, fractional_ladder_data, fractional_reynolds_data,
                      random_pair, random_reynolds_data, truncated_poly_algebra)
from oracles import block_rows, rows_cohomology
from prelie import cochain
from prelie.algebra import PreLieAlgebra, action_arrays, regular_representation
from prelie.bundle import parse_bundle
from prelie.cochain import cochain_space_dim, integer_cohomology, twisted_rows
from prelie.errors import InvariantError, SchemaError
from prelie.linalg import sparse_mul
from prelie.opcohomology import _frame, _induced_arrays
from prelie.scalars import QQ, PrimeField, lift
from test_opcohomology import _unipotent_operator_data

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]


def algebra_arrays(a, rep) -> tuple:
    """(c, L, R, m, p): the lifted arrays of the algebra complex of (a, rep)."""
    (c, L, R), _ = lift(a.field, action_arrays(a, rep))
    return c, L, R, rep.dim_v, a.field.char


def operator_arrays(data) -> tuple:
    """(c, L, R, m, p): the induced arrays of the operator complex of ``data``."""
    n = data.algebra.dim
    table, Lbar, Rbar, _ = _induced_arrays(n, _frame(data))
    return table, Lbar, Rbar, n, data.field.char


def assert_routes_agree(arrays, degree: int) -> None:
    report, _ = integer_cohomology(*arrays, degree)
    assert (report.dim_z, report.dim_b, report.dim_h) == rows_cohomology(*arrays, degree)


def _corpus_complexes() -> list:
    """(name, arrays) of every algebra complex and operator complex in `corpus/`; an
    algebra without a representation acts on itself."""
    out = []
    for path in sorted(Path(CORPUS).glob("*.json")):
        bundle = parse_bundle(str(path))
        try:
            a = bundle.algebra()
        except SchemaError:
            continue
        try:
            rep = bundle.representation()
        except SchemaError:
            rep = regular_representation(a)
        out.append((f"{path.stem}-algebra", algebra_arrays(a, rep)))
        try:
            out.append((f"{path.stem}-operator", operator_arrays(bundle.reynolds_data())))
        except SchemaError:
            pass
    return out


CORPUS_COMPLEXES = _corpus_complexes()


@pytest.mark.parametrize("name, arrays", CORPUS_COMPLEXES, ids=[n for n, _ in CORPUS_COMPLEXES])
def test_every_corpus_complex_agrees_with_the_row_route(name, arrays):
    for degree in (1, 2, 3, 4):
        assert_routes_agree(arrays, degree)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_random_complexes_agree_with_the_row_route_through_and_past_the_peak(field):
    # dim <= 3, so degrees 4 and 5 lie at and past the peak of the complex:
    # dim C^k = C(n, k - 1) n m falls from k = 3 (n = 2) or k = 4 (n = 3) on
    rng = random.Random(3900 + field.char)
    for _ in range(6):
        a, rep = random_pair(rng, field)
        arrays = algebra_arrays(a, rep)
        for degree in range(1, 6):
            assert_routes_agree(arrays, degree)
        data = random_reynolds_data(rng, field)
        arrays = operator_arrays(data)
        for degree in range(1, 6):
            assert_routes_agree(arrays, degree)


def test_fractional_operators_with_unequal_scales_agree_with_the_row_route():
    # g, H and K fractional, so the frame's ints carry D_g != D_K
    rng = random.Random(3907)
    unequal = 0
    for _ in range(6):
        data = fractional_reynolds_data(rng)
        _, Dg = twisted_rows(data.algebra, data.rep, data.cocycle)
        (_, DK), _ = lift(QQ, (data.operator.data, QQ.one))
        unequal += Dg != DK
        arrays = operator_arrays(data)
        for degree in range(1, 5):
            assert_routes_agree(arrays, degree)
    assert unequal


def _truncated(n: int) -> tuple:
    """The arrays of k[x]/(x^n) over Q acting on itself."""
    a = PreLieAlgebra.build(QQ, n, {(i, j, i + j): 1 for i in range(n) for j in range(n)
                                    if i + j < n})
    return algebra_arrays(a, regular_representation(a))


@pytest.mark.parametrize("n, degree, levels, wide", [
    (3, 4, [1, 2, 3, 4], 3),  # dim C^1..C^4 = 9, 27, 27, 9: d_3 has fewer rows than kept columns
    (4, 5, [4, 5], 4),        # dim C^3..C^5 = 96, 64, 16: k0 = 4 = degree - 1
])
def test_both_branches_of_the_selection_run(monkeypatch, n, degree, levels, wide):
    arrays = _truncated(n)
    expected = rows_cohomology(*arrays, degree)
    built = count_calls(monkeypatch, cochain, "_coboundary_columns")
    ranked = count_calls(monkeypatch, cochain, "integer_rank")
    echeloned = count_calls(monkeypatch, cochain, "_echelon")
    report, _ = integer_cohomology(*arrays, degree)
    assert (report.dim_z, report.dim_b, report.dim_h) == expected
    assert [args[4] for args in built] == levels
    # the wide level and the top take `integer_rank` (which runs `_echelon`),
    # every level below the wide one `_echelon` itself
    assert len(ranked) == 2 and len(echeloned) == wide - levels[0] + 2
    assert len(ranked[0][0]) > cochain_space_dim(n, n, wide + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_truncated_ladder_agrees_with_the_row_route(n):
    # the algebras of the benchmark's cohomology ladder; at n = 5 the tower
    # has four levels below degree 5
    arrays = _truncated(n)
    for degree in range(1, 6):
        assert_routes_agree(arrays, degree)


def test_the_working_scale_rungs_agree_with_the_row_route():
    assert_routes_agree(operator_arrays(_unipotent_operator_data(6)), 4)
    assert_routes_agree(operator_arrays(fractional_ladder_data(6)), 2)


# ---------------------------------------------------------------------------
# d o d = 0 is checked at every level, on every basis column


def _perturbed(arrays, which: int, u: int, t: int, s: int, by: int = 1) -> tuple:
    """``arrays`` with entry (t, s) of action matrix u of L (which = 1) or R (which = 2) moved."""
    arrays = list(arrays)
    action = [[list(row) for row in M] for M in arrays[which]]
    action[u][t][s] += by
    arrays[which] = action
    return tuple(arrays)


def _composite_columns(arrays, k: int) -> tuple:
    """(columns of d_{k-1} by index, the set of them that d_k does not kill), on block rows."""
    c, L, R, m, p = arrays
    prev = block_rows(c, L, R, m, k - 1)
    product = sparse_mul(block_rows(c, L, R, m, k), prev, p)
    columns = {}
    for i, row in enumerate(prev):
        for j, v in row.items():
            if v % p if p else v:
                columns.setdefault(j, {})[i] = v
    return columns, {j for row in product for j in row}


def _breaking_lbar_entries(arrays, degree: int) -> list:
    """The perturbations of one Lbar entry by 1 that the row route flags at ``degree``."""
    out = []
    for u, M in enumerate(arrays[1]):
        for t, row in enumerate(M):
            for s in range(len(row)):
                broken = _perturbed(arrays, 1, u, t, s)
                try:
                    rows_cohomology(*broken, degree)
                except InvariantError:
                    out.append(broken)
    return out


def test_a_perturbed_lbar_is_caught_at_the_level_it_breaks():
    data = parse_bundle(str(Path(CORPUS) / "g3-k-invertible.json")).reynolds_data()
    broken = _breaking_lbar_entries(operator_arrays(data), 2)
    assert broken
    for arrays in broken:
        with pytest.raises(InvariantError, match="^coboundary does not square to zero at degree 2$"):
            integer_cohomology(*arrays, 2)
        # a tower from degree 1 meets the break at level 2 on the way up to 3
        with pytest.raises(InvariantError, match="at degree 2$"):
            integer_cohomology(*arrays, 3)


@pytest.mark.parametrize("degree", [2, 3])
def test_a_break_past_the_first_basis_column_is_caught(degree):
    # perturbed pairs where d_k kills every column of d_{k-1} that leads at
    # the first leading coordinate, but not all of them: a check of the
    # first basis column alone would pass them
    a = truncated_poly_algebra()
    arrays = algebra_arrays(a, regular_representation(a))
    found = 0
    for which in (1, 2):
        for u in range(3):
            for t in range(3):
                for s in range(3):
                    broken = _perturbed(arrays, which, u, t, s)
                    columns, failing = _composite_columns(broken, degree)
                    first = min(min(col) for col in columns.values())
                    if failing and not failing & {j for j, col in columns.items()
                                                  if min(col) == first}:
                        found += 1
                        with pytest.raises(InvariantError, match="square to zero at degree"):
                            integer_cohomology(*broken, degree)
    assert found
