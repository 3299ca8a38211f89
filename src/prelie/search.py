"""Exhaustive search for operators satisfying a registered predicate.

Candidates are dense matrices (or vectors) whose free entries range over
a finite scalar list; enumeration is lexicographic in row-major entry
order, so results are reproducible.

The predicate's own checker is run once, on the *generic candidate*: free
entry k is the polynomial variable x_k (`scalars.Poly`) and fixed entries
keep their scalars.  The checker's arithmetic is polynomial in the
entries, and every checker reports through `algebra.residual_report`,
which keeps each residual with a nonzero coordinate; so each nonzero
residual coordinate is one polynomial equation, and a candidate passes
the checker exactly when every equation vanishes at its entries.  That
needs every registered checker to use only +, - and * on the
candidate's entries and to branch on them only to skip zero terms, which
the checkers here do.  The sweep
evaluates the equations in the field's own scalars, stopping at the
first that does not vanish; every solution is then re-verified through
the predicate's checker before it is returned.

The predicate registry maps an id to a function of the bundle sections
returning the checker (candidate -> `Report`), so new checkers become
searchable without touching the enumeration code.  A registry entry
verifies the fixed bundle data once, when it builds the checker: the
rcw-reynolds entry checks that H is a 2-cocycle there, so its checker,
and with it every solution's re-verification, evaluates only the
Reynolds identity for that verified H.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from .deformation import check_nijenhuis_element
from .errors import BudgetExceededError, InvariantError, ShapeError
from .linalg import Matrix
from .nsprelie import check_nijenhuis
from .reynolds import (
    _require_cocycle,
    _reynolds_report,
    check_d_reynolds,
    check_weighted_reynolds,
)
from .scalars import Poly

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class SearchSpec:
    """A search problem: predicate id, bundle data, shape, and domain.

    ``shape`` is (rows, cols); vectors use cols = 1.  ``fixed`` pins
    entries by 0-based (row, col) position.  ``domain`` is the list of
    scalars each free entry ranges over, in enumeration order.
    """

    predicate: str
    bundle: dict
    shape: tuple
    domain: tuple
    fixed: dict = dc_field(default_factory=dict)
    budget: int = DEFAULT_BUDGET

    def free_positions(self):
        rows, cols = self.shape
        return [(i, j) for i in range(rows) for j in range(cols)
                if (i, j) not in self.fixed]

    def count(self) -> int:
        return len(self.domain) ** len(self.free_positions())


def _candidate(spec: SearchSpec, values, field) -> Matrix:
    """The candidate whose free entries, in row-major order, are ``values``."""
    rows, cols = spec.shape
    entries = [[None] * cols for _ in range(rows)]
    for (i, j), v in spec.fixed.items():
        entries[i][j] = v
    for (i, j), v in zip(spec.free_positions(), values):
        entries[i][j] = v
    return Matrix(field, entries)


# ---------------------------------------------------------------------------
# predicate registry: bundle sections -> checker of one candidate


def _rcw_predicate(bundle):
    """H is checked here, once per search; the checker evaluates only the identity."""
    g, rep, H = bundle["algebra"], bundle["rep"], bundle["cocycle"]
    _require_cocycle(g, rep, H)
    return lambda K: _reynolds_report(g, rep, H, K)


def _weighted_predicate(bundle):
    g, lam = bundle["algebra"], bundle["weight"]
    return lambda K: check_weighted_reynolds(g, K, lam)


def _nijenhuis_predicate(bundle):
    g = bundle["algebra"]
    return lambda N: check_nijenhuis(g, N)


def _d_reynolds_predicate(bundle):
    g, D = bundle["algebra"], bundle["operatorD"]
    return lambda K: check_d_reynolds(g, D, K)


def _nijenhuis_element_predicate(bundle):
    data = bundle["data"]

    def check(x):
        if x.cols != 1:
            raise ShapeError(f"an element is one column, not {x.cols}")
        return check_nijenhuis_element(data, x.column(0))

    return check


PREDICATES = {
    "rcw-reynolds": _rcw_predicate,
    "weighted-reynolds": _weighted_predicate,
    "nijenhuis": _nijenhuis_predicate,
    "d-reynolds": _d_reynolds_predicate,
    "nijenhuis-element": _nijenhuis_element_predicate,
}


def _compile(spec: SearchSpec, field):
    """The checker of ``spec`` and its equations in the free entries.

    The checker runs once on the generic candidate; its nonzero residual
    coordinates are the equations.  A residual that is a nonzero scalar
    becomes a constant polynomial, which no candidate satisfies.
    """
    check = PREDICATES[spec.predicate](spec.bundle)
    one = field.one
    generic = _candidate(spec, [Poly({(k,): one}) for k in range(len(spec.free_positions()))],
                         field)
    residuals = (x if isinstance(x, Poly) else Poly({(): x})
                 for _, residual in check(generic).violations for x in residual if x)
    # one equation per distinct polynomial, in the order the checker found them
    return check, list({frozenset(eq.terms.items()): eq for eq in residuals}.values())


def _vanish(equations, values, zero) -> bool:
    return all(not eq.at(values, zero) for eq in equations)


@dataclass(frozen=True)
class SearchResult:
    solutions: tuple
    count_checked: int
    count_solutions: int


def exhaustive_search(spec: SearchSpec, field) -> SearchResult:
    """Enumerate the whole candidate space and keep verified solutions.

    Solutions come back in lexicographic enumeration order.
    """
    if spec.predicate not in PREDICATES:
        raise ShapeError(f"unknown predicate {spec.predicate!r}")
    rows, cols = spec.shape
    if rows < 1 or cols < 1:
        raise ShapeError(f"shape {rows}x{cols} has no entries")
    outside = sorted(pos for pos in spec.fixed
                     if not (0 <= pos[0] < rows and 0 <= pos[1] < cols))
    if outside:
        raise ShapeError(f"fixed positions {outside} lie outside the {rows}x{cols} shape")
    total = spec.count()
    if total > spec.budget:
        raise BudgetExceededError(
            f"{total} candidates exceed the budget of {spec.budget}")
    check, equations = _compile(spec, field)
    zero = field.zero
    domain = [field(v) for v in spec.domain]
    solutions = []
    for values in product(domain, repeat=len(spec.free_positions())):
        if _vanish(equations, values, zero):
            K = _candidate(spec, values, field)
            if not check(K).ok:
                raise InvariantError(
                    "the compiled equations accepted a candidate the checker rejects")
            solutions.append(K)
    return SearchResult(tuple(solutions), total, len(solutions))
