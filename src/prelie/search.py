"""Exhaustive search for operators satisfying a registered predicate.

Candidates are dense matrices (or vectors) whose free entries range over
a finite scalar list; solutions come out in lexicographic row-major
entry order, so results are reproducible.

The predicate's own checker is run once, on the *generic candidate*: free
entry k is the polynomial variable x_k (`scalars.Poly`) and fixed entries
keep their scalars.  The checker's arithmetic is polynomial in the
entries, and every checker reports through `algebra.residual_report`,
which keeps each residual with a nonzero coordinate; so each nonzero
residual coordinate is one polynomial equation, and a candidate passes
the checker exactly when every equation vanishes at its entries.  That
needs every registered checker to use only +, - and * on the
candidate's entries and to branch on them only to skip zero terms, which
the checkers here do.

The sweep runs on Python ints.  One `scalars.lift` takes the equations'
coefficients and the domain to ints by a common denominator D (over F_p,
to residues, with D = 1), and each term is homogenised to its equation's
top degree T by a factor D^(T - degree); an equation then holds exactly
when its integer sum is 0 (over F_p, 0 mod p).  The free entries are
assigned depth first, each running through the domain in order, in the
fail-first order of `_order`.  An equation is tested at the depth that
assigns the last of its variables, and when it fails there no completion
of that prefix can pass, so the whole subtree is skipped.  The solutions
are mapped back to row-major entries and sorted, and each is re-verified
through the predicate's checker before it is returned.
``count_checked`` is the number of candidates the sweep covers, pruned
or not; ``nodes`` is the number of prefixes (in the sweep's order) it
evaluated, the empty one included.

The predicate registry maps an id to a function of the bundle sections
returning the checker (candidate -> `Report`), so new checkers become
searchable without touching the enumeration code.  A registry entry
runs once per search and does there all the work on the fixed bundle
data: the rcw-reynolds entry checks that H is a 2-cocycle, and it and
the weighted-reynolds and d-reynolds entries (on the regular
representation) return `reynolds.reynolds_checker`; the nijenhuis entry
returns `nsprelie.nijenhuis_checker`.  The generic candidate and each
solution then cost one lift of the candidate and one integer
evaluation; the nijenhuis-element entry returns the element checker,
whose maps are read once per search at the basis of g and whose
morphism checker is prepared once too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from heapq import heapify, heappop, heappush

from .deformation import _element_checker, _element_terms
from .errors import BudgetExceededError, InvariantError, ShapeError
from .linalg import Matrix, _matrix
from .nsprelie import nijenhuis_checker
from .reynolds import (
    _require_cocycle,
    _require_square,
    d_reynolds_pair,
    reynolds_checker,
    weighted_pair,
)
from .scalars import Poly, lift

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

    def free_count(self) -> int:
        """The number of free entries, without listing their positions."""
        rows, cols = self.shape
        return rows * cols - len(self.fixed)

    def count(self) -> int:
        return len(self.domain) ** self.free_count()


def _candidates(spec: SearchSpec, field):
    """values -> the candidate whose free entries, in row-major order, are ``values``.

    The fixed entries are coerced once; ``values`` are placed as given.
    """
    rows, cols = spec.shape
    template = [[None] * cols for _ in range(rows)]
    for (i, j), v in spec.fixed.items():
        template[i][j] = field(v)
    free = spec.free_positions()

    def candidate(values) -> Matrix:
        entries = [row[:] for row in template]
        for (i, j), v in zip(free, values):
            entries[i][j] = v
        return _matrix(field, tuple(map(tuple, entries)), cols)

    return candidate


def _candidate(spec: SearchSpec, values, field) -> Matrix:
    """The candidate whose free entries, in row-major order, are ``values``."""
    return _candidates(spec, field)(values)


# ---------------------------------------------------------------------------
# predicate registry: bundle sections -> checker of one candidate


def _rcw_predicate(bundle):
    """H is checked and the fixed data prepared here, once per search."""
    g, rep, H = bundle["algebra"], bundle["rep"], bundle["cocycle"]
    _require_cocycle(g, rep, H)
    return reynolds_checker(g, rep, H)


def _weighted_predicate(bundle):
    g = bundle["algebra"]
    return reynolds_checker(g, *weighted_pair(g, bundle["weight"]))


def _nijenhuis_predicate(bundle):
    return nijenhuis_checker(bundle["algebra"])


def _d_reynolds_predicate(bundle):
    g = bundle["algebra"]
    check = reynolds_checker(g, *d_reynolds_pair(g, bundle["operatorD"]))
    return lambda K: check(_require_square(g, K))


def _nijenhuis_element_predicate(bundle):
    data = bundle["data"]  # with the element maps, when `deformation._elements` has them
    element = _element_checker(data, bundle.get("terms") or _element_terms(data))

    def check(x):
        if x.cols != 1:
            raise ShapeError(f"an element is one column, not {x.cols}")
        return element(x.column(0))

    return check


PREDICATES = {
    "rcw-reynolds": _rcw_predicate,
    "weighted-reynolds": _weighted_predicate,
    "nijenhuis": _nijenhuis_predicate,
    "d-reynolds": _d_reynolds_predicate,
    "nijenhuis-element": _nijenhuis_element_predicate,
}


def _compile(spec: SearchSpec, field, candidate=None):
    """The checker of ``spec`` and its equations in the free entries.

    The checker runs once on the generic candidate (built by ``candidate``);
    its nonzero residual coordinates are the equations.  A residual that
    is a nonzero scalar becomes a constant polynomial, which no candidate
    satisfies.
    """
    check = PREDICATES[spec.predicate](spec.bundle)
    one = field.one
    generic = (candidate or _candidates(spec, field))(
        [Poly({(k,): one}) for k in range(spec.free_count())])
    residuals = (x if isinstance(x, Poly) else Poly({(): x})
                 for _, residual in check(generic).violations for x in residual if x)
    # one equation per distinct polynomial, in the order the checker found them
    return check, list({frozenset(eq.terms.items()): eq for eq in residuals}.values())


def _order(equations, n_free: int) -> list:
    """The free variables in the order the sweep assigns them: fail first.

    The next variable is the one that completes the most equations, ties
    going to the one in the most equations, then to the lowest index, so
    with no equation the order is row-major.  A heap with lazy entries
    keeps the cost O((n + terms) log n).
    """
    unassigned = [{v for mono in eq.terms for v in mono} for eq in equations]
    occurs = [[] for _ in range(n_free)]
    completes = [0] * n_free
    for e, variables in enumerate(unassigned):
        for v in variables:
            occurs[v].append(e)
        if len(variables) == 1:
            completes[next(iter(variables))] += 1
    heap = [(-completes[v], -len(occurs[v]), v) for v in range(n_free)]
    heapify(heap)
    order, placed = [], [False] * n_free
    while heap:
        done, _, v = heappop(heap)
        if placed[v] or -done != completes[v]:  # a stale entry
            continue
        placed[v] = True
        order.append(v)
        for e in occurs[v]:
            variables = unassigned[e]
            variables.discard(v)
            if len(variables) == 1:
                (w,) = variables
                completes[w] += 1
                heappush(heap, (-completes[w], -len(occurs[w]), w))
    return order


def _lower(equations, domain, field, position):
    """The equations as integer terms, grouped by the depth that completes them.

    Returns ``levels`` and the lifted domain.  x_v is the sweep's
    variable ``position[v]``; ``levels[k]`` holds the equations whose
    last variable is at position k - 1 (``levels[0]`` the constant ones),
    each as a tuple of (integer coefficient, positions) terms homogenised
    to the equation's top degree, as the module docstring describes.
    """
    (D, values, lifted), _ = lift(field, (field.one, domain, equations))
    levels = [[] for _ in range(len(position) + 1)]
    for eq in lifted:
        top = max(map(len, eq.terms))
        terms = tuple((c * D ** (top - len(mono)), tuple(position[v] for v in mono))
                      for mono, c in eq.terms.items())
        levels[max((k + 1 for _, at in terms for k in at), default=0)].append(terms)
    return levels, values


def _sweep(levels, values, p):
    """Every assignment of ``values`` to the positions under which all equations hold.

    Returns each as a tuple of indices into ``values``, by position, in
    lexicographic order, and the number of prefixes evaluated.  A prefix
    of length k evaluates ``levels[k]``; if one of those equations fails,
    no assignment that extends the prefix is visited.
    """
    n = len(levels) - 1
    point = [0] * n

    def holds(equations):
        for terms in equations:
            s = 0
            for c, mono in terms:
                for i in mono:
                    c *= point[i]
                s += c
            if s % p if p else s:
                return False
        return True

    if not holds(levels[0]):
        return [], 1
    if not n:
        return [()], 1
    found, nodes = [], 1
    choice = [-1] * n
    k = 0
    while k >= 0:
        j = choice[k] + 1
        if j == len(values):
            choice[k] = -1
            k -= 1
            continue
        choice[k] = j
        point[k] = values[j]
        nodes += 1
        if holds(levels[k + 1]):
            if k + 1 == n:
                found.append(tuple(choice))
            else:
                k += 1
    return found, nodes


def domain_scalars(field, domain) -> tuple:
    """``domain`` coerced into ``field``; a repeated scalar raises `ShapeError`.

    A repeat would enumerate the same candidates more than once.
    """
    scalars = tuple(field(v) for v in domain)
    if len(set(scalars)) != len(scalars):
        raise ShapeError(f"the domain repeats a scalar of {field!r}")
    return scalars


@dataclass(frozen=True)
class SearchResult:
    """Verified solutions, the candidates covered and the prefixes the sweep evaluated."""

    solutions: tuple
    count_checked: int
    count_solutions: int
    nodes: int


def exhaustive_search(spec: SearchSpec, field) -> SearchResult:
    """Sweep the whole candidate space and keep verified solutions.

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
    domain = domain_scalars(field, spec.domain)
    total = spec.count()
    if total > spec.budget:
        # d^k, not its digits: the count can run to thousands of them
        raise BudgetExceededError(f"{len(domain)}^{spec.free_count()} candidates "
                                  f"exceed the budget of {spec.budget}")
    candidate = _candidates(spec, field)
    check, equations = _compile(spec, field, candidate)
    order = _order(equations, spec.free_count())
    position = sorted(range(len(order)), key=order.__getitem__)  # order[position[v]] = v
    levels, values = _lower(equations, domain, field, position)
    found, nodes = _sweep(levels, values, field.char)
    solutions = []
    for choice in sorted(tuple(choice[k] for k in position) for choice in found):
        K = candidate([domain[j] for j in choice])
        if not check(K).ok:
            raise InvariantError(
                "the compiled equations accepted a candidate the checker rejects")
        solutions.append(K)
    return SearchResult(tuple(solutions), total, len(solutions), nodes)
