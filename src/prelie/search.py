"""Exhaustive search for operators satisfying a registered predicate.

Candidates are dense matrices (or vectors) whose free entries range over
a finite scalar list; solutions come out in lexicographic row-major
entry order.

A search runs on Python ints.  One `scalars.lift` takes 1, the domain
and the fixed entries to ints by a common denominator D (over F_p, to
residues, with D = 1).  The predicate's integer core
``check.core(k, one)``, the residuals at the candidate whose rows lifted
by ``one`` are k, runs once, at one = D, on the *generic candidate*:
free entry k is the variable x_k (`scalars.Poly`), an entry lifted by D.
The core uses only +, - and * on the entries, skips zero terms and is
homogeneous in (k, one) (`SIGNS.md`), so each nonzero residual
coordinate, reduced mod p over F_p, is one equation, which a candidate
satisfies exactly when it is 0 (mod p) at its lifted entries.  The free
entries are assigned depth first, in the fail-first order of `_order`;
an equation is tested at the depth that assigns the last of its
variables, and when it fails there the whole subtree is skipped.  Each
solution is re-verified by the core on its ints (``check.core(k, D)``)
and only then built as a matrix.  ``count_checked`` is the number of
candidates the sweep covers, pruned or not; ``nodes`` the number of
prefixes it evaluated, the empty one included.

The registry maps a predicate id to a function of the bundle sections
that returns the checker after all the work on the fixed data (the
rcw-reynolds entry checks H there).  The core does not check shapes:
``check.require_shape(K)`` does, before the compile.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial

from .deformation import _ElementTerms, _element, _element_checker
from .errors import BudgetExceededError, InvariantError, ShapeError
from .linalg import _matrix
from .nsprelie import nijenhuis_checker
from .reynolds import (
    _prepared,
    _require_square,
    d_reynolds_pair,
    rcw_checker,
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


# ---------------------------------------------------------------------------
# predicate registry: bundle sections -> checker of one candidate


def _rcw_predicate(bundle):
    """The fixed data are prepared, and H checked on them, here, once per search."""
    return rcw_checker(bundle["algebra"], bundle["rep"], bundle["cocycle"])


def _weighted_predicate(bundle):
    g = bundle["algebra"]
    return reynolds_checker(g, *weighted_pair(g, bundle["weight"]))


def _nijenhuis_predicate(bundle):
    return nijenhuis_checker(bundle["algebra"])


def _d_reynolds_predicate(bundle):
    g = bundle["algebra"]
    reynolds = reynolds_checker(g, *d_reynolds_pair(g, bundle["operatorD"]))

    def check(K):
        return reynolds(_require_square(g, K))

    check.core, check.require_shape = reynolds.core, partial(_require_square, g)
    return check


def _nijenhuis_element_predicate(bundle):
    # the element maps, when `rigidity_probe` has them, else read off the frames of the
    # bundle's (g, rep, H) a command hands over, else off one preparation here
    data = bundle["data"]
    element = _element_checker(data, bundle.get("terms") or _ElementTerms(
        data, bundle.get("frames") or _prepared(data)))

    def column(x) -> tuple:
        if x.cols != 1:
            raise ShapeError(f"an element is one column, not {x.cols}")
        return x.column(0)

    def check(x):
        return element(column(x))

    check.core = lambda k, one: element.core([row[0] for row in k], one)
    check.require_shape = lambda x: _element(data.algebra, column(x))  # and its length
    return check


PREDICATES = {
    "rcw-reynolds": _rcw_predicate,
    "weighted-reynolds": _weighted_predicate,
    "nijenhuis": _nijenhuis_predicate,
    "d-reynolds": _d_reynolds_predicate,
    "nijenhuis-element": _nijenhuis_element_predicate,
}


def _rows(flat, cols: int) -> tuple:
    """``flat``, row-major, cut into rows of ``cols`` entries."""
    return tuple(zip(*[iter(flat)] * cols))


def _compile(spec: SearchSpec, field) -> tuple:
    """The checker of ``spec``, its equations in the free entries, D, the lifted
    domain and the candidates' row-major template, lifted and on field scalars
    (the fixed entries coerced, 0 elsewhere).  A nonzero constant residual is a
    constant equation, which no candidate satisfies.
    """
    check = PREDICATES[spec.predicate](spec.bundle)
    rows, cols = spec.shape
    template = [field(spec.fixed.get((i, j), 0)) for i in range(rows) for j in range(cols)]
    check.require_shape(_matrix(field, _rows(template, cols), cols))
    (D, values, ints), _ = lift(field, (field.one, [field(v) for v in spec.domain], template))
    generic = list(ints)
    for k, (i, j) in enumerate(spec.free_positions()):
        generic[i * cols + j] = Poly({(k,): 1})
    p = field.char
    equations = {}  # one per distinct polynomial, in the order the core found them
    for _, residual in check.core(_rows(generic, cols), D):
        for x in residual:
            if x:
                eq = x if isinstance(x, Poly) else Poly({(): x})
                if p:
                    eq = eq.map(lambda c: c % p)
                if eq:
                    equations.setdefault(frozenset(eq.terms.items()), eq)
    return check, list(equations.values()), D, values, ints, template


def _order(equations, n_free: int) -> list:
    """The free variables in the order the sweep assigns them: fail first.

    The next variable is the one that completes the most equations, ties
    going to the one in the most equations, then to the lowest index, so
    with no equation the order is row-major.  The counts of completed
    equations are kept up to date as variables are placed.
    """
    unassigned = [{v for mono in eq.terms for v in mono} for eq in equations]
    occurs = [[] for _ in range(n_free)]
    completes = [0] * n_free
    for e, variables in enumerate(unassigned):
        for v in variables:
            occurs[v].append(e)
        if len(variables) == 1:
            completes[next(iter(variables))] += 1
    order, left = [], list(range(n_free))
    while left:
        v = min(left, key=lambda w: (-completes[w], -len(occurs[w]), w))
        left.remove(v)
        order.append(v)
        for e in occurs[v]:
            variables = unassigned[e]
            variables.discard(v)
            if len(variables) == 1:
                completes[next(iter(variables))] += 1
    return order


def _lower(equations, position) -> list:
    """The equations as tuples of (coefficient, positions) terms, grouped by the depth
    that completes them.

    x_v is the sweep's variable ``position[v]``; ``levels[k]`` holds the
    equations whose last variable is at position k - 1 (``levels[0]`` the
    constant ones).
    """
    levels = [[] for _ in range(len(position) + 1)]
    for eq in equations:
        terms = tuple((c, tuple(position[v] for v in mono)) for mono, c in eq.terms.items())
        levels[max((k + 1 for _, at in terms for k in at), default=0)].append(terms)
    return levels


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
    check, equations, D, values, ints, template = _compile(spec, field)
    order = _order(equations, spec.free_count())
    position = sorted(range(len(order)), key=order.__getitem__)  # order[position[v]] = v
    p = field.char
    found, nodes = _sweep(_lower(equations, position), values, p)
    free = [i * cols + j for i, j in spec.free_positions()]
    solutions = []
    for choice in sorted(tuple(choice[k] for k in position) for choice in found):
        k, K = list(ints), list(template)
        for at, j in zip(free, choice):
            k[at], K[at] = values[j], domain[j]
        if any(x % p if p else x for _, r in check.core(_rows(k, cols), D) for x in r):
            raise InvariantError(
                "the compiled equations accepted a candidate the checker rejects")
        solutions.append(_matrix(field, _rows(K, cols), cols))
    return SearchResult(tuple(solutions), total, len(solutions), nodes)
