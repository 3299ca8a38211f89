"""Pre-Lie algebras, representations, and their axiom checkers.

A pre-Lie algebra is given by structure constants c[i][j][k] with
e_i . e_j = sum_k c[i][j][k] e_k, and the defining identity is that the
associator (x.y).z - x.(y.z) is symmetric in x, y.  All axioms are checked
on basis tuples; multilinearity extends them to the whole space.

Checkers accept raw tensors and return a `Report` listing every violated
tuple with its residual vector.  Every checker in the package states its
identity once, as a stream of (where, residual) pairs, and hands the
stream to `residual_report`, which keeps the nonzero residuals in order.
The constructors of `PreLieAlgebra` and `Representation` verify by
default, so any instance passed around the package has survived its
axioms.

The pre-Lie identity is written once, in `prelie_defects`, in
commutator form [a,b].c - a.(b.c) + b.(a.c).  A checker passes at once
when every defect of its one pass is 0, else reads its violations off
them.  A representation (V; L, R) is exactly an action that makes the
semidirect product g + V of `semidirect_tensor` pre-Lie, and an
NS-pre-Lie structure is one on a twisted semidirect product
(`nsprelie.check_ns_prelie`), so `check_prelie`, `check_representation`
and `check_ns_prelie` each read the one kernel at their own basis
triples and coordinates.

The morphism identity F(a).F(b) = F(a.b) is written once, in
`morphism_defects`, on the integer lift, for `check_morphism` and
`reynolds.morphism_checker`: the tables are lifted by D, the map by D_F,
and a residual F(a.b) - F(a).F(b) comes back divided by D D_F^2.
A `Representation` only holds its action matrices; actions on vectors
are read off the frames of `reynolds.operator_frames`.

The axiom checkers `check_prelie`, `check_jacobi`, `check_representation`
and `nsprelie.check_ns_prelie` lift the constants they read with one
`scalars.lift` (one denominator D over Q, residues over F_p), evaluate
on the ints and map only nonzero residuals back (`lifted_report`): of
degree 2 in the constants (antisymmetry 1), a residual r is r / D^2
(r / D) over Q and r mod p over F_p.  `prelie_report` and
`representation_report` start from arrays already lifted; `pair_reports`
gives both off one pass, as `opcohomology` reads them off an operator's
frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import (
    DimensionMismatchError,
    InvariantError,
    NoUnitError,
    ShapeError,
    UnverifiedError,
)
from .linalg import Matrix, _matrix, add_vec, is_zero_vec, neg_vec, sub_vec
from .scalars import descend, lift, scalar_to_str


@dataclass
class Report:
    """Outcome of an axiom check: pass/fail plus every violated tuple.

    ``violations`` holds (where, residual) pairs; ``where`` identifies the
    basis tuple (0-based indices, with string labels and `Order` powers
    of t beside them) and ``residual`` is the nonzero defect vector.
    ``parts`` carries named sub-verdicts for multi-condition checks.
    """

    ok: bool
    violations: list = dc_field(default_factory=list)
    parts: Optional[dict] = None

    def describe(self) -> str:
        if self.ok:
            return "pass"
        lines = [f"fail ({len(self.violations)} violations)"]
        for where, residual in self.violations[:10]:
            res = "(" + ", ".join(scalar_to_str(x) for x in residual) + ")"
            lines.append(f"  at {where}: residual {res}")
        return "\n".join(lines)


class Order(int):
    """A power of t in a violation's ``where``: an order, not a basis index."""

    __slots__ = ()


def residual_report(pairs) -> Report:
    """The report of the nonzero (where, residual) pairs, kept in order."""
    violations = [(where, r) for where, r in pairs if not is_zero_vec(r)]
    return Report(not violations, violations)


def lifted_report(pairs, back) -> Report:
    """`residual_report` of lifted int residuals, ``back`` mapping only the nonzero ones."""
    return residual_report((where, back(r)) for where, r in pairs if any(r))


def _combine(parts: dict) -> Report:
    ok = all(r.ok for r in parts.values())
    violations = [v for r in parts.values() for v in r.violations]
    return Report(ok, violations, parts=parts)


class _Tensor(tuple):
    """A tensor coerced into ``field`` by `_as_tensor`, or by `bundle._parse_scalar`, the
    one coercion on a bundle file's path."""

    def __new__(cls, planes, field):
        self = super().__new__(cls, (tuple(map(tuple, plane)) for plane in planes))
        self.field = field
        return self


def _coerced(field, tensor):
    """``tensor`` if a `_Tensor` of ``field``, else `_as_tensor` of it."""
    same = type(tensor) is _Tensor and tensor.field == field
    return tensor if same else _as_tensor(field, tensor)


def _as_tensor(field, tensor):
    """Validate and coerce a cubical n*n*n structure-constant tensor."""
    n = len(tensor)
    out = []
    for i, plane in enumerate(tensor):
        if len(plane) != n:
            raise ShapeError(f"tensor not cubical at row {i}")
        rows = []
        for j, row in enumerate(plane):
            if len(row) != n:
                raise ShapeError(f"tensor not cubical at ({i},{j})")
            rows.append([field(x) for x in row])
        out.append(rows)
    return _Tensor(out, field)


def semidirect_rows(product, dim_v, L, R, H=None) -> list:
    """The nonzero rows (`nonzero_rows`) of the twisted product on g + V:

        (x,u) . (y,v) = (x.y, L_x v + R_y u + H(x,y)).

    ``product`` is the n*n*n tensor of g, ``dim_v`` is dim V, ``L`` and
    ``R`` are the n action matrices on V as lists of rows, and ``H`` is
    the n*n table of the vectors H(e_i, e_j), or None (or empty) for H = 0.
    The entries are read straight off these arrays, field scalars or
    lifted ints, without a dense tensor.
    """
    n, m = len(product), dim_v

    def nonzero(pairs, shift=0):
        return [(shift + k, x) for k, x in pairs if x]

    rows = [[nonzero(enumerate(product[i][j])) + (nonzero(enumerate(H[i][j]), n) if H else [])
             for j in range(n)]
            + [nonzero(enumerate(col), n) for col in zip(*L[i])]
            for i in range(n)]
    right = [list(zip(*M)) for M in R]  # the columns of each R_i
    return rows + [[nonzero(enumerate(col[u]), n) for col in right] + [[]] * m
                   for u in range(m)]


def semidirect_tensor(product, dim_v, L, R, H=None, zero=0) -> list:
    """The structure constants of `semidirect_rows` (raw, unchecked), absent entries ``zero``.

    With the field's zero every entry is a field scalar already, which
    `PreLieAlgebra` keeps as it is; the default, the int 0, is coerced there.
    """
    rows = semidirect_rows(product, dim_v, L, R, H)
    return [[[dict(row).get(k, zero) for k in range(len(rows))] for row in plane]
            for plane in rows]


def nonzero_rows(tensor) -> list:
    """The nonzero entries of each row of a structure-constant tensor, as (k, c) pairs."""
    return [[[(k, x) for k, x in enumerate(row) if x] for row in plane] for plane in tensor]


def nonzero_columns(F, dim: int) -> list:
    """The nonzero entries of each of the ``dim`` columns of a matrix given by its rows,
    as (row, entry) pairs."""
    return [[(t, row[a]) for t, row in enumerate(F) if row[a]] for a in range(dim)]


def nonzero_entries(rows) -> list:
    """The nonempty rows of `nonzero_rows` as (i, j, row) triples, in (i, j) order."""
    return [(i, j, row) for i, plane in enumerate(rows) for j, row in enumerate(plane) if row]


def int_basis(count: int, dim: int) -> list:
    """The first ``count`` unit vectors of Z^dim, as tuples of ints."""
    return [(0,) * i + (1,) + (0,) * (dim - i - 1) for i in range(count)]


def family_products(entries, left, right) -> list:
    """The table [[x.y for y in right] for x in left], each product a list of ints.

    ``entries`` are the `nonzero_entries` of a tensor of ints and ``left``,
    ``right`` two families of its coordinate vectors (ints, or `scalars.Poly`
    with int coefficients).  One pass over the entries: at (i, j, row),
    every nonzero x_i of a left vector x times every nonzero y_j of a right
    vector y adds x_i y_j row into x.y, so no pair is visited on its own.
    """
    if not left or not right:
        return [[] for _ in left]
    dim = len(left[0])

    def nonzero_at(family):  # coordinate i -> the (vector index, nonzero coordinate) pairs
        at = [[] for _ in range(dim)]
        for a, x in enumerate(family):
            for i, xi in enumerate(x):
                if xi:
                    at[i].append((a, xi))
        return at

    at_left = nonzero_at(left)
    at_right = at_left if right is left else nonzero_at(right)
    out = [[[0] * dim for _ in right] for _ in left]
    for i, j, row in entries:
        ys = at_right[j]
        if ys:
            for a, x in at_left[i]:
                products = out[a]
                for b, y in ys:
                    c, w = x * y, products[b]
                    for t, z in row:
                        w[t] += c * z
    return out


def prelie_defects(rows, triples, start):
    """[a,b].c - a.(b.c) + b.(a.c) at each basis triple (a, b, c).

    The one evaluation of the pre-Lie identity, (a.b).c - a.(b.c) -
    (b.a).c + b.(a.c) in commutator form.  ``rows`` are the `nonzero_rows`
    of a tensor of ints; each residual is yielded as a list of ints, its
    coordinates ``start`` onwards, homogeneous of degree 2 in the
    constants.  The row of [a,b] is built once per pair and read for every c.
    """
    dim = len(rows)
    tails = rows if not start else [[[(k - start, x) for k, x in row if k >= start]
                                     for row in plane] for plane in rows]
    brackets = {}
    for a, b, c in triples:
        ab = brackets.get((a, b))
        if ab is None:
            w = dict(rows[a][b])
            for k, x in rows[b][a]:
                w[k] = w.get(k, 0) - x
            ab = brackets[a, b] = [(k, x) for k, x in w.items() if x]
        out = [0] * (dim - start)
        for k, x in ab:  # [a,b].c
            for t, y in tails[k][c]:
                out[t] += x * y
        for k, x in rows[b][c]:  # a.(b.c)
            for t, y in tails[a][k]:
                out[t] -= x * y
        for k, x in rows[a][c]:  # b.(a.c)
            for t, y in tails[b][k]:
                out[t] += x * y
        yield out


def check_prelie(field, tensor) -> Report:
    """Pre-Lie identity on all basis triples of a raw tensor.

    Passes iff (ei.ej).ek - ei.(ej.ek) = (ej.ei).ek - ej.(ei.ek) for every
    (i, j, k); failures carry the residual vector of the difference.
    """
    (t,), down = lift(field, (_coerced(field, tensor),))
    return prelie_report(t, lambda r: down(r, 2))


def _prelie_triples(n: int) -> list:
    """The triples (i, j, k), i < j, at which the pre-Lie identity is read: it is
    symmetric in (i, j), and i == j is trivial."""
    r = range(n)
    return [(i, j, k) for i in r for j in r[i + 1:] for k in r]


def prelie_report(t, back) -> Report:
    """`check_prelie` on lifted constants, ``back`` mapping residuals to the field."""
    triples = _prelie_triples(len(t))
    return _prelie_violations(triples, list(prelie_defects(nonzero_rows(t), triples, 0)), back)


def _prelie_violations(triples, defects, back) -> Report:
    """The `prelie_report` of the ``defects`` at ``triples``."""
    return lifted_report(zip(triples, defects), back) if any(map(any, defects)) else Report(True)


def minus_defects(rows, triples, start: int):
    """(a, b, c) -> minus the pre-Lie defect there, off one `prelie_defects` pass over
    ``triples``, a < b: (b, a, c) reads the negative, the defect being antisymmetric.
    None if every defect vanishes."""
    return _minus(triples, list(prelie_defects(rows, triples, start)))


def _minus(triples, defects):
    """`minus_defects` on the ``defects`` at ``triples``."""
    if not any(map(any, defects)):
        return None
    defects = dict(zip(triples, defects))
    return lambda a, b, c: [-x for x in defects[a, b, c]] if a < b else defects[b, a, c]


def _unit_report(field, t, u, D) -> Report:
    """u.e_i - e_i and e_i.u - e_i at each basis index i, on the product t and u lifted
    together (D): D^2 times their field values, mapped back by D^2 (over F_p, mod p)."""
    n, s, entries = len(t), D * D, nonzero_entries(nonzero_rows(t))
    e = int_basis(n, n)
    (left,), right = family_products(entries, [u], e), family_products(entries, e, [u])
    return lifted_report(
        (((side, i), [x - s if k == i else x for k, x in enumerate(w)])
         for i in range(n) for side, w in (("left", left[i]), ("right", right[i][0]))),
        descend(field, s))


class PreLieAlgebra:
    """A finite-dimensional pre-Lie algebra given by structure constants."""

    __slots__ = ("field", "dim", "product", "unit", "labels")

    def __init__(self, field, product, unit=None, labels=None, *, check: bool = True):
        product = _coerced(field, product)
        if unit is not None:
            unit = tuple(field(x) for x in unit)
        if check:
            # one lift of (product, unit) serves both checks
            if unit is None:
                report = check_prelie(field, product)
            else:
                (t, u, D), down = lift(field, (product, unit, field.one))
                report = prelie_report(t, lambda r: down(r, 2))
            if not report.ok:
                raise UnverifiedError(
                    "structure constants fail the pre-Lie identity:\n" + report.describe())
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", len(product))
        object.__setattr__(self, "product", product)
        if unit is not None:
            if len(unit) != len(product):
                raise ShapeError("unit vector has wrong length")
            if check and not _unit_report(field, t, u, D).ok:
                raise UnverifiedError("declared unit is not a two-sided unit")
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "labels", tuple(labels) if labels else None)

    def __setattr__(self, name, value):
        raise AttributeError("PreLieAlgebra is immutable")

    @classmethod
    def build(cls, field, dim: int, entries, unit=None, labels=None):
        """Verified algebra from sparse entries {(i, j, k): c} (0-based indices)."""
        z = field.zero
        tensor = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), c in entries.items():
            tensor[i][j][k] = field(c)
        return cls(field, tensor, unit=unit, labels=labels)

    def __eq__(self, other):
        if not isinstance(other, PreLieAlgebra):
            return NotImplemented
        return (self.field == other.field and self.product == other.product
                and self.unit == other.unit)

    def __hash__(self):
        return hash((self.dim, self.product))

    def require_unit(self) -> tuple:
        if self.unit is None:
            raise NoUnitError("operation requires a unital algebra")
        return self.unit


def subadjacent_lie(a: PreLieAlgebra):
    """Structure constants of the commutator bracket [x,y] = x.y - y.x.

    The output is antisymmetric and satisfies the Jacobi identity whenever
    the input is a verified pre-Lie algebra; `check_jacobi` re-verifies it.
    """
    n = a.dim
    bracket = tuple(tuple(sub_vec(a.product[i][j], a.product[j][i]) for j in range(n))
                    for i in range(n))
    report = check_jacobi(a.field, bracket)
    if not report.ok:
        raise InvariantError("the commutator bracket is not a Lie bracket:\n"
                             + report.describe())
    return bracket


def check_jacobi(field, bracket_tensor) -> Report:
    """Antisymmetry and Jacobi identity for a raw bracket tensor."""
    (t,), down = lift(field, (_as_tensor(field, bracket_tensor),))
    n, r = len(t), range(len(t))
    # outer[i][j n + k] = [e_i, [e_j, e_k]], all in one scatter
    outer = family_products(nonzero_entries(nonzero_rows(t)), int_basis(n, n),
                            [t[j][k] for j in r for k in r])

    def jacobiator(i, j, k):
        return [a + b + c for a, b, c in
                zip(outer[i][j * n + k], outer[j][k * n + i], outer[k][i * n + j])]

    antisym = lifted_report(((("antisym", i, j), add_vec(t[i][j], t[j][i]))
                             for i in r for j in r), lambda x: down(x, 1))
    jacobi = lifted_report(((("jacobi", i, j, k), jacobiator(i, j, k))
                            for i in r for j in r for k in r), lambda x: down(x, 2))
    return Report(antisym.ok and jacobi.ok, antisym.violations + jacobi.violations)


def check_representation(algebra: PreLieAlgebra, dim_v: int, L, R) -> Report:
    """Both representation identities on all pairs of algebra basis elements.

    For every x, y in the algebra basis (as m x m matrices acting on V):
        L_x L_y - L_{x.y} = L_y L_x - L_{y.x}
        L_x R_y - R_y L_x = R_{x.y} - R_y R_x
    Violations are reported per (identity, x, y, u) with u a V-basis index.

    Together they say that g + V (`semidirect_tensor`) is pre-Lie: the
    V-part of its defect is minus the "left" defect at (x, y, u) and minus
    the "mixed" one at (x, u, y), its g-part is g's own identity, and
    triples with two entries in V give 0 (`representation_report`).
    """
    n = algebra.dim
    if len(L) != n or len(R) != n:
        raise ShapeError(f"need {n} action matrices, got {len(L)} and {len(R)}")
    for M in list(L) + list(R):
        if M.rows != dim_v or M.cols != dim_v:
            raise ShapeError(f"action matrix is {M.rows}x{M.cols}, expected {dim_v}x{dim_v}")
    (c, L, R), down = lift(algebra.field, (algebra.product, [M.data for M in L],
                                           [M.data for M in R]))
    return representation_report(c, dim_v, L, R, lambda r: down(r, 2))


def _action_triples(n: int, dim_v: int) -> list:
    """The triples of g + V (dim g = n) at which `representation_report` reads the
    defect: the left ones (x, y, u), x < y, then the mixed ones (x, u, y)."""
    r, vs = range(n), range(dim_v)
    return ([(i, j, n + u) for i in r for j in r[i + 1:] for u in vs]
            + [(i, n + u, j) for i in r for j in r for u in vs])


def representation_report(c, dim_v: int, L, R, back) -> Report:
    """`check_representation` on lifted arrays, ``back`` as in `prelie_report`.

    The left identity is antisymmetric in (x, y) (`SIGNS.md`): it is read at x < y only.
    """
    n = len(c)
    triples = _action_triples(n, dim_v)
    defects = list(prelie_defects(semidirect_rows(c, dim_v, L, R), triples, n))
    return _action_violations(n, dim_v, triples, defects, back)


def _action_violations(n: int, dim_v: int, triples, defects, back) -> Report:
    """The `representation_report` of the V-parts ``defects`` at `_action_triples`."""
    minus, r, vs = _minus(triples, defects), range(n), range(dim_v)
    return Report(True) if minus is None else lifted_report(
        (((name, i, j, u), minus(i, j, n + u) if name == "left" else minus(i, n + u, j))
         for i in r for j in r for u in vs
         for name in ("left", "mixed") if name == "mixed" or i != j), back)


def pair_reports(c, dim_v: int, L, R, back) -> tuple:
    """(`prelie_report` of c, `representation_report` of (L, R)), off one `prelie_defects`
    pass over the rows of the semidirect product c + V.

    The pass reads the triples of c (`_prelie_triples`), then the left
    and the mixed ones (`_action_triples`); a triple of c has its defect
    on c, an action triple on V.  When every defect vanishes no report
    is built.
    """
    n = len(c)
    own, actions = _prelie_triples(n), _action_triples(n, dim_v)
    defects = list(prelie_defects(semidirect_rows(c, dim_v, L, R), own + actions, 0))
    if not any(map(any, defects)):
        return Report(True), Report(True)
    split = len(own)
    return (_prelie_violations(own, [d[:n] for d in defects[:split]], back),
            _action_violations(n, dim_v, actions, [d[n:] for d in defects[split:]], back))


class Representation:
    """Actions (L, R) of a pre-Lie algebra on a module V."""

    __slots__ = ("algebra", "dim_v", "L", "R")

    def __init__(self, algebra: PreLieAlgebra, dim_v: int, L, R, *, check: bool = True):
        L = tuple(L)
        R = tuple(R)
        if check:
            report = check_representation(algebra, dim_v, L, R)
            if not report.ok:
                raise UnverifiedError(
                    "actions fail the representation identities:\n" + report.describe())
        else:
            if len(L) != algebra.dim or len(R) != algebra.dim:
                raise ShapeError("wrong number of action matrices")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dim_v", dim_v)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "R", R)

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (self.algebra == other.algebra and self.dim_v == other.dim_v
                and self.L == other.L and self.R == other.R)

    @property
    def field(self):
        return self.algebra.field


def action_arrays(a: PreLieAlgebra, rep: Representation) -> tuple:
    """The structure constants of a and the rows of rep's action matrices L and R."""
    return a.product, [M.data for M in rep.L], [M.data for M in rep.R]


def regular_representation(a: PreLieAlgebra) -> Representation:
    """The algebra acting on itself, off the table: L_i e_j = e_i.e_j, R_i e_j = e_j.e_i."""
    c, n = a.product, a.dim
    L = [_matrix(a.field, tuple(zip(*c[i])), n) for i in range(n)]
    R = [_matrix(a.field, tuple(zip(*(c[j][i] for j in range(n)))), n) for i in range(n)]
    return Representation(a, n, L, R, check=False)


def check_derivation(a: PreLieAlgebra, d: Matrix) -> Report:
    """d(x.y) = d(x).y + x.d(y) on all basis pairs.

    A derivation is a 1-cocycle of the regular representation: with
    (dD)(x, y) = x.D(y) + D(x).y - D(x.y), the residual at (i, j) is
    -dD at the key ((i,), j).
    """
    from .cochain import Cochain, coboundary

    if d.rows != a.dim or d.cols != a.dim:
        raise ShapeError(f"derivation candidate is {d.rows}x{d.cols}, algebra dim {a.dim}")
    dD = coboundary(a, regular_representation(a), Cochain.from_matrix(d))
    return residual_report(((fb[0], last), neg_vec(v))
                           for (fb, last), v in zip(dD.keys(), dD.values))


def morphism_defects(source, target, cols, one, pairs):
    """one F(a.b) - F(a).F(b) at each pair (a, b) of source basis indices, on ints.

    The one evaluation of a morphism identity in the package.  ``source``
    and ``target`` are the nonzero rows (`nonzero_rows`) of two lifted
    structure-constant tensors, ``cols`` the `nonzero_columns` of a lifted
    linear map F between their spaces (entries of a column that name one
    row twice add) and ``one`` its denominator, so each residual, a list of
    ints (or int `scalars.Poly`) on the target basis, is homogeneous: it is
    D D_F^2 times F(a.b) - F(a).F(b), for tensors lifted by D and F by
    D_F = ``one`` (`SIGNS.md`); ``one`` = 0 leaves -F(a).F(b).  `check_morphism`
    and `reynolds.morphism_checker` read it.
    """
    dim = len(target)
    for a, b in pairs:
        out = [0] * dim
        if one:
            for k, x in source[a][b]:  # one F(a.b)
                x = one * x
                for t, y in cols[k]:
                    out[t] += x * y
        for i, x in cols[a]:  # F(a).F(b)
            plane = target[i]
            for j, y in cols[b]:
                c = x * y
                for t, z in plane[j]:
                    out[t] -= c * z
        yield out


def check_morphism(a: PreLieAlgebra, b: PreLieAlgebra, f: Matrix) -> Report:
    """f(x.y) = f(x).f(y) on all basis pairs, for f: a -> b.

    Both tables and f are lifted together, by one D, so a residual of
    `morphism_defects` comes back divided by D^3.
    """
    if a.field != b.field:
        raise DimensionMismatchError("algebras live over different fields")
    if f.cols != a.dim or f.rows != b.dim:
        raise ShapeError(f"map is {f.rows}x{f.cols}, expected {b.dim}x{a.dim}")
    field = a.field
    (s, t, F, D), _ = lift(field, (a.product, b.product, f.data, field.one))
    pairs = [(i, j) for i in range(a.dim) for j in range(a.dim)]
    return lifted_report(zip(pairs, morphism_defects(nonzero_rows(s), nonzero_rows(t),
                                                     nonzero_columns(F, a.dim), D, pairs)),
                         descend(field, D ** 3))
