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

The pre-Lie identity is written once, in `prelie_defects`.  A
representation (V; L, R) is exactly an action that makes the semidirect
product g + V of `semidirect_tensor` pre-Lie, and an NS-pre-Lie structure
is one on a twisted semidirect product (`nsprelie.check_ns_prelie`), so
`check_prelie`, `check_representation` and `check_ns_prelie` each read
the one kernel at their own basis triples and coordinates.

The morphism identity F(a).F(b) = F(a.b) is written once, in
`morphism_defects`, for `check_morphism` and `reynolds.check_rcw_morphism`.
A `Representation` only holds its action matrices; actions on vectors
are read off the frames of `reynolds.operator_frames`.

The axiom checkers `check_prelie`, `check_jacobi`, `check_representation`
and `nsprelie.check_ns_prelie` evaluate their formulas on Python ints:
each lifts all the structure constants it reads with one
`scalars.lift`, scaled by one common denominator D over Q and reduced to
residues over F_p, runs the formula on the ints, and maps every
residual back to the field.  Each axiom is homogeneous in the
constants (of degree 2, antisymmetry of degree 1), so a residual r is
r / D^2 (or r / D) over Q and r mod p over F_p, and the reports are the
ones the field arithmetic gives.  Every reading of an operator runs on
ints too, with the fixed data and the operator lifted apart
(`reynolds.operator_frames`, `nsprelie.nijenhuis_checker`).

Every `PreLieAlgebra` and `Representation` lives over a field.  Code
that computes on the integer lift lifts raw arrays, not objects: the
structure constants and the rows of the action matrices
(`action_arrays`), which `cochain` and `opcohomology` hand to `scalars.lift`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain
from typing import Optional

from .errors import (
    DimensionMismatchError,
    NoUnitError,
    ShapeError,
    UnverifiedError,
)
from .linalg import Matrix, add_vec, basis_vec, is_zero_vec, neg_vec, sub_vec
from .scalars import INTEGERS, lift, scalar_to_str


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


def _combine(parts: dict) -> Report:
    ok = all(r.ok for r in parts.values())
    violations = [v for r in parts.values() for v in r.violations]
    return Report(ok, violations, parts=parts)


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
            rows.append(tuple(field(x) for x in row))
        out.append(tuple(rows))
    return tuple(out)


def tensor_mul(field, tensor, x, y) -> tuple:
    """Bilinear extension of the structure constants to coordinates."""
    n = len(tensor)
    out = [field.zero] * n
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        for j in range(n):
            yj = y[j]
            if not yj:
                continue
            c = xi * yj
            row = tensor[i][j]
            for k in range(n):
                if row[k]:
                    out[k] = out[k] + c * row[k]
    return tuple(out)


def semidirect_tensor(product, dim_v, L, R, H=None) -> list:
    """Structure constants of the twisted product on g + V (raw, unchecked):

        (x,u) . (y,v) = (x.y, L_x v + R_y u + H(x,y)).

    ``product`` is the n*n*n tensor of g, ``dim_v`` is dim V, ``L`` and
    ``R`` are the n action matrices on V as lists of rows, and ``H`` is
    the n*n table of the vectors H(e_i, e_j), or None for H = 0.  The
    entries are copied as given, field scalars or lifted ints, and every
    other entry is the int 0, which `PreLieAlgebra` and `Cochain` coerce
    to the field.
    """
    n, m = len(product), dim_v
    dim = n + m
    tensor = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            tensor[i][j][:n] = product[i][j]
            if H is not None:
                tensor[i][j][n:] = H[i][j]
        for u in range(m):
            for k in range(m):
                tensor[i][n + u][n + k] = L[i][k][u]
                tensor[n + u][i][n + k] = R[i][k][u]
    return tensor


def nonzero_rows(tensor) -> list:
    """The nonzero entries of each row of a structure-constant tensor, as (k, c) pairs."""
    return [[[(k, x) for k, x in enumerate(row) if x] for row in plane] for plane in tensor]


def prelie_defects(tensor, triples, start):
    """(a.b).c - a.(b.c) - (b.a).c + b.(a.c) at each basis triple (a, b, c).

    The one evaluation of the pre-Lie identity in the package.  ``tensor``
    holds ints (lifted constants); each residual is yielded as a list of
    ints, its coordinates ``start`` onwards, homogeneous of degree 2 in
    the constants.  Every product is read off the nonzero entries of the
    tensor, so a triple costs the products of the rows it touches.
    """
    dim = len(tensor)
    rows = nonzero_rows(tensor)
    tails = [[[(k - start, x) for k, x in row if k >= start] for row in plane]
             for plane in rows]
    for a, b, c in triples:
        out = [0] * (dim - start)
        for sign, p, q in ((1, a, b), (-1, b, a)):
            for k, x in rows[p][q]:  # (p.q).c
                for t, y in tails[k][c]:
                    out[t] += sign * x * y
            for k, x in rows[q][c]:  # p.(q.c)
                for t, y in tails[p][k]:
                    out[t] -= sign * x * y
        yield out


def check_prelie(field, tensor) -> Report:
    """Pre-Lie identity on all basis triples of a raw tensor.

    Passes iff (ei.ej).ek - ei.(ej.ek) = (ej.ei).ek - ej.(ei.ek) for every
    (i, j, k); failures carry the residual vector of the difference.
    """
    (t,), down = lift(field, (_as_tensor(field, tensor),))
    n = len(t)
    # symmetric in (i, j); i == j is trivial
    triples = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    return residual_report(
        (where, down(r, 2)) for where, r in zip(triples, prelie_defects(t, triples, 0)))


class PreLieAlgebra:
    """A finite-dimensional pre-Lie algebra given by structure constants."""

    __slots__ = ("field", "dim", "product", "unit", "labels")

    def __init__(self, field, product, unit=None, labels=None, *, check: bool = True):
        product = _as_tensor(field, product)
        if check:
            report = check_prelie(field, product)
            if not report.ok:
                raise UnverifiedError(
                    "structure constants fail the pre-Lie identity:\n" + report.describe())
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", len(product))
        object.__setattr__(self, "product", product)
        if unit is not None:
            unit = tuple(field(x) for x in unit)
            if len(unit) != len(product):
                raise ShapeError("unit vector has wrong length")
            if check:
                for i in range(len(product)):
                    e = basis_vec(field, len(product), i)
                    if tensor_mul(field, product, unit, e) != e or \
                            tensor_mul(field, product, e, unit) != e:
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

    def mul(self, x, y) -> tuple:
        return tensor_mul(self.field, self.product, x, y)

    def mul_basis(self, i: int, j: int) -> tuple:
        return self.product[i][j]

    def basis(self, i: int) -> tuple:
        return basis_vec(self.field, self.dim, i)

    def left_mult(self, x) -> Matrix:
        """Matrix of y -> x.y for a coordinate vector x."""
        cols = [self.mul(x, self.basis(j)) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols, self.dim)

    def right_mult(self, x) -> Matrix:
        """Matrix of y -> y.x for a coordinate vector x."""
        cols = [self.mul(self.basis(j), x) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols, self.dim)

    def bracket(self, x, y) -> tuple:
        return sub_vec(self.mul(x, y), self.mul(y, x))

    def require_unit(self) -> tuple:
        if self.unit is None:
            raise NoUnitError("operation requires a unital algebra")
        return self.unit


def subadjacent_lie(a: PreLieAlgebra):
    """Structure constants of the commutator bracket [x,y] = x.y - y.x.

    The output is antisymmetric and satisfies the Jacobi identity whenever
    the input is a verified pre-Lie algebra.
    """
    n = a.dim
    return tuple(
        tuple(sub_vec(a.product[i][j], a.product[j][i]) for j in range(n))
        for i in range(n)
    )


def check_jacobi(field, bracket_tensor) -> Report:
    """Antisymmetry and Jacobi identity for a raw bracket tensor."""
    (t,), down = lift(field, (_as_tensor(field, bracket_tensor),))
    n = len(t)
    basis = [basis_vec(INTEGERS, n, i) for i in range(n)]

    def br(x, y):
        return tensor_mul(INTEGERS, t, x, y)

    def jacobiator(x, y, z):
        return add_vec(add_vec(br(x, br(y, z)), br(y, br(z, x))), br(z, br(x, y)))

    antisym = ((("antisym", i, j), down(add_vec(t[i][j], t[j][i]), 1))
               for i in range(n) for j in range(n))
    jacobi = ((("jacobi", i, j, k), down(jacobiator(basis[i], basis[j], basis[k]), 2))
              for i in range(n) for j in range(n) for k in range(n))
    return residual_report(chain(antisym, jacobi))


def check_representation(algebra: PreLieAlgebra, dim_v: int, L, R) -> Report:
    """Both representation identities on all pairs of algebra basis elements.

    For every x, y in the algebra basis (as m x m matrices acting on V):
        L_x L_y - L_{x.y} = L_y L_x - L_{y.x}
        L_x R_y - R_y L_x = R_{x.y} - R_y R_x
    Violations are reported per (identity, x, y, u) with u a V-basis index.

    Together they say that the semidirect product g + V of
    `semidirect_tensor` is pre-Lie: the V-part of its pre-Lie defect is
    minus the "left" defect at (x, y, u) and minus the "mixed" defect at
    (x, u, y).  Its g-part is the pre-Lie identity of the algebra, and
    every triple with two entries in V is zero.  Both are read from one
    `prelie_defects` pass over the lifted constants.
    """
    n = algebra.dim
    if len(L) != n or len(R) != n:
        raise ShapeError(f"need {n} action matrices, got {len(L)} and {len(R)}")
    for M in list(L) + list(R):
        if M.rows != dim_v or M.cols != dim_v:
            raise ShapeError(f"action matrix is {M.rows}x{M.cols}, expected {dim_v}x{dim_v}")
    (c, L, R), down = lift(algebra.field, (algebra.product, [M.data for M in L],
                                           [M.data for M in R]))
    where = [(name, i, j, u) for i in range(n) for j in range(n) for u in range(dim_v)
             for name in ("left", "mixed")]
    triples = [(i, j, n + u) if name == "left" else (i, n + u, j) for name, i, j, u in where]
    defects = prelie_defects(semidirect_tensor(c, dim_v, L, R), triples, n)
    return residual_report((w, down([-x for x in r], 2)) for w, r in zip(where, defects))


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
    L = [Matrix(a.field, list(zip(*c[i])), n) for i in range(n)]
    R = [Matrix(a.field, list(zip(*(c[j][i] for j in range(n)))), n) for i in range(n)]
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


def morphism_defects(field, source, target, F: Matrix, pairs):
    """F(a).F(b) - F(a.b) at each pair (a, b) of source basis indices.

    The one evaluation of a morphism identity in the package.  ``source``
    and ``target`` are raw structure-constant tensors and F is the matrix
    of a linear map between their spaces; each residual is yielded as a
    target vector.  `check_morphism` and `reynolds.check_rcw_morphism`
    negate it, so their residuals keep the sign F(a.b) - F(a).F(b)
    (`SIGNS.md`).
    """
    cols = [F.column(a) for a in range(F.cols)]
    for a, b in pairs:
        yield sub_vec(tensor_mul(field, target, cols[a], cols[b]), F.apply(source[a][b]))


def check_morphism(a: PreLieAlgebra, b: PreLieAlgebra, f: Matrix) -> Report:
    """f(x.y) = f(x).f(y) on all basis pairs, for f: a -> b."""
    if a.field != b.field:
        raise DimensionMismatchError("algebras live over different fields")
    if f.cols != a.dim or f.rows != b.dim:
        raise ShapeError(f"map is {f.rows}x{f.cols}, expected {b.dim}x{a.dim}")
    pairs = [(i, j) for i in range(a.dim) for j in range(a.dim)]
    return residual_report((where, neg_vec(r)) for where, r in zip(
        pairs, morphism_defects(a.field, a.product, b.product, f, pairs)))
