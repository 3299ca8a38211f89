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

The axiom checkers `check_prelie`, `check_jacobi`, `check_representation`
and `nsprelie.check_ns_prelie` evaluate their formulas on Python ints:
each lifts all the structure constants it reads with one
`scalars.lift`, scaled by one common denominator D over Q and reduced to
residues over F_p, runs the formula unchanged on `scalars.INTEGERS`, and
maps every residual back to the field.  Each axiom is homogeneous in the
constants (of degree 2, antisymmetry of degree 1), so a residual r is
r / D^2 (or r / D) over Q and r mod p over F_p, and the reports are the
ones the field arithmetic gives.
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
from .linalg import Matrix, add_vec, basis_vec, is_zero_vec, sub_vec
from .scalars import INTEGERS, lift, scalar_to_str


@dataclass
class Report:
    """Outcome of an axiom check: pass/fail plus every violated tuple.

    ``violations`` holds (where, residual) pairs; ``where`` identifies the
    basis tuple (0-based indices) and ``residual`` is the nonzero defect
    vector.  ``parts`` carries named sub-verdicts for multi-condition
    checks.
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


def check_prelie(field, tensor) -> Report:
    """Pre-Lie identity on all basis triples of a raw tensor.

    Passes iff (ei.ej).ek - ei.(ej.ek) = (ej.ei).ek - ej.(ei.ek) for every
    (i, j, k); failures carry the residual vector of the difference.
    """
    (t,), down = lift(field, (_as_tensor(field, tensor),))
    n = len(t)
    basis = [basis_vec(INTEGERS, n, i) for i in range(n)]

    def mul(x, y):
        return tensor_mul(INTEGERS, t, x, y)

    def associator(x, y, z):
        return sub_vec(mul(mul(x, y), z), mul(x, mul(y, z)))

    # symmetric in (i, j); i == j is trivial
    return residual_report(
        ((i, j, k), down(sub_vec(associator(basis[i], basis[j], basis[k]),
                                 associator(basis[j], basis[i], basis[k])), 2))
        for i in range(n) for j in range(i + 1, n) for k in range(n))


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

    @classmethod
    def abelian(cls, field, dim: int):
        z = field.zero
        return cls(field, [[[z] * dim for _ in range(dim)] for _ in range(dim)], check=False)

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

    One pass over the lifted arrays, with no `Matrix`: every product
    L_x L_y, L_x R_y, R_y L_x and R_y R_x and every combination
    L_{x.y} = sum_k c_xyk L_k and R_{x.y} is formed once, as its sparse
    columns, and column u of each defect is read off them.  The defects
    are homogeneous of degree 2 in the lifted constants.
    """
    n = algebra.dim
    if len(L) != n or len(R) != n:
        raise ShapeError(f"need {n} action matrices, got {len(L)} and {len(R)}")
    for M in list(L) + list(R):
        if M.rows != dim_v or M.cols != dim_v:
            raise ShapeError(f"action matrix is {M.rows}x{M.cols}, expected {dim_v}x{dim_v}")
    (c, L, R), down = lift(algebra.field, (algebra.product, [M.data for M in L],
                                           [M.data for M in R]))

    def columns(M):
        """The columns of a matrix given by rows, each as {row: nonzero entry}."""
        cols = [{} for _ in range(dim_v)]
        for t, row in enumerate(M):
            for s, x in enumerate(row):
                if x:
                    cols[s][t] = x
        return cols

    def product(A, B):
        """The columns of A B."""
        out = []
        for col in B:
            acc = {}
            for s, b in col.items():
                for t, a in A[s].items():
                    acc[t] = acc.get(t, 0) + a * b
            out.append(acc)
        return out

    def combination(mats, coeffs):
        """The columns of sum_k coeffs[k] M_k."""
        out = [{} for _ in range(dim_v)]
        for ck, M in zip(coeffs, mats):
            if ck:
                for acc, col in zip(out, M):
                    for t, x in col.items():
                        acc[t] = acc.get(t, 0) + ck * x
        return out

    def defect(w, x, y, z):
        """w - x - y + z for four columns, mapped back to the field."""
        vec = [0] * dim_v
        for col, sign in ((w, 1), (x, -1), (y, -1), (z, 1)):
            for t, x in col.items():
                vec[t] += sign * x
        return down(vec, 2)

    L = [columns(M) for M in L]
    R = [columns(M) for M in R]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    LL = {(i, j): product(L[i], L[j]) for i, j in pairs}
    CL = {(i, j): combination(L, c[i][j]) for i, j in pairs}

    def defects(i, j):
        left = zip(LL[i, j], CL[i, j], LL[j, i], CL[j, i])
        mixed = zip(product(L[i], R[j]), product(R[j], L[i]),
                    combination(R, c[i][j]), product(R[j], R[i]))
        for u, (l_cols, m_cols) in enumerate(zip(left, mixed)):
            yield ("left", i, j, u), defect(*l_cols)
            yield ("mixed", i, j, u), defect(*m_cols)

    return residual_report(pair for i, j in pairs for pair in defects(i, j))


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

    def act_L(self, x, u) -> tuple:
        """L_x u for a coordinate vector x in the algebra and u in V."""
        return self._act(self.L, x, u)

    def act_R(self, x, u) -> tuple:
        return self._act(self.R, x, u)

    def _act(self, mats, x, u) -> tuple:
        """sum_i x_i M_i u in one pass over the nonzero entries of x and u."""
        nonzero = [(k, uk) for k, uk in enumerate(u) if uk]
        out = [None] * self.dim_v
        for i, xi in enumerate(x):
            if not xi:
                continue
            for r, row in enumerate(mats[i].data):
                for k, uk in nonzero:
                    a = row[k]
                    if a:
                        term = xi * (a * uk)
                        s = out[r]
                        out[r] = term if s is None else s + term
        zero = self.field.zero
        return tuple(zero if s is None else s for s in out)


def lifted_representation(algebra: PreLieAlgebra, dim_v: int, L, R, *extra):
    """The algebra and actions (L, R) with their constants lifted to ints together.

    One `scalars.lift` covers the structure constants, every action
    matrix and each of the further arrays ``extra`` (such as the values
    of cochains over the same field), so all of them are scaled by the
    same D.  Returns the unverified `Representation` over
    `scalars.INTEGERS`, the lift's ``down``, and then the lifted copy of
    each array in ``extra``.
    """
    (product, L, R, *extra), down = lift(algebra.field, (algebra.product, [M.data for M in L],
                                                         [M.data for M in R], *extra))
    a = PreLieAlgebra(INTEGERS, product, check=False)
    lifted = Representation(a, dim_v, [Matrix(INTEGERS, d, cols=dim_v) for d in L],
                            [Matrix(INTEGERS, d, cols=dim_v) for d in R], check=False)
    return (lifted, down, *extra)


def regular_representation(a: PreLieAlgebra) -> Representation:
    """The algebra acting on itself: L_x u = x.u and R_x u = u.x."""
    L = [a.left_mult(a.basis(i)) for i in range(a.dim)]
    R = [a.right_mult(a.basis(i)) for i in range(a.dim)]
    return Representation(a, a.dim, L, R, check=False)


def zero_representation(a: PreLieAlgebra, dim_v: int) -> Representation:
    z = Matrix.zero(a.field, dim_v, dim_v)
    return Representation(a, dim_v, [z] * a.dim, [z] * a.dim, check=False)


def check_derivation(a: PreLieAlgebra, d: Matrix) -> Report:
    """d(x.y) = d(x).y + x.d(y) on all basis pairs."""
    if d.rows != a.dim or d.cols != a.dim:
        raise ShapeError(f"derivation candidate is {d.rows}x{d.cols}, algebra dim {a.dim}")
    return residual_report(
        ((i, j), sub_vec(d.apply(a.mul_basis(i, j)),
                         add_vec(a.mul(d.column(i), a.basis(j)),
                                 a.mul(a.basis(i), d.column(j)))))
        for i in range(a.dim) for j in range(a.dim))


def check_morphism(a: PreLieAlgebra, b: PreLieAlgebra, f: Matrix) -> Report:
    """f(x.y) = f(x).f(y) on all basis pairs, for f: a -> b."""
    if a.field != b.field:
        raise DimensionMismatchError("algebras live over different fields")
    if f.cols != a.dim or f.rows != b.dim:
        raise ShapeError(f"map is {f.rows}x{f.cols}, expected {b.dim}x{a.dim}")
    return residual_report(
        ((i, j), sub_vec(f.apply(a.mul_basis(i, j)), b.mul(f.column(i), f.column(j))))
        for i in range(a.dim) for j in range(a.dim))
