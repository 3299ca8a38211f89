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
`morphism_defects`, on the integer lift, for `check_morphism` and
`reynolds.morphism_checker` (behind `reynolds.check_rcw_morphism`): the
tables are lifted by D, the map by D_F, and a residual
F(a.b) - F(a).F(b) comes back divided by D D_F^2.
A `Representation` only holds its action matrices; actions on vectors
are read off the frames of `reynolds.operator_frames`.

The axiom checkers `check_prelie`, `check_jacobi`, `check_representation`
and `nsprelie.check_ns_prelie` lift the constants they read with one
`scalars.lift` (one denominator D over Q, residues over F_p), evaluate
on the ints and map only nonzero residuals back (`lifted_report`): of
degree 2 in the constants (antisymmetry 1), a residual r is r / D^2
(r / D) over Q and r mod p over F_p.  `prelie_report` and
`representation_report` start from arrays already lifted, as
`opcohomology` reads them off an operator's frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import (
    DimensionMismatchError,
    NoUnitError,
    ShapeError,
    UnverifiedError,
)
from .linalg import Matrix, add_vec, basis_vec, is_zero_vec, neg_vec, sub_vec
from .scalars import INTEGERS, descend, lift, scalar_to_str


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
    """A tensor `_as_tensor` coerced."""

    __slots__ = ()


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
    return _Tensor(out)


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
    if type(tensor) is not _Tensor:
        tensor = _as_tensor(field, tensor)
    (t,), down = lift(field, (tensor,))
    return prelie_report(t, lambda r: down(r, 2))


def prelie_report(t, back) -> Report:
    """`check_prelie` on lifted constants, ``back`` mapping residuals to the field."""
    n = len(t)
    # symmetric in (i, j); i == j is trivial
    triples = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    return lifted_report(zip(triples, prelie_defects(t, triples, 0)), back)


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
    r = range(len(t))
    basis = [basis_vec(INTEGERS, len(t), i) for i in r]

    def br(x, y):
        return tensor_mul(INTEGERS, t, x, y)

    def jacobiator(x, y, z):
        return add_vec(add_vec(br(x, br(y, z)), br(y, br(z, x))), br(z, br(x, y)))

    antisym = lifted_report(((("antisym", i, j), add_vec(t[i][j], t[j][i]))
                             for i in r for j in r), lambda x: down(x, 1))
    jacobi = lifted_report(((("jacobi", i, j, k), jacobiator(basis[i], basis[j], basis[k]))
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


def representation_report(c, dim_v: int, L, R, back) -> Report:
    """`check_representation` on lifted arrays, ``back`` as in `prelie_report`."""
    n = len(c)
    where = [(name, i, j, u) for i in range(n) for j in range(n) for u in range(dim_v)
             for name in ("left", "mixed")]
    triples = [(i, j, n + u) if name == "left" else (i, n + u, j) for name, i, j, u in where]
    defects = prelie_defects(semidirect_tensor(c, dim_v, L, R), triples, n)
    return lifted_report(zip(where, defects), lambda r: back([-x for x in r]))


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


def morphism_defects(source, target, F, one, pairs):
    """one F(a.b) - F(a).F(b) at each pair (a, b) of source basis indices, on ints.

    The one evaluation of a morphism identity in the package.  ``source``
    and ``target`` are the nonzero rows (`nonzero_rows`) of two lifted
    structure-constant tensors, F the rows of a lifted linear map between
    their spaces and ``one`` its denominator, so each residual, a list of
    ints (or int `scalars.Poly`) on the target basis, is homogeneous: it is
    D D_F^2 times F(a.b) - F(a).F(b), for tensors lifted by D and F by
    D_F = ``one`` (`SIGNS.md`).  `check_morphism` and
    `reynolds.morphism_checker` read it.
    """
    dim = len(F)
    cols = [[(t, row[a]) for t, row in enumerate(F) if row[a]] for a in range(len(source))]
    for a, b in pairs:
        out = [0] * dim
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
    return lifted_report(zip(pairs, morphism_defects(nonzero_rows(s), nonzero_rows(t), F, D,
                                                     pairs)), descend(field, D ** 3))
