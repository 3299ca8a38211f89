"""Deterministic exact linear algebra over Q or F_p.

Matrices are immutable, stored dense and row-major, and every entry lives
in one field.  Their arithmetic does work only on nonzero entries: a
product multiplies only pairs of nonzero entries, and a sum, difference
or scaling passes a zero operand through untouched.  Results of matrix
arithmetic are built from entries that are already field elements, as is
a bundle's matrix, whose one coercion is `bundle._parse_scalar`; only
`Matrix(field, data)` coerces and shape-checks other data from outside.

Coboundary matrices are mostly zeros, so they also have a sparse form: a
matrix given as a list of rows, each a dict {column: nonzero scalar}.

Elimination has one engine, `_echelon`, and it runs on Python ints: the
rows it reduces come from `scalars.lift`, which over Q multiplies every
entry by one common denominator D and over F_p takes residues.  A row
operation is row <- a*row - b*pivot, where a and b are the pivot's and
the row's entries in the pivot column divided by their gcd, and the new
row is divided by its content, so entries stay small (fraction-free
elimination in the manner of Bareiss 1968).  Over F_p the rows are
residues in [0, p) and each pivot row is made monic.
The pivot of a leading column is the shortest row that starts there
(Markowitz), ties going to the lower row index.

Each step multiplies a row by a nonzero scalar or adds a multiple of one
row to another, so the row space never changes, and with it neither the
rank nor the reduced row echelon form: the pivot rule changes the work,
not the answer.  `Matrix.rref` reduces the echelon rows further on the
same integers (back-substitution) and divides by the pivots only at the
end.  The reduced row echelon form is unique, so it and the inverse
read off it do not depend on the pivot order.  Ranks of sparse rows are
read off `_echelon` run on the shorter side (`integer_rank`): with more
nonzero rows than nonzero columns, on the transpose (rank A = rank A^T).
The inverse is the only linear system the package solves.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatchError, FieldMismatchError, NotSquareError, ShapeError
from .scalars import FpElement, lift


def _matrix(field, data: tuple, cols: int) -> "Matrix":
    """A matrix on rows of entries that are already field elements."""
    m = object.__new__(Matrix)
    object.__setattr__(m, "field", field)
    object.__setattr__(m, "rows", len(data))
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "data", data)
    return m


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, cols: int | None = None):
        data = tuple(tuple(field(x) for x in row) for row in data)
        rows = len(data)
        if rows:
            cols = len(data[0])
        elif cols is None:
            cols = 0
        if any(len(row) != cols for row in data):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zero(cls, field, rows: int, cols: int) -> "Matrix":
        return _matrix(field, ((field.zero,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return _matrix(field, tuple(tuple(o if i == j else z for j in range(n))
                                    for i in range(n)), n)

    @classmethod
    def from_columns(cls, field, columns, rows: int) -> "Matrix":
        return cls(field, [[col[i] for col in columns] for i in range(rows)],
                   cols=len(columns))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix addition shape mismatch")
        return _matrix(self.field, tuple(add_vec(r1, r2)
                                         for r1, r2 in zip(self.data, other.data)), self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix subtraction shape mismatch")
        return _matrix(self.field, tuple(sub_vec(r1, r2)
                                         for r1, r2 in zip(self.data, other.data)), self.cols)

    def __neg__(self) -> "Matrix":
        return _matrix(self.field, tuple(neg_vec(row) for row in self.data), self.cols)

    def scale(self, c) -> "Matrix":
        c = self.field(c)
        return _matrix(self.field, tuple(scale_vec(c, row) for row in self.data), self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        zero = self.field.zero
        n = other.cols
        right = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = []
        for row in self.data:
            acc = [None] * n
            for k, a in enumerate(row):
                if a:
                    for j, b in right[k]:
                        s = acc[j]
                        acc[j] = a * b if s is None else s + a * b
            out.append(tuple(zero if s is None else s for s in acc))
        return _matrix(self.field, tuple(out), n)

    def apply(self, vec) -> tuple:
        """Matrix-vector product; ``vec`` is a coordinate sequence."""
        if len(vec) != self.cols:
            raise DimensionMismatchError(f"vector length {len(vec)} != cols {self.cols}")
        zero = self.field.zero
        nonzero = [(k, x) for k, x in enumerate(vec) if x]
        out = []
        for row in self.data:
            s = None
            for k, x in nonzero:
                a = row[k]
                if a:
                    s = a * x if s is None else s + a * x
            out.append(zero if s is None else s)
        return tuple(out)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def rref(self):
        """Reduced row echelon form and the list of pivot columns."""
        field, p = self.field, self.field.char
        (data,), _ = lift(field, (self.data,))
        echelon = _echelon([{j: x for j, x in enumerate(row) if x} for row in data], p)
        pivots = sorted(echelon)
        reduced = {}
        for c in reversed(pivots):
            row = echelon[c]
            for c2 in sorted(j for j in row if j in reduced):
                row = _clear(row, reduced[c2], c2, p)
            reduced[c] = row
        zero = field.zero
        data = []
        for c in pivots:
            dense = [zero] * self.cols
            row = reduced[c]
            if p:
                for j, v in row.items():
                    dense[j] = FpElement(v, p)
            else:
                lead = row[c]
                for j, v in row.items():
                    dense[j] = Fraction(v, lead)
            data.append(tuple(dense))
        data.extend([(zero,) * self.cols] * (self.rows - len(pivots)))
        return _matrix(field, tuple(data), self.cols), pivots

    def inverse(self):
        """Exact inverse, or None if singular."""
        if self.rows != self.cols:
            raise NotSquareError(f"{self.rows}x{self.cols} matrix has no inverse")
        n = self.rows
        eye = Matrix.identity(self.field, n).data
        aug = _matrix(self.field, tuple(r1 + r2 for r1, r2 in zip(self.data, eye)), 2 * n)
        red, pivots = aug.rref()
        if len(pivots) != n or any(p >= n for p in pivots):
            return None
        return _matrix(self.field, tuple(row[n:] for row in red.data), n)


# vector helpers; vectors are tuples of scalars, and a zero operand is
# passed through instead of being added or multiplied

def zero_vec(field, n: int) -> tuple:
    return tuple([field.zero] * n)


def basis_vec(field, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


def add_vec(u, v) -> tuple:
    return tuple(b if not a else a if not b else a + b for a, b in zip(u, v, strict=True))


def sub_vec(u, v) -> tuple:
    return tuple(a if not b else -b if not a else a - b for a, b in zip(u, v, strict=True))


def neg_vec(u) -> tuple:
    return tuple(-a if a else a for a in u)


def scale_vec(c, u) -> tuple:
    return tuple(c * a if a else a for a in u)


def is_zero_vec(u) -> bool:
    return all(not a for a in u)


# sparse rows; a row is a dict {column: nonzero scalar}

def sparse_mul(a_rows, b_rows, p: int = 0) -> list:
    """The product of two matrices given as sparse rows, as sparse rows.

    With ``p`` > 0 the entries are ints taken mod p.
    """
    out = []
    for row in a_rows:
        acc = {}
        for k, c in row.items():
            for j, v in b_rows[k].items():
                acc[j] = acc.get(j, 0) + c * v
        if p:
            out.append({j: r for j, v in acc.items() if (r := v % p)})
        else:
            out.append({j: v for j, v in acc.items() if v})
    return out


def _clear(row: dict, pivot: dict, c: int, p: int) -> dict:
    """A nonzero multiple of ``row`` minus a multiple of ``pivot``, zero at column c.

    Over F_p the pivot is monic at c.  Over Q the result is divided by its
    content.  Neither argument is changed.
    """
    if p:
        f = row[c]
        out = dict(row)
        for j, v in pivot.items():
            s = (out.get(j, 0) - f * v) % p
            if s:
                out[j] = s
            else:
                del out[j]
        return out
    a, b = pivot[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a == -1:  # -(a row - b pivot), unscaled
        a, b = 1, -b
    out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in pivot.items():
        s = out.get(j, 0) - b * v
        if s:
            out[j] = s
        else:
            del out[j]
    if out:
        g = gcd(*out.values())
        if g != 1:
            out = {j: v // g for j, v in out.items()}
    return out


def _echelon(rows, p: int) -> dict:
    """An echelon form of integer rows: {leading column: row}, one per pivot.

    Forward elimination over the leading columns in increasing order.  The
    pivot of a column is the shortest row starting there, ties going to
    the lower row index, and it clears that column from the other rows
    starting there; over F_p it is made monic first.  The input rows are
    not changed.
    """
    by_lead = {}   # leading column -> (length, row index, row) of the rows starting there
    for i, row in enumerate(rows):
        if row:
            by_lead.setdefault(min(row), []).append((len(row), i, row))
    heap = list(by_lead)
    heapq.heapify(heap)
    echelon = {}
    while heap:
        c = heapq.heappop(heap)
        bucket = by_lead.pop(c)
        _, first, pivot = min(bucket)
        if p and pivot[c] != 1:
            inv = pow(pivot[c], -1, p)
            pivot = {j: v * inv % p for j, v in pivot.items()}
        echelon[c] = pivot
        for _, i, row in bucket:
            if i == first:
                continue
            row = _clear(row, pivot, c, p)
            if row:
                lead = min(row)
                if lead not in by_lead:
                    by_lead[lead] = []
                    heapq.heappush(heap, lead)
                by_lead[lead].append((len(row), i, row))
    return echelon


def integer_rank(rows, p: int) -> int:
    """Exact rank of integer rows over Q (p = 0) or over F_p, off the shorter side."""
    rows = [row for row in rows if row]
    if len(rows) > len({j for row in rows for j in row}):
        transpose = {}
        for i, row in enumerate(rows):
            for j, v in row.items():
                transpose.setdefault(j, {})[i] = v
        rows = list(transpose.values())
    return len(_echelon(rows, p))
