"""Deterministic exact linear algebra over Q or F_p.

Matrices are immutable, stored dense and row-major, and every entry lives
in one field.  Elimination pivots on the first nonzero entry in column
order, so identical inputs always produce identical echelon forms,
kernels, and solutions.  Kernel bases are read off the reduced row
echelon form, which is unique, so equal kernels yield identical bases.

Coboundary matrices are mostly zeros, so their rank and products also
have a sparse form: a matrix given as a list of rows, each a dict
{column: nonzero scalar}.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DimensionMismatchError, FieldMismatchError, NotSquareError, ShapeError


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
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

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
        return Matrix(self.field, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.data, other.data)],
                      cols=self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix subtraction shape mismatch")
        return Matrix(self.field, [[a - b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.data, other.data)],
                      cols=self.cols)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-a for a in row] for row in self.data],
                      cols=self.cols)

    def scale(self, c) -> "Matrix":
        c = self.field(c)
        return Matrix(self.field, [[c * a for a in row] for row in self.data],
                      cols=self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        zero = self.field.zero
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                s = zero
                for k in range(self.cols):
                    s = s + self.data[i][k] * other.data[k][j]
                row.append(s)
            out.append(row)
        return Matrix(self.field, out, cols=other.cols)

    def apply(self, vec) -> tuple:
        """Matrix-vector product; ``vec`` is a coordinate sequence."""
        if len(vec) != self.cols:
            raise DimensionMismatchError(f"vector length {len(vec)} != cols {self.cols}")
        zero = self.field.zero
        out = []
        for i in range(self.rows):
            s = zero
            for k in range(self.cols):
                s = s + self.data[i][k] * vec[k]
            out.append(s)
        return tuple(out)

    def column(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.data[i][j] for i in range(self.rows)]
                                   for j in range(self.cols)], cols=self.rows)

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def rref(self):
        """Reduced row echelon form and the list of pivot columns."""
        m = [list(row) for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            pr = None
            for i in range(r, self.rows):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
            inv = self.field.one / m[r][c]
            m[r] = [inv * x for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(self.field, m, cols=self.cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "KernelBasis":
        """Canonical basis of the null space, one vector per free column."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        zero, one = self.field.zero, self.field.one
        vectors = []
        for fc in free:
            v = [zero] * self.cols
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -red.data[r][fc]
            vectors.append(tuple(v))
        return KernelBasis(self.cols, tuple(vectors))

    def solve(self, b: "Matrix"):
        """One exact solution x of self * x = b, or None if inconsistent."""
        self._check_same_field(b)
        if b.rows != self.rows:
            raise DimensionMismatchError(f"rhs has {b.rows} rows, lhs has {self.rows}")
        aug = Matrix(self.field, [list(r1) + list(r2)
                                  for r1, r2 in zip(self.data, b.data)],
                     cols=self.cols + b.cols)
        red, pivots = aug.rref()
        n = self.cols
        if any(p >= n for p in pivots):
            return None
        zero = self.field.zero
        x = [[zero] * b.cols for _ in range(n)]
        for r, pc in enumerate(pivots):
            for j in range(b.cols):
                x[pc][j] = red.data[r][n + j]
        return Matrix(self.field, x, cols=b.cols)

    def inverse(self):
        """Exact inverse, or None if singular."""
        if self.rows != self.cols:
            raise NotSquareError(f"{self.rows}x{self.cols} matrix has no inverse")
        n = self.rows
        aug = Matrix(self.field, [list(row) + [self.field.one if i == j else self.field.zero
                                               for j in range(n)]
                                  for i, row in enumerate(self.data)])
        red, pivots = aug.rref()
        if len(pivots) != n or any(p >= n for p in pivots):
            return None
        return Matrix(self.field, [row[n:] for row in red.data])


@dataclass(frozen=True)
class KernelBasis:
    """Canonical (echelon-form) basis of a null space."""

    dim: int
    vectors: tuple

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


# vector helpers; vectors are tuples of scalars

def zero_vec(field, n: int) -> tuple:
    return tuple([field.zero] * n)


def basis_vec(field, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


def add_vec(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub_vec(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def neg_vec(u) -> tuple:
    return tuple(-a for a in u)


def scale_vec(c, u) -> tuple:
    return tuple(c * a for a in u)


def is_zero_vec(u) -> bool:
    return all(not a for a in u)


# sparse rows; a row is a dict {column: nonzero scalar}

def sparse_mul(a_rows, b_rows) -> list:
    """The product of two matrices given as sparse rows, as sparse rows."""
    out = []
    for row in a_rows:
        acc = {}
        for k, c in row.items():
            for j, v in b_rows[k].items():
                s = acc.get(j)
                acc[j] = c * v if s is None else s + c * v
        out.append({j: v for j, v in acc.items() if v})
    return out


def sparse_rank(rows) -> int:
    """Exact rank of a matrix given as sparse rows, over its own scalars.

    Forward elimination in column order: the pivot of a column is the
    first row, in row order, that is nonzero there among the rows not yet
    used as pivots, and it clears that column from the others.  Only rows
    sharing the pivot's leading column are touched.
    """
    work = {}
    by_lead = {}   # leading column -> indices of the rows that start there
    for i, row in enumerate(rows):
        if row:
            work[i] = row
            by_lead.setdefault(min(row), []).append(i)
    heap = list(by_lead)
    heapq.heapify(heap)
    rank = 0
    while heap:
        c = heapq.heappop(heap)
        bucket = by_lead.pop(c)
        p = min(bucket)
        pivot = work.pop(p)
        rank += 1
        pc = pivot[c]
        for i in bucket:
            if i == p:
                continue
            row = dict(work.pop(i))
            f = row[c] / pc
            for j, v in pivot.items():
                s = row.get(j)
                if s is None:
                    row[j] = -f * v
                else:
                    s = s - f * v
                    if s:
                        row[j] = s
                    else:
                        del row[j]
            if row:
                work[i] = row
                lead = min(row)
                if lead not in by_lead:
                    by_lead[lead] = []
                    heapq.heappush(heap, lead)
                by_lead[lead].append(i)
    return rank
