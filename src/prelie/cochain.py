"""Cochain spaces, unshuffles, the coboundary, and cohomology dimensions.

A degree-n cochain is a multilinear map on n arguments from a source
space X to a target space Y, antisymmetric in its first n-1 arguments
(the last slot is distinguished).  Values are stored on canonical keys:
a strictly increasing (n-1)-tuple of basis indices plus a free last
index, in lexicographic order.  Degree-1 cochains are plain linear maps;
degree-2 cochains are arbitrary bilinear maps.

The coboundary has one kernel, `_coboundary_rows`: the sparse rows of
its matrix, assembled block by block.  Each term of the formula reads f
at one canonical key, so for each degree-(n+1) key it adds an m x m
block (an action matrix, or a structure constant times the identity) at
the columns of the degree-n key it reads, with the sign of the sort
that makes that key canonical.  The kernel reads raw arrays, the
structure constants and the rows of the action matrices
(`algebra.action_arrays`), so it runs on field scalars and on ints
alike.  `integer_cohomology` checks d o d = 0 and takes the exact
ranks on integer rows, from arrays lifted by one `scalars.lift`
(`cohomology`) or read off an operator's frame (`opcohomology`).
`coboundary` applies the integer rows to the coordinates of f, lifted
with the arrays, and maps each value back; `coboundary_matrix` runs the
kernel on the field arrays.  `check_two_cocycle` reads dH off `coboundary`.

Everything here is graded in a single degree per slot, so the Koszul
sign of a permutation reduces to its parity; a graded extension would
have to generalize `_unshuffles`.  There is one parity routine,
`_sort_with_sign`: it signs the sort of a key to canonical order, and
`_unshuffles` takes the sign of each unshuffle (a word of subsets) from
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .algebra import (
    PreLieAlgebra,
    Report,
    Representation,
    action_arrays,
    residual_report,
)
from .errors import InvariantError, ShapeError
from .linalg import (
    Matrix,
    add_vec,
    integer_rank,
    is_zero_vec,
    neg_vec,
    scale_vec,
    sparse_mul,
    sub_vec,
    zero_vec,
)
from .scalars import lift


@lru_cache(maxsize=None)
def _unshuffles(pattern: tuple):
    """All unshuffles of the pattern as (sign, word) pairs, lexicographic by word.

    A word lists the values at positions 0, 1, ... (0-based), increasing
    within each block of the pattern; each block is a subset of the
    values the earlier blocks left, taken with `itertools.combinations`.
    The sign is the parity of the word, from `_sort_with_sign`.  Any
    negative block size yields the empty tuple; the compositions in
    `brackets` rely on that convention for boundary arities.
    """
    if any(b < 0 for b in pattern):
        return ()
    words = [()]
    for b in pattern:
        words = [w + chosen for w in words
                 for chosen in combinations([x for x in range(sum(pattern)) if x not in w], b)]
    return tuple((_sort_with_sign(w)[0], w) for w in words)


@lru_cache(maxsize=None)
def cochain_keys(dim: int, degree: int):
    """Canonical key order: increasing (degree-1)-tuples, then the free index.

    Every cochain shape passes through here, so this is where a degree
    below 1 is rejected.
    """
    if degree < 1:
        raise ShapeError("degree must be >= 1")
    keys = []
    for fb in combinations(range(dim), degree - 1):
        for last in range(dim):
            keys.append((fb, last))
    return tuple(keys)


@lru_cache(maxsize=None)
def _key_index(dim: int, degree: int):
    return {key: pos for pos, key in enumerate(cochain_keys(dim, degree))}


def _sort_with_sign(idxs):
    """Sort a tuple of indices, returning (sign, sorted) or None on repeats."""
    idxs = list(idxs)
    sign = 1
    for i in range(1, len(idxs)):
        j = i
        while j > 0 and idxs[j - 1] > idxs[j]:
            idxs[j - 1], idxs[j] = idxs[j], idxs[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and idxs[j - 1] == idxs[j]:
            return None
    return sign, tuple(idxs)


class Cochain:
    """A multilinear map, antisymmetric in its first degree-1 slots."""

    __slots__ = ("field", "degree", "dim_source", "dim_target", "values")

    def __init__(self, field, degree: int, dim_source: int, dim_target: int, values):
        keys = cochain_keys(dim_source, degree)
        values = tuple(tuple(field(x) for x in v) for v in values)
        if len(values) != len(keys):
            raise ShapeError(f"expected {len(keys)} value vectors, got {len(values)}")
        if any(len(v) != dim_target for v in values):
            raise ShapeError("value vector has wrong length")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "dim_source", dim_source)
        object.__setattr__(self, "dim_target", dim_target)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    @classmethod
    def zero(cls, field, degree: int, dim_source: int, dim_target: int):
        n = len(cochain_keys(dim_source, degree))
        return cls(field, degree, dim_source, dim_target,
                   [zero_vec(field, dim_target)] * n)

    @classmethod
    def from_entries(cls, field, degree, dim_source, dim_target, entries):
        """Cochain from {(first_block, last): vector}; omitted keys are zero."""
        vals = {k: zero_vec(field, dim_target) for k in cochain_keys(dim_source, degree)}
        for (fb, last), v in entries.items():
            fb = tuple(fb)
            if (fb, last) not in vals:
                raise ShapeError(f"key {(fb, last)} is not canonical")
            vals[(fb, last)] = tuple(field(x) for x in v)
        return cls(field, degree, dim_source, dim_target,
                   [vals[k] for k in cochain_keys(dim_source, degree)])

    @classmethod
    def from_matrix(cls, m: Matrix):
        """Degree-1 cochain from the matrix of a linear map."""
        return cls(m.field, 1, m.cols, m.rows,
                   [m.column(j) for j in range(m.cols)])

    def as_matrix(self) -> Matrix:
        if self.degree != 1:
            raise ShapeError("only degree-1 cochains are linear maps")
        return Matrix.from_columns(self.field, list(self.values), self.dim_target)

    def keys(self):
        return cochain_keys(self.dim_source, self.degree)

    def value_at(self, fb, last) -> tuple:
        idx = _key_index(self.dim_source, self.degree)[(tuple(fb), last)]
        return self.values[idx]

    def eval_basis(self, idxs) -> tuple:
        """Evaluate at a tuple of basis indices (not necessarily increasing)."""
        if len(idxs) != self.degree:
            raise ShapeError(f"expected {self.degree} arguments, got {len(idxs)}")
        fb, last = tuple(idxs[:-1]), idxs[-1]
        norm = _sort_with_sign(fb)
        if norm is None:
            return zero_vec(self.field, self.dim_target)
        sign, fb_sorted = norm
        v = self.value_at(fb_sorted, last)
        return v if sign == 1 else neg_vec(v)

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(self.field, self.degree, self.dim_source, self.dim_target,
                       [add_vec(a, b) for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(self.field, self.degree, self.dim_source, self.dim_target,
                       [sub_vec(a, b) for a, b in zip(self.values, other.values)])

    def __neg__(self) -> "Cochain":
        return Cochain(self.field, self.degree, self.dim_source, self.dim_target,
                       [neg_vec(v) for v in self.values])

    def scale(self, c) -> "Cochain":
        c = self.field(c)
        return Cochain(self.field, self.degree, self.dim_source, self.dim_target,
                       [scale_vec(c, v) for v in self.values])

    def _check_compatible(self, other: "Cochain"):
        if (self.degree, self.dim_source, self.dim_target) != \
                (other.degree, other.dim_source, other.dim_target):
            raise ShapeError("cochain shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.degree == other.degree and self.dim_source == other.dim_source
                and self.dim_target == other.dim_target and self.values == other.values)

    def __hash__(self):
        return hash((self.degree, self.dim_source, self.dim_target, self.values))

    def is_zero(self) -> bool:
        return all(is_zero_vec(v) for v in self.values)

    def __repr__(self):
        nz = sum(1 for v in self.values if not is_zero_vec(v))
        return (f"Cochain(degree={self.degree}, {self.dim_source}->{self.dim_target}, "
                f"{nz} nonzero keys)")


def cochain_space_dim(dim_source: int, dim_target: int, degree: int) -> int:
    return len(cochain_keys(dim_source, degree)) * dim_target


def _add_block(acc, entries, base: int, negate: bool):
    """Add the (t, s, x) entries of one m x m block, or their negatives, at column ``base``."""
    for t, s, x in entries:
        row = acc[t]
        j = base + s
        row[j] = row.get(j, 0) + (-x if negate else x)


def _add_diagonal(acc, x, base: int):
    """Add x times the m x m identity at column ``base``."""
    for t, row in enumerate(acc):
        j = base + t
        row[j] = row.get(j, 0) + x


def _coboundary_rows(c, L, R, m: int, degree: int) -> list:
    """Sparse rows of the coboundary matrix, one {column: coefficient} each.

    ``c``, ``L`` and ``R`` are `algebra.action_arrays` of an algebra and
    a module of dimension m.

    For f of degree n and x_1 < ... < x_n, x_{n+1} basis indices,

      (df)(x_1, ..., x_{n+1})
        = sum_i (-1)^{i+1} L_{x_i} f(..., x_i omitted, ..., x_{n+1})
        + sum_i (-1)^{i+1} R_{x_{n+1}} f(..., x_i omitted, ..., x_n, x_i)
        - sum_i (-1)^{i+1} f(..., x_i omitted, ..., x_n, x_i . x_{n+1})
        + sum_{i<j<=n} (-1)^{i+j} f([x_i, x_j], ..., x_i, x_j omitted, ..., x_{n+1})

    with i running over 1..n.  The m rows of one degree-(n+1) key are
    built as blocks: the L- and R-terms add the m x m matrix L_{x_i} or
    R_{x_{n+1}} at the column block of the degree-n key they read, and
    the product and bracket terms add c_k times the identity at the block
    of the key that holds basis index k, with the sign that sorts that
    key (`_sort_with_sign`; a repeated index gives no term).  The rows
    use only +, - and * on the arrays' scalars, so they run on field
    scalars and on their integer lift alike.
    """
    n = len(c)
    index = _key_index(n, degree)

    def nonzero(M):
        return [(t, s, x) for t, row in enumerate(M) for s, x in enumerate(row) if x]

    L = [nonzero(M) for M in L]
    R = [nonzero(M) for M in R]
    rows = []
    for fb, last in cochain_keys(n, degree + 1):
        acc = [{} for _ in range(m)]
        for i, x in enumerate(fb):
            odd = i % 2 == 1  # slot i + 1 carries the sign (-1)^{(i+1)+1}, -1 for odd i
            rest = fb[:i] + fb[i + 1:]
            _add_block(acc, L[x], index[(rest, last)] * m, odd)
            _add_block(acc, R[last], index[(rest, x)] * m, odd)
            for k, ck in enumerate(c[x][last]):
                if ck:
                    _add_diagonal(acc, ck if odd else -ck, index[(rest, k)] * m)
        for i in range(degree):
            for j in range(i + 1, degree):
                x, y = fb[i], fb[j]
                rest = fb[:i] + fb[i + 1:j] + fb[j + 1:]
                for k, (cxy, cyx) in enumerate(zip(c[x][y], c[y][x])):
                    bk = cxy - cyx
                    norm = _sort_with_sign((k,) + rest) if bk else None
                    if norm is not None:
                        sign, key = norm
                        if (i + j) % 2:
                            sign = -sign
                        _add_diagonal(acc, bk if sign == 1 else -bk, index[(key, last)] * m)
        rows.extend({j: v for j, v in row.items() if v} for row in acc)
    return rows


def coboundary(a: PreLieAlgebra, rep: Representation, f: Cochain) -> Cochain:
    """The coboundary of f: a degree-(n+1) cochain into the same module.

    The rows of `_coboundary_rows` applied to the coordinates of f, on
    one `scalars.lift` of (a, rep) and f: each value has degree 2 in the
    lifted scalars (a `Poly` coordinate, coefficient by coefficient).
    """
    if f.dim_source != a.dim or f.dim_target != rep.dim_v:
        raise ShapeError("cochain does not match the algebra and module")
    (c, L, R, values), down = lift(a.field, (*action_arrays(a, rep), f.values))
    coords = [x for v in values for x in v]
    out = []
    for row in _coboundary_rows(c, L, R, rep.dim_v, f.degree):
        s = 0
        for j, c in row.items():
            x = coords[j]
            if x:
                s = s + c * x
        out.append(s)
    m = rep.dim_v
    degree = f.degree + 1
    return Cochain(a.field, degree, a.dim, m,
                   [down(out[p * m:(p + 1) * m], 2)
                    for p in range(len(cochain_keys(a.dim, degree)))])


def _check_map_to_module(name: str, a: PreLieAlgebra, rep: Representation, c: Cochain,
                         degree: int) -> None:
    """Raise `ShapeError` unless c is a degree-``degree`` cochain from a to rep's module."""
    if c.degree != degree or c.dim_source != a.dim or c.dim_target != rep.dim_v:
        kind = "linear" if degree == 1 else "bilinear"
        raise ShapeError(f"{name} must be a {kind} map from the algebra to the module")


def check_two_cocycle(a: PreLieAlgebra, rep: Representation, H: Cochain) -> Report:
    """Is the bilinear map H a 2-cocycle, that is, does its coboundary vanish?

    Violations are reported at every basis triple (x, y, z) where dH is
    nonzero, including both orders of x and y: dH is antisymmetric in them.
    """
    _check_map_to_module("H", a, rep, H, 2)
    dH = coboundary(a, rep, H)
    n = a.dim
    return residual_report(((x, y, z), dH.eval_basis((x, y, z)))
                           for x in range(n) for y in range(n) for z in range(n))


def coboundary_matrix(a: PreLieAlgebra, rep: Representation, degree: int) -> Matrix:
    """Matrix of the coboundary on canonical cochain bases.

    Columns follow the degree-n basis (key-major, then target coordinate),
    rows the degree-(n+1) basis, both in canonical lexicographic order.
    """
    cols = cochain_space_dim(a.dim, rep.dim_v, degree)
    zero = a.field.zero
    rows = _coboundary_rows(*action_arrays(a, rep), rep.dim_v, degree)
    return Matrix(a.field, [[row.get(j, zero) for j in range(cols)] for row in rows], cols=cols)


@dataclass(frozen=True)
class CohomologyReport:
    degree: int
    dim_z: int
    dim_b: int
    dim_h: int


def cohomology(a: PreLieAlgebra, rep: Representation, degree: int) -> CohomologyReport:
    """Exact dimensions of cocycles, coboundaries, and cohomology.

    dim B at degree 1 is 0 by convention: the complex starts at degree 1,
    so H^1 = Z^1.  (a, rep) is lifted once and handed to
    `integer_cohomology`.
    """
    (c, L, R), _ = lift(a.field, action_arrays(a, rep))
    return integer_cohomology(c, L, R, rep.dim_v, a.field.char, degree)[0]


def integer_cohomology(c, L, R, m: int, p: int, degree: int) -> tuple:
    """(`CohomologyReport` at ``degree``, the sparse rows of d there).

    ``c``, ``L`` and ``R`` are `algebra.action_arrays` (module dim m) as
    ints: over Q (p = 0) at one scale, which scales the rows, not their
    ranks; over F_p congruent to the field values, rows reduced mod p.
    d o d = 0 is verified on the rows the ranks are taken of.
    """
    def rows(k):
        out = _coboundary_rows(c, L, R, m, k)
        return [{j: r for j, v in row.items() if (r := v % p)} for row in out] if p else out

    d_n = rows(degree)
    dim_b = 0
    if degree > 1:
        d_prev = rows(degree - 1)
        if any(sparse_mul(d_n, d_prev, p)):
            raise InvariantError("coboundary does not square to zero")
        dim_b = integer_rank(d_prev, p)
    dim_z = cochain_space_dim(len(c), m, degree) - integer_rank(d_n, p)
    return CohomologyReport(degree, dim_z, dim_b, dim_z - dim_b), d_n
