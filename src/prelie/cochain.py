"""Cochain spaces, the coboundary, and cohomology dimensions.

A degree-n cochain is a multilinear map on n arguments from a source
space X to a target space Y, antisymmetric in its first n-1 arguments
(the last slot is distinguished).  Values are stored on canonical keys:
a strictly increasing (n-1)-tuple of basis indices plus a free last
index, in lexicographic order.  Degree-1 cochains are plain linear maps;
degree-2 cochains are arbitrary bilinear maps.

The coboundary has one kernel, `_coboundary_columns`: the sparse
columns of its matrix, assembled block by block from raw arrays
(`algebra.action_arrays`), so it runs on field scalars and on ints
alike.  `integer_cohomology` takes the exact ranks bottom-up on integer
columns, from arrays lifted by one `scalars.lift` (`cohomology`) or read
off an operator's frame (`opcohomology`), and checks d o d = 0 at every
level it builds.  `coboundary` applies the columns to f's lifted
coordinates and maps each value back (`_apply_coboundary`, shared with
`opcohomology`); `coboundary_matrix` runs the kernel on the field
arrays.  `check_two_cocycle` reads dH off the pre-Lie defect of g + V
twisted by H (`cocycle_report`, `SIGNS.md`) on `twisted_rows`, the one
lift of a fixed triple (a, rep, H).

Everything here is graded in a single degree per slot, so the Koszul
sign of a permutation reduces to its parity.  There is one parity
routine, `_sort_with_sign`: it signs the sort of a key to canonical
order, and the composition product (`brackets._scatter`) takes the sign
of each merged key from it.
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
    lifted_report,
    minus_defects,
    semidirect_rows,
)
from .errors import InvariantError, ShapeError
from .linalg import (
    Matrix,
    _echelon,
    add_vec,
    integer_rank,
    is_zero_vec,
    neg_vec,
    scale_vec,
    sparse_mul,
    sub_vec,
    zero_vec,
)
from .scalars import descend, lift


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
            vals[(fb, last)] = v
        return cls(field, degree, dim_source, dim_target, list(vals.values()))

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


def _coboundary_columns(c, L, R, m: int, degree: int, p: int = 0) -> list:
    """Sparse columns {row: coefficient} of the coboundary matrix on
    `algebra.action_arrays` (module dim m), mod ``p`` if p > 0.

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
    key (`_sort_with_sign`; a repeated index gives no term).  Zero sums
    are dropped.
    """
    n = len(c)
    index = _key_index(n, degree)
    cols = [{} for _ in range(len(index) * m)]

    def put(entries, a, base, row):  # a times the block of (t, s, x) entries
        for t, s, x in entries:
            col, i = cols[base + s], row + t
            v = col.get(i, 0) + a * x
            if p:
                v %= p
            if v:
                col[i] = v
            else:
                col.pop(i, None)

    def nonzero(M):
        return [(t, s, x) for t, row in enumerate(M) for s, x in enumerate(row) if x]

    L = [nonzero(M) for M in L]
    R = [nonzero(M) for M in R]
    eye = [(t, t, 1) for t in range(m)]
    for q, (fb, last) in enumerate(cochain_keys(n, degree + 1)):
        row = q * m
        for i, x in enumerate(fb):
            sign = -1 if i % 2 else 1  # slot i + 1 carries the sign (-1)^{(i+1)+1}
            rest = fb[:i] + fb[i + 1:]
            put(L[x], sign, index[(rest, last)] * m, row)
            put(R[last], sign, index[(rest, x)] * m, row)
            for k, ck in enumerate(c[x][last]):
                if ck:
                    put(eye, -sign * ck, index[(rest, k)] * m, row)
        for i in range(degree):
            for j in range(i + 1, degree):
                x, y = fb[i], fb[j]
                rest = fb[:i] + fb[i + 1:j] + fb[j + 1:]
                for k, (cxy, cyx) in enumerate(zip(c[x][y], c[y][x])):
                    bk = cxy - cyx
                    norm = _sort_with_sign((k,) + rest) if bk else None
                    if norm is not None:
                        sign, key = norm
                        put(eye, -sign * bk if (i + j) % 2 else sign * bk,
                            index[(key, last)] * m, row)
    return cols


def _apply_coboundary(c, L, R, m: int, f: Cochain, values, back) -> Cochain:
    """d f = sum_j f_j col_j (`_coboundary_columns`) on lifted arrays (module
    dim m) and f's lifted ``values``, each value mapped back by ``back``."""
    coords = {j: x for j, x in enumerate(x for v in values for x in v) if x}
    (out,) = sparse_mul([coords], _coboundary_columns(c, L, R, m, f.degree))
    n, degree = len(c), f.degree + 1
    return Cochain(f.field, degree, n, m,
                   [back([out.get(i, 0) for i in range(q * m, (q + 1) * m)])
                    for q in range(len(cochain_keys(n, degree)))])


def coboundary(a: PreLieAlgebra, rep: Representation, f: Cochain) -> Cochain:
    """The coboundary of f into the same module, on one `scalars.lift` of (a, rep)
    and f: each value has degree 2 there (a `Poly` coordinate, coefficient-wise)."""
    if f.dim_source != a.dim or f.dim_target != rep.dim_v:
        raise ShapeError("cochain does not match the algebra and module")
    (c, L, R, values), down = lift(a.field, (*action_arrays(a, rep), f.values))
    return _apply_coboundary(c, L, R, rep.dim_v, f, values, lambda r: down(r, 2))


def _check_map_to_module(name: str, a: PreLieAlgebra, rep: Representation, c: Cochain,
                         degree: int) -> None:
    """Raise `ShapeError` unless c is a degree-``degree`` cochain from a to rep's module."""
    if c.degree != degree or c.dim_source != a.dim or c.dim_target != rep.dim_v:
        kind = "linear" if degree == 1 else "bilinear"
        raise ShapeError(f"{name} must be a {kind} map from the algebra to the module")


def _semidirect_arrays(a: PreLieAlgebra, rep: Representation, H: Cochain | None) -> tuple:
    """What `algebra.semidirect_tensor` reads: the product, the rows of L and R, the H table
    (() for H = None)."""
    n = a.dim
    return (*action_arrays(a, rep),
            () if H is None else [H.values[i * n:(i + 1) * n] for i in range(n)])


def twisted_rows(a: PreLieAlgebra, rep: Representation, H: Cochain | None) -> tuple:
    """g + V twisted by H on one `scalars.lift`: (`algebra.semidirect_rows`, denominator D).

    The one preparation of a fixed triple: a command runs it once per
    distinct (a, rep, H), since the build of a bundle hands its own to
    every kernel the command runs (`reynolds._verified`).
    """
    field = a.field
    (c, L, R, h, D), _ = lift(field, (*_semidirect_arrays(a, rep, H), field.one))
    return semidirect_rows(c, rep.dim_v, L, R, h), D


def cocycle_report(a: PreLieAlgebra, twisted: tuple) -> Report:
    """`check_two_cocycle` on ``twisted``, `twisted_rows` of (a, rep, H): dH(x, y, z) is
    minus the V-part of the pre-Lie defect there, read at x < y (`algebra.minus_defects`)."""
    (rows, D), r = twisted, range(a.dim)
    dH = minus_defects(rows, [(x, y, z) for x in r for y in r[x + 1:] for z in r], a.dim)
    return Report(True) if dH is None else lifted_report(
        (((x, y, z), dH(x, y, z)) for x in r for y in r if x != y for z in r),
        descend(a.field, D ** 2))


def check_two_cocycle(a: PreLieAlgebra, rep: Representation, H: Cochain) -> Report:
    """Is the bilinear map H a 2-cocycle, that is, does its coboundary vanish?

    Violations are reported at every basis triple (x, y, z) where dH is
    nonzero, including both orders of x and y: dH is antisymmetric in them.
    """
    _check_map_to_module("H", a, rep, H, 2)
    return cocycle_report(a, twisted_rows(a, rep, H))


def coboundary_matrix(a: PreLieAlgebra, rep: Representation, degree: int) -> Matrix:
    """Matrix of the coboundary on canonical cochain bases.

    Columns follow the degree-n basis (key-major, then target coordinate),
    rows the degree-(n+1) basis, both in canonical lexicographic order.
    """
    zero, rows = a.field.zero, cochain_space_dim(a.dim, rep.dim_v, degree + 1)
    cols = _coboundary_columns(*action_arrays(a, rep), rep.dim_v, degree)
    return Matrix(a.field, [[col.get(i, zero) for col in cols] for i in range(rows)],
                  cols=len(cols))


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
    """(`CohomologyReport` at ``degree``, the sparse columns of d there), on
    `algebra.action_arrays` (module dim m) as ints: over Q (p = 0) at one
    scale, over F_p congruent to the field values.

    Level k of a tower up to ``degree`` raises `InvariantError` unless d_k
    kills the basis of B^k handed up from below, and ranks only the
    columns of d_k off that basis's leading coordinates; `_echelon` hands
    up its own and its pivots' input columns (`SIGNS.md`, "Cohomology
    bottom-up", also for where the tower starts and a wide level).
    """
    def dim(k):
        return cochain_space_dim(len(c), m, k)

    k0 = degree - (degree > 1)
    while k0 > 1 and dim(k0 - 1) <= dim(k0):
        k0 -= 1
    basis, leads, dim_b = [], (), 0
    for k in range(k0, degree + 1):
        cols = _coboundary_columns(c, L, R, m, k, p)
        if any(sparse_mul(basis, cols, p)):
            raise InvariantError(f"coboundary does not square to zero at degree {k}")
        # last key first: ties in `_echelon` go to the later key
        kept = [col for s, col in enumerate(cols) if col and s not in leads][::-1]
        if k == degree:
            dim_z = dim(k) - integer_rank(kept, p)
        elif len(kept) > dim(k + 1):
            basis, leads, dim_b = kept, (), integer_rank(kept, p)
        else:
            echelon = _echelon(kept, p)
            basis, leads, dim_b = [kept[i] for i, _ in echelon.values()], echelon, len(echelon)
    return CohomologyReport(degree, dim_z, dim_b, dim_z - dim_b), cols
