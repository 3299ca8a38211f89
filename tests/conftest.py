"""Shared fixtures: known algebras, and generators of random verified data.

Random verified Reynolds bundles come from two sources that are verified
by construction: inverses of invertible 1-cochains (weight -dh), and the
zero operator with a weight sampled from the kernel of the degree-2
coboundary matrix.  Transporting any bundle along random unimodular basis
changes of the algebra and the module yields messy-looking but still
exactly verified instances.
"""

from __future__ import annotations

import random
from itertools import product
import sys
from pathlib import Path

import pytest

from oracles import dense_kernel
from prelie.algebra import (
    PreLieAlgebra,
    Report,
    Representation,
    regular_representation,
)
from prelie.cochain import Cochain, coboundary_matrix, cochain_keys
from prelie.linalg import Matrix
from prelie.reynolds import ReynoldsData, reynolds_from_invertible_cochain
from prelie.scalars import QQ, Poly, PrimeField

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def as_terms(v) -> tuple:
    """Coordinates as {monomial: coefficient}, so scalars and `Poly`s compare by value."""
    return tuple(x.terms if isinstance(x, Poly) else {(): x} if x else {} for x in v)


def _replace_everywhere(monkeypatch, module, name: str, make) -> None:
    """Replace ``module.name`` by ``make(original)`` wherever ``prelie`` binds it.

    Modules bind names with ``from .cochain import ...``, so every
    ``prelie`` module attribute that is the original function is replaced.
    ``module`` may be a class: then every name it binds the method to is
    (``Poly.__rmul__`` is ``Poly.__mul__``).
    """
    original = getattr(module, name)
    replacement = make(original)
    if isinstance(module, type):
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, replacement)
        return
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "prelie" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call to ``module.name``."""
    calls = []

    def make(original):
        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return counting

    _replace_everywhere(monkeypatch, module, name, make)
    return calls


def fail_after(monkeypatch, module, name: str, passes: int) -> list:
    """Let the checker ``module.name`` run ``passes`` times, then report a failure.

    Returns the arguments of every call, so a test can see that the
    failing call came after the first ``passes``.
    """
    calls = []
    failed = Report(False, [((0,), (QQ(1),))])

    def make(original):
        def checker(*args):
            calls.append(args)
            return original(*args) if len(calls) <= passes else failed
        return checker

    _replace_everywhere(monkeypatch, module, name, make)
    return calls


# ---------------------------------------------------------------------------
# fixed algebras


def abelian(field, dim: int) -> PreLieAlgebra:
    """The algebra of dimension ``dim`` with the zero product."""
    z = field.zero
    return PreLieAlgebra(field, [[[z] * dim for _ in range(dim)] for _ in range(dim)],
                         check=False)


def zero_representation(a: PreLieAlgebra, dim_v: int) -> Representation:
    """The algebra acting by zero on a module of dimension ``dim_v``."""
    z = Matrix.zero(a.field, dim_v, dim_v)
    return Representation(a, dim_v, [z] * a.dim, [z] * a.dim, check=False)


def g3_algebra(field=QQ) -> PreLieAlgebra:
    """dim 3, single product e3.e3 = e2."""
    return PreLieAlgebra.build(field, 3, {(2, 2, 1): 1})


def g2_algebra(field=QQ) -> PreLieAlgebra:
    """dim 2, products e2.e1 = -e1 and e2.e2 = e2."""
    return PreLieAlgebra.build(field, 2, {(1, 0, 0): -1, (1, 1, 1): 1})


def g3b_algebra(field=QQ) -> PreLieAlgebra:
    """dim 3, products e3.e2 = e2 and e3.e3 = -e3."""
    return PreLieAlgebra.build(field, 3, {(2, 1, 1): 1, (2, 2, 2): -1})


def truncated_poly_algebra(field=QQ) -> PreLieAlgebra:
    """Commutative associative truncation on basis (1, x, x^2); unital."""
    entries = {}
    for i in range(3):
        for j in range(3):
            if i + j <= 2:
                entries[(i, j, i + j)] = 1
    return PreLieAlgebra.build(field, 3, entries, unit=(1, 0, 0))


def g3_cocycle(field=QQ) -> Cochain:
    return Cochain.from_entries(field, 2, 3, 3, {((2,), 2): (0, 0, 1)})


@pytest.fixture
def g3():
    return g3_algebra()


@pytest.fixture
def g3_bundle():
    a = g3_algebra()
    return a, regular_representation(a), g3_cocycle()


@pytest.fixture
def g3_data(g3_bundle):
    a, rep, H = g3_bundle
    K = Matrix(QQ, [[1, 2, 3], [4, 5, 6], [0, 0, 0]])
    return ReynoldsData.build(a, rep, H, K)


# ---------------------------------------------------------------------------
# randomized verified instances


def unimodular(rng: random.Random, field, n: int, steps: int = 3) -> Matrix:
    """A small random invertible matrix built from elementary operations."""
    m = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = field(rng.choice([-1, 1]))
        for k in range(n):
            m[j][k] = m[j][k] + c * m[i][k]
    return Matrix(field, m)


def conjugate_algebra(a: PreLieAlgebra, P: Matrix) -> PreLieAlgebra:
    """Transport of structure along x -> P x (an algebra isomorphism)."""
    inv = P.inverse()
    tensor = []
    for i in range(a.dim):
        plane = []
        for j in range(a.dim):
            plane.append(inv.apply(a.mul(P.column(i), P.column(j))))
        tensor.append(plane)
    unit = inv.apply(a.unit) if a.unit is not None else None
    return PreLieAlgebra(a.field, tensor, unit=unit, check=True)


def conjugate_representation(rep: Representation, new_algebra: PreLieAlgebra,
                             P: Matrix, Q: Matrix) -> Representation:
    """Transport along phi = P on the algebra and psi = Q on the module."""
    qinv = Q.inverse()
    L, R = [], []
    for i in range(new_algebra.dim):
        x = P.column(i)
        L.append(qinv * combination(rep.L, x) * Q)
        R.append(qinv * combination(rep.R, x) * Q)
    return Representation(new_algebra, rep.dim_v, L, R, check=True)


def combination(matrices, x) -> Matrix:
    """sum_i x_i M_i for matrices M_i of one shape and coordinates x."""
    out = Matrix.zero(matrices[0].field, matrices[0].rows, matrices[0].cols)
    for M, xi in zip(matrices, x, strict=True):
        if xi:
            out = out + M.scale(xi)
    return out


def base_algebras(field=QQ):
    return [
        abelian(field, 2),
        abelian(field, 3),
        g3_algebra(field),
        g2_algebra(field),
        g3b_algebra(field),
        truncated_poly_algebra(field),
    ]


def random_algebra(rng: random.Random, field=QQ, max_dim: int = 3) -> PreLieAlgebra:
    candidates = [a for a in base_algebras(field) if a.dim <= max_dim]
    a = rng.choice(candidates)
    P = unimodular(rng, field, a.dim)
    return conjugate_algebra(a, P)


def random_pair(rng: random.Random, field=QQ, max_dim: int = 3):
    """A random verified (algebra, representation) pair."""
    a = random_algebra(rng, field, max_dim)
    kind = rng.choice(["regular", "zero", "conjugated"])
    if kind == "regular":
        return a, regular_representation(a)
    if kind == "zero":
        return a, zero_representation(a, rng.randint(1, max_dim))
    reg = regular_representation(a)
    Q = unimodular(rng, field, a.dim)
    return a, conjugate_representation(reg, a, Matrix.identity(field, a.dim), Q)


def random_cochain(rng: random.Random, field, degree: int, dim_source: int,
                   dim_target: int, lo: int = -2, hi: int = 2) -> Cochain:
    keys = cochain_keys(dim_source, degree)
    return Cochain(field, degree, dim_source, dim_target,
                   [[field(rng.randint(lo, hi)) for _ in range(dim_target)]
                    for _ in keys])


def random_invertible(rng: random.Random, field, n: int) -> Matrix:
    for _ in range(50):
        m = Matrix(field, [[field(rng.randint(-2, 2)) for _ in range(n)]
                           for _ in range(n)])
        if m.inverse() is not None:
            return m
    return Matrix.identity(field, n)


def random_two_cocycle(rng: random.Random, a: PreLieAlgebra, rep: Representation):
    """A random element of the kernel of the degree-2 coboundary matrix."""
    d2 = coboundary_matrix(a, rep, 2)
    basis = dense_kernel(d2)
    field = a.field
    m = rep.dim_v
    keys = cochain_keys(a.dim, 2)
    flat = [field.zero] * (len(keys) * m)
    for vec in basis:
        c = field(rng.randint(-1, 1))
        if c:
            flat = [x + c * y for x, y in zip(flat, vec)]
    values = [flat[i * m:(i + 1) * m] for i in range(len(keys))]
    return Cochain(field, 2, a.dim, m, values)


def random_reynolds_data(rng: random.Random, field=QQ, max_dim: int = 3,
                         invertible_only: bool = False) -> ReynoldsData:
    """A random verified Reynolds bundle.

    Draws from the invertible-cochain construction (weight -dh, operator
    h^{-1}) and, unless ``invertible_only``, from zero operators with a
    random 2-cocycle weight.
    """
    if not invertible_only and rng.random() < 0.3:
        a, rep = random_pair(rng, field, max_dim)
        H = random_two_cocycle(rng, a, rep)
        K = Matrix.zero(field, a.dim, rep.dim_v)
        return ReynoldsData.build(a, rep, H, K)
    a = random_algebra(rng, field, max_dim)
    kind = rng.choice(["regular", "conjugated"])
    if kind == "regular":
        rep = regular_representation(a)
    else:
        Q = unimodular(rng, field, a.dim)
        rep = conjugate_representation(regular_representation(a), a,
                                       Matrix.identity(field, a.dim), Q)
    h = Cochain.from_matrix(random_invertible(rng, field, a.dim))
    return reynolds_from_invertible_cochain(a, rep, h)


def padded_reynolds_data(rng: random.Random, field=QQ, max_dim: int = 3) -> ReynoldsData:
    """A random verified bundle with dim V > dim g and K != 0.

    An invertible bundle (g, V0; L, R, H, K0) from `random_reynolds_data`
    is extended to V = V0 + W, with 1 or 2 extra dimensions in W: the
    actions L + 0 and R + 0, the weight H + 0 and the operator
    K = [K0 | 0].  The Reynolds identity on V0 gives it on V.
    """
    data = random_reynolds_data(rng, field, max_dim, invertible_only=True)
    g, rep = data.algebra, data.rep
    m0 = rep.dim_v
    m = m0 + rng.randint(1, 2)
    tail = [field.zero] * (m - m0)

    def padded(M: Matrix) -> Matrix:
        return Matrix(field, [list(row) + tail for row in M.data]
                      + [[field.zero] * m for _ in tail])

    padded_rep = Representation(g, m, [padded(M) for M in rep.L], [padded(M) for M in rep.R])
    H = Cochain(field, 2, g.dim, m, [list(v) + tail for v in data.cocycle.values])
    K = Matrix(field, [list(row) + tail for row in data.operator.data])
    return ReynoldsData.build(g, padded_rep, H, K)


def fractional_ladder_data(n: int = 5) -> ReynoldsData:
    """A dense fractional rung of the k[x]/(x^n) ladder, seeded.

    The truncated algebra is conjugated by `unimodular(random.Random(7),
    QQ, n, steps=8)` and acts on itself; h has entries a/b with |a| <= 3
    and 1 <= b <= 3, drawn from random.Random(5) until it is invertible,
    and goes through `reynolds_from_invertible_cochain`.  So H and K have
    denominators (D_g, D_K > 1 on the lift), unlike the ladder's, and the
    operator cohomology has the ladder's dimensions.
    """
    a = PreLieAlgebra.build(QQ, n, {(i, j, i + j): 1 for i in range(n) for j in range(n)
                                    if i + j < n})
    g = conjugate_algebra(a, unimodular(random.Random(7), QQ, n, steps=8))
    rng = random.Random(5)
    while True:
        h = Matrix(QQ, [[QQ(rng.randint(-3, 3)) / rng.randint(1, 3) for _ in range(n)]
                        for _ in range(n)])
        if h.inverse() is not None:
            return reynolds_from_invertible_cochain(g, regular_representation(g),
                                                    Cochain.from_matrix(h))


def unitisation(a: PreLieAlgebra) -> PreLieAlgebra:
    """k1 + a with 1 a two-sided unit at index 0.

    Pre-Lie again: every associator with an entry 1 vanishes.
    """
    n = a.dim
    entries = {(0, 0, 0): 1}
    for i in range(1, n + 1):
        entries[(0, i, i)] = entries[(i, 0, i)] = 1
    for i, j, k in product(range(n), repeat=3):
        if a.product[i][j][k]:
            entries[(i + 1, j + 1, k + 1)] = a.product[i][j][k]
    return PreLieAlgebra.build(a.field, n + 1, entries, unit=(1,) + (0,) * n)


def unital_algebras(field=QQ) -> list:
    """The unital test algebras: k[x]/(x^3) and the unitised g2, g3b and g3."""
    return [truncated_poly_algebra(field)] + [
        unitisation(a) for a in (g2_algebra(field), g3b_algebra(field), g3_algebra(field))]
