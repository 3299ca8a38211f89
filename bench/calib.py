"""Calibration kernel: a fixed piece of stdlib-only work timed between jobs.

The speed of the machines this benchmark runs on drifts by up to a factor
of two within one process, in phases that last seconds.  Timing the same
fixed work next to every job and dividing by it cancels most of that
drift.  The kernel mixes the operations the library spends its time on
(Fraction arithmetic in row reduction, int arithmetic, tuple building and
dict lookups) and imports nothing from `prelie`, so a change to the
library cannot change the kernel.
"""

from __future__ import annotations

import time
from fractions import Fraction

ROWS, COLS = 12, 16


def _matrix():
    """A sparse integer matrix shaped like a small coboundary matrix."""
    return [[Fraction((i * 7 + j * 13 + 1) % 11 - 5) if (i * 5 + j * 3) % 4 == 0
             else Fraction(0) for j in range(COLS)] for i in range(ROWS)]


def _rank(m) -> int:
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def _tuples() -> int:
    table = {}
    for i in range(600):
        key = (i % 7, (i * 3) % 11)
        table[key] = table.get(key, 0) + sum(t % 5 for t in (i, i + 1, i + 2))
    return sum(table.values())


# Results of one kernel call; a different value means the kernel did not
# do the work it is timed for.
EXPECTED = (ROWS, 3600)


def kernel() -> tuple:
    return _rank(_matrix()), _tuples()


def sample(reps: int) -> list:
    """Time ``reps`` kernel calls; returns their durations in seconds."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = kernel()
        out.append(time.perf_counter() - t0)
        if result != EXPECTED:
            raise AssertionError(f"calibration kernel returned {result}")
    return out
