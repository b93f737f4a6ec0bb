"""Small exact matrix helpers.

Matrices are plain tuples of tuples (rows). Everything here is exact:
integer matrices stay integer, and inverses go through Fractions and are
checked before being handed back. Nothing in this module knows about the
ring model; it is shared plumbing for the action and spectral layers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, NotUnimodular

Matrix = tuple  # tuple of row tuples


def freeze(rows: Sequence[Sequence]) -> Matrix:
    """Copy a nested sequence into a tuple-of-tuples matrix."""
    out = tuple(tuple(row) for row in rows)
    if out:
        w = len(out[0])
        for row in out:
            if len(row) != w:
                raise DimensionMismatch("ragged matrix rows")
    return out


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise DimensionMismatch(
            "cannot multiply %dx%d by %dx%d" % (len(a), len(a[0]), len(b), len(b[0]))
        )
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Sequence) -> tuple:
    if len(a[0]) != len(v):
        raise DimensionMismatch("matrix width %d vs vector length %d" % (len(a[0]), len(v)))
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def det(a: Matrix) -> int:
    """Determinant of an integer matrix by fraction-free Gaussian elimination.

    Bareiss' algorithm: every intermediate value is an exact integer, and
    every division is exact. Returns a plain int.
    """
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise DimensionMismatch("determinant of a non-square matrix")
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                num = m[r][c] * m[col][col] - m[r][col] * m[col][c]
                q, rem = divmod(num, prev)
                assert rem == 0, "Bareiss division was not exact"
                m[r][c] = q
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def inverse_unimodular(a: Matrix) -> Matrix:
    """Invert an integer matrix with determinant +-1.

    The inverse of such a matrix is again an integer matrix; we compute it
    over Fractions and check integrality rather than trusting the caller.
    """
    n = len(a)
    d = det(a)
    if d not in (1, -1):
        raise NotUnimodular("determinant is %s, expected +-1" % d)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = []
    for row in aug:
        vals = row[n:]
        assert all(v.denominator == 1 for v in vals)
        out.append(tuple(int(v) for v in vals))
    return tuple(out)
