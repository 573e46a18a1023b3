"""Exact integer and rational linear algebra.

Everything downstream (cone duality, face tightness, fan predicates) relies on
exact arithmetic, so this module works with arbitrary-precision ints and
`fractions.Fraction` only; no floats anywhere.

Conventions: a lattice vector is a tuple of ints, a matrix is a sequence of
row vectors of equal length.  Normal forms use fraction-free integer
algorithms (Bareiss elimination, unimodular row operations), on integer
rows only; `Fraction` is accepted by `dot` and `is_zero_vec` alone.  The
hot helpers are one builtin call per vector: `math.gcd(*v)` in `primitive`,
`not any(v)` in `is_zero_vec`, and `zip` for the row operations of `hnf`.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:   # importing fractions pulls in decimal and numbers
    from fractions import Fraction
    from typing import Union

    Scalar = Union[int, Fraction]

IntVec = tuple[int, ...]


class ExactError(ValueError):
    """Raised for arithmetic preconditions (zero vectors, dependent rows)."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    if len(a) != len(b):
        raise ExactError(f"rank mismatch in pairing: {len(a)} vs {len(b)}")
    return sum(map(operator.mul, a, b))


def vec_neg(a: IntVec) -> IntVec:
    return tuple(-x for x in a)


def is_zero_vec(a: Sequence[Scalar]) -> bool:
    return not any(a)


def primitive(v: Sequence[int]) -> IntVec:
    """v divided by the gcd of its coordinates; errors on the zero vector."""
    g = math.gcd(*v)
    if g == 0:
        raise ExactError("zero vector has no primitive representative")
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of integer rows via fraction-free (Bareiss)
    elimination."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rk = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(rk, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(rk + 1, len(m)):
            for j in range(col + 1, ncols):
                m[i][j] = (m[rk][col] * m[i][j] - m[i][col] * m[rk][j]) // prev
            m[i][col] = 0
        prev = m[rk][col]
        rk += 1
        if rk == len(m):
            break
    return rk


def hnf(rows: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns the nonzero rows only: pivots positive, entries above each pivot
    reduced into [0, pivot).  Canonical for the row lattice, hence usable as
    a structural-equality key.
    """
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    pr = 0
    for col in range(n):
        piv = None
        for i in range(pr, m):
            if work[i][col] == 0:
                continue
            if piv is None:
                piv = i
                continue
            a, b = work[piv][col], work[i][col]
            g, x, y = xgcd(a, b)
            u, v = a // g, b // g
            work[piv], work[i] = ([x * s + y * t for s, t in zip(work[piv], work[i])],
                                  [u * t - v * s for s, t in zip(work[piv], work[i])])
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        if work[pr][col] < 0:
            work[pr] = [-x for x in work[pr]]
        p = work[pr][col]
        for i in range(pr):
            q = work[i][col] // p
            if q:
                work[i] = [s - q * t for s, t in zip(work[i], work[pr])]
        pr += 1
    return tuple(tuple(r) for r in work[:pr])


def kernel_basis(rows: Sequence[Sequence[int]], n: int) -> tuple[IntVec, ...]:
    """Basis of the integer kernel {x in Z^n : <row_i, x> = 0 for all i}.

    Runs the Hermite elimination on [A^T | I]; rows whose A^T-part vanishes
    carry a basis of the kernel lattice in their identity-part.  The kernel of
    an integer map is saturated, so the result is a full basis of the kernel
    as a subgroup of Z^n.
    """
    rows = [r for r in rows if not is_zero_vec(r)]
    if not rows:
        return tuple(tuple(1 if k == j else 0 for k in range(n)) for j in range(n))
    m = len(rows)
    aug = [list(column) + [1 if k == j else 0 for k in range(n)]
           for j, column in enumerate(zip(*rows))]
    reduced = hnf(aug)
    kernel = [r[m:] for r in reduced if is_zero_vec(r[:m])]
    # rows of an HNF with zero left block are themselves in HNF: canonical
    return tuple(tuple(r) for r in kernel)
