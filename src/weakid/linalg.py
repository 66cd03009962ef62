"""Exact rational linear algebra: rank and linear solving, no floating point,
plus rank over a word-size prime field as a lower bound for the rational rank."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

#: The Mersenne prime 2^31 - 1: residues below 2^31, so the product of two
#: fits in int64 with room for one subtraction.
PRIME = 2**31 - 1


def _int_row(row: Sequence) -> list[int]:
    """Scale a rational row to coprime integers (rank-preserving)."""
    if all(isinstance(x, int) for x in row):
        r = list(row)
    else:
        den = lcm(*(Fraction(x).denominator for x in row)) if row else 1
        r = [int(Fraction(x) * den) for x in row]
    g = 0
    for x in r:
        g = gcd(g, x)
    if g > 1:
        r = [x // g for x in r]
    return r


def _gcd_reduce(r: list[int], lead: int) -> list[int]:
    g = 0
    for x in r:
        g = gcd(g, x)
        if g == 1:
            break
    if r[lead] < 0:
        g = -g
    return [x // g for x in r] if g != 1 else r


def exact_rank(rows: Iterable[Sequence]) -> int:
    """Rank over Q of a matrix given as an iterable of rows (ints or Fractions).

    Incremental fraction-free elimination: each incoming row is repeatedly
    reduced at its leading column against the stored pivot with that column
    until the leading column is new (or the row vanishes).
    """
    pivots: dict[int, list[int]] = {}  # leading column -> integer row
    for row in rows:
        r = _int_row(row)
        while True:
            lead = next((i for i, x in enumerate(r) if x), None)
            if lead is None or lead not in pivots:
                break
            p = pivots[lead]
            a, b = r[lead], p[lead]
            r = [x * b - y * a for x, y in zip(r, p)]
            nz = next((i for i, x in enumerate(r) if x), None)
            if nz is not None:
                r = _gcd_reduce(r, nz)
        if lead is not None:
            pivots[lead] = _gcd_reduce(r, lead)
    return len(pivots)


def rank_bareiss(matrix: Sequence[Sequence]) -> int:
    """Rank via fraction-free Bareiss elimination (dense, cross-check path)."""
    m = [_int_row(row) for row in matrix]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        p = m[row][col]
        for i in range(row + 1, nrows):
            f = m[i][col]
            m[i] = [(p * m[i][j] - f * m[row][j]) // prev for j in range(ncols)]
        prev = p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rank_mod_p(rows, p: int = PRIME) -> int:
    """Rank over GF(p) of an integer matrix, for a prime p < 2^31.

    A lower bound for the rank over Q, equal to it for all but finitely many
    primes (those dividing every maximal nonzero minor).  Vectorised Gaussian
    elimination on int64 residues; each pivot step touches only the rows
    that are nonzero in its column.
    """
    a = np.atleast_2d(np.asarray(rows) % p).astype(np.int64)
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            continue
        pivot = rank + nz[0]
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), p - 2, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1:, col])
        if below.size:
            a[below, col:] = (a[below, col:] - a[below, col, None] * a[rank, col:]) % p
        rank += 1
    return rank


def solve_exact(
    rows: Sequence[Sequence], rhs: Sequence
) -> list[Fraction] | None:
    """One exact solution of ``rows @ x = rhs`` or None if inconsistent.

    Gaussian elimination over Fractions; free variables are set to zero, so
    the returned solution is deterministic in the given column order.
    """
    aug = [
        [Fraction(x) for x in row] + [Fraction(b)]
        for row, b in zip(rows, rhs, strict=True)
    ]
    ncols = len(aug[0]) - 1 if aug else 0
    pivot_cols: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivot_cols):
        x[col] = aug[i][ncols]
    return x
