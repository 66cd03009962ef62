"""Young's seminormal form of the symmetric group S_n.

Each partition lam of n gives an irreducible representation rho_lam of S_n
on the span of the standard Young tableaux of shape lam.  A tableau is the
tuple of the (row, column) cells of its entries 1..n.  The tableaux are
listed by the cell of n, then of n - 1, and so on (the last entry
outermost).  So for d <= n the tableaux that agree on the entries d+1..n
form consecutive runs, and inside a run their restrictions to 1..d are the
tableaux of one shape mu of d, in that shape's own order.  This is the
Gelfand-Tsetlin property: rho_lam of an element of QS_d, the permutations
fixing d+1..n, is block diagonal, one block rho_mu(x) per run
(``restriction_blocks``).

The adjacent transposition s_i = (i, i+1) acts by Young's seminormal rule.
Let r = c(i+1) - c(i), the difference of the contents (column minus row) of
the cells of i+1 and i in T.  Then

    rho(s_i) e_T = (1/r) e_T + a e_{s_i T},

where s_i T swaps i and i+1.  That partner term is absent when i and i+1
share a row (r = 1) or a column (r = -1), since s_i T is then no tableau.
Otherwise a = 1 when i lies in a row above i+1, and a = 1 - 1/r^2 when it
lies below.  So each generator is a diagonal plus at most one partner entry
per column.  Entries are residues modulo a prime p >= n, which divides no
|r| <= n - 1, or Fractions when p is None.  Caches are keyed by shape (and
p), and their arrays are read-only.

rho_lam of a group-algebra element (``rho_element``) is built for every lam
of n at once along the trie of its words: the terms are grouped by the
place of the letter n, and each group, with n deleted, by one recursive
call at n - 1, placed block diagonally and multiplied by the generators
that move n back to its place.

Sources: A. Okounkov and A. Vershik, "A new approach to representation
theory of symmetric groups", Selecta Math. 2 (1996); G. James and
A. Kerber, The Representation Theory of the Symmetric Group (1981).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, int], ...]


def partitions(n: int, max_rows: int | None = None) -> list[Partition]:
    """All partitions of n (optionally with at most max_rows rows), reverse-lex."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if max_rows is not None and len(prefix) == max_rows:
            return
        for p in range(min(max_part, remaining), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def _corners(shape: Partition):
    """The removable cells of shape, top row first, with the shape left
    after removing each: (row, column, smaller shape)."""
    for row, length in enumerate(shape):
        if row + 1 == len(shape) or shape[row + 1] < length:
            smaller = shape[:row] + ((length - 1,) if length > 1 else ()) + shape[row + 1:]
            yield row, length - 1, smaller


@lru_cache(maxsize=256)
def standard_tableaux(shape: Partition) -> tuple[Tableau, ...]:
    """The standard Young tableaux of shape, in last-entry-outermost order."""
    if not shape:
        return ((),)
    return tuple(t + ((row, col),) for row, col, smaller in _corners(shape)
                 for t in standard_tableaux(smaller))


@lru_cache(maxsize=512)
def restriction_blocks(shape: Partition, d: int) -> tuple[tuple[int, Partition], ...]:
    """The runs of standard_tableaux(shape) that agree on the entries
    d+1..n, as (first index, shape mu of d of their restrictions to 1..d)."""
    if sum(shape) == d:
        return ((0, shape),)
    out, offset = [], 0
    for _, _, smaller in _corners(shape):
        out += [(offset + start, mu) for start, mu in restriction_blocks(smaller, d)]
        offset += len(standard_tableaux(smaller))
    return tuple(out)


def place_runs(shape: Partition, d: int, rows_of: Callable[[Partition], np.ndarray],
               p: int | None) -> np.ndarray:
    """The rows rows_of(mu) of each run of restriction_blocks(shape, d), at
    that run's columns, stacked in run order: block diagonal when every
    rows_of(mu) is square."""
    runs = [(start, rows_of(mu)) for start, mu in restriction_blocks(shape, d)]
    out = np.zeros((sum(len(rows) for _, rows in runs), len(standard_tableaux(shape))),
                   dtype=_dtype(p))
    top = 0
    for start, rows in runs:
        out[top:top + len(rows), start:start + rows.shape[1]] = rows
        top += len(rows)
    return out


def _residue(x: Fraction, p: int | None):
    return x if p is None else x.numerator * pow(x.denominator, -1, p) % p


@lru_cache(maxsize=128)
def seminormal_generators(
    shape: Partition, p: int | None
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """rho(s_i) for i = 1..n-1 as (diag, partner, coef): column T of the
    matrix holds diag[T] in row T and coef[T] in row partner[T] (coef 0 and
    partner T when there is no partner).  int64 residues modulo p, or
    Fractions (object arrays) for p None."""
    tableaux = standard_tableaux(shape)
    index = {t: j for j, t in enumerate(tableaux)}
    dtype = _dtype(p)
    n = sum(shape)
    # 1/r and 1 - 1/r^2 for each axial distance r = +-1..+-(n-1), made once
    inverse = {r: _residue(Fraction(1, r), p) for r in range(1 - n, n) if r}
    below = {r: _residue(1 - Fraction(1, r * r), p) for r in inverse}
    zero, one = _residue(Fraction(0), p), _residue(Fraction(1), p)
    gens = []
    for i in range(1, n):
        diag, partner, coef = [], [], []
        for j, t in enumerate(tableaux):
            (r1, c1), (r2, c2) = t[i - 1], t[i]
            r = (c2 - r2) - (c1 - r1)
            diag.append(inverse[r])
            if r1 == r2 or c1 == c2:
                partner.append(j)
                coef.append(zero)
            else:
                partner.append(index[t[:i - 1] + (t[i], t[i - 1]) + t[i + 1:]])
                coef.append(one if r1 < r2 else below[r])
        arrays = (np.array(diag, dtype=dtype), np.array(partner, dtype=np.intp),
                  np.array(coef, dtype=dtype))
        for a in arrays:
            a.setflags(write=False)
        gens.append(arrays)
    return tuple(gens)


def right_multiply(x: np.ndarray, shape: Partition, word: Iterable[int],
                   p: int | None) -> np.ndarray:
    """x @ rho(s_{w_1}) @ rho(s_{w_2}) @ ... for the word w, on a fresh array.

    Modulo p each step is x * diag + x[:, partner] * coef in int64: two
    products of residues below 2^62 each, so the sum stays below 2^63."""
    gens = seminormal_generators(shape, p)
    for i in word:
        diag, partner, coef = gens[i - 1]
        x = x * diag + x[:, partner] * coef
        if p is not None:
            x %= p
    return x


def _dtype(p: int | None):
    return object if p is None else np.int64


def rho_element(terms: Iterable[tuple[Sequence[int], int | Fraction]], n: int,
                p: int | None) -> dict[Partition, np.ndarray]:
    """rho_lam(f) for every partition lam of n, of the group-algebra element
    f = sum c * perm over the terms (perm, c), each perm a permutation of
    1..n in one-line notation.

    Built along the trie of the words, not term by term.  A word w with the
    letter n at place q is sigma s_{n-1} ... s_q, where sigma is w with n
    deleted, a permutation of 1..n-1.  So rho_lam(f) is the sum over q of
    rho_lam(f_q) rho(s_{n-1}) ... rho(s_q), where f_q collects the terms
    with n at place q, with n deleted; rho_lam(f_q) is block diagonal in the
    rho_mu(f_q), mu a partition of n - 1 (restriction_blocks), and one
    recursive call gives them for every mu at once."""
    if n <= 1:
        total = sum((c for _, c in terms), Fraction(0))
        return {(1,) * n: np.array([[_residue(total, p)]], dtype=_dtype(p))}
    by_place: dict[int, list] = {}
    for perm, c in terms:
        q = perm.index(n)
        by_place.setdefault(q, []).append((perm[:q] + perm[q + 1:], c))
    out = {lam: np.zeros((len(standard_tableaux(lam)),) * 2, dtype=_dtype(p))
           for lam in partitions(n)}
    for q, sub in by_place.items():
        low = rho_element(sub, n - 1, p)
        for lam, acc in out.items():
            x = place_runs(lam, n - 1, low.__getitem__, p)
            # q counts places from 0, so the word is s_{n-1} ... s_{q+1}
            acc += right_multiply(x, lam, range(n - 1, q, -1), p)
            if p is not None:
                acc %= p
    return out
