"""Reference implementations that the tests compare weakid against.

Each is a plain, independent algorithm for a job that weakid does another
way: dense Bareiss rank, the rank modulo a prime, Gauss-Jordan solving over
Fractions, permutation signs from the cycle decomposition, random
invertible substitutions for the GL-invariance tests, and the dense
span-versus-kernel comparison over all n! multilinear words.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from weakid import linalg, structure
from weakid.clifford import orbit_sign_matrix
from weakid.freealg import NcPoly, multilinear_words
from weakid.pairs import CliffordPair


def _integer_row(row: Sequence) -> list[int]:
    den = lcm(*(Fraction(x).denominator for x in row)) if row else 1
    return [int(Fraction(x) * den) for x in row]


def rank_bareiss(matrix: Sequence[Sequence]) -> int:
    """Rank via fraction-free Bareiss elimination (dense)."""
    m = [_integer_row(row) for row in matrix]
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


def solve_gauss_jordan(
    rows: Sequence[Sequence], rhs: Sequence
) -> list[Fraction] | None:
    """One exact solution of ``rows @ x = rhs`` or None if inconsistent.

    Gauss-Jordan elimination over Fractions; free variables are set to zero.
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


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of distinct values."""
    sign = 1
    seen = [False] * len(perm)
    rank = {v: i for i, v in enumerate(sorted(perm))}
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = rank[perm[j]]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def random_invertible_substitution(n: int, rng) -> dict[int, NcPoly]:
    """Random invertible linear substitution on x_1..x_n with small entries."""
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if rank_bareiss(rows) == n:
            break
    return {
        i + 1: NcPoly({(j + 1,): rows[i][j] for j in range(n) if rows[i][j]})
        for i in range(n)
    }


def rank_mod_p(rows, p: int = linalg.PRIME) -> int:
    """Rank over GF(p) of an integer matrix, for a prime p < 2^31.

    A lower bound for the rank over Q, equal to it for all but finitely many
    primes (those dividing every maximal nonzero minor).
    """
    a = linalg._residues(linalg._integer_matrix(rows), p)
    return len(linalg._echelon(a, p, reduced=False))


def dense_span_vs_kernel(n: int, k: int, generators: Sequence[NcPoly]) -> dict:
    """The span-versus-kernel comparison over all n! multilinear words
    (n <= 7): the consequence span as the integer matrix of
    structure._span_matrix, containment as span rows times the orbit sign
    matrix of C_k, both ranks certified."""
    span = structure._span_matrix(n, generators)
    kernel = structure.evaluation_kernel(n, CliffordPair.symbolic(k))
    signs = orbit_sign_matrix(multilinear_words(n), k)
    containment = not linalg.exact_product(span, signs).any()
    rank = linalg.certified_rank(span)
    return {
        "ok": containment and rank == kernel.kernel_dim,
        "containment_ok": containment,
        "span_rank": rank,
        "kernel_dim": kernel.kernel_dim,
        "quotient_dim": kernel.quotient_dim,
    }
