"""Reference answers that do not come from the code under test.

Nothing here imports ``weakid``.  The dimension references are sums of
hook-length counts; the insertion coefficients come from their own
recursion; the factorization check multiplies explicit integer Clifford
elements with its own blade arithmetic.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial

Word = tuple[int, ...]
Poly = dict[Word, Fraction]


# -- dimensions of the multilinear quotients ---------------------------------


def partitions_of(n: int, max_rows: int) -> list[tuple[int, ...]]:
    """Partitions of n with at most max_rows rows."""
    out: list[tuple[int, ...]] = []

    def grow(rest: int, cap: int, parts: tuple[int, ...]):
        if rest == 0:
            out.append(parts)
            return
        if len(parts) == max_rows:
            return
        for p in range(min(rest, cap), 0, -1):
            grow(rest - p, p, parts + (p,))

    grow(n, n, ())
    return out


def tableaux(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of a shape: n! over the product of hook lengths."""
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for r in shape[i + 1:] if r > j)
            hooks *= row - j + below
    return factorial(sum(shape)) // hooks


def clifford_quotient(n: int, k: int) -> int:
    """Degree-n multilinear quotient dimension of the generic k-dimensional pair."""
    return sum(tableaux(lam) for lam in partitions_of(n, k))


def m2_quotient(n: int) -> int:
    """Degree-n multilinear quotient dimension of (M_2, sl_2): at most 3 rows."""
    return clifford_quotient(n, 3)


def involution_count(n: int) -> int:
    """I(n) = I(n-1) + (n-1) I(n-2): the quotient dimension once k >= n."""
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


def motzkin(n: int) -> int:
    """M(n) = M(n-1) + sum_{i=0}^{n-2} M(i) M(n-2-i)."""
    m = [1, 1]
    for j in range(2, n + 1):
        m.append(m[j - 1] + sum(m[i] * m[j - 2 - i] for i in range(j - 1)))
    return m[n]


# -- insertion coefficients ---------------------------------------------------


def insertion_coeffs(n: int, k: int) -> tuple[Fraction, Fraction]:
    """alpha(n,k), beta(n,k) with
    sum sign(s) x_s(1)..x_s(k) y x_s(k+1)..x_s(n) = alpha y S_n + beta S_n y.

    Pulling y out one slot at a time: alpha(n,1) = -(n-1)/n,
    beta(n,1) = (-1)^(n-1)/n, and inserting after k letters of S_n is
    inserting after k-1 letters of the S_{n-1} that follows x_s(1).
    """
    if k == 1:
        return Fraction(-(n - 1), n), Fraction((-1) ** (n - 1), n)
    a1, b1 = insertion_coeffs(n, 1)
    a, b = insertion_coeffs(n - 1, k - 1)
    return a * a1, a * b1 + b


# -- free-algebra polynomials as plain dicts --------------------------------


def perm_parity(perm: Word) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def standard(n: int) -> Poly:
    return {p: Fraction(perm_parity(p)) for p in itertools.permutations(range(1, n + 1))}


def poly_mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for u, a in f.items():
        for v, b in g.items():
            out[u + v] = out.get(u + v, Fraction(0)) + a * b
    return {w: c for w, c in out.items() if c}


def poly_sub(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for w, c in g.items():
        out[w] = out.get(w, Fraction(0)) - c
    return {w: c for w, c in out.items() if c}


def interleaved_sum(n: int, ys: tuple[Word, ...]) -> Poly:
    """sum sign(s) x_s(1) Y_1 x_s(2) ... Y_{n-1} x_s(n)."""
    out: Poly = {}
    for perm, sign in standard(n).items():
        w: Word = (perm[0],)
        for j, y in enumerate(ys):
            w = w + y + (perm[j + 1],)
        out[w] = out.get(w, Fraction(0)) + sign
    return {w: c for w, c in out.items() if c}


# -- explicit Clifford algebra with integer form values ----------------------


def _blade_times_basis(a: int, i: int, q: tuple[int, ...]) -> int:
    """Coefficient of e_A e_(i+1) = coeff * e_(A xor {i+1}): e_(i+1) moves left
    past the larger indices of A, then contracts with its twin to q_(i+1)."""
    sign = -1 if bin(a >> (i + 1)).count("1") % 2 else 1
    return sign * q[i] if a >> i & 1 else sign


def _times_vector(elt: dict[int, Fraction], vec: list[int], q: tuple[int, ...]):
    out: dict[int, Fraction] = {}
    for blade, c in elt.items():
        for i, v in enumerate(vec):
            if v:
                res = blade ^ (1 << i)
                out[res] = out.get(res, 0) + c * v * _blade_times_basis(blade, i, q)
    return {b: c for b, c in out.items() if c}


def vanishes_on_vectors(f: Poly, dim: int, rng: random.Random, points: int = 2) -> bool:
    """Whether f evaluates to zero at random integer vectors of a random
    non-degenerate diagonal form.  A weak identity always vanishes; anything
    else vanishes at a random point with small probability."""
    letters = sorted({i for w in f for i in w})
    for _ in range(points):
        q = tuple(rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(dim))
        vecs = {g: [rng.randint(-4, 4) for _ in range(dim)] for g in letters}
        total: dict[int, Fraction] = {}
        for w, c in f.items():
            elt = {0: c}
            for g in w:
                elt = _times_vector(elt, vecs[g], q)
            for b, v in elt.items():
                total[b] = total.get(b, 0) + v
        if any(total.values()):
            return False
    return True
