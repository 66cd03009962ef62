"""Exact rational linear algebra: rank, linear solving and integer products.

No rounded value reaches a result: exact_product runs float32 or float64
BLAS products only where every partial sum is an integer that the float
represents exactly, and int64 or Python ints elsewhere.  Ranks over a
word-size prime field are lower bounds for the rational rank;
certified_rank makes one exact by checking a lifted kernel basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

import numpy as np

#: Primes below 2^20 (Chinese remainders in certified_rank): a product of
#: two residues is below 2^40, so _echelon can delay its reductions, and the
#: three together are below 2^60, inside _rational's int64 bound.
PRIME = 1_048_573
PRIME2 = 1_048_571
PRIME3 = 1_048_559

#: Rows per block: of a reduction modulo p, of a kernel check.
BLOCK_ROWS = 128
#: Entries of b per inner block of a product a @ b.
BLOCK_ENTRIES = 1 << 16
#: Bound on the entries of a lifted kernel vector, so that they fit in int64.
LIFT_LIMIT = 1 << 62


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


def _pivot_rows(rows: Iterable[Sequence]) -> dict[int, list[int]]:
    """Integer echelon rows of a rational matrix, keyed by leading column.

    Incremental fraction-free elimination: each incoming row is scaled to
    coprime integers and repeatedly reduced at its leading column against
    the stored row with that column until its leading column is new (or the
    row vanishes).  The rows span the row space and have distinct leading
    columns, so the keys are the pivot columns of the reduced echelon form.
    """
    pivots: dict[int, list[int]] = {}
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
    return pivots


def exact_rank(rows: Iterable[Sequence]) -> int:
    """Rank over Q of a matrix given as an iterable of rows (ints or Fractions)."""
    return len(_pivot_rows(rows))


def _integer_matrix(rows) -> np.ndarray:
    """rows as a 2-d array whose products with int64 stay int64: a signed or
    narrow unsigned integer dtype, else Python ints (object), as for nested
    Python ints that numpy reads as float64.  Any other entry (a float or a
    Fraction) is refused, so that no rounded entry reaches an exact check."""
    a = np.atleast_2d(np.asarray(rows))
    if a.dtype.kind == "f" and not isinstance(rows, np.ndarray):
        a = np.atleast_2d(np.asarray(rows, dtype=object))
    if a.dtype.kind in "biu":
        return a if a.dtype.kind != "u" or a.dtype.itemsize < 8 else a.astype(object)
    bad = next((x for x in a.flat if not isinstance(x, (int, np.integer))), None)
    if bad is None:
        return a.astype(object)
    raise TypeError(f"expected an integer matrix, not an entry {bad!r}")


def _signed_dtype(top: int) -> np.dtype:
    """The narrowest signed integer dtype that holds -top..top (int8 for most
    coefficient rows); object, for Python ints, beyond int64."""
    return np.min_scalar_type(-top - 1)


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """The entries of an _integer_matrix modulo p as a fresh C-ordered int64
    matrix, reduced through int64 (or Python ints) in blocks of rows."""
    wide = object if a.dtype == object else np.int64
    out = np.empty(a.shape, dtype=np.int64)
    for rows in _row_blocks(a):
        out[rows] = a[rows].astype(wide) % p
    return out


def _row_blocks(a: np.ndarray):
    """Slices of a's rows, BLOCK_ROWS each."""
    return (slice(start, start + BLOCK_ROWS) for start in range(0, a.shape[0], BLOCK_ROWS))


def _pivot_step(a: np.ndarray, row: int, col: int, rows: np.ndarray, p: int) -> None:
    """Scale a[row] to a 1 at col and subtract it, from col on, from the
    rows, whose entries in the column are reduced modulo p.  Reductions are
    delayed: only the pivot row is reduced, and each term subtracted is
    below p^2, so an entry stays below p + pivots * p^2 in magnitude."""
    prow = a[row, col:] % p
    prow *= pow(int(prow[0]), -1, p)
    prow %= p
    a[row, col:] = prow
    a[rows, col:] -= a[rows, col, None] * prow


def _echelon(a: np.ndarray, p: int) -> list[int]:
    """Row-reduce the int64 residues a modulo p in place; the pivot columns.

    Each pivot row is scaled to a leading 1 and cleared from the rows below
    it that are nonzero in its column (_pivot_step); one pass at the end
    reduces the rest.
    """
    nrows, ncols = a.shape
    if (min(nrows, ncols) + 1) * p * p >= 2**63:
        raise ValueError(f"{min(nrows, ncols)} pivots modulo {p} could overflow int64")
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        column = a[rank:, col]
        column %= p
        nz = np.flatnonzero(column) + rank
        if nz.size == 0:
            continue
        if nz[0] != rank:  # row rank is zero in the column, so it swaps out
            a[[rank, nz[0]]] = a[[nz[0], rank]]
        _pivot_step(a, rank, col, nz[1:], p)
        pivots.append(col)
    a %= p
    return pivots


def _diagonal_echelon(g: np.ndarray, p: int) -> list[int]:
    """Gauss-Jordan on the diagonal of the symmetric int64 residues g modulo
    p, in place; the pivot columns, whose principal minor is nonzero mod p.

    Column j is a pivot when its diagonal entry is nonzero modulo p, and
    row j is cleared from every other row nonzero in it (_pivot_step): no
    search, no swap, and a skipped column costs one read.  Over Q a zero
    diagonal entry of a Schur complement of a Gram matrix means a zero
    column, and the pivot rows are those of the reduced echelon form, up to
    multiples of p; modulo p such a column (an isotropic one) need not be.
    """
    if (len(g) + 1) * p * p >= 2**63:
        raise ValueError(f"{len(g)} pivots modulo {p} could overflow int64")
    pivots: list[int] = []
    for col in range(len(g)):
        if not g[col, col] % p:
            continue
        column = g[:, col]
        column %= p
        rows = np.flatnonzero(column)
        _pivot_step(g, col, col, rows[rows != col], p)
        pivots.append(col)
    return pivots


def _rational(u: np.ndarray, m: int, bound: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Arrays num, den with num = u * den mod m, |num| <= bound and
    0 < den <= bound, entrywise for the residues u (int64, m < 2^62), by the
    extended Euclidean algorithm on all entries at once; None if some entry
    has no such fraction.  Every intermediate is at most m in magnitude."""
    r0, r1 = np.full_like(u, m), u.copy()
    t0, t1 = np.zeros_like(u), np.ones_like(u)
    active = r1 > bound
    while active.any():
        i = np.flatnonzero(active)
        q = r0[i] // r1[i]
        r0[i], r1[i] = r1[i], r0[i] - q * r1[i]
        t0[i], t1[i] = t1[i], t0[i] - q * t1[i]
        active[i] = r1[i] > bound
    if not (np.abs(t1) <= bound).all() or (np.gcd(r1, t1) != 1).any():
        return None
    sign = np.where(t1 < 0, -1, 1)
    return r1 * sign, t1 * sign


def _lift(k: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Integer kernel vectors from their residues modulo m < 2^62.

    Column j of k holds the pivot entries of the kernel vector with a 1 at
    the j-th free column.  Signed residues of magnitude at most sqrt(m/2)
    are taken as integers, the others by rational reconstruction; each
    vector is then scaled by the lcm of its denominators.  Returns the
    scaled pivot entries and the scales (the free-column entries), or None
    if some entry has no reconstruction or a scaled entry reaches 2^62.
    """
    bound = isqrt(m // 2)
    k[k > m // 2] -= m
    big = np.abs(k) > bound
    scales = np.ones(k.shape[1], dtype=np.int64)
    if not big.any():
        return k, scales
    fracs = _rational(k[big] % m, m, bound)
    if fracs is None:
        return None
    den = np.ones_like(k)
    k[big], den[big] = fracs
    for row in den[big.any(axis=1)]:  # the lcm of each column's denominators
        g = np.gcd(scales, row)
        if (scales // g > LIFT_LIMIT // row).any():
            return None
        scales = scales // g * row
    factor = scales // den
    if (np.abs(k) > LIFT_LIMIT // factor).any():
        return None
    return k * factor, scales


def exact_product(a, b) -> np.ndarray:
    """Exact ``a @ b`` for integer matrices, as int64 or Python ints (object),
    in the tier of _product_dtype.  The inner dimension is taken
    BLOCK_ENTRIES // cols rows of b at a time, with the matching columns of
    a, so neither operand is converted whole; the partial products are
    summed in the tier, whose bound holds for every partial sum."""
    a, b = _integer_matrix(a), _integer_matrix(b)
    dtype = _product_dtype(a, b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=dtype)
    step = max(1, BLOCK_ENTRIES // max(1, b.shape[1]))
    for start in range(0, b.shape[0], step):
        inner = slice(start, start + step)
        out += a[:, inner].astype(dtype) @ b[inner].astype(dtype)
    return out if dtype is object else out.astype(np.int64, copy=False)


def gram(a) -> np.ndarray:
    """Exact a^T a for an integer matrix, as int64 or Python ints (object).

    It has the rank of a over Q (a^T a x = 0 gives |a x|^2 = 0), and its
    kernel vectors are those of a.  For 8- and 16-bit a, _product_dtype
    takes the tier from the dtype bound max|a|^2 * rows, with no pass over a.
    """
    a = _integer_matrix(a)
    return exact_product(a.T, a)


def _in_kernel(a: np.ndarray, pivots: list[int], free: np.ndarray, x: np.ndarray,
               scales: np.ndarray) -> bool:
    """Whether a @ X == 0 exactly, for X with rows x at the pivot columns
    and diag(scales) at the free columns, in row blocks, in the tier of a
    times x stacked over the scales (the same column sums as X).

    Not one exact_product of a and X: that would multiply the free columns
    by the diagonal block too, where this loop adds them elementwise, and
    it made a kernel-cell pass slower."""
    dtype = _product_dtype(a, np.vstack([x, scales]))
    x, scales = x.astype(dtype), scales.astype(dtype)
    for rows in _row_blocks(a):
        block = a[rows].astype(dtype)
        if (block[:, pivots] @ x + block[:, free] * scales).any():
            return False
    return True


def _product_dtype(a: np.ndarray, b: np.ndarray):
    """float32, float64, int64 or object: a tier in which a @ b is exact.

    No partial sum exceeds the largest row sum of |a| times max|b|, nor
    max|a| times the largest column sum of |b|; the sums are taken over the
    smaller operand, in float64 (no wraparound), where they are exact below
    2^53 and at least 2^53 above, or bounded by _magnitude times the length
    for 8- and 16-bit integers (no pass); _exact_dtype takes the tier of it.
    """
    if "O" in (a.dtype.kind, b.dtype.kind):
        return object
    if a.size == 0 or b.size == 0:
        return np.int64
    top, small, axis = (_magnitude(b), a, 1) if a.size <= b.size else (_magnitude(a), b, 0)
    if small.dtype.itemsize <= 2:
        return _exact_dtype(top * _magnitude(small) * small.shape[axis])
    return _exact_dtype(top * int(np.abs(small, dtype=np.float64).sum(axis=axis).max()))


def _exact_dtype(bound: int):
    """The tier for integer sums of magnitude at most bound: float32 below
    2^24 and float64 below 2^53, where every such sum is an exactly
    represented float; int64 below 2^61 (room for a bound rounded in
    float64); otherwise object, for Python ints."""
    if bound >= 2**61:
        return object
    if bound < 2**24:
        return np.float32
    return np.float64 if bound < 2**53 else np.int64


def _magnitude(a: np.ndarray) -> int:
    """A bound on |a|: for 8- and 16-bit integers the dtype's, with no pass over a."""
    if a.dtype.kind in "iu" and a.dtype.itemsize <= 2:
        return 1 << (8 * a.dtype.itemsize - (a.dtype.kind == "i"))
    return max(-int(a.min()), int(a.max()))


def certified_rank(rows) -> int:
    """Rank over Q of an integer matrix, certified through prime fields.

    With the smaller dimension as the c columns, the c x c Gram matrix G
    has the matrix's rank and kernel.  Its diagonal pivots modulo PRIME
    (_diagonal_echelon) give a principal minor nonzero modulo PRIME, so
    r_p of them prove r_p <= rank_Q.  The c - r_p kernel vectors read from
    the pivot rows, independent through their identity block at the free
    columns, are lifted to integers (_lift) and checked exactly to vanish
    under G: rank_Q <= r_p.  If the lift or the check fails (as past an
    isotropic column), the residues modulo PRIME2, then PRIME3, are
    combined with the earlier ones (Chinese remainders) and lifted again.
    Any prime's pivots prove a lower bound: full rank ends the loop, more
    pivots than the lifted ones restart the lift from that prime, and
    other pivots skip the prime.  After the last prime the rank comes from
    exact_rank.
    """
    a = _integer_matrix(rows)
    if 0 in a.shape:
        return 0
    if a.shape[0] < a.shape[1]:
        a = a.T
    g = gram(a)
    pivots, k, m = None, None, 1
    for p in (PRIME, PRIME2, PRIME3):
        res = _residues(g, p)
        got = _diagonal_echelon(res, p)
        if len(got) == len(g):
            return len(got)
        if pivots is None or len(got) > len(pivots):
            pivots, k, m = got, None, 1
            free = np.ones(len(g), dtype=bool)
            free[pivots] = False
        elif got != pivots:
            continue
        kp = -res[pivots][:, free] % p
        del res
        # k + m * t < m * p < 2^60, and so is every product on the way
        k = kp if k is None else k + m * ((kp - k) % p * pow(m, -1, p) % p)
        m *= p
        lifted = _lift(k.copy(), m)
        if lifted is not None and _in_kernel(g, pivots, free, *lifted):
            return len(pivots)
    return exact_rank(a.tolist())


def solve_exact(
    rows: Sequence[Sequence], rhs: Sequence
) -> list[Fraction] | None:
    """One exact solution of ``rows @ x = rhs`` or None if inconsistent.

    The augmented rows are reduced by _pivot_rows; the system is
    inconsistent when the right-hand column leads a row.  Otherwise the
    pivot variables are back-substituted from the last pivot with the free
    variables set to zero: the solution of the reduced echelon form, so it
    is deterministic in the given column order.
    """
    aug = [[*row, b] for row, b in zip(rows, rhs, strict=True)]
    ncols = len(aug[0]) - 1 if aug else 0
    pivots = _pivot_rows(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    done: list[int] = []
    for col in sorted(pivots, reverse=True):
        r = pivots[col]
        x[col] = (r[ncols] - sum(r[j] * x[j] for j in done if r[j])) / Fraction(r[col])
        done.append(col)
    return x
