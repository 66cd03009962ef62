"""Quantitative structure of the weak-identity ideal.

Multilinear consequence spans, evaluation kernels and quotient dimensions,
the insertion coefficients for pulling a variable out of an alternating sum,
commutator and standard-polynomial factorizations, and partition
combinatorics (hook lengths, involutions, diagram containment).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import Iterable, Sequence

import numpy as np

from .clifford import (
    FormParams,
    blade_str,
    orbit_representatives,
    orbit_sign_matrix,
    sequence_sign,
    tuple_blade,
    tuple_q_exponents,
)
# Unused here, but kept importable as structure.word_sign_vector: the
# benchmark's traced run wraps this binding and counts its calls.
from .clifford import word_sign_vector  # noqa: F401
from .freealg import (
    NcPoly,
    SQUARE_COMMUTATOR,
    Word,
    multidegree,
    multilinear_words,
    multilinearize,
    standard_poly,
    word_key,
)
# Unused here since spans are built as integer matrices; kept importable as
# structure.substitute_linear for the same traced run.
from .freealg import substitute_linear  # noqa: F401
# exact_rank is unused here since every rank is certified; kept importable
# as structure.exact_rank for the same traced run.
from .linalg import exact_rank  # noqa: F401
from .linalg import certified_rank, exact_product, gram, rank_mod_p, solve_exact
from .pairs import (
    _M2_FORM,
    CliffordPair,
    MatrixPair,
    PairTarget,
    _integer_rows,
    is_weak_identity,
)

Partition = tuple[int, ...]

#: Deterministic prime specializations of the form parameters, at which
#: evaluation_kernel spot-checks the orbit sign matrix against products of
#: basis vectors with those values.
DEFAULT_SEEDS = (
    (2, 3, 5, 7, 11, 13, 17, 19),
    (23, 29, 31, 37, 41, 43, 47, 53),
)


# ---------------------------------------------------------------------------
# partition combinatorics


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


def _check_partition(lam: Sequence[int]) -> Partition:
    lam = tuple(lam)
    if any(p < 1 for p in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{lam} is not a partition (weakly decreasing positive parts)")
    return lam


def conjugate_partition(lam: Sequence[int]) -> Partition:
    lam = _check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def hook_dim(lam: Sequence[int]) -> int:
    """Number of standard Young tableaux of the shape, by the hook length formula."""
    lam = _check_partition(lam)
    n = sum(lam)
    conj = conjugate_partition(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    assert factorial(n) % hooks == 0
    return factorial(n) // hooks


def involutions(n: int) -> int:
    """Number of self-inverse permutations of n letters, by the recurrence
    a(n) = a(n-1) + (n-1) a(n-2): the letter n is fixed or swapped with one
    of the other n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    prev, cur = 1, 1  # a(0), a(1)
    for m in range(2, n + 1):
        prev, cur = cur, cur + (m - 1) * prev
    return cur


def diagram_contains(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Whether the diagram of lam fits inside the diagram of mu, row by row."""
    lam = _check_partition(lam)
    mu = _check_partition(mu)
    return len(lam) <= len(mu) and all(l <= m for l, m in zip(lam, mu))


def minimal_diagrams(diagrams: Iterable[Sequence[int]]) -> list[Partition]:
    """The inclusion-minimal elements of a finite set of partitions."""
    pool = {_check_partition(p) for p in diagrams}
    return sorted(
        m
        for m in pool
        if not any(p != m and diagram_contains(p, m) for p in pool)
    )


# ---------------------------------------------------------------------------
# insertion coefficients and defect polynomials


@dataclass(frozen=True)
class InsertionCoeffs:
    """Coefficients for moving an inserted variable out of the alternating sum:

    sum(sign) x_{s(1)}..x_{s(k)} y x_{s(k+1)}..x_{s(n)}
        = alpha * y * S_n + beta * S_n * y   (modulo the identity ideal)
    """

    n: int
    k: int
    alpha: Fraction
    beta: Fraction


@lru_cache(maxsize=None)
def _insertion_ab(n: int, k: int) -> tuple[Fraction, Fraction]:
    if k == 1:
        return Fraction(-(n - 1), n), Fraction((-1) ** (n - 1), n)
    a1, b1 = _insertion_ab(n, 1)
    ap, bp = _insertion_ab(n - 1, k - 1)
    return ap * a1, ap * b1 + bp


def lemma2_coeffs(n: int, k: int) -> InsertionCoeffs:
    """Insertion coefficients alpha(n,k), beta(n,k), with the symmetry
    alpha(n,k) = beta(n,n-k) verified on the computed values."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= {n - 1}, got {k}")
    alpha, beta = _insertion_ab(n, k)
    alpha_m, beta_m = _insertion_ab(n, n - k)
    if alpha != beta_m or beta != alpha_m:
        raise ArithmeticError(
            f"insertion-coefficient symmetry violated at (n,k)=({n},{k}): "
            f"({alpha},{beta}) vs mirrored ({beta_m},{alpha_m})"
        )
    return InsertionCoeffs(n=n, k=k, alpha=alpha, beta=beta)


def lemma2_coeffs_by_evaluation(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Solve for the insertion coefficients directly from evaluations.

    Independent of the recursion in lemma2_coeffs; feasible for small n.
    """
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError("need n >= 2 and 1 <= k <= n-1")
    lhs = _insertion_lhs(n, k)
    y = NcPoly.gen(n + 1)
    sn = standard_poly(n)
    sol = _solve_modulo_identities(lhs, [y * sn, sn * y])
    if sol is None:
        raise ArithmeticError("insertion identity has no solution; recursion disagrees")
    return sol[0], sol[1]


def _insertion_lhs(n: int, k: int) -> NcPoly:
    y = n + 1
    return NcPoly._from_terms(
        {word[:k] + (y,) + word[k:]: sign for word, sign in standard_poly(n).terms.items()}
    )


def eq5_defect(n: int, k: int) -> NcPoly:
    """Alternating sum with y inserted after position k, minus its two-sided
    normal form alpha*y*S_n + beta*S_n*y.  A weak identity of every Clifford pair."""
    co = lemma2_coeffs(n, k)
    y = NcPoly.gen(n + 1)
    sn = standard_poly(n)
    return _insertion_lhs(n, k) - (co.alpha * (y * sn) + co.beta * (sn * y))


def eq6_defect(n: int, i: int) -> NcPoly:
    """x_i * S_n - (-1)^(n-1) * S_n * x_i; a weak identity of every Clifford pair."""
    if not 1 <= i <= n:
        raise ValueError(f"i must satisfy 1 <= i <= {n}, got {i}")
    xi = NcPoly.gen(i)
    sn = standard_poly(n)
    return xi * sn - Fraction((-1) ** (n - 1)) * (sn * xi)


# ---------------------------------------------------------------------------
# commutator decomposition of x1 y1..yn x2 - x2 y1..yn x1


def _skew_decomp(ys: tuple[int, ...]) -> list[tuple[Fraction, Word, Word]]:
    """Represent x1 Y x2 - x2 Y x1 as sum of c * A [x1,x2] B, modulo identities.

    Base cases: the empty interleaving is the commutator itself; a single
    inserted variable y gives -(1/2)([x1,x2] y + y [x1,x2]).  Longer
    interleavings reduce by pulling the first two variables outward.
    """
    if not ys:
        return [(Fraction(1), (), ())]
    if len(ys) == 1:
        y = ys[0]
        return [(Fraction(-1, 2), (), (y,)), (Fraction(-1, 2), (y,), ())]
    y1, y2 = ys[0], ys[1]
    rest = ys[2:]
    out: list[tuple[Fraction, Word, Word]] = []
    for c, a, b in _skew_decomp((y2,) + rest):
        out.append((-c, (y1,) + a, b))
    for c, a, b in _skew_decomp((y1,) + rest):
        out.append((c, (y2,) + a, b))
    for c, a, b in _skew_decomp(rest):
        out.append((c, (y2, y1) + a, b))
    return out


def lemma1_lhs(n: int) -> NcPoly:
    """x1 y1..yn x2 - x2 y1..yn x1 with y_j the generator of index j+2."""
    ys = tuple(range(3, n + 3))
    return NcPoly({(1,) + ys + (2,): 1, (2,) + ys + (1,): -1})


def lemma1_decompose(n: int) -> list[tuple[NcPoly, NcPoly]]:
    """Pairs (A_i, B_i), A_i of positive degree in the y's, such that
    x1 y1..yn x2 - x2 y1..yn x1 - sum A_i [x1,x2] B_i is a weak identity."""
    if n < 2:
        raise ValueError("n must be at least 2")
    ys = tuple(range(3, n + 3))
    groups: dict[Word, dict[Word, Fraction]] = {}
    for c, a, b in _skew_decomp(ys):
        bucket = groups.setdefault(b, {})
        bucket[a] = bucket.get(a, Fraction(0)) + c
    pairs = []
    for b in sorted(groups, key=word_key):
        a_poly = NcPoly._from_terms(groups[b])
        if a_poly.is_zero():
            continue
        if any(len(w) == 0 for w in a_poly.terms):
            raise ArithmeticError("left factor of zero degree produced")
        pairs.append((a_poly, NcPoly.monomial(b)))
    return pairs


def lemma1_defect(n: int) -> NcPoly:
    comm = NcPoly.gen(1) * NcPoly.gen(2) - NcPoly.gen(2) * NcPoly.gen(1)
    total = NcPoly.zero()
    for a, b in lemma1_decompose(n):
        total = total + a * comm * b
    return lemma1_lhs(n) - total


# ---------------------------------------------------------------------------
# rank reports: consequence spans and evaluation kernels


@dataclass(frozen=True)
class RankReport:
    """Exact rank data for a degree-n multilinear computation.

    rows x cols is the shape of the matrix ranked: for a consequence span,
    its rows after deduplication by the n! words; for an evaluation kernel,
    the n! words by all k^n (or 4 * 3^n for M2) basis substitutions, of
    which the rank reads only orbit representatives (k = 3 for M2).
    kernel_dim = n! - rank and quotient_dim = rank always hold.  The rank
    is exact over Q: linalg.certified_rank takes it modulo 2^31 - 1 (a lower
    bound) and proves the upper bound with a kernel basis lifted to integers
    and checked exactly, else ranks exactly.  A Clifford kernel is ranked
    through the Gram matrix of its orbit sign matrix, which has the same
    rank.  A span rank of span_vs_kernel may instead meet the exact kernel
    dimension modulo the prime.  seeds are the form values at which the
    orbit sign matrix was spot-checked.
    """

    degree: int
    target: str
    rows: int
    cols: int
    rank: int
    kernel_dim: int
    quotient_dim: int
    seeds: tuple[tuple[int, ...], ...] = ()


def _permutation_index(words: np.ndarray) -> np.ndarray:
    """Position of each row (a permutation of 1..n) in multilinear_words(n),
    from its Lehmer code: the count of later smaller letters at each place."""
    n = words.shape[1]
    later_smaller = (words[:, None, :] < words[:, :, None]) & np.triu(np.ones((n, n), bool), 1)
    weights = np.array([factorial(n - 1 - i) for i in range(n)])
    return later_smaller.sum(axis=2) @ weights


def _signed_dtype(top: int) -> np.dtype:
    """The narrowest signed integer dtype that holds -top..top (int8 for most
    generators); object, for Python ints, beyond int64."""
    return np.min_scalar_type(-top - 1)


def _span_matrix(n: int, generators: Sequence[NcPoly]) -> np.ndarray:
    """Integer rows spanning the degree-n multilinear slice of the GL-ideal,
    one column per word of multilinear_words(n), deduplicated up to scaling,
    in the narrowest signed integer dtype that holds the entries.

    A consequence is u * g(x_{i_1},..,x_{i_d}) * v for a multilinearized
    generator g in d letters, an injective renaming i and words u, v in the
    remaining letters.  List the letters as a permutation pi of 1..n, the
    renaming first, and cut the rest at c: the term of g at letter places t
    becomes the word pi[d:d+c] + pi[t] + pi[d+c:], one fixed column selection
    of the n! x n array of all pi.  With g's coefficients made coprime
    integers and each row's first entry positive, np.unique removes the
    duplicates up to scaling; the first of each is kept, in order.
    """
    perms = np.array(multilinear_words(n))
    nfact = len(perms)
    blocks = []  # per block of n! rows (a generator and a cut): its terms
    top = 0  # the largest coefficient magnitude
    for g in generators:
        words, coeffs, _ = _integer_rows(multilinearize(g))
        d = words.shape[1]
        if d > n:
            continue
        content = gcd(*coeffs)  # every row of g holds exactly these entries
        coeffs = [c // content for c in coeffs]
        top = max([top, *map(abs, coeffs)])
        if top >= 2**63:
            raise ValueError(f"generator {g} has integer coefficients beyond int64")
        places = (words - 1).tolist()
        for cut in range(n - d + 1):
            blocks.append([([*range(d, d + cut), *t, *range(d + cut, n)], c)
                           for t, c in zip(places, coeffs)])
    span = np.zeros((len(blocks) * nfact, nfact), dtype=_signed_dtype(top))
    for b, terms in enumerate(blocks):
        for cols, c in terms:
            span[np.arange(b * nfact, (b + 1) * nfact), _permutation_index(perms[:, cols])] = c
    span *= np.sign(span[np.arange(len(span)), np.argmax(span != 0, axis=1)])[:, None]
    # rows as single opaque items: np.unique(axis=0) compares them column
    # by column, ten times slower at n = 6
    whole_rows = span.view(np.dtype((np.void, span.strides[0]))).ravel()
    return span[np.sort(np.unique(whole_rows, return_index=True)[1])]


def _rank_report(
    n: int, target: str, rows: int, cols: int, rank: int, seeds: Sequence = ()
) -> RankReport:
    """Report of a rank over the n! multilinear words of degree n."""
    kernel_dim = factorial(n) - rank
    return RankReport(n, target, rows, cols, rank, kernel_dim, rank, tuple(map(tuple, seeds)))


def consequence_span_dim(n: int, generators: Sequence[NcPoly]) -> RankReport:
    """Exact dimension of the degree-n multilinear consequence span."""
    span = _span_matrix(n, generators)
    target = f"consequence span of {len(generators)} generator(s)"
    return _rank_report(n, target, len(span), span.shape[1], certified_rank(span))


def in_consequence_span(f: NcPoly, n: int, generators: Sequence[NcPoly]) -> bool:
    """Whether the multilinear degree-n polynomial f lies in the span of the
    degree-n multilinear consequences of the generators."""
    words = multilinear_words(n)
    if f.is_zero():
        return True
    md = multidegree(f)
    if sorted(md) != list(range(1, n + 1)) or any(d != 1 for d in md.values()):
        raise ValueError("f must be multilinear in x1..xn")
    span = _span_matrix(n, generators)
    coeffs = [f.coeff(w) for w in words]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    row = np.array(ints, dtype=_signed_dtype(max(map(abs, ints))))
    return certified_rank(np.vstack([span, row])) == certified_rank(span)


def _seed_form(k: int, primes: Sequence[int]) -> FormParams:
    if len(primes) < k:
        raise ValueError(f"seed list must provide at least {k} primes")
    return FormParams(k, tuple(primes[:k]))


def _basis_product(labels: Sequence[int], values: Sequence[Fraction]) -> tuple[Fraction, int]:
    """e_{l_1} ... e_{l_N} at explicit form values, as (coefficient, blade).

    The basis vectors are multiplied onto the blade one at a time: e_i moves
    left past the higher vectors already in the blade (one sign each), then
    contracts with e_i (a factor q_i) if the blade holds it.
    """
    coeff, blade = Fraction(1), 0
    for i in labels:
        if (blade >> i).bit_count() % 2:
            coeff = -coeff
        if blade >> (i - 1) & 1:
            coeff *= values[i - 1]
        blade ^= 1 << (i - 1)
    return coeff, blade


def _spot_check_orbit_signs(
    words: Sequence[Word], signs: np.ndarray, form: FormParams, rng: random.Random
) -> None:
    """Multiply out sampled (word, tuple) pairs at explicit form values and
    compare with the orbit prediction eps * sign * q^e * blade.

    Each sampled tuple is its representative relabelled by a random
    permutation of 1..k, so most samples are not representatives; eps is
    the common sign that relabelling multiplies every word's sign by.
    """
    k = form.k
    reps = orbit_representatives(len(words[0]), k)
    cells = rng.sample(range(signs.size), min(64, signs.size))
    for cell in cells:
        i, j = divmod(cell, signs.shape[1])
        rep = [int(r) for r in reps[j]]
        relabel = rng.sample(range(1, k + 1), k)
        t = [relabel[r - 1] for r in rep]
        eps = sequence_sign(t) * sequence_sign(rep)
        q = prod(v ** e for v, e in zip(form.values, tuple_q_exponents(t, k)))
        want = (eps * int(signs[i, j]) * q, tuple_blade(t))
        got = _basis_product([t[g - 1] for g in words[i]], form.values)
        if got != want:
            raise ArithmeticError(
                f"word {words[i]} at basis tuple {tuple(t)} with form values "
                f"{form.values} evaluates to {_term_str(*got)}, "
                f"orbit sign matrix predicts {_term_str(*want)}"
            )


def _term_str(coeff: Fraction, blade: int) -> str:
    return f"{coeff}*{blade_str(blade)}" if blade else str(coeff)


def evaluation_kernel(
    n: int, target: PairTarget, seeds: tuple[tuple[int, ...], ...] = ()
) -> RankReport:
    """Rank data of the degree-n multilinear evaluation map of the target.

    The kernel is the space of multilinear weak identities of degree n; the
    quotient dimension equals the rank.  For Clifford targets every column
    factors as a nonzero parameter monomial times an integer sign vector, so
    the generic rank is certified_rank of the sign vectors, one per orbit
    of basis tuples under relabelling (the other columns repeat these up to
    sign).  That matrix S is dense +-1 with far more rows than rank, so the
    rank is taken of its Gram matrix S^T S instead: the same rank over Q and
    the same kernel vectors, which certify it.  Scaling a column by a
    nonzero q-monomial keeps the rank, so each requested specialization of
    the form values (seeds) checks the factorization itself: a sample of
    sign matrix entries is compared with the products of basis vectors at
    those values, multiplied out exactly.  The M2 pair ranks the same sign
    matrix at k = 3, as its n! x 4 * 3^n entry matrix is phi of that of
    clifford:3 (see ``pairs``), and takes no seeds.
    """
    words = multilinear_words(n)
    nfact = len(words)
    if isinstance(target, CliffordPair):
        k, cols = target.k, target.k ** n
        desc = f"clifford k={k}" + (" (symbolic q)" if target.form.values is None else "")
    elif isinstance(target, MatrixPair):
        k, cols, seeds = _M2_FORM.k, 4 * 3 ** n, ()
        desc = "m2 (traceless substitution space)"
    else:
        raise TypeError(f"unknown pair target {target!r}")
    forms = [_seed_form(k, primes) for primes in seeds]
    signs = orbit_sign_matrix(words, k)
    rank = certified_rank(gram(signs))
    rng = random.Random(0)
    for form in forms:
        _spot_check_orbit_signs(words, signs, form, rng)
    return _rank_report(n, desc, nfact, cols, rank, seeds)


@dataclass(frozen=True)
class SpanKernelReport:
    """Result of comparing a consequence span against an evaluation kernel."""

    ok: bool
    degree: int
    span: RankReport
    kernel: RankReport
    containment_ok: bool
    predicted_quotient: int | None = None


def span_vs_kernel(
    n: int,
    k: int,
    generators: Sequence[NcPoly],
    target: str,
    seeds: tuple[tuple[int, ...], ...] = (),
) -> SpanKernelReport:
    """Compare the degree-n multilinear consequence span of the generators
    with the multilinear weak identities of the generic k-dimensional
    Clifford pair; the predicted quotient is the hook-length sum over
    partitions of n with at most k rows.

    Containment is checked exactly, span rows times the orbit sign matrix.
    When it holds, rank_p(span) <= rank_Q(span) <= n! - rank_Q(E), the
    kernel dimension from the exact evaluation rank, so a rank modulo the
    prime that reaches the kernel dimension is the exact span rank.
    Otherwise (no containment, or an unlucky prime) the span rank comes
    from certified_rank.
    """
    kernel = evaluation_kernel(n, CliffordPair.symbolic(k), seeds=seeds)
    span = _span_matrix(n, generators)
    containment = not exact_product(span, orbit_sign_matrix(multilinear_words(n), k)).any()
    rank = rank_mod_p(span) if containment else None
    if rank != kernel.kernel_dim:
        rank = certified_rank(span)
    return SpanKernelReport(
        ok=containment and rank == kernel.kernel_dim,
        degree=n,
        span=_rank_report(n, target, len(span), span.shape[1], rank),
        kernel=kernel,
        containment_ok=containment,
        predicted_quotient=sum(hook_dim(p) for p in partitions(n, max_rows=k)),
    )


def theorem1_check(n: int, seeds: tuple[tuple[int, ...], ...] = ()) -> SpanKernelReport:
    """Check that the degree-n multilinear weak identities of the generic
    Clifford pair (k = n) are exactly the consequences of [x1^2, x2]; the
    predicted quotient is the number of involutions of n letters."""
    if n < 3:
        raise ValueError("the generator has degree 3; need n >= 3")
    return span_vs_kernel(n, n, [SQUARE_COMMUTATOR], "consequence span of [x1^2,x2]", seeds)


def corollary1_check(
    n: int, k: int, seeds: tuple[tuple[int, ...], ...] = ()
) -> SpanKernelReport:
    """Check that the degree-n multilinear weak identities of the generic
    k-dimensional Clifford pair are spanned by the consequences of
    [x1^2, x2] together with the standard polynomial S_{k+1}."""
    if k < 1:
        raise ValueError("k must be positive")
    return span_vs_kernel(
        n,
        k,
        [SQUARE_COMMUTATOR, standard_poly(k + 1)],
        f"consequence span of [x1^2,x2] and S_{k + 1}",
        seeds,
    )


# ---------------------------------------------------------------------------
# factoring alternating sums through the standard polynomial


@dataclass
class StandardFactorization:
    """Decomposition of sum(sign) x_{s(1)} Y_1 x_{s(2)} ... Y_{n-1} x_{s(n)}.

    For interleavings in disjoint y-variables the output is a list of
    (left, right) factor pairs around S_n; for interleavings in x_1..x_n it
    is a single right factor S_n * D.  Either way the defect is verified to
    be a weak identity of the generic Clifford pair.
    """

    n: int
    ys: tuple[Word, ...]
    variant: str  # "two-sided" or "right"
    pairs: list[tuple[NcPoly, NcPoly]] | None = None
    right_factor: NcPoly | None = None
    verified: bool = field(default=False)


def _distinct_words(multiset: Sequence[int]) -> list[Word]:
    return sorted(set(itertools.permutations(multiset)))


def _sub_multisets(multiset: Sequence[int]) -> list[tuple[int, ...]]:
    values = sorted(set(multiset))
    counts = [multiset.count(v) for v in values]
    subs = []
    for choice in itertools.product(*(range(c + 1) for c in counts)):
        sub = tuple(
            v for v, c in zip(values, choice) for _ in range(c)
        )
        subs.append(sub)
    return subs


def _multiset_difference(multiset: Sequence[int], sub: Sequence[int]) -> tuple[int, ...]:
    pool = list(multiset)
    for v in sub:
        pool.remove(v)
    return tuple(pool)


def interleaved_alternating_sum(n: int, ys: Sequence[Word]) -> NcPoly:
    """sum over permutations s of sign(s) x_{s(1)} Y_1 x_{s(2)} ... Y_{n-1} x_{s(n)}."""
    if len(ys) != n - 1:
        raise ValueError(f"need exactly {n - 1} interleaved monomials, got {len(ys)}")
    terms: dict[Word, Fraction] = {}
    for perm, sign in standard_poly(n).terms.items():
        w: Word = (perm[0],)
        for j, y in enumerate(ys):
            w = w + tuple(y) + (perm[j + 1],)
        terms[w] = terms.get(w, Fraction(0)) + sign
    return NcPoly(terms)


def factor_through_standard(
    n: int, ys: Sequence[Sequence[int]], variant: str | None = None
) -> StandardFactorization:
    """Factor the interleaved alternating sum through S_n, modulo identities.

    The variant is inferred from the interleaved letters: letters inside
    {1..n} give a single right factor, letters above n give two-sided
    monomial pairs.  Solved as an exact linear system in the multilinear
    quotient; failure to solve raises ``Lemma 3 violated``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    ys = tuple(tuple(y) for y in ys)
    letters = sorted({i for y in ys for i in y})
    if letters and letters[0] >= 1 and letters[-1] <= n:
        inferred = "right"
    elif letters and letters[0] > n:
        inferred = "two-sided"
    elif not letters:
        inferred = variant or "right"
    else:
        raise ValueError(
            f"inconsistent variable usage: interleaved letters {letters} mix the "
            f"x-range 1..{n} with higher indices"
        )
    if variant is not None and variant != inferred and letters:
        raise ValueError(f"interleaved letters force variant {inferred!r}")
    variant = inferred

    lhs = interleaved_alternating_sum(n, ys)
    sn = standard_poly(n)
    multiset = tuple(sorted(i for y in ys for i in y))

    if variant == "right":
        cand_words = _distinct_words(multiset)
        candidates = [sn * NcPoly.monomial(w) for w in cand_words]
        labels = [("", w) for w in cand_words]
    else:
        labels = []
        candidates = []
        for sub in _sub_multisets(multiset):
            comp = _multiset_difference(multiset, sub)
            for d in _distinct_words(sub):
                for e in _distinct_words(comp):
                    labels.append((d, e))
                    candidates.append(
                        NcPoly.monomial(d) * sn * NcPoly.monomial(e)
                    )

    if lhs.is_zero():
        coeffs = [Fraction(0)] * len(candidates)
    else:
        coeffs = _solve_modulo_identities(lhs, candidates)
        if coeffs is None:
            raise ArithmeticError("Lemma 3 violated: no factorization through S_n")

    result = StandardFactorization(n=n, ys=ys, variant=variant)
    if variant == "right":
        result.right_factor = NcPoly._from_terms(
            {w: c for (_, w), c in zip(labels, coeffs)}
        )
    else:
        result.pairs = [
            (NcPoly.monomial(d, c), NcPoly.monomial(e))
            for (d, e), c in zip(labels, coeffs)
            if c
        ]

    defect = lhs
    for cand, c in zip(candidates, coeffs):
        if c:
            defect = defect - c * cand
    total_deg = n + len(multiset)
    if defect.is_zero() or is_weak_identity(defect, CliffordPair.symbolic(total_deg)) is None:
        result.verified = True
    else:
        raise ArithmeticError("factorization defect failed re-evaluation")
    return result


# ---------------------------------------------------------------------------
# exact solving in the multilinear quotient


def _solve_modulo_identities(
    lhs: NcPoly, candidates: Sequence[NcPoly]
) -> list[Fraction] | None:
    """Coefficients c with lhs = sum c_j * candidates_j modulo the weak
    identities of the generic Clifford pair, or None if no solution exists.

    All polynomials must share one multidegree; everything is polarized with
    the same operator and evaluated at the orbit representatives of the
    basis tuples of C_N, N the polarized degree.  At a fixed tuple all words
    share the same contraction monomial and blade, so each representative
    contributes one equation sum_j c_j s_j / den_j = s_0 / den_0 in the
    integer signed sums s_j of the polynomials over their denominators
    den_j.  It is solved in integers as sum_j s_j z_j = s_0, with
    c_j = z_j den_j / den_0; rescaling a column keeps its pivot status, so
    the free variables are the same.
    """
    md = multidegree(lhs)
    for c in candidates:
        if multidegree(c) != md:
            raise ValueError("candidate multidegree does not match the left-hand side")
    polys = [multilinearize(p) for p in [lhs, *candidates]]
    letters = polys[0].generators()
    columns, dens = [], []
    for ml in polys:
        if ml.generators() != letters:
            raise AssertionError("polarization produced mismatched variable sets")
        words, coeffs, den = _integer_rows(ml)
        columns.append(exact_product([coeffs], orbit_sign_matrix(words, len(letters)))[0].tolist())
        dens.append(den)
    rows = [eq[1:] for eq in zip(*columns)]
    z = solve_exact(rows, columns[0])
    if z is None:
        return None
    return [zj * den / dens[0] for zj, den in zip(z, dens[1:])]
