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
from math import factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import symmetric
from .clifford import (
    FormParams,
    basis_product,
    orbit_representatives,
    orbit_sign_matrix,
    reversal_odd,
)
# Unused here, but kept importable as structure.word_sign_vector: the
# benchmark's traced run wraps this binding and counts its calls.
from .clifford import word_sign_vector  # noqa: F401
from .freealg import (
    NcPoly,
    SQUARE_COMMUTATOR,
    Word,
    _check_dense_degree,
    _permutation_rows,
    multidegree,
    multilinearize,
    standard_poly,
    word_key,
)
# Unused here since spans are ranked one partition at a time; kept importable
# as structure.substitute_linear for the same traced run.
from .freealg import substitute_linear  # noqa: F401
# exact_rank is unused here since every rank is certified; kept importable
# as structure.exact_rank for the same traced run.
from .linalg import exact_rank  # noqa: F401
from .linalg import (
    PRIME,
    _echelon,
    _int_row,
    _pivot_rows,
    certified_rank,
    exact_product,
    solve_exact,
)
from .pairs import (
    CliffordPair,
    MatrixPair,
    PairTarget,
    _batch_rows,
    _multilinear,
    is_weak_identity,
)
from .symmetric import partitions

Partition = tuple[int, ...]

#: Deterministic prime specializations of the form parameters.  Each list
#: makes evaluation_kernel spot-check one sample of the orbit sign matrix
#: against products of basis vectors; the values themselves cancel there.
DEFAULT_SEEDS = (
    (2, 3, 5, 7, 11, 13, 17, 19),
    (23, 29, 31, 37, 41, 43, 47, 53),
)


# ---------------------------------------------------------------------------
# partition combinatorics


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
    """Insertion coefficients alpha(n,k), beta(n,k), by the recursion; they
    satisfy alpha(n,k) = beta(n,n-k)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= {n - 1}, got {k}")
    alpha, beta = _insertion_ab(n, k)
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
        if not a_poly.is_zero():
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

    rows x cols is the shape of the matrix ranked.  For an evaluation
    kernel it is the n! words by all k^n (or 4 * 3^n for M2) basis
    substitutions, of which the rank reads only orbit representatives
    (k = 3 for M2).  A consequence span (consequence_span_dim, and the span
    of span_vs_kernel) is ranked one partition lam of n at a time, in blocks
    rho_lam(h_c) of f_lam x f_lam, one per generator and cut: there cols is
    the sum of f_lam over lam, rows is cols times the number of
    (generator, cut) pairs, and rank is the sum of f_lam times the rank of
    each lam's stacked blocks (SpanKernelReport.isotypic).
    kernel_dim = n! - rank and quotient_dim = rank always hold.  The rank
    is exact over Q: linalg.certified_rank reduces the Gram matrix of its
    input on the diagonal modulo a prime below 2^20, whose pivots give a
    principal minor nonzero modulo the prime (a lower bound), and proves
    the upper bound with a kernel basis lifted to integers and checked
    exactly, else ranks exactly.  A Clifford kernel is ranked as its orbit
    sign matrix, in two blocks by reversal parity.  A span's lam-rank may
    instead meet its bound modulo a prime.
    A span_vs_kernel kernel always comes from those bounds (rows n!, cols
    k^n, no matrix built), so its seeds are empty; for evaluation_kernel
    seeds are the form values at which the orbit sign matrix was
    spot-checked.
    """

    degree: int
    target: str
    rows: int
    cols: int
    rank: int
    kernel_dim: int
    quotient_dim: int
    seeds: tuple[tuple[int, ...], ...] = ()


def _rank_report(
    n: int, target: str, rows: int, cols: int, rank: int, seeds: Sequence = ()
) -> RankReport:
    """Report of a rank over the n! multilinear words of degree n."""
    kernel_dim = factorial(n) - rank
    return RankReport(n, target, rows, cols, rank, kernel_dim, rank, tuple(map(tuple, seeds)))


def _relabelled_prediction(sign: int, rep: list[int], t: list[int], k: int) -> tuple:
    """The orbit sign matrix's (sign, q-exponents, blade) for a word at the
    tuple t, a relabelling of the representative rep where the word has the
    given sign: eps * sign with the q-monomial and blade of t, where eps is
    the common sign that the relabelling multiplies every word's sign by."""
    eps, exps, blade = basis_product(t, k)
    return eps * basis_product(rep, k)[0] * sign, exps, blade


def _spot_check_orbit_signs(
    words: np.ndarray, signs: np.ndarray, k: int, rng: random.Random
) -> None:
    """Multiply out sampled (word, tuple) pairs and compare each with the
    orbit prediction, as (sign, q-exponents, blade) triples.

    Each sampled tuple is its representative relabelled by a random
    permutation of 1..k, so most samples are not representatives.  No form
    value is multiplied in: both sides have the q-exponents and blade of
    the tuple, so the values would scale them alike.
    """
    reps = orbit_representatives(words.shape[1], k)
    for cell in rng.sample(range(signs.size), min(64, signs.size)):
        i, j = divmod(cell, signs.shape[1])
        word, rep = tuple(words[i].tolist()), reps[j].tolist()
        relabel = rng.sample(range(1, k + 1), k)
        t = [relabel[r - 1] for r in rep]
        want = _relabelled_prediction(int(signs[i, j]), rep, t, k)
        got = basis_product([t[g - 1] for g in word], k)
        if got != want:
            raise ArithmeticError(
                f"word {word} at basis tuple {tuple(t)} evaluates to "
                f"(sign, q-exponents, blade) {got}, orbit sign matrix predicts {want}"
            )


def evaluation_kernel(
    n: int, target: PairTarget, seeds: tuple[tuple[int, ...], ...] = ()
) -> RankReport:
    """Rank data of the degree-n multilinear evaluation map of the target.

    The kernel is the space of multilinear weak identities of degree n; the
    quotient dimension equals the rank.  For Clifford targets every column
    factors as a nonzero parameter monomial times an integer sign vector, so
    the generic rank is certified_rank of the sign vectors, one per orbit
    of basis tuples under relabelling (the other columns repeat these up to
    sign).  That matrix S is dense +-1 with far more rows than rank, and
    certified_rank ranks it through its Gram matrix S^T S: the same rank
    over Q and the same kernel vectors, which certify it.  The words are
    closed under reversal, which flips every sign in the columns where
    reversal_odd holds and keeps the others, so S^T S vanishes between the
    two classes of columns and each class is ranked on its own.  Each requested list of
    form values (seeds) spot-checks the factorization itself: a sample of
    sign matrix entries is compared with products of basis vectors,
    multiplied out as (sign, q-exponents, blade) triples.  The values are
    validated but not multiplied in, as they would scale both sides alike.
    The M2 pair ranks the same sign matrix at k = 3, as its n! x 4 * 3^n
    entry matrix is phi of that of clifford:3 (see ``pairs``), and takes no
    seeds.
    """
    _check_dense_degree(n)
    words = _permutation_rows(n)[0] + 1  # multilinear_words(n) as int8 rows
    nfact = len(words)
    if isinstance(target, CliffordPair):
        cols = target.k ** n
        desc = f"clifford k={target.k}" + (" (symbolic q)" if target.form.values is None else "")
    elif isinstance(target, MatrixPair):
        cols, seeds = 4 * 3 ** n, ()
        desc = "m2 (traceless substitution space)"
    else:
        raise TypeError(f"unknown pair target {target!r}")
    k = min(target.form.k, n)  # a degree-n tuple holds at most n labels
    for primes in seeds:  # validated, though the values cancel in the check
        if len(primes) < k:
            raise ValueError(f"seed list must provide at least {k} primes")
        FormParams(k, tuple(primes[:k]))
    signs = orbit_sign_matrix(words, k)
    odd = reversal_odd(n, k)
    rank = sum(certified_rank(signs[:, cols]) for cols in (~odd, odd))
    rng = random.Random(0)
    for _ in seeds:
        _spot_check_orbit_signs(words, signs, k, rng)
    return _rank_report(n, desc, nfact, cols, rank, seeds)


@dataclass(frozen=True)
class IsotypicRow:
    """One partition lam of n in a span-versus-kernel comparison.

    dim is f_lam, the dimension of the irreducible S_n-module S^lam.  rank
    is the exact rank of the stacked blocks rho_lam(h_c), so the span's
    lam-part has dimension dim * rank, and multiplicity = dim - rank is the
    multiplicity of S^lam in P_n / span.  witnessed is [l(lam) <= k]: the
    multiplicity of S^lam in P_n / K (K the weak identities) is at least
    this, as the witness of the lam highest-weight vector shows.  With the
    span inside K, the bounds meet when multiplicity == witnessed.
    """

    partition: Partition
    dim: int
    rank: int
    multiplicity: int
    witnessed: int


@dataclass(frozen=True)
class SpanKernelReport:
    """Result of comparing a consequence span against an evaluation kernel,
    with one IsotypicRow per partition of the degree in ``isotypic``."""

    ok: bool
    degree: int
    span: RankReport
    kernel: RankReport
    containment_ok: bool
    predicted_quotient: int
    isotypic: tuple[IsotypicRow, ...] = ()


#: Degree cap of every per-partition rank: consequence_span_dim,
#: in_consequence_span, span_vs_kernel, theorem1_check and corollary1_check.
ISOTYPIC_DEGREE_CAP = 10


@dataclass(frozen=True)
class _SpanGenerator:
    """A generator g as the per-partition ranks see it: its multilinear
    degree d, and the terms (permutation of 1..d, integer coefficient) of
    its multilinearization, or None for the standard polynomial S_d, which
    is never expanded; poly is g itself (None for S_d).  rho_mu(g) for every
    mu of d, and its row bases, are kept per p for the life of the object."""

    degree: int
    terms: tuple[tuple[Word, int], ...] | None
    poly: NcPoly | None = None
    _rho: dict = field(default_factory=dict, compare=False, repr=False)
    _rows: dict = field(default_factory=dict, compare=False, repr=False)

    def rows(self, mu: Partition, p: int | None) -> np.ndarray:
        """A basis of the row space of rho_mu(g), mu a partition of d: int64
        residues modulo p, or integer rows for p None.  rho_mu(S_d) is d!
        on the one-column shape and 0 on the others."""
        if (mu, p) not in self._rows:
            f, d = len(symmetric.standard_tableaux(mu)), self.degree
            if self.terms is None:
                block = np.full((f, f), factorial(d) if mu == (1,) * d else 0, dtype=np.int64)
            else:
                if p not in self._rho:
                    self._rho[p] = symmetric.rho_element(self.terms, d, p)
                block = self._rho[p][mu]
            if p is None:
                rows = np.array(list(_pivot_rows(block.tolist()).values()), dtype=object)
                self._rows[mu, p] = rows.reshape(-1, f)
            else:
                block = block % p
                self._rows[mu, p] = block[:len(_echelon(block, p))]
        return self._rows[mu, p]


def _poly_generator(g: NcPoly) -> _SpanGenerator:
    words, (coeffs,), _ = _batch_rows([multilinearize(g)])
    return _SpanGenerator(words.shape[1], tuple(zip(map(tuple, words.tolist()), coeffs)), g)


def _poly_generators(generators: Sequence[NcPoly]) -> list[_SpanGenerator]:
    """The nonzero generators in _SpanGenerator form: a zero one spans nothing."""
    return [_poly_generator(g) for g in generators if not g.is_zero()]


def _holds(gen: _SpanGenerator, k: int) -> bool:
    """Whether the generator is a weak identity of (C_k, V_k).  S_d for
    d > k alternates in more vectors than V_k has dimensions, so it
    vanishes there; for d <= k it is d! e_1...e_d at x_i -> e_i."""
    if gen.poly is None:
        return gen.degree > k
    return is_weak_identity(gen.poly, CliffordPair.symbolic(k), max_degree=gen.degree) is None


def _cut_blocks(lam: Partition, gen: _SpanGenerator, p: int | None):
    """Row bases of rho_lam(h_c) for the cuts c = 0..n-d, one array each.

    h_c is g in the letters c+1..c+d with the other letters in order around
    it, so h_c = gamma_c h_0 gamma_c^-1 for the permutation gamma_c that
    moves the letters 1..d to c+1..c+d, and rho(h_c) has the row space of
    rho(h_0) rho(gamma_c^-1).  h_0 lies in QS_d, so rho_lam(h_0) is block
    diagonal in the rho_mu(g) (symmetric.restriction_blocks), and
    gamma_{c+1}^-1 = gamma_c^-1 s_{c+d} ... s_{c+1}."""
    n, d = sum(lam), gen.degree
    x = symmetric.place_runs(lam, d, lambda mu: gen.rows(mu, p), p)
    if not len(x):
        return
    for c in range(n - d + 1):
        if c:
            x = symmetric.right_multiply(x, lam, range(c + d - 1, c - 1, -1), p)
        yield x


def _block_rank(lam: Partition, gens: Sequence[_SpanGenerator], p: int | None) -> int:
    """Rank of the stacked rho_lam(h_c) over every generator and cut:
    modulo p (a lower bound for the rank over Q) in one row reduction, or
    for p None exactly, the blocks in Fractions with each row scaled to
    integers, by certified_rank."""
    blocks = [x for gen in gens for x in _cut_blocks(lam, gen, p)]
    if not blocks:
        return 0
    if p is None:
        return certified_rank([_int_row(row) for x in blocks for row in x.tolist()])
    return len(_echelon(np.vstack(blocks), p))


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > ISOTYPIC_DEGREE_CAP:
        raise ValueError(f"degree {n} above cap {ISOTYPIC_DEGREE_CAP}")


def _isotypic_ranks(
    n: int, k: int, gens: Sequence[_SpanGenerator]
) -> tuple[bool, Iterator[IsotypicRow]]:
    """The consequence span of the generators at degree n, one partition
    of n at a time: whether every generator is a weak identity of
    (C_k, V_k), and the IsotypicRow of each partition, with its exact rank,
    computed as the rows are drawn.

    Identify the multilinear P_n with the group algebra QS_n, a word with
    the permutation it spells.  The span is the left ideal generated by
    the h_c of every generator and cut (_cut_blocks), and in Young's
    seminormal form rho_lam its lam-part has dimension f_lam times the rank
    of the stacked rho_lam(h_c).  Per lam:

    - containment: span <= K (the weak identities of (C_k, V_k)) when every
      generator is a weak identity (_holds), as K is closed under renaming
      and products by words;
    - upper bound: m_lam(P_n/K) <= m_lam(P_n/span) <= f_lam - rank_p, the
      rank modulo linalg.PRIME, with the span inside K: a prime p >= n
      divides no denominator of the seminormal form, so rank_p <= rank_Q;
    - lower bound: m_lam(P_n/K) >= [l(lam) <= k], as lam's highest-weight
      vector prod_j S_{c_j}(x_1..x_{c_j}) (c_j the column heights) is no
      weak identity: at x_i -> e_i each factor is c_j! e_1...e_{c_j}, so
      its value is +-prod c_j! times a q-monomial and a blade, nonzero at
      every nonzero value of the q_i.

    So rank_p = f_lam - [l(lam) <= k] with the span inside K, or rank_p =
    f_lam, is the exact rank; any other partition is ranked exactly.  At
    k = n every partition is witnessed.
    """
    _check_degree(n)
    gens = [g for g in gens if g.degree <= n]
    containment = all(_holds(g, k) for g in gens)

    def rows():
        for lam in partitions(n):
            f, witnessed = len(symmetric.standard_tableaux(lam)), int(len(lam) <= k)
            rank = _block_rank(lam, gens, PRIME)
            if rank != (f - witnessed if containment else f):
                rank = _block_rank(lam, gens, None)
            yield IsotypicRow(lam, f, rank, f - rank, witnessed)

    return containment, rows()


def _span_report(
    n: int, target: str, gens: Sequence[_SpanGenerator], table: Sequence[IsotypicRow]
) -> RankReport:
    """The span's RankReport from its IsotypicRows: cols is the sum of
    f_lam, rows is cols times the number of (generator, cut) pairs, and
    rank is the sum of f_lam times each lam's rank."""
    cols = sum(row.dim for row in table)
    cuts = sum(n - g.degree + 1 for g in gens if g.degree <= n)
    return _rank_report(n, target, cuts * cols, cols, sum(row.dim * row.rank for row in table))


def consequence_span_dim(n: int, generators: Sequence[NcPoly]) -> RankReport:
    """Exact dimension of the degree-n multilinear consequence span of the
    generators, one partition of n at a time (_isotypic_ranks at k = n)."""
    gens = _poly_generators(generators)
    _, table = _isotypic_ranks(n, n, gens)
    return _span_report(n, f"consequence span of {len(gens)} generator(s)", gens, list(table))


def in_consequence_span(f: NcPoly, n: int, generators: Sequence[NcPoly]) -> bool:
    """Whether the multilinear degree-n polynomial f lies in the span of the
    degree-n multilinear consequences of the generators: the span is a
    left ideal of QS_n, so f lies in it exactly when adding f as one more
    generator raises no partition's rank.  Stops at the first that rises."""
    _check_degree(n)
    if f.is_zero():
        return True
    md = multidegree(f)
    if sorted(md) != list(range(1, n + 1)) or any(d != 1 for d in md.values()):
        raise ValueError("f must be multilinear in x1..xn")
    gens = _poly_generators(generators)
    _, before = _isotypic_ranks(n, n, gens)
    _, after = _isotypic_ranks(n, n, [*gens, _poly_generator(f)])
    return all(a.rank == b.rank for a, b in zip(before, after))


def span_vs_kernel(
    n: int, k: int, generators: Sequence[NcPoly], target: str
) -> SpanKernelReport:
    """Compare the degree-n multilinear consequence span of the generators
    with the multilinear weak identities K of the generic k-dimensional
    Clifford pair, one partition of n at a time; the predicted quotient is
    the hook-length sum over partitions of n with at most k rows."""
    return _compare(n, k, _poly_generators(generators), target)


def _corollary1_generators(k: int) -> list[_SpanGenerator]:
    """[x1^2, x2] and S_{k+1}, whose consequences are K at k (Corollary 1)."""
    return [_poly_generator(SQUARE_COMMUTATOR), _SpanGenerator(k + 1, None)]


def _compare(
    n: int, k: int, gens: Sequence[_SpanGenerator], target: str
) -> SpanKernelReport:
    """span_vs_kernel for generators already in _SpanGenerator form.

    The span's partitions come from _isotypic_ranks.  K's come from the
    same bounds, met by the span itself when it lies inside K and no rank
    misses, else by the Corollary 1 generators: m_lam(P_n/K) = [l(lam) <= k],
    so K has codimension the sum of f_lam over l(lam) <= k.  Where those
    miss, the theorem or the rank code is wrong, and a ValueError names the
    first partition.
    """
    containment, rows = _isotypic_ranks(n, k, gens)
    table = list(rows)
    quotient = sum(row.dim for row in table if row.witnessed)
    if not containment or any(row.multiplicity != row.witnessed for row in table):
        holds, kernel_rows = _isotypic_ranks(n, k, _corollary1_generators(k))
        for row in kernel_rows:
            if not holds or row.multiplicity != row.witnessed:
                raise ValueError(f"at degree {n} the partition {row.partition} has multiplicity "
                                 f"{row.multiplicity} in P_n/span([x1^2,x2], S_{k + 1}) but "
                                 f"{row.witnessed} witnessed in P_n/K; span in K: {holds}")
    kernel = _rank_report(n, f"clifford k={k} (symbolic q)", factorial(n), k ** n, quotient)
    span = _span_report(n, target, gens, table)
    return SpanKernelReport(
        ok=containment and span.rank == kernel.kernel_dim,
        degree=n,
        span=span,
        kernel=kernel,
        containment_ok=containment,
        predicted_quotient=quotient,
        isotypic=tuple(table),
    )


def theorem1_check(n: int) -> SpanKernelReport:
    """Check that the degree-n multilinear weak identities of the generic
    Clifford pair (k = n) are exactly the consequences of [x1^2, x2]; the
    predicted quotient is the number of involutions of n letters."""
    if n < 3:
        raise ValueError("the generator has degree 3; need n >= 3")
    return _compare(n, n, [_poly_generator(SQUARE_COMMUTATOR)], "consequence span of [x1^2,x2]")


def corollary1_check(n: int, k: int) -> SpanKernelReport:
    """Check that the degree-n multilinear weak identities of the generic
    k-dimensional Clifford pair are spanned by the consequences of
    [x1^2, x2] together with the standard polynomial S_{k+1}."""
    if k < 1:
        raise ValueError("k must be positive")
    return _compare(n, k, _corollary1_generators(k),
                    f"consequence span of [x1^2,x2] and S_{k + 1}")


# ---------------------------------------------------------------------------
# factoring alternating sums through the standard polynomial


@dataclass
class StandardFactorization:
    """Decomposition of sum(sign) x_{s(1)} Y_1 x_{s(2)} ... Y_{n-1} x_{s(n)}.

    For interleavings in disjoint y-variables the output is a list of
    (left, right) factor pairs around S_n; for interleavings in x_1..x_n it
    is a single right factor S_n * D.  Either way the defect is a weak
    identity of the generic Clifford pair: the solve's equations are its
    evaluation, so verified is True once they are solved.
    """

    n: int
    ys: tuple[Word, ...]
    variant: str  # "two-sided" or "right"
    pairs: list[tuple[NcPoly, NcPoly]] | None = None
    right_factor: NcPoly | None = None
    verified: bool = False


def _splits(multiset: Sequence[int]) -> list[tuple[Word, Word]]:
    """The pairs (d, e) with d + e a distinct word of the multiset: every
    split of every word, ordered by d's count of each letter, then d, e."""
    letters = sorted(set(multiset))
    words = set(itertools.permutations(multiset))
    return sorted({(w[:i], w[i:]) for w in words for i in range(len(w) + 1)},
                  key=lambda de: ([de[0].count(v) for v in letters], de))


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


def factor_through_standard(n: int, ys: Sequence[Sequence[int]]) -> StandardFactorization:
    """Factor the interleaved alternating sum through S_n, modulo identities.

    The variant follows from the interleaved letters: letters inside
    {1..n} (or none) give a single right factor, letters above n give
    two-sided monomial pairs.  Solved as an exact linear system in the
    multilinear quotient; failure to solve raises ``Lemma 3 violated``.
    Its equations are the defect's evaluation at every orbit representative
    of C_N, N = n + |ys|, so a solution verifies the factorization.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    ys = tuple(tuple(y) for y in ys)
    letters = sorted({i for y in ys for i in y})
    if letters and letters[0] > n:
        variant = "two-sided"
    elif all(1 <= i <= n for i in letters):
        variant = "right"
    else:
        raise ValueError(
            f"inconsistent variable usage: interleaved letters {letters} mix the "
            f"x-range 1..{n} with higher indices"
        )

    lhs = interleaved_alternating_sum(n, ys)
    sn = standard_poly(n)
    multiset = tuple(sorted(i for y in ys for i in y))

    if variant == "right":
        labels = [((), w) for w in sorted(set(itertools.permutations(multiset)))]
    else:
        labels = _splits(multiset)
    candidates = [NcPoly.monomial(d) * sn * NcPoly.monomial(e) for d, e in labels]

    if lhs.is_zero():
        coeffs = [Fraction(0)] * len(candidates)
    else:
        coeffs = _solve_modulo_identities(lhs, candidates)
        if coeffs is None:
            raise ArithmeticError("Lemma 3 violated: no factorization through S_n")

    result = StandardFactorization(n=n, ys=ys, variant=variant, verified=True)
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
    return result


# ---------------------------------------------------------------------------
# exact solving in the multilinear quotient


def _solve_modulo_identities(
    lhs: NcPoly, candidates: Sequence[NcPoly]
) -> list[Fraction] | None:
    """Coefficients c with lhs = sum c_j * candidates_j modulo the weak
    identities of the generic Clifford pair, or None if no solution exists.

    All polynomials must share one multidegree, so that polarizing each
    gives the same N letters; they are evaluated at the orbit
    representatives of the basis tuples of C_N.  At a fixed tuple all words
    share the same contraction monomial and blade, so each representative
    contributes one equation sum_j c_j s_j / den_j = s_0 / den_0 in the
    integer signed sums s_j of the polynomials over their denominators
    den_j.  It is solved in integers as sum_j s_j z_j = s_0, with
    c_j = z_j den_j / den_0; rescaling a column keeps its pivot status, so
    the free variables are the same.
    """
    key = sorted(next(iter(lhs.terms)))  # a multidegree, read from one word
    for c in candidates:
        if sorted(next(iter(c.terms))) != key:
            raise ValueError("candidate multidegree does not match the left-hand side")
    # polarized alike, so all have the same N letters: one sign matrix over
    # all their words, and one product per polynomial on its rows
    words, rows, dens = _batch_rows([_multilinear(p, len(key)) for p in (lhs, *candidates)])
    signs = orbit_sign_matrix(words, words.shape[1])
    columns = []
    for end, row in zip(itertools.accumulate(map(len, rows)), rows):
        columns.append(exact_product([row], signs[end - len(row):end])[0].tolist())
    # one equation per representative, most of them repeated: the distinct
    # ones span the same rows, so they have the same solution
    equations = list(dict.fromkeys(zip(*columns)))
    z = solve_exact([eq[1:] for eq in equations], [eq[0] for eq in equations])
    if z is None:
        return None
    return [zj * den / dens[0] for zj, den in zip(z, dens[1:])]
