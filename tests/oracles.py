"""Reference implementations that the tests compare weakid against.

Each is a plain, independent algorithm for a job that weakid does another
way: dense Bareiss rank, the rank modulo a prime, Gauss-Jordan solving over
Fractions, permutation signs from the cycle decomposition, random
invertible substitutions for the GL-invariance tests, Young's seminormal
generators entry by entry, the seminormal form of a permutation and of a
group-algebra element term by term, the decision procedure's integer rows
and witnesses by full polarization and whole sign matrices, the decision
procedure one component at a time, the dense consequence span and
span-versus-kernel comparison over all n! multilinear words, and the
candidate splits of factor_through_standard by sub-multisets.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from weakid import clifford, linalg, pairs, structure, symmetric
from weakid.clifford import (
    CliffordElt,
    evaluate,
    orbit_representatives,
    orbit_sign_matrix,
)
from weakid.freealg import (
    DEFAULT_DEGREE_CAP,
    NcPoly,
    multihomogeneous_components,
    multilinear_words,
    multilinearize,
    substitute_linear,
)
from weakid.pairs import CliffordPair, PairTarget, Witness


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


def echelon_mod_p(rows, p: int = linalg.PRIME) -> tuple[list[int], list[list[int]]]:
    """The pivot columns and the nonzero rows of the reduced echelon form
    over GF(p) of an integer matrix, by Gauss-Jordan elimination on Python
    ints, each entry reduced as soon as it is made.  Entries are validated
    as linalg validates them: integers only."""
    a = [[x % p for x in row] for row in linalg._integer_matrix(rows).tolist()]
    pivots: list[int] = []
    for col in range(len(a[0]) if a else 0):
        top = len(pivots)
        lead = next((i for i in range(top, len(a)) if a[i][col]), None)
        if lead is None:
            continue
        a[top], a[lead] = a[lead], a[top]
        inverse = pow(a[top][col], -1, p)
        a[top] = [x * inverse % p for x in a[top]]
        for i, row in enumerate(a):
            if i != top and row[col]:
                c = row[col]
                a[i] = [(x - c * y) % p for x, y in zip(row, a[top])]
        pivots.append(col)
    return pivots, a[:len(pivots)]


def rank_mod_p(rows, p: int = linalg.PRIME) -> int:
    """Rank over GF(p) of an integer matrix.

    A lower bound for the rank over Q, equal to it for all but finitely many
    primes (those dividing every maximal nonzero minor).
    """
    return len(echelon_mod_p(rows, p)[0])


def reduced_word(perm: Sequence[int]) -> list[int]:
    """A word w with perm = s_{w_1} s_{w_2} ... for a permutation in
    one-line notation (perm[j-1] is the image of j): bubble sort, where each
    swap of the places j, j+1 is a right factor s_j."""
    one_line, swaps = list(perm), []
    changed = True
    while changed:
        changed = False
        for j in range(len(one_line) - 1):
            if one_line[j] > one_line[j + 1]:
                one_line[j], one_line[j + 1] = one_line[j + 1], one_line[j]
                swaps.append(j + 1)
                changed = True
    return swaps[::-1]


def identity(shape, p: int | None) -> np.ndarray:
    """rho_shape(1): int64 modulo p, Python ints (object) for p None."""
    return np.eye(len(symmetric.standard_tableaux(shape)), dtype=np.int64).astype(
        symmetric._dtype(p))


def seminormal_generators(shape, p: int | None) -> list[tuple[np.ndarray, ...]]:
    """rho(s_i) for i = 1..n-1 in the (diag, partner, coef) form of
    symmetric.seminormal_generators, with one Fraction and one residue made
    per entry."""
    tableaux = symmetric.standard_tableaux(shape)
    index = {t: j for j, t in enumerate(tableaux)}
    gens = []
    for i in range(1, sum(shape)):
        diag, partner, coef = [], [], []
        for j, t in enumerate(tableaux):
            (r1, c1), (r2, c2) = t[i - 1], t[i]
            r = (c2 - r2) - (c1 - r1)
            diag.append(symmetric._residue(Fraction(1, r), p))
            if r1 == r2 or c1 == c2:
                partner.append(j)
                coef.append(symmetric._residue(Fraction(0), p))
            else:
                partner.append(index[t[:i - 1] + (t[i], t[i - 1]) + t[i + 1:]])
                a = Fraction(1) if r1 < r2 else 1 - Fraction(1, r * r)
                coef.append(symmetric._residue(a, p))
        gens.append((np.array(diag, dtype=symmetric._dtype(p)),
                     np.array(partner, dtype=np.intp),
                     np.array(coef, dtype=symmetric._dtype(p))))
    return gens


def rho_permutation(shape, perm: Sequence[int], p: int | None) -> np.ndarray:
    """rho_shape(perm) for a permutation of 1..n in one-line notation, as
    the product of the seminormal generators along a reduced word."""
    return symmetric.right_multiply(identity(shape, p), shape, reduced_word(perm), p)


def rho_element(shape, terms: Iterable[tuple[Sequence[int], int | Fraction]],
                p: int | None) -> np.ndarray:
    """rho_shape of the group-algebra element sum c * perm over the terms
    (perm, c), term by term; modulo p with each term reduced before it is
    added."""
    f = len(symmetric.standard_tableaux(shape))
    out = np.zeros((f, f), dtype=symmetric._dtype(p))
    for perm, c in terms:
        term = rho_permutation(shape, perm, p)
        if p is None:
            out = out + term * c
        else:
            out = (out + term * symmetric._residue(Fraction(c), p)) % p
    return out


def integer_rows(ml: NcPoly) -> tuple[np.ndarray, list[int], int]:
    """A multilinear polynomial as (words with the letters renamed to 1..n
    in sorted order, integer coefficients, den), the coefficients being
    ml's times den, the lcm of all of their denominators."""
    letters = sorted(next(iter(ml.terms)))
    words = np.searchsorted(letters, np.array(list(ml.terms), dtype=np.intp)) + 1
    den = lcm(*(c.denominator for c in ml.terms.values()))
    return words, [int(c * den) for c in ml.terms.values()], den


def component_rows(f: NcPoly) -> list[tuple[np.ndarray, list[int], int]]:
    """integer_rows of every multihomogeneous component of f, each one
    multilinearized first, in the order of multihomogeneous_components."""
    return [integer_rows(multilinearize(c)) for c in multihomogeneous_components(f)]


def clifford_witness(f: NcPoly, k: int) -> tuple[dict[int, str], str] | None:
    """The first failing basis tuple of the first failing component of f on
    the symbolic clifford:k, as (assignment, printed value), or None if f is
    a weak identity: the whole orbit sign matrix of each multilinearized
    component times its integer coefficients, and the value at the first
    nonzero representative by evaluation in C_k."""
    form = CliffordPair.symbolic(k).form
    for comp, (words, coeffs, _) in zip(multihomogeneous_components(f), component_rows(f)):
        sums = linalg.exact_product([coeffs], orbit_sign_matrix(words, k))[0]
        if sums.any():
            rep = orbit_representatives(words.shape[1], k)[np.flatnonzero(sums)[0]]
            ml = multilinearize(comp)
            letters = sorted(ml.generators())
            value = evaluate(ml, {g: CliffordElt.basis_vector(int(i), form)
                                  for g, i in zip(letters, rep)}, form)
            return {g: f"e{i}" for g, i in zip(letters, rep)}, str(value)
    return None


def component_loop_witness(f: NcPoly, target: PairTarget,
                           max_degree: int = DEFAULT_DEGREE_CAP) -> Witness | None:
    """pairs.is_weak_identity one multihomogeneous component at a time: each
    component through pairs._multilinear (refusals raised in order), its
    own orbit sign blocks and one exact product per block, until the first
    component with a nonzero sum; a symbolic clifford:k with k > n decides a
    degree-n component as clifford:n."""
    for comp in multihomogeneous_components(f):
        ml = pairs._multilinear(comp, max_degree)
        n = len(next(iter(ml.terms)))
        pair = target
        if isinstance(target, CliffordPair) and target.form.values is None and target.k > n:
            pair = CliffordPair.symbolic(max(n, 1))
        form = pair.form
        words, (coeffs,), (den,) = pairs._batch_rows([ml])
        row = np.array([coeffs], dtype=linalg._signed_dtype(max(map(abs, coeffs))))
        step = max(1, pairs.ORBIT_BLOCK_ENTRIES // len(words))
        for block, signs in enumerate(clifford.orbit_sign_blocks(words, form.k, step)):
            sums = linalg.exact_product(row, signs)[0]
            bad = np.flatnonzero(sums)
            if bad.size:
                rep = [int(i) for i in orbit_representatives(n, form.k)[block * step + bad[0]]]
                _, exps, blade = clifford.basis_product(rep, form.k)
                coeff = form.monomial(Fraction(int(sums[bad[0]]), den), exps)
                if isinstance(pair, CliffordPair):
                    value, labels = CliffordElt(form, {blade: coeff}), [f"e{i}" for i in rep]
                else:
                    value = pairs._M2_BLADES[blade] * coeff.constant_value()
                    basis = pairs.substitution_basis(pair)
                    labels = [basis[i - 1][0] for i in rep]
                assignment = dict(zip(sorted(next(iter(ml.terms))), labels))
                return Witness(assignment=assignment, value=value, component=ml)
    return None


def _permutation_index(words: np.ndarray) -> np.ndarray:
    """Position of each row (a permutation of 1..n) in multilinear_words(n),
    from its Lehmer code: the count of later smaller letters at each place."""
    n = words.shape[1]
    later_smaller = (words[:, None, :] < words[:, :, None]) & np.triu(np.ones((n, n), bool), 1)
    weights = np.array([factorial(n - 1 - i) for i in range(n)])
    return later_smaller.sum(axis=2) @ weights


def oracle_span_vectors(n, generators):
    """The consequence span built term by term in the free algebra: every
    injective renaming of a multilinearized generator's letters into 1..n,
    surrounded by every ordered split of the remaining letters, as Fraction
    coefficient vectors deduplicated up to scaling."""
    words = multilinear_words(n)
    seen, vecs = set(), []
    for g in generators:
        gm = multilinearize(g)
        letters = sorted(gm.generators())
        d = len(letters)
        if d > n:
            continue
        for inj in itertools.permutations(range(1, n + 1), d):
            inst = substitute_linear(gm, {letters[j]: NcPoly.gen(inj[j]) for j in range(d)})
            rest = sorted(set(range(1, n + 1)) - set(inj))
            for perm in itertools.permutations(rest):
                for cut in range(len(rest) + 1):
                    p = NcPoly.monomial(perm[:cut]) * inst * NcPoly.monomial(perm[cut:])
                    vec = [p.coeff(w) for w in words]
                    first = next(c for c in vec if c)
                    key = tuple(c / first for c in vec)
                    if key not in seen:
                        seen.add(key)
                        vecs.append(vec)
    return vecs


def span_matrix(n: int, generators: Sequence[NcPoly]) -> np.ndarray:
    """Integer rows spanning the degree-n multilinear slice of the GL-ideal,
    one column per word of multilinear_words(n) (n <= 7), deduplicated up
    to scaling, in the narrowest signed integer dtype that holds the
    entries.

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
        words, coeffs, _ = integer_rows(multilinearize(g))
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
    span = np.zeros((len(blocks) * nfact, nfact), dtype=linalg._signed_dtype(top))
    for b, terms in enumerate(blocks):
        for cols, c in terms:
            span[np.arange(b * nfact, (b + 1) * nfact), _permutation_index(perms[:, cols])] = c
    span *= np.sign(span[np.arange(len(span)), np.argmax(span != 0, axis=1)])[:, None]
    # rows as single opaque items: np.unique(axis=0) compares them column
    # by column, ten times slower at n = 6
    whole_rows = span.view(np.dtype((np.void, span.strides[0]))).ravel()
    return span[np.sort(np.unique(whole_rows, return_index=True)[1])]


def dense_span_vs_kernel(n: int, k: int, generators: Sequence[NcPoly]) -> dict:
    """The span-versus-kernel comparison over all n! multilinear words
    (n <= 7): the consequence span as the integer matrix of span_matrix,
    containment as span rows times the orbit sign
    matrix of C_k, both ranks certified."""
    span = span_matrix(n, generators)
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


def distinct_words(multiset: Sequence[int]) -> list[tuple[int, ...]]:
    return sorted(set(itertools.permutations(multiset)))


def sub_multisets(multiset: Sequence[int]) -> list[tuple[int, ...]]:
    values = sorted(set(multiset))
    counts = [multiset.count(v) for v in values]
    subs = []
    for choice in itertools.product(*(range(c + 1) for c in counts)):
        subs.append(tuple(v for v, c in zip(values, choice) for _ in range(c)))
    return subs


def multiset_difference(multiset: Sequence[int], sub: Sequence[int]) -> tuple[int, ...]:
    pool = list(multiset)
    for v in sub:
        pool.remove(v)
    return tuple(pool)


def factor_splits(multiset: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The two-sided candidates (d, e) of factor_through_standard as it built
    them: each sub-multiset in the order of its letter counts, then every
    word d of it with every word e of the rest, both in sorted order."""
    return [(d, e) for sub in sub_multisets(multiset)
            for d in distinct_words(sub)
            for e in distinct_words(multiset_difference(multiset, sub))]
