"""Young's seminormal form (weakid.symmetric) and the per-partition
consequence spans built on it, against the term-by-term and dense n!-word
oracles."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from weakid import structure, symmetric
from weakid.freealg import SQUARE_COMMUTATOR, NcPoly, multilinear_words, standard_poly
from weakid.linalg import PRIME, certified_rank
from weakid.parser import parse_poly
from weakid.structure import corollary1_check, hook_dim, partitions, theorem1_check

import oracles
from oracles import dense_span_vs_kernel, perm_sign, span_matrix

SHAPES = [lam for n in range(1, 7) for lam in partitions(n)]


def transposition(n: int, i: int) -> list[int]:
    return [*range(1, i), i + 1, i, *range(i + 2, n + 1)]


def compose(s, t):
    """s after t, in one-line notation."""
    return [s[j - 1] for j in t]


def exact_product(a: np.ndarray, b: np.ndarray, p: int | None) -> np.ndarray:
    """a @ b in Python ints or Fractions, reduced modulo p: residues below
    2^31 would overflow int64 when summed."""
    out = a.astype(object) @ b.astype(object)
    return out % p if p is not None else out


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_tableaux_are_standard_and_counted_by_hooks(shape):
    tableaux = symmetric.standard_tableaux(shape)
    assert len(tableaux) == len(set(tableaux)) == hook_dim(shape)
    for t in tableaux:
        assert sorted(t) == sorted((r, c) for r, row in enumerate(shape) for c in range(row))
        entry = {cell: i for i, cell in enumerate(t)}
        assert all(entry[(r, c)] < entry[(r, c + 1)] for r, c in t if (r, c + 1) in entry)
        assert all(entry[(r, c)] < entry[(r + 1, c)] for r, c in t if (r + 1, c) in entry)


@pytest.mark.parametrize("p", [None, PRIME, 7], ids=["exact", "word-prime", "p=7"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_coxeter_relations(shape, p):
    """s_i^2 = 1, s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}, and s_i s_j = s_j s_i
    for |i - j| >= 2."""
    n = sum(shape)  # at most 6, so every p here is at least n
    one = oracles.identity(shape, p)
    s = [oracles.rho_permutation(shape, transposition(n, i), p) for i in range(1, n)]
    for i, a in enumerate(s):
        assert (exact_product(a, a, p) == one).all()
        for j, b in enumerate(s):
            if j == i + 1:
                aba = exact_product(exact_product(a, b, p), a, p)
                assert (aba == exact_product(exact_product(b, a, p), b, p)).all()
            elif j > i + 1:
                assert (exact_product(a, b, p) == exact_product(b, a, p)).all()


@pytest.mark.parametrize("p", [None, PRIME], ids=["exact", "word-prime"])
def test_homomorphism_on_random_pairs(p):
    rng = random.Random(11)
    for n in (4, 5, 6) if p is None else (4, 5, 6, 7):
        for shape in partitions(n):
            for _ in range(3):
                s, t = rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n)
                got = exact_product(oracles.rho_permutation(shape, s, p),
                                    oracles.rho_permutation(shape, t, p), p)
                assert (got == oracles.rho_permutation(shape, compose(s, t), p)).all()


def test_one_row_and_one_column_are_trivial_and_sign():
    for n in range(1, 6):
        for perm in itertools.permutations(range(1, n + 1)):
            assert oracles.rho_permutation((n,), perm, None).tolist() == [[1]]
            assert oracles.rho_permutation((1,) * n, perm, None).tolist() == [[perm_sign(perm)]]


def test_reduced_word_has_the_inversion_count():
    rng = random.Random(3)
    for n in range(1, 8):
        perm = rng.sample(range(1, n + 1), n)
        word = oracles.reduced_word(perm)
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        assert len(word) == inversions
        product = list(range(1, n + 1))
        for i in word:
            product = compose(product, transposition(n, i))
        assert product == perm


@pytest.mark.parametrize("shape", [lam for n in (4, 5, 6) for lam in partitions(n)], ids=str)
def test_restriction_is_block_diagonal(shape):
    """rho_lam of an element of QS_d is rho_mu of it on each run of
    restriction_blocks (Gelfand-Tsetlin)."""
    n, rng = sum(shape), random.Random(sum(shape) * 100 + len(shape))
    for d in range(1, n + 1):
        terms = [(rng.sample(range(1, d + 1), d), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                 for _ in range(3)]
        whole = oracles.rho_element(shape, [(t + list(range(d + 1, n + 1)), c) for t, c in terms],
                                    None)
        want = np.zeros_like(whole)
        for start, mu in symmetric.restriction_blocks(shape, d):
            f = hook_dim(mu)
            want[start:start + f, start:start + f] = oracles.rho_element(mu, terms, None)
        assert (whole == want).all()


@pytest.mark.parametrize("shape", [lam for n in (3, 4, 5) for lam in partitions(n)], ids=str)
def test_standard_polynomial_is_a_diagonal(shape):
    """S_m on the first m letters is m! times the diagonal of the tableaux
    whose entries 1..m fill one column."""
    n = sum(shape)
    for m in range(1, n + 1):
        terms = [(list(perm) + list(range(m + 1, n + 1)), perm_sign(perm))
                 for perm in itertools.permutations(range(1, m + 1))]
        got = oracles.rho_element(shape, terms, PRIME)
        column = [len({c for _, c in t[:m]}) == 1 for t in symmetric.standard_tableaux(shape)]
        assert (got == np.diag(column) * (math.factorial(m) % PRIME)).all()


@pytest.mark.parametrize("p", [PRIME, 7, None], ids=["prime", "7", "fractions"])
def test_generators_equal_the_per_entry_construction(p):
    """The residues looked up per axial distance are those made per entry,
    for every shape up to n = 7."""
    for shape in (lam for n in range(1, 8) for lam in partitions(n)):
        got = symmetric.seminormal_generators(shape, p)
        want = oracles.seminormal_generators(shape, p)
        assert len(got) == len(want) == sum(shape) - 1
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_caches_are_read_only():
    for diag, partner, coef in symmetric.seminormal_generators((3, 2), PRIME):
        for a in (diag, partner, coef):
            with pytest.raises(ValueError):
                a[0] = 0


# the six generator sets cross-checked against the dense span, with
# n! - span rank at n = 4, 5, 6
GENERATOR_SETS = {
    "[x1,x2]": (["[x1,x2]"], (1, 1, 1)),
    "S(3)": (["S(3)"], (17, 70, 349)),
    "x1*x2*x3 - x3*x2*x1": (["x1*x2*x3 - x3*x2*x1"], (6, 10, 20)),
    "[x1^2,x2]; S(4)": (["[x1^2,x2]", "S(4)"], (9, 21, 51)),
    "[[x1,x2],x3]": (["[[x1,x2],x3]"], (10, 26, 76)),
    "[x1,x2]^2": (["[x1,x2]^2"], (22, 100, 545)),
}


@functools.cache
def dense(n, k, name):
    return dense_span_vs_kernel(n, k, [parse_poly(g) for g in GENERATOR_SETS[name][0]])


@pytest.mark.parametrize("name", GENERATOR_SETS)
def test_agrees_with_the_dense_oracle(name):
    texts, quotients = GENERATOR_SETS[name]
    gens = [parse_poly(g) for g in texts]
    for n, quotient in zip((4, 5, 6), quotients):
        for k in ((2, 3, n) if n < 6 else (3,)):
            rep = structure.span_vs_kernel(n, k, gens, name)
            assert math.factorial(n) - rep.span.rank == quotient
            got = {"ok": rep.ok, "containment_ok": rep.containment_ok,
                   "span_rank": rep.span.rank, "kernel_dim": rep.kernel.kernel_dim,
                   "quotient_dim": rep.kernel.quotient_dim}
            assert got == dense(n, k, name)
            assert rep.span.rank == sum(row.dim * row.rank for row in rep.isotypic)


def test_every_multiplicity_is_the_prediction():
    """m_lam = [l(lam) <= k] for every partition: the bounds meet."""
    reports = [(theorem1_check(n), n) for n in range(3, 9)]
    reports += [(corollary1_check(8, k), k) for k in (2, 3, 4)]
    for rep, k in reports:
        n = rep.degree
        assert rep.ok and [row.partition for row in rep.isotypic] == partitions(n)
        for row in rep.isotypic:
            assert row.multiplicity == row.witnessed == int(len(row.partition) <= k)
            assert row.dim == hook_dim(row.partition)
        assert rep.kernel.quotient_dim == rep.predicted_quotient == sum(
            hook_dim(lam) for lam in partitions(n, max_rows=k))
        assert rep.span.cols == sum(map(hook_dim, partitions(n)))


def test_quotients_beyond_the_dense_cap():
    assert theorem1_check(9).kernel.quotient_dim == 2620
    assert corollary1_check(9, 3).kernel.quotient_dim == 835


@pytest.mark.parametrize("p", [None, PRIME, 7], ids=["exact", "word-prime", "p=7"])
@pytest.mark.parametrize("n", range(1, 7))
def test_trie_equals_term_by_term(n, p):
    """rho_element along the word trie is the sum of the terms' rho, for
    every shape of n: on random elements and on the whole of S_n."""
    rng = random.Random(n)
    perms = list(itertools.permutations(range(1, n + 1)))
    elements = [[(w, Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if p is None
                  else rng.randint(-10**20, 10**20)) for w in rng.sample(perms, min(len(perms), k))]
                for k in (1, 5, 30)]
    if n < 6 or p is not None:  # term by term, S_6 takes 30 s in Fractions
        elements.append([(w, perm_sign(w)) for w in perms])
    for terms in elements:
        got = symmetric.rho_element(terms, n, p)
        assert list(got) == partitions(n)
        for shape, block in got.items():
            assert (block == oracles.rho_element(shape, terms, p)).all()


def test_dense_standard_polynomial_generator():
    """S_7 given as a polynomial, built along the trie, gives the report
    of corollary1_check, where S_7 is never expanded."""
    rep = structure.span_vs_kernel(7, 6, [SQUARE_COMMUTATOR, standard_poly(7)], "S_7 expanded")
    want = corollary1_check(7, 6)
    assert (rep.ok, rep.span.rank, rep.kernel.quotient_dim) == (
        want.ok, want.span.rank, want.kernel.quotient_dim) == (True, 4809, 231)


# the generator sets of consequence_span_dim and in_consequence_span
# against the dense oracle: the six above, two with Fraction
# coefficients, standard polynomials of degree 5 and 6, and constants
SPAN_SETS = {
    **{name: texts for name, (texts, _) in GENERATOR_SETS.items()},
    "fractions": ["3/4*x1*x2*x3 - 5/6*x3*x1*x2"],
    "cubic square": ["2/3*[x1^3,x2]", "[x1^2,x2]"],
    "S(5)": ["S(5)"],
    "S(5)*x6": ["S(5)*x6"],
    "constant": ["3"],
    "[x1^2,x2]; 1/2": ["[x1^2,x2]", "1/2"],
}


@pytest.mark.parametrize("name", SPAN_SETS)
def test_span_and_membership_agree_with_the_dense_oracle(name):
    gens = [parse_poly(g) for g in SPAN_SETS[name]]
    rng = random.Random(name)
    for n in range(2, 7):
        span = span_matrix(n, gens).tolist()
        rank = certified_rank(span) if span else 0
        rep = structure.consequence_span_dim(n, gens)
        assert (rep.rank, rep.kernel_dim) == (rank, math.factorial(n) - rank)
        words = multilinear_words(n)
        candidates = [standard_poly(n)]
        if span:
            # a combination of span rows, and the same off by one word
            picks = rng.sample(span, min(3, len(span)))
            row = [sum(rng.randint(1, 3) * r[j] for r in picks) for j in range(len(words))]
            inside = NcPoly({w: c for w, c in zip(words, row) if c})
            candidates += [inside, inside + NcPoly.monomial(rng.choice(words))]
        for f in candidates[-2:] if n == 6 else candidates:
            dense = certified_rank(span + [[int(f.coeff(w)) for w in words]]) == rank
            assert structure.in_consequence_span(f, n, gens) == dense
