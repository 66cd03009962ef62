"""Young's seminormal form (weakid.symmetric) and the per-partition
span-versus-kernel comparison built on it."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from weakid import structure, symmetric
from weakid.linalg import PRIME
from weakid.parser import parse_poly
from weakid.structure import corollary1_check, hook_dim, partitions, theorem1_check

from oracles import dense_span_vs_kernel, perm_sign

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
    one = symmetric.identity(shape, p)
    s = [symmetric.rho_permutation(shape, transposition(n, i), p) for i in range(1, n)]
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
                got = exact_product(symmetric.rho_permutation(shape, s, p),
                                    symmetric.rho_permutation(shape, t, p), p)
                assert (got == symmetric.rho_permutation(shape, compose(s, t), p)).all()


def test_one_row_and_one_column_are_trivial_and_sign():
    for n in range(1, 6):
        for perm in itertools.permutations(range(1, n + 1)):
            assert symmetric.rho_permutation((n,), perm, None).tolist() == [[1]]
            assert symmetric.rho_permutation((1,) * n, perm, None).tolist() == [[perm_sign(perm)]]


def test_reduced_word_has_the_inversion_count():
    rng = random.Random(3)
    for n in range(1, 8):
        perm = rng.sample(range(1, n + 1), n)
        word = symmetric.reduced_word(perm)
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
        whole = symmetric.rho_element(shape, [(t + list(range(d + 1, n + 1)), c) for t, c in terms],
                                      None)
        want = np.zeros_like(whole)
        for start, mu in symmetric.restriction_blocks(shape, d):
            f = hook_dim(mu)
            want[start:start + f, start:start + f] = symmetric.rho_element(mu, terms, None)
        assert (whole == want).all()


@pytest.mark.parametrize("shape", [lam for n in (3, 4, 5) for lam in partitions(n)], ids=str)
def test_standard_polynomial_is_a_diagonal(shape):
    """S_m on the first m letters is m! times the diagonal of the tableaux
    whose entries 1..m fill one column."""
    n = sum(shape)
    for m in range(1, n + 1):
        terms = [(list(perm) + list(range(m + 1, n + 1)), perm_sign(perm))
                 for perm in itertools.permutations(range(1, m + 1))]
        got = symmetric.rho_element(shape, terms, PRIME)
        column = [len({c for _, c in t[:m]}) == 1 for t in symmetric.standard_tableaux(shape)]
        assert (got == np.diag(column) * (math.factorial(m) % PRIME)).all()


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


def test_witness_needs_only_the_seeds_it_uses():
    # the witnesses of degree 9 contract q_1..q_4 at most: eight primes do
    assert max(sum(part >= 2 for part in lam) for lam in partitions(9)) == 4
    rep = theorem1_check(6, seeds=((2, 3, 5),))
    assert rep.kernel.seeds == ((2, 3, 5),)
    with pytest.raises(ValueError, match="missing assignment for parameter q4"):
        theorem1_check(8, seeds=((2, 3, 5),))
    with pytest.raises(ValueError, match=r"witness of \(2, 2\) vanishes"):
        theorem1_check(4, seeds=((2, 0),))
