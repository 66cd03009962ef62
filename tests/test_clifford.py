import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from weakid import clifford
from weakid.clifford import (
    CliffordElt,
    FormParams,
    basis_product,
    blade_mul,
    blade_str,
    embed_vector,
    evaluate,
    orbit_representatives,
    orbit_sign_matrix,
    sign_table,
    word_sign_vector,
)
from weakid.freealg import NcPoly, commutator, multilinear_words, standard_poly
from weakid.linalg import _product_dtype, exact_product
from weakid.scalars import ParamPoly

SYM3 = FormParams(3)


def basis(i, form=SYM3):
    return CliffordElt.basis_vector(i, form)


class TestFormParams:
    def test_symbolic_default(self):
        assert SYM3.values is None
        assert SYM3.monomial(1, (0, 1, 0)) == ParamPoly.qvar(2, 3)
        assert SYM3.monomial(-3, (2, 0, 1)) == ParamPoly.monomial(3, (2, 0, 1), -3)

    def test_explicit_values(self):
        f = FormParams(2, (1, Fraction(-1, 2)))
        assert f.monomial(1, (0, 1)) == ParamPoly.const(2, Fraction(-1, 2))
        assert f.monomial(Fraction(4, 3), (5, 3)) == ParamPoly.const(2, Fraction(-1, 6))
        assert f.monomial(7, (0, 0)) == ParamPoly.const(2, 7)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            FormParams(2, (1, 0))

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            FormParams(0)


class TestBladeMul:
    """basis_product, and blade_mul, which folds b's basis vectors onto a
    through it."""

    def test_vector_square(self):
        assert basis_product([1, 1], 3) == (1, (1, 0, 0), 0)
        assert basis_product([3], 3, blade=0b100) == (1, (0, 0, 1), 0)
        c, b = blade_mul(0b1, 0b1, SYM3)
        assert b == 0 and c == ParamPoly.qvar(1, 3)

    def test_anticommute(self):
        assert basis_product([1, 2], 3) == (1, (0, 0, 0), 0b11)
        assert basis_product([2, 1], 3) == (-1, (0, 0, 0), 0b11)
        assert basis_product([1], 3, blade=0b10) == (-1, (0, 0, 0), 0b11)
        c12, b12 = blade_mul(0b01, 0b10, SYM3)
        c21, b21 = blade_mul(0b10, 0b01, SYM3)
        assert b12 == b21 == 0b11
        assert c12 == ParamPoly.const(3, 1) and c21 == ParamPoly.const(3, -1)

    def test_unit_blade(self):
        for b in range(8):
            assert basis_product([], 3, blade=b) == (1, (0, 0, 0), b)
            assert blade_mul(0, b, SYM3) == (ParamPoly.const(3, 1), b)
            assert blade_mul(b, 0, SYM3) == (ParamPoly.const(3, 1), b)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            blade_mul(8, 0, SYM3)

    def test_associativity_exhaustive_k3(self):
        blades = range(8)
        for a, b, c in itertools.product(blades, repeat=3):
            cab, ab = blade_mul(a, b, SYM3)
            c1, left = blade_mul(ab, c, SYM3)
            cbc, bc = blade_mul(b, c, SYM3)
            c2, right = blade_mul(a, bc, SYM3)
            assert left == right
            assert cab * c1 == cbc * c2


def test_blade_str():
    assert blade_str(0) == "1"
    assert blade_str(0b101) == "e{1,3}"


class TestCliffordElt:
    def test_vector_square_is_central_scalar(self):
        v = basis(1) + 2 * basis(2)
        sq = v * v
        assert set(sq.terms) == {0}
        for w in (basis(1), basis(3), basis(1) * basis(2)):
            assert (sq * w - w * sq).is_zero()

    def test_central_squares_random(self):
        rng = random.Random(11)
        form = FormParams(4)
        for _ in range(100):
            v = embed_vector([Fraction(rng.randint(-3, 3)) for _ in range(4)], form)
            sq = v * v
            u = embed_vector([Fraction(rng.randint(-3, 3)) for _ in range(4)], form)
            assert (sq * u - u * sq).is_zero()

    def test_anticommutation_all_k(self):
        for k in range(2, 9):
            form = FormParams(k)
            for i in range(1, k + 1):
                for j in range(i + 1, k + 1):
                    ei = CliffordElt.basis_vector(i, form)
                    ej = CliffordElt.basis_vector(j, form)
                    assert (ei * ej + ej * ei).is_zero()

    def test_associativity_random_triples(self):
        rng = random.Random(5)
        form = FormParams(3)
        blades = list(range(8))

        def rand_elt():
            return CliffordElt(
                form,
                {b: rng.randint(-2, 2) for b in rng.sample(blades, 3)},
            )

        for _ in range(1000):
            a, b, c = rand_elt(), rand_elt(), rand_elt()
            assert (a * b) * c == a * (b * c)

    def test_form_mismatch(self):
        with pytest.raises(ValueError):
            basis(1, FormParams(2)) + basis(1, FormParams(3))

    def test_unit(self):
        one = CliffordElt.unit(SYM3)
        v = basis(2)
        assert one * v == v and v * one == v

    def test_str(self):
        assert str(basis(1) * basis(2)) == "e{1,2}"
        assert str(basis(1) * basis(1)) == "q1"
        assert str(CliffordElt(SYM3)) == "0"


class TestEmbedVector:
    def test_coordinates(self):
        v = embed_vector([1, 0, Fraction(-1, 2)], SYM3)
        assert v == basis(1) + Fraction(-1, 2) * basis(3)

    def test_length_check(self):
        with pytest.raises(ValueError):
            embed_vector([1, 2], SYM3)


class TestEvaluate:
    def test_homomorphism(self):
        rng = random.Random(3)
        form = FormParams(3)
        x1, x2 = NcPoly.gen(1), NcPoly.gen(2)
        f = x1 * x2 - 2 * x2
        g = x1 + x2 * x1
        for _ in range(25):
            assign = {
                i: embed_vector([rng.randint(-2, 2) for _ in range(3)], form)
                for i in (1, 2)
            }
            lhs = evaluate(f * g, assign, form)
            rhs = evaluate(f, assign, form) * evaluate(g, assign, form)
            assert lhs == rhs

    def test_missing_assignment(self):
        with pytest.raises(ValueError, match="missing"):
            evaluate(NcPoly.gen(2), {1: basis(1)}, SYM3)

    def test_standard_poly_on_basis(self):
        # S_n(e_1,...,e_n) = n! * e_1...e_n
        import math

        for n in range(1, 7):
            form = FormParams(n)
            assign = {i: CliffordElt.basis_vector(i, form) for i in range(1, n + 1)}
            got = evaluate(standard_poly(n), assign, form)
            want = CliffordElt(form, {(1 << n) - 1: math.factorial(n)})
            assert got == want

    def test_generator_identity_on_vectors(self):
        form = FormParams(2)
        f = commutator(NcPoly.gen(1) ** 2, NcPoly.gen(2))
        v = embed_vector([Fraction(2), Fraction(-3)], form)
        w = embed_vector([Fraction(1), Fraction(5)], form)
        assert evaluate(f, {1: v, 2: w}, form).is_zero()


def _strict_inversion_sign(seq):
    """Reference sign of e_{s_1}...e_{s_N}: sorting the labels by adjacent
    swaps flips the sign once per pair of distinct labels out of order."""
    pairs = itertools.combinations(seq, 2)
    return (-1) ** sum(a > b for a, b in pairs)


class TestSignTables:
    def test_basis_product_matches_blade_mul(self):
        form = FormParams(3)
        for n in range(1, 5):
            for seq in itertools.product(range(1, 4), repeat=n):
                coeff = ParamPoly.const(3, 1)
                blade = 0
                for i in seq:
                    c, blade = blade_mul(blade, 1 << (i - 1), form)
                    coeff = coeff * c
                sign, exps, want_blade = basis_product(seq, 3)
                assert coeff.terms == {exps: Fraction(sign)}
                assert blade == want_blade
                # the multiset rule: a sign, floor(count_i / 2) contractions
                # of e_i, and the labels of odd count
                assert sign == _strict_inversion_sign(seq)
                assert exps == tuple(seq.count(i) // 2 for i in (1, 2, 3))
                assert blade == sum(1 << (i - 1) for i in (1, 2, 3) if seq.count(i) % 2)

    def test_sign_table_read_only(self):
        t = sign_table(2, 2)
        with pytest.raises(ValueError):
            t[0, 0] = 5

    def test_word_sign_vector_brute_force(self):
        for n, k in [(1, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            for w in itertools.permutations(range(1, n + 1)):
                v = word_sign_vector(w, k)
                assert v.shape == (k ** n,)
                for flat, t in enumerate(
                    itertools.product(range(1, k + 1), repeat=n)
                ):
                    seq = tuple(t[g - 1] for g in w)
                    assert v[flat] == _strict_inversion_sign(seq)

    def test_identity_word_is_raw_table(self):
        n, k = 3, 2
        assert np.array_equal(
            word_sign_vector((1, 2, 3), k), sign_table(n, k).ravel()
        )


def _full_sign_matrix(n, k):
    """Reference: every word's sign at every one of the k^n tuples."""
    return np.stack([word_sign_vector(w, k) for w in multilinear_words(n)])


def _rgs(t):
    """Relabel a tuple by order of first appearance."""
    first = {}
    return tuple(first.setdefault(i, len(first) + 1) for i in t)


def _stirling2(n, j):
    if n == j:
        return 1
    if j == 0 or j > n:
        return 0
    return j * _stirling2(n - 1, j) + _stirling2(n - 1, j - 1)


class TestOrbitSigns:
    def test_representatives_are_lex_sorted_growth_strings(self):
        for n in range(0, 6):
            for k in range(1, 6):
                reps = [tuple(int(i) for i in r) for r in orbit_representatives(n, k)]
                want = sorted(
                    t for t in itertools.product(range(1, k + 1), repeat=n)
                    if _rgs(t) == t
                )
                assert reps == want

    def test_representative_counts(self):
        for n in range(1, 8):
            for k in range(1, 8):
                want = sum(_stirling2(n, j) for j in range(1, k + 1))
                assert orbit_representatives(n, k).shape == (want, n)
        assert [len(orbit_representatives(n, n)) for n in (5, 6, 7)] == [52, 203, 877]

    def test_representatives_read_only(self):
        with pytest.raises(ValueError):
            orbit_representatives(3, 2)[0, 0] = 2

    def test_columns_match_full_table(self):
        for n in range(1, 7):
            for k in range(1, 7):
                full = _full_sign_matrix(n, k)
                orbit = orbit_sign_matrix(multilinear_words(n), k)
                reps = orbit_representatives(n, k)
                flat = np.ravel_multi_index(tuple(reps.T.astype(np.intp) - 1), (k,) * n)
                assert np.array_equal(orbit, full[:, flat])

    def test_cached_pair_masks_read_only(self):
        before = [mask.copy() for mask in clifford._orbit_pair_masks(4, 3)]
        words = multilinear_words(4)
        orbit_sign_matrix(words, 3)
        for block in clifford.orbit_sign_blocks(words, 3, 2):
            block[:] = 0  # a block is the caller's own array
        for mask, old in zip(clifford._orbit_pair_masks(4, 3), before):
            assert np.array_equal(mask, old)
            with pytest.raises(ValueError):
                mask[0] = 0

    def test_blocks_concatenate_to_the_matrix(self):
        for n in range(1, 7):
            for k in range(1, 6):
                words = multilinear_words(n)
                whole = orbit_sign_matrix(words, k)
                for step in (1, 3, whole.shape[1]):
                    blocks = list(clifford.orbit_sign_blocks(words, k, step))
                    assert all(b.dtype == np.int8 and b.shape[1] == step for b in blocks[:-1])
                    assert np.array_equal(np.hstack(blocks), whole)

    def test_columns_match_full_table_in_mixed_order_and_after_eviction(self):
        # 36 (n, k) entries in shuffled order, twice: more than the 32 the
        # cache holds, so the second round also rebuilds evicted entries
        cells = list(itertools.product(range(1, 7), repeat=2))
        rng = random.Random(12)
        clifford._orbit_pair_masks.cache_clear()
        for _ in range(2):
            rng.shuffle(cells)
            for n, k in cells:
                full = _full_sign_matrix(n, k)
                words = multilinear_words(n)
                sample = sorted(rng.sample(range(len(words)), min(len(words), 5)))
                got = orbit_sign_matrix([words[i] for i in sample], k)
                reps = orbit_representatives(n, k)
                flat = np.ravel_multi_index(tuple(reps.T.astype(np.intp) - 1), (k,) * n)
                assert np.array_equal(got, full[sample][:, flat])
        info = clifford._orbit_pair_masks.cache_info()
        assert info.currsize == 32 and info.misses > len(cells)

    def test_every_column_is_a_signed_representative_column(self):
        for n, k in itertools.product(range(1, 6), repeat=2):
            full = _full_sign_matrix(n, k)
            orbit = orbit_sign_matrix(multilinear_words(n), k)
            index = {tuple(int(i) for i in r): j for j, r in enumerate(orbit_representatives(n, k))}
            for flat, t in enumerate(itertools.product(range(1, k + 1), repeat=n)):
                col = orbit[:, index[_rgs(t)]]
                assert np.array_equal(full[:, flat], col) or np.array_equal(full[:, flat], -col)

    def test_any_word_subset_and_order(self):
        rng = random.Random(5)
        words = multilinear_words(5)
        sample = rng.sample(range(len(words)), 17)
        got = orbit_sign_matrix([words[i] for i in sample], 4)
        assert np.array_equal(got, orbit_sign_matrix(words, 4)[sample])
        assert got.shape == (17, len(orbit_representatives(5, 4)))

    def test_word_masks_take_one_byte_per_place(self):
        # the letters' places at degree 8, 40320 words x 28 pairs, copied
        # twice for the pair comparison: 18 MB in intp, 2.3 MB in uint8
        words = np.array(list(itertools.permutations(range(1, 9))))
        tracemalloc.start()
        try:
            block = next(clifford.orbit_sign_blocks(words, 3, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.tolist() == orbit_sign_matrix(words, 3)[:, :1].tolist()
        assert peak < 8 * 2**20

    def test_empty_word(self):
        assert orbit_sign_matrix([()], 3).tolist() == [[1]]

    def test_exact_product_with_signs(self):
        signs = np.array([[1, -1], [1, 1], [-1, 1]], dtype=np.int8)
        small = exact_product([[3, 4, 5]], signs)
        assert _product_dtype(np.array([[3, 4, 5]]), signs) == np.float32
        assert small.dtype == np.int64 and small.tolist() == [[2, 6]]
        big = [2**62, 2**62, -(2**63)]
        assert _product_dtype(np.array([big]), signs) == object
        assert exact_product([big], signs).tolist() == [[2**64, -(2**63)]]
        rows = exact_product([[1, 2, 3], [2**70, 0, 1]], signs)
        assert rows.tolist() == [[0, 4], [2**70 - 1, -(2**70) + 1]]
