import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakid import linalg, structure
from weakid.clifford import CliffordElt, FormParams, evaluate, orbit_sign_matrix
from weakid.freealg import (
    SQUARE_COMMUTATOR,
    NcPoly,
    commutator,
    multilinear_words,
    multilinearize,
    standard_poly,
    substitute_linear,
)
from weakid.linalg import PRIME, exact_rank, rank_mod_p, solve_exact
from weakid.pairs import CliffordPair, MatrixPair, is_weak_identity
from weakid.structure import (
    DEFAULT_SEEDS,
    InsertionCoeffs,
    conjugate_partition,
    consequence_span_dim,
    corollary1_check,
    diagram_contains,
    eq5_defect,
    eq6_defect,
    evaluation_kernel,
    factor_through_standard,
    hook_dim,
    in_consequence_span,
    interleaved_alternating_sum,
    involutions,
    lemma1_decompose,
    lemma1_defect,
    lemma1_lhs,
    lemma2_coeffs,
    lemma2_coeffs_by_evaluation,
    minimal_diagrams,
    partitions,
    theorem1_check,
)

from oracles import rank_bareiss, solve_gauss_jordan


def count_syt_brute(lam):
    """Count standard Young tableaux by direct placement of 1..n.

    Independent of the hook length formula: cell by cell, entry k may go in
    any cell whose left and upper neighbours are already filled.
    """
    n = sum(lam)
    filled = [0] * len(lam)  # cells filled so far in each row

    def place(k):
        if k > n:
            return 1
        total = 0
        for i, row in enumerate(lam):
            j = filled[i]
            if j < row and (i == 0 or filled[i - 1] > j):
                filled[i] += 1
                total += place(k + 1)
                filled[i] -= 1
        return total

    return place(1)


partition_st = st.integers(1, 6).flatmap(
    lambda n: st.sampled_from(partitions(n))
)


class TestPartitions:
    def test_counts(self):
        assert [len(partitions(n)) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]

    def test_max_rows(self):
        assert partitions(4, max_rows=2) == [(4,), (3, 1), (2, 2)]

    def test_reverse_lex(self):
        p = partitions(5)
        assert p[0] == (5,) and p[-1] == (1, 1, 1, 1, 1)

    def test_conjugate(self):
        assert conjugate_partition((3, 1)) == (2, 1, 1)
        assert conjugate_partition(()) == ()

    @given(partition_st)
    def test_conjugate_involutive(self, lam):
        assert conjugate_partition(conjugate_partition(lam)) == lam


class TestHookDim:
    def test_known_values(self):
        assert hook_dim((2, 2)) == 2
        assert hook_dim((3, 1)) == 3
        assert hook_dim((2, 1)) == 2
        assert hook_dim((1, 1, 1)) == 1

    def test_against_tableau_enumeration(self):
        for n in range(1, 7):
            for lam in partitions(n):
                assert hook_dim(lam) == count_syt_brute(lam), lam

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            hook_dim((1, 2))


class TestInvolutions:
    def test_small(self):
        assert [involutions(n) for n in range(1, 6)] == [1, 2, 4, 10, 26]

    def test_matches_hook_sum(self):
        for n in range(1, 13):
            assert involutions(n) == sum(hook_dim(p) for p in partitions(n))
        assert involutions(12) == 140152

    def test_squares_sum_to_factorial(self):
        for n in range(1, 9):
            assert sum(hook_dim(p) ** 2 for p in partitions(n)) == math.factorial(n)


class TestDiagrams:
    def test_contains(self):
        assert diagram_contains((2, 1), (2, 2))
        assert not diagram_contains((3,), (2, 2))
        assert diagram_contains((2, 2), (2, 2))

    def test_minimal_examples(self):
        assert minimal_diagrams([(2, 1), (2, 2), (3, 1)]) == [(2, 1)]
        assert sorted(minimal_diagrams([(3,), (1, 1, 1)])) == [(1, 1, 1), (3,)]
        assert minimal_diagrams([]) == []

    @given(st.lists(partition_st, max_size=8))
    def test_minimal_is_dominating_antichain(self, pool):
        mins = minimal_diagrams(pool)
        # antichain
        for a, b in itertools.combinations(mins, 2):
            assert not diagram_contains(a, b) and not diagram_contains(b, a)
        # every input element contains some minimal element
        for p in set(map(tuple, pool)):
            assert any(diagram_contains(m, p) for m in mins)


class TestLemma2:
    def test_printed_values(self):
        co = lemma2_coeffs(2, 1)
        assert (co.alpha, co.beta) == (Fraction(-1, 2), Fraction(-1, 2))
        co = lemma2_coeffs(3, 1)
        assert (co.alpha, co.beta) == (Fraction(-2, 3), Fraction(1, 3))

    def test_symmetry_range(self):
        for n in range(2, 9):
            for k in range(1, n):
                co = lemma2_coeffs(n, k)  # raises ArithmeticError on violation
                assert isinstance(co, InsertionCoeffs)

    def test_against_evaluation(self):
        # recursion-free cross-check by solving the evaluation linear system
        for n in range(2, 5):
            for k in range(1, n):
                co = lemma2_coeffs(n, k)
                assert lemma2_coeffs_by_evaluation(n, k) == (co.alpha, co.beta)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            lemma2_coeffs(1, 1)
        with pytest.raises(ValueError):
            lemma2_coeffs(3, 3)

    def test_defects_are_identities(self):
        for n in range(2, 5):
            pair = CliffordPair.symbolic(n + 1)
            for k in range(1, n):
                assert is_weak_identity(eq5_defect(n, k), pair) is None
            for i in range(1, n + 1):
                assert is_weak_identity(eq6_defect(n, i), pair) is None

    def test_eq6_range_check(self):
        with pytest.raises(ValueError):
            eq6_defect(3, 4)


class TestLemma1:
    def test_lhs(self):
        assert lemma1_lhs(2) == NcPoly(
            {(1, 3, 4, 2): 1, (2, 3, 4, 1): -1}
        )

    def test_n2_term_for_term(self):
        # expected: ½(y1y2+y2y1)[x1,x2], -½ y2[x1,x2]y1, ½ y1[x1,x2]y2
        # with y1, y2 the generators 3, 4
        pairs = lemma1_decompose(2)
        as_terms = {
            (tuple(sorted(a.terms.items())), tuple(sorted(b.terms.items())))
            for a, b in pairs
        }
        h = Fraction(1, 2)
        e1 = (NcPoly({(3, 4): h, (4, 3): h}), NcPoly.one())
        e2 = (NcPoly({(4,): -h}), NcPoly.monomial((3,)))
        e3 = (NcPoly({(3,): h}), NcPoly.monomial((4,)))
        expect = {
            (tuple(sorted(a.terms.items())), tuple(sorted(b.terms.items())))
            for a, b in (e1, e2, e3)
        }
        assert as_terms == expect

    def test_left_factors_positive_degree(self):
        for n in range(2, 5):
            for a, _ in lemma1_decompose(n):
                assert all(len(w) > 0 for w in a.terms)

    def test_defect_is_identity(self):
        for n in (2, 3, 4):
            d = lemma1_defect(n)
            assert d.is_zero() or is_weak_identity(
                d, CliffordPair.symbolic(n + 2)
            ) is None

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            lemma1_decompose(1)


class TestSpans:
    def test_below_generator_degree(self):
        assert consequence_span_dim(2, [SQUARE_COMMUTATOR]).rank == 0

    def test_known_ranks(self):
        assert consequence_span_dim(3, [SQUARE_COMMUTATOR]).rank == 2
        assert consequence_span_dim(4, [SQUARE_COMMUTATOR]).rank == 14

    def test_rank_complements_involutions(self):
        for n in (3, 4, 5):
            rep = consequence_span_dim(n, [SQUARE_COMMUTATOR])
            assert rep.rank + involutions(n) == math.factorial(n)

    def test_in_span(self):
        ml = NcPoly(
            {(1, 3, 2): 1, (3, 1, 2): 1, (2, 1, 3): -1, (2, 3, 1): -1}
        )  # [x1x3+x3x1, x2], the linearized generator itself
        assert in_consequence_span(ml, 3, [SQUARE_COMMUTATOR])
        assert not in_consequence_span(standard_poly(3), 3, [SQUARE_COMMUTATOR])

    def test_zero_in_span(self):
        from weakid.freealg import jordan

        x1, x2, x3 = NcPoly.gen(1), NcPoly.gen(2), NcPoly.gen(3)
        cyc = (
            commutator(jordan(x1, x2), x3)
            + commutator(jordan(x2, x3), x1)
            + commutator(jordan(x3, x1), x2)
        )
        assert cyc.is_zero()  # the cyclic sum collapses in the free algebra
        assert in_consequence_span(cyc, 3, [SQUARE_COMMUTATOR])

    def test_not_multilinear_rejected(self):
        with pytest.raises(ValueError):
            in_consequence_span(NcPoly.gen(1) ** 3, 3, [SQUARE_COMMUTATOR])

    def test_coefficients_past_int64(self):
        # the span row is [1, 1]; coefficients in [2^63, 2^64) that would
        # round to the same float must stay exact
        x1, x2 = NcPoly.gen(1), NcPoly.gen(2)
        sym = x1 * x2 + x2 * x1
        assert not in_consequence_span((2**63 + 1) * (x1 * x2) + 2**63 * (x2 * x1), 2, [sym])
        assert in_consequence_span(2**63 * sym, 2, [sym])
        assert not in_consequence_span(-(2**64) * (x1 * x2) + 2**64 * (x2 * x1), 2, [sym])

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="above cap 7"):
            consequence_span_dim(8, [SQUARE_COMMUTATOR])


class TestOneDegreeCap:
    """multilinear_words is the one degree limit of every dense rank
    (consequence_span_dim: TestSpans.test_degree_cap)."""

    @pytest.mark.parametrize("call", [
        lambda: evaluation_kernel(8, CliffordPair.symbolic(2)),
        lambda: evaluation_kernel(8, MatrixPair()),
        lambda: in_consequence_span(NcPoly.monomial(tuple(range(1, 9))), 8, [SQUARE_COMMUTATOR]),
        lambda: theorem1_check(8),
        lambda: corollary1_check(8, 2),
    ], ids=["kernel-clifford", "kernel-m2", "in-span", "theorem1", "corollary1"])
    def test_degree_8_refused(self, call):
        with pytest.raises(ValueError, match="degree 8 above cap 7"):
            call()

    def test_degree_7_runs(self):
        assert evaluation_kernel(7, CliffordPair.symbolic(2)).quotient_dim == 35


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


class TestSpanMatrix:
    x1, x2, x3 = NcPoly.gen(1), NcPoly.gen(2), NcPoly.gen(3)
    GENERATORS = {
        "square commutator": [SQUARE_COMMUTATOR],
        "S_3": [standard_poly(3)],
        "S_4": [standard_poly(4)],
        "fractions": [Fraction(3, 4) * x1 * x2 * x3 - Fraction(5, 6) * x3 * x1 * x2],
        "cubic square": [commutator(x1 ** 3, x2) * Fraction(2, 3), SQUARE_COMMUTATOR],
    }

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_builder_matches_free_algebra_construction(self, name):
        gens = self.GENERATORS[name]
        for n in range(3, 6):
            oracle = oracle_span_vectors(n, gens)
            span = structure._span_matrix(n, gens)
            assert span.shape == (len(oracle), math.factorial(n))
            assert exact_rank(span.tolist()) == exact_rank(oracle)
            primitive = set()
            for vec in oracle:
                first = next(c for c in vec if c)
                scaled = [c / first for c in vec]
                den = math.lcm(*(c.denominator for c in scaled))
                primitive.add(tuple(int(c * den) for c in scaled))
            for row in span.tolist():
                assert math.gcd(*row) == 1
                assert next(c for c in row if c) > 0
                assert tuple(row) in primitive

    def test_below_generator_degree_is_empty(self):
        assert structure._span_matrix(2, [SQUARE_COMMUTATOR]).shape == (0, 2)

    def test_coefficients_beyond_int64_rejected(self):
        g = NcPoly({(1, 2): 2**64, (2, 1): 1})
        with pytest.raises(ValueError, match="int64"):
            consequence_span_dim(3, [g])


class TestSpanKernelCertificate:
    def test_unlucky_prime_falls_back_to_exact_rank(self, monkeypatch):
        # modulo 3 the span of [x1^2,x2] and S_3 at degree 4 has rank 14, not 18
        want = corollary1_check(4, 2)
        span = structure._span_matrix(4, [SQUARE_COMMUTATOR, standard_poly(3)])
        assert rank_mod_p(span, 3) < want.span.rank == exact_rank(span.tolist())
        exact_calls = []

        def counted_exact_rank(rows):
            exact_calls.append(len(rows))
            return exact_rank(rows)

        # the certificate modulo 3 fails as well, so the span rank is exact
        monkeypatch.setattr(structure, "rank_mod_p", lambda rows: rank_mod_p(rows, 3))
        monkeypatch.setattr(linalg, "PRIME", 3)
        monkeypatch.setattr(linalg, "exact_rank", counted_exact_rank)
        assert corollary1_check(4, 2) == want
        assert len(span) in exact_calls

    def test_word_size_prime_needs_no_exact_span_rank(self, monkeypatch):
        rank_calls = []

        def counted(rank):
            def wrapped(rows):
                rank_calls.append(len(rows))
                return rank(rows)
            return wrapped

        monkeypatch.setattr(linalg, "exact_rank", counted(exact_rank))
        monkeypatch.setattr(structure, "certified_rank", counted(linalg.certified_rank))
        rep = corollary1_check(4, 2)
        assert rep.ok and rep.span.rank == 18
        assert rep.span.rows not in rank_calls

    def test_failed_containment_is_reported(self):
        # S_3 is no identity of C_3: containment fails, the span is ranked exactly
        rep = structure.span_vs_kernel(4, 3, [standard_poly(3)], "S_3")
        assert not rep.containment_ok and not rep.ok
        assert rep.span.rank == consequence_span_dim(4, [standard_poly(3)]).rank


class TestEvaluationKernel:
    def test_quotients_match_involutions(self):
        for n in (2, 3, 4):
            rep = evaluation_kernel(n, CliffordPair.symbolic(n))
            assert rep.quotient_dim == involutions(n)
            assert rep.kernel_dim == math.factorial(n) - involutions(n)

    def test_small_k_quotients(self):
        rep = evaluation_kernel(4, CliffordPair.symbolic(2))
        assert rep.quotient_dim == 6  # 1 + 3 + 2
        rep = evaluation_kernel(3, CliffordPair.symbolic(2))
        assert rep.quotient_dim == 3

    def test_quotient_monotone_in_k_and_stabilizes(self):
        n = 4
        dims = [
            evaluation_kernel(n, CliffordPair.symbolic(k)).quotient_dim
            for k in range(1, 6)
        ]
        assert dims == sorted(dims)
        assert dims[-1] == dims[-2] == involutions(n)

    @pytest.mark.parametrize("n, rank", [(1, 1), (2, 2), (3, 4), (4, 9), (5, 21), (6, 51),
                                         (7, 127)])
    def test_matrix_pair_ranks(self, n, rank):
        rep = evaluation_kernel(n, MatrixPair())
        assert (rep.rank, rep.kernel_dim) == (rank, math.factorial(n) - rank)
        assert (rep.rows, rep.cols) == (math.factorial(n), 4 * 3**n)
        assert rep.rank == evaluation_kernel(n, CliffordPair.symbolic(3)).rank

    def test_matrix_pair(self):
        rep = evaluation_kernel(4, MatrixPair())
        assert rep.quotient_dim == 9
        assert rep.quotient_dim == sum(
            hook_dim(p) for p in partitions(4, max_rows=3)
        )

    def test_seed_specializations_agree(self):
        for n in (2, 3, 4, 5):
            for k in (2, n):
                rep = evaluation_kernel(
                    n, CliffordPair.symbolic(k), seeds=DEFAULT_SEEDS
                )
                assert rep.seeds == DEFAULT_SEEDS
        with pytest.raises(ValueError, match="at least 4 primes"):
            evaluation_kernel(3, CliffordPair.symbolic(4), seeds=((2, 3, 5),))

    def test_seeds_add_no_rank(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(np.shape(rows))
            return linalg.certified_rank(rows)

        monkeypatch.setattr(structure, "certified_rank", counted)
        rep = evaluation_kernel(6, CliffordPair.symbolic(3), seeds=DEFAULT_SEEDS)
        assert rep.rank == 51 and len(calls) == 1

    def test_seed_values_of_either_sign_and_past_2_32(self):
        # a negative form value with a positive largest q-monomial, and
        # q-monomials up to 1999^3 > 2^32: the scaled columns stay exact
        rep = evaluation_kernel(3, CliffordPair.symbolic(3), seeds=((-256, 3, 5),))
        assert rep.rank == 4
        rep = evaluation_kernel(
            6, CliffordPair.symbolic(3), seeds=((1999, 2003, 2011), (-2003, 1999, -7))
        )
        assert rep.rank == 51

    def test_seed_spot_check_catches_a_wrong_sign(self, monkeypatch):
        import numpy as np

        from weakid import structure

        real = structure.orbit_sign_matrix

        def one_sign_flipped(words, k):
            signs = real(words, k).copy()
            signs[-1, -1] *= -1
            return signs

        monkeypatch.setattr(structure, "orbit_sign_matrix", one_sign_flipped)
        evaluation_kernel(3, CliffordPair.symbolic(3))  # unseeded: nothing to compare
        with pytest.raises(ArithmeticError, match="orbit sign matrix predicts"):
            evaluation_kernel(3, CliffordPair.symbolic(3), seeds=DEFAULT_SEEDS[:1])

    @pytest.mark.parametrize("name, wrong", [
        ("tuple_q_exponents", lambda e: (e[0] + 1, *e[1:])),
        ("tuple_blade", lambda blade: blade ^ 1),
    ], ids=["q_exponent", "blade"])
    def test_seed_spot_check_catches_a_wrong_prediction(self, monkeypatch, name, wrong):
        # a prediction with one q-exponent too many, or the wrong blade
        real = getattr(structure, name)
        monkeypatch.setattr(structure, name, lambda *args: wrong(real(*args)))
        evaluation_kernel(3, CliffordPair.symbolic(3))
        with pytest.raises(ArithmeticError, match="orbit sign matrix predicts"):
            evaluation_kernel(3, CliffordPair.symbolic(3), seeds=DEFAULT_SEEDS[:1])

    def test_seed_values_that_are_fractions(self):
        # a contraction of e1 at q1 = 3/2 is 3/2, not int(3/2) = 1
        rep = evaluation_kernel(3, CliffordPair.symbolic(3), seeds=((Fraction(3, 2), 3, 5),))
        assert rep.rank == 4
        seeds = ((Fraction(-7, 3), Fraction(1, 2), 5), (Fraction(5, 4), -3, Fraction(2, 9)))
        assert evaluation_kernel(5, CliffordPair.symbolic(3), seeds=seeds).rank == 21

    @given(st.data())
    def test_basis_product_equals_symbolic_evaluation(self, data):
        # the spot check's fold against the CliffordElt algebra, at a random
        # word, basis tuple and form values
        k, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 7))
        word = data.draw(st.permutations(range(1, n + 1)))
        t = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        value = st.fractions(-5, 5, max_denominator=7).filter(bool)
        form = FormParams(k, tuple(data.draw(st.lists(value, min_size=k, max_size=k))))
        coeff, blade = structure._basis_product([t[g - 1] for g in word], form.values)
        assign = {g: CliffordElt.basis_vector(t[g - 1], form) for g in range(1, n + 1)}
        got = evaluate(NcPoly.monomial(tuple(word)), assign, form)
        assert got == CliffordElt(form, {blade: coeff})

    def test_gram_rank_equals_the_sign_matrix_rank(self):
        for n in range(1, 7):
            for k in range(1, 7):
                signs = orbit_sign_matrix(multilinear_words(n), k)
                assert evaluation_kernel(n, CliffordPair.symbolic(k)).rank == \
                    linalg.certified_rank(signs)
        assert evaluation_kernel(7, CliffordPair.symbolic(3)).rank == 127
        assert evaluation_kernel(7, CliffordPair.symbolic(7)).rank == 232

    def test_bareiss_cross_check(self):
        # same ranks from the dense fraction-free path on the full k^n table
        import numpy as np

        from weakid.clifford import word_sign_vector
        from weakid.freealg import multilinear_words

        for n in (2, 3, 4):
            k = n
            full = np.stack([word_sign_vector(w, k) for w in multilinear_words(n)])
            cols = full.T.tolist()
            rank = evaluation_kernel(n, CliffordPair.symbolic(k)).rank
            assert rank_bareiss(cols) == rank
            assert exact_rank(cols) == rank


class TestTheorem1AndCorollary1:
    def test_theorem1_small(self):
        for n, span in [(3, 2), (4, 14)]:
            rep = theorem1_check(n, seeds=DEFAULT_SEEDS)
            assert rep.ok and rep.containment_ok
            assert rep.span.rank == span
            assert rep.kernel.quotient_dim == rep.predicted_quotient

    def test_corollary1_small(self):
        rep = corollary1_check(3, 2, seeds=DEFAULT_SEEDS)
        assert rep.ok
        assert rep.kernel.kernel_dim == 3
        assert rep.kernel.quotient_dim == rep.predicted_quotient == 3

    def test_n_below_generator(self):
        with pytest.raises(ValueError):
            theorem1_check(2)


class TestFactorThroughStandard:
    def test_empty_interleaving(self):
        fac = factor_through_standard(2, [()])
        assert fac.variant == "right"
        assert fac.right_factor == NcPoly.one()
        assert fac.verified

    def test_single_y(self):
        # x1 y x2 - x2 y x1 = -1/2 (S_2 y + y S_2) modulo identities
        fac = factor_through_standard(2, [(3,)])
        assert fac.variant == "two-sided"
        got = {
            (tuple(sorted(d.terms.items())), tuple(sorted(e.terms.items())))
            for d, e in fac.pairs
        }
        h = Fraction(-1, 2)
        e1 = (NcPoly({(): h}), NcPoly.monomial((3,)))
        e2 = (NcPoly({(3,): h}), NcPoly.one())
        want = {
            (tuple(sorted(d.terms.items())), tuple(sorted(e.terms.items())))
            for d, e in (e1, e2)
        }
        assert got == want

    def test_x_variant_zero(self):
        # x1^2 x2 - x2 x1^2 is itself a weak identity, so D = 0
        fac = factor_through_standard(2, [(1,)])
        assert fac.variant == "right"
        assert fac.right_factor.is_zero()
        assert fac.verified

    def test_mixed_letters_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            factor_through_standard(2, [(1, 3)])

    def test_verified_n3(self):
        fac = factor_through_standard(3, [(4,), ()])
        assert fac.verified
        fac = factor_through_standard(3, [(1,), ()])
        assert fac.variant == "right" and fac.verified

    def test_same_answers_with_the_gauss_jordan_oracle(self, monkeypatch):
        # every interleaving of total degree <= 3 at n = 2, 3: x letters for
        # the right variant, three y letters for the two-sided one
        cases = []
        for n in (2, 3):
            for total in range(4):
                for split in itertools.product(range(total + 1), repeat=n - 1):
                    if sum(split) != total:
                        continue
                    for alphabet in (range(1, n + 1), range(n + 1, n + 4))[: 2 if total else 1]:
                        words = (itertools.product(alphabet, repeat=m) for m in split)
                        cases += [(n, ys) for ys in itertools.product(*words)]
        assert len(cases) == 337
        got = [factor_through_standard(n, ys) for n, ys in cases]
        monkeypatch.setattr(structure, "solve_exact", solve_gauss_jordan)
        for (n, ys), fac in zip(cases, got):
            want = factor_through_standard(n, ys)
            assert (fac.variant, fac.right_factor, fac.pairs) == (
                want.variant, want.right_factor, want.pairs), (n, ys)

    def test_interleaved_sum_shape(self):
        f = interleaved_alternating_sum(2, [(3,)])
        assert f == NcPoly({(1, 3, 2): 1, (2, 3, 1): -1})
        with pytest.raises(ValueError):
            interleaved_alternating_sum(3, [(4,)])


@st.composite
def rational_systems(draw):
    """(rows, rhs, consistent) for an m x c rational system of a drawn rank r
    (an m x r times an r x c factor): empty, under- and over-determined,
    with integer and Fraction entries past int64.  A consistent rhs is
    rows @ x for a drawn x; the other rhs is drawn freely, and is
    inconsistent for most rank-deficient rows."""
    m, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    r = draw(st.integers(0, min(m, c)))
    top = draw(st.sampled_from([2, 50, 2**70]))
    entry = st.one_of(st.integers(-top, top),
                      st.builds(Fraction, st.integers(-top, top), st.integers(1, 7)))

    def matrix(nrows, ncols):
        return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))

    left, right = matrix(m, r), matrix(r, c)
    rows = [[sum((left[i][t] * right[t][j] for t in range(r)), 0) for j in range(c)]
            for i in range(m)]
    consistent = draw(st.booleans())
    if consistent:
        x = draw(st.lists(entry, min_size=c, max_size=c))
        rhs = [sum((a * b for a, b in zip(row, x)), 0) for row in rows]
    else:
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return rows, rhs, consistent


class TestLinalg:
    def test_exact_rank_simple(self):
        assert exact_rank([[1, 2], [2, 4]]) == 1
        assert exact_rank([[1, 0], [0, 1], [1, 1]]) == 2
        assert exact_rank([]) == 0
        assert exact_rank([[0, 0]]) == 0

    def test_exact_rank_fractions(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
        assert exact_rank(rows) == rank_bareiss(rows) == 1

    def test_rank_agreement_random(self):
        import random

        rng = random.Random(9)
        for _ in range(40):
            rows = [
                [rng.randint(-3, 3) for _ in range(5)]
                for _ in range(rng.randint(1, 6))
            ]
            assert exact_rank(rows) == rank_bareiss(rows)

    def test_rank_mod_p_matches_bareiss(self):
        import random

        rng = random.Random(11)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
            if rng.random() < 0.5:  # force dependent rows
                rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])
            assert rank_mod_p(rows) == rank_bareiss(rows)
        assert rank_mod_p([[2**70, 1], [1, 0]]) == 2
        assert rank_mod_p([[0, 0]]) == rank_mod_p([]) == 0

    def test_rank_mod_p_widens_narrow_integers(self):
        # int8 input used to raise OverflowError: p does not fit in int8
        signs = orbit_sign_matrix(multilinear_words(4), 4)
        assert signs.dtype == np.int8
        assert rank_mod_p(signs) == exact_rank(signs.tolist()) == 10
        assert rank_mod_p(signs.T.astype(np.int16)) == 10
        assert rank_mod_p(np.array([[2**70, 1], [1, 0]], dtype=object)) == 2

    def test_rank_mod_p_drops_when_p_divides_the_minors(self):
        rows = [[1, 1, 0], [1, 1 + PRIME, 0]]  # its only nonzero 2x2 minor is p
        assert rank_bareiss(rows) == 2
        assert rank_mod_p(rows) == 1
        assert rank_mod_p(rows, 3) == 2

    def test_solve_exact(self):
        sol = solve_exact([[1, 1], [1, -1]], [3, 1])
        assert sol == [Fraction(2), Fraction(1)]
        assert solve_exact([[1, 1], [2, 2]], [1, 3]) is None
        # underdetermined: free variable pinned to zero
        sol = solve_exact([[1, 1]], [5])
        assert sol == [Fraction(5), Fraction(0)]
        assert solve_exact([], []) == solve_exact([[]], [0]) == []
        assert solve_exact([[]], [1]) is None

    @given(rational_systems())
    def test_solve_exact_equals_gauss_jordan(self, system):
        rows, rhs, consistent = system
        sol = solve_exact(rows, rhs)
        assert sol == solve_gauss_jordan(rows, rhs)
        if consistent:
            assert sol is not None
        if sol is not None:
            assert all(sum(a * x for a, x in zip(row, sol)) == b for row, b in zip(rows, rhs))


@st.composite
def integer_matrices(draw):
    """m x c integer matrices of a drawn rank r, as products of an m x r and
    an r x c factor: zero (r = 0), deficient and full-rank ones, both
    orientations, entries up to a drawn magnitude."""
    m, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    r = draw(st.integers(0, min(m, c)))
    top = draw(st.sampled_from([2, 50, 2**20]))
    entry = st.integers(-top, top)
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    return [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(c)]
            for i in range(m)]


def in_kernel_case(m: int, off: int = 0):
    """Arguments of linalg._in_kernel for a = [[1, m, -m], [2, 2m, -2m]]
    and the kernel vector (m + off, m - 1, m): off = 1 leaves a residual of
    1 beside partial sums near m^2.  Its bound max|a| * column sum of |X|
    is 2m(3m - 1 + off)."""
    a = np.array([[1, m, -m], [2, 2 * m, -2 * m]], dtype=np.int64)
    x = np.array([[m + off], [m - 1]], dtype=np.int64)
    return a, [0, 1], np.array([False, False, True]), x, np.array([m], dtype=np.int64)


class TestInKernelTiers:
    # the largest m whose bound with off = 1, 6m^2, is below 2^53
    M53 = math.isqrt((2**53 - 1) // 6)

    @pytest.mark.parametrize("m, tier", [
        (M53, np.float64),
        (M53 + 1, np.int64),
        (2**28, np.int64),  # m^2 + 1 is not a float64
        (2**29 + 2**28, object),  # 2m(3m - 1) is above 2^61
        (2**40, object),  # m^2 overflows int64
    ])
    def test_true_kernel_holds_and_off_by_one_fails(self, m, tier):
        a, pivots, free, x, scales = in_kernel_case(m)
        assert linalg._product_dtype(a, np.vstack([x, scales])) == tier
        assert linalg._in_kernel(a, pivots, free, x, scales)
        a, pivots, free, x, scales = in_kernel_case(m, off=1)
        assert linalg._product_dtype(a, np.vstack([x, scales])) == tier
        assert not linalg._in_kernel(a, pivots, free, x, scales)
        a, pivots, free, x, scales = in_kernel_case(m)
        scales += 1
        assert not linalg._in_kernel(a, pivots, free, x, scales)

    def test_residual_hidden_by_int64_wraparound(self):
        # a @ X = 2^32 (2^32 + 1) - 2^32 = 2^64, which is 0 modulo 2^64
        a = np.array([[2**32, -(2**32)]], dtype=np.int64)
        x, scales = np.array([[2**32 + 1]], dtype=np.int64), np.array([1], dtype=np.int64)
        assert linalg._product_dtype(a, np.vstack([x, scales])) == object
        assert not linalg._in_kernel(a, [0], np.array([False, True]), x, scales)

    def test_object_matrix_takes_python_ints(self):
        a, pivots, free, x, scales = in_kernel_case(2**40)
        a = a.astype(object) * 2**30
        assert linalg._in_kernel(a, pivots, free, x, scales)
        assert not linalg._in_kernel(a, *in_kernel_case(2**40, off=1)[1:])


#: Entries at the edges of the product tiers: the int8 minimum, +-2^31, and
#: entries whose sums land just under and over 2^53, 2^61 and 2^63.
PRODUCT_EDGES = [0, 1, -1, -128, 127, 2**31, -(2**31), 2**52 - 1, 2**52, 2**52 + 1,
                 -(2**53) + 1, 2**53 + 1, 2**60 - 1, 2**60 + 1, -(2**61) + 1, 2**61 + 1,
                 2**63 - 1, -(2**63)]


@st.composite
def product_operands(draw):
    """Integer matrices a (m x k) and b (k x c), m from 0, each of a drawn
    dtype (int8 to int64, uint64 or Python ints) with entries at the
    PRODUCT_EDGES or anywhere in its range."""
    m, k, c = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(1, 4))

    def operand(rows, cols):
        dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint64, object]))
        lo, hi = (-(2**70), 2**70) if dtype is object else (np.iinfo(dtype).min, np.iinfo(dtype).max)
        edges = [e for e in PRODUCT_EDGES if lo <= e <= hi]
        entry = st.sampled_from(edges) | st.integers(int(lo), int(hi))
        cells = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return np.array(cells, dtype=dtype).reshape(rows, cols)

    return operand(m, k), operand(k, c)


def python_product(a, b, ncols: int) -> list[list[int]]:
    """a @ b in Python ints, for nested lists a and b (b has ncols columns)."""
    return [[sum(int(x) * int(row[j]) for x, row in zip(r, b)) for j in range(ncols)] for r in a]


class TestExactProduct:
    @given(product_operands())
    def test_equals_python_ints(self, ab):
        a, b = ab
        got = linalg.exact_product(a, b)
        assert got.dtype in (np.int64, object) and got.shape == (len(a), b.shape[1])
        assert got.tolist() == python_product(a.tolist(), b.tolist(), b.shape[1])

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_any_row_block_size(self, monkeypatch, block_rows):
        monkeypatch.setattr(linalg, "BLOCK_ROWS", block_rows)
        rng = random.Random(block_rows)
        # one float64, one int64 and two Python-int products
        for top in (1, 2**26, 2**31, 2**70):
            a = [[rng.randint(-top, top) for _ in range(6)] for _ in range(7)]
            b = [[rng.randint(-top, top) for _ in range(4)] for _ in range(6)]
            assert linalg.exact_product(a, b).tolist() == python_product(a, b, 4)
            assert linalg.gram(a).tolist() == python_product([*zip(*a)], a, 6)
        signs = orbit_sign_matrix(multilinear_words(4), 4)
        assert linalg.certified_rank(signs) == rank_mod_p(signs) == 10
        assert linalg.certified_rank(linalg.gram(signs)) == 10
        assert linalg.certified_rank([[2**70, 1], [2**71, 2], [0, 0]]) == 1
        assert theorem1_check(4).ok

    def test_product_dtype_takes_no_copy_of_a_narrow_operand(self):
        signs = orbit_sign_matrix(multilinear_words(6), 4)  # 720 x 187 int8
        span = np.ones((1000, 720), dtype=np.int64)
        for a, b in ((span, signs), (signs.T, span.T)):
            tracemalloc.start()
            try:
                assert linalg._product_dtype(a, b) is np.float64
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < signs.nbytes

    def test_theorem1_peak_memory(self):
        # the span is converted one row block at a time, never whole
        tracemalloc.start()
        try:
            assert theorem1_check(6).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


@st.composite
def gram_operands(draw):
    """Integer matrices with 0 to 9 rows and 1 to 6 columns (tall and wide),
    int8, int64 with entries up to 2^26 or 2^31, or Python ints up to 2^70;
    some with a repeated column, so not of full column rank."""
    m, c = draw(st.integers(0, 9)), draw(st.integers(1, 6))
    dtype, lo, hi = draw(st.sampled_from([
        (np.int8, -128, 127), (np.int64, -(2**26), 2**26), (np.int64, -(2**31), 2**31),
        (object, -(2**70), 2**70)]))
    entry = st.sampled_from([lo, -1, 0, 1, hi]) | st.integers(lo, hi)
    a = np.array(draw(st.lists(entry, min_size=m * c, max_size=m * c)), dtype=dtype)
    a = a.reshape(m, c)
    if c > 1 and draw(st.booleans()):
        a[:, -1] = a[:, 0]
    return a


class TestGram:
    @given(gram_operands())
    def test_equals_python_ints_and_keeps_the_rank(self, a):
        got = linalg.gram(a)
        assert got.dtype in (np.int64, object) and got.shape == (a.shape[1], a.shape[1])
        assert got.tolist() == python_product(a.T.tolist(), a.tolist(), a.shape[1])
        assert linalg.certified_rank(got) == rank_bareiss(a.tolist())

    def test_tier_edges(self):
        assert linalg._exact_dtype(2**53 - 1) is np.float64
        assert linalg._exact_dtype(2**53) is linalg._exact_dtype(2**61 - 1) is np.int64
        assert linalg._exact_dtype(2**61) is object
        # the entry (top + 1)^2 + top^2 is 2^53 + 2^27 + 1 (int64 tier), which
        # float64 would round, and 2^63 + 2^32 + 1 (Python ints), which int64
        # would wrap
        for top in (2**26, 2**31):
            a = np.array([[top + 1], [top]], dtype=np.int64)
            assert linalg.gram(a).tolist() == [[(top + 1) ** 2 + top**2]]

    def test_no_whole_matrix_copy(self):
        signs = orbit_sign_matrix(multilinear_words(7), 3)  # 5040 x 365 int8
        tracemalloc.start()
        try:
            assert linalg.gram(signs)[0, 0] == 5040
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 copy of the whole matrix alone would take 14.7 MB
        assert peak < signs.size * 8 // 2


class TestCertifiedRank:
    @given(integer_matrices())
    def test_equals_bareiss(self, rows):
        want = rank_bareiss(rows)
        assert linalg.certified_rank(rows) == want
        assert linalg.certified_rank(np.array(rows, dtype=object).T) == want

    def test_edge_shapes(self, monkeypatch):
        # the kernel vector (1, -2^70) is past both lifts: exact_rank decides
        assert linalg.certified_rank([[2**70, 1], [2**71, 2], [0, 0]]) == 1

        def forbidden(rows):
            raise AssertionError("exact_rank called")

        monkeypatch.setattr(linalg, "exact_rank", forbidden)
        assert linalg.certified_rank([]) == 0
        assert linalg.certified_rank(np.zeros((0, 5), dtype=np.int64)) == 0
        assert linalg.certified_rank([[0, 0, 0]]) == 0
        # uint64 entries are taken as Python ints: as int64 they would wrap
        # to [[-1, 1], [1, -1]], of rank 1
        wide = np.array([[2**64 - 1, 1], [1, 2**64 - 1]], dtype=np.uint64)
        assert linalg.certified_rank(wide) == rank_bareiss(wide.tolist()) == 2
        assert linalg.certified_rank(orbit_sign_matrix(multilinear_words(4), 4)) == 10

    def test_python_ints_beyond_int64(self):
        # numpy infers float64 for these nested lists
        assert linalg.certified_rank([[2**63, -(2**63)], [1, 2]]) == 2
        assert rank_mod_p([[2**63, 1], [1, 2]]) == 2
        assert linalg.exact_product([[2**63, -(2**63)]], [[1], [1]]).tolist() == [[0]]

    def test_fraction_entries_are_refused(self):
        # [[1/2, 1], [1, 2]] has rank 1; read as integers it had rank 2
        for rows in ([[Fraction(1, 2), 1], [1, 2]], np.array([[Fraction(1, 2), 1], [1, 2]])):
            for f in (linalg.certified_rank, rank_mod_p, lambda r: linalg.exact_product(r, r)):
                with pytest.raises(TypeError, match="integer matrix"):
                    f(rows)

    def test_float_matrix_is_refused(self):
        for rows in ([[1.0, 2.0]], np.array([[2**63, 1]], dtype=np.float64)):
            with pytest.raises(TypeError, match="integer matrix"):
                linalg.certified_rank(rows)
            with pytest.raises(TypeError, match="integer matrix"):
                rank_mod_p(rows)

    def test_kernel_beyond_one_prime_takes_the_second(self, monkeypatch):
        # the kernel vectors (-1/40000, 1, 0) and (-7/40000, 0, 1) have a
        # denominator above sqrt(PRIME / 2) = 32767
        primes = []
        echelon = linalg._echelon

        def recorded(a, p, reduced):
            primes.append(p)
            return echelon(a, p, reduced)

        def forbidden(rows):
            raise AssertionError("exact_rank called")

        monkeypatch.setattr(linalg, "_echelon", recorded)
        monkeypatch.setattr(linalg, "exact_rank", forbidden)
        rows = [[40000, 1, 7], [80000, 2, 14], [-40000, -1, -7]]
        assert linalg.certified_rank(rows) == 1
        assert primes == [PRIME, linalg.PRIME2]
        assert linalg._lift(np.array([[PRIME - pow(40000, -1, PRIME)]]), PRIME) is None

    def test_unlucky_prime_falls_back_to_exact_rank(self, monkeypatch):
        rows = [[1, 1], [1, 4], [0, 0]]  # its 2x2 minors are 0 and 3
        assert rank_mod_p(rows, 3) == 1 < rank_bareiss(rows) == 2
        exact_calls = []

        def counted_exact_rank(rows):
            exact_calls.append(rows)
            return exact_rank(rows)

        monkeypatch.setattr(linalg, "PRIME", 3)
        monkeypatch.setattr(linalg, "exact_rank", counted_exact_rank)
        assert linalg.certified_rank(rows) == 2
        assert exact_calls == [rows]

    def test_kernel_cells_and_spans_need_no_exact_rank(self, monkeypatch):
        def forbidden(rows):
            raise AssertionError("exact_rank called")

        monkeypatch.setattr(linalg, "exact_rank", forbidden)
        involutions_ = [1, 2, 4, 10, 26, 76]
        for n in range(1, 7):
            for k in range(1, 7):
                rank = evaluation_kernel(n, CliffordPair.symbolic(k)).rank
                if k >= n:
                    assert rank == involutions_[n - 1]
            evaluation_kernel(n, MatrixPair())
        # every Clifford cell of the benchmark's kernel table, seeded
        for n in (5, 6):
            for k in range(2, 6):
                seeded = evaluation_kernel(n, CliffordPair.symbolic(k), seeds=DEFAULT_SEEDS)
                assert seeded.rank == evaluation_kernel(n, CliffordPair.symbolic(k)).rank
        assert seeded.rank == sum(hook_dim(p) for p in partitions(6, max_rows=5))
        assert consequence_span_dim(6, [SQUARE_COMMUTATOR]).rank == 720 - 76
