import dataclasses
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
from weakid.clifford import (
    CliffordElt,
    FormParams,
    basis_product,
    evaluate,
    orbit_representatives,
    orbit_sign_matrix,
    reversal_odd,
)
from weakid.freealg import (
    SQUARE_COMMUTATOR,
    NcPoly,
    commutator,
    multilinear_words,
    standard_poly,
)
from weakid.linalg import PRIME, exact_rank, solve_exact
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

from oracles import (
    component_loop_witness,
    dense_span_vs_kernel,
    echelon_mod_p,
    factor_splits,
    factorization_defect,
    oracle_span_vectors,
    rank_bareiss,
    rank_mod_p,
    solve_gauss_jordan,
    span_matrix,
)


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
        # alpha(n,k) = beta(n,n-k): lemma2_coeffs runs the recursion only once
        for n in range(2, 13):
            for k in range(1, n):
                co, mirror = lemma2_coeffs(n, k), lemma2_coeffs(n, n - k)
                assert isinstance(co, InsertionCoeffs)
                assert (co.alpha, co.beta) == (mirror.beta, mirror.alpha)

    def test_against_evaluation(self):
        # recursion-free cross-check by solving the evaluation linear system
        for n in range(2, 7):
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
        with pytest.raises(ValueError, match="degree 11 above cap 10"):
            consequence_span_dim(11, [SQUARE_COMMUTATOR])


class TestOneDegreeCap:
    """multilinear_words is the one degree limit of the dense evaluation
    kernel; every per-partition rank stops at ISOTYPIC_DEGREE_CAP instead
    (consequence_span_dim: TestSpans.test_degree_cap)."""

    @pytest.mark.parametrize("call", [
        lambda: evaluation_kernel(8, CliffordPair.symbolic(2)),
        lambda: evaluation_kernel(8, MatrixPair()),
    ], ids=["kernel-clifford", "kernel-m2"])
    def test_degree_8_refused(self, call):
        with pytest.raises(ValueError, match="degree 8 above cap 7"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: theorem1_check(11),
        lambda: corollary1_check(11, 2),
        lambda: in_consequence_span(NcPoly.monomial(tuple(range(1, 12))), 11,
                                    [SQUARE_COMMUTATOR]),
    ], ids=["theorem1", "corollary1", "in-span"])
    def test_degree_11_refused(self, call):
        with pytest.raises(ValueError, match="degree 11 above cap 10"):
            call()

    def test_degree_7_runs(self):
        assert evaluation_kernel(7, CliffordPair.symbolic(2)).quotient_dim == 35


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
        """The dense oracle builder against the term-by-term one, and the
        per-partition rank against both."""
        gens = self.GENERATORS[name]
        for n in range(3, 6):
            oracle = oracle_span_vectors(n, gens)
            span = span_matrix(n, gens)
            assert span.shape == (len(oracle), math.factorial(n))
            assert exact_rank(span.tolist()) == exact_rank(oracle) == (
                consequence_span_dim(n, gens).rank)
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
        assert span_matrix(2, [SQUARE_COMMUTATOR]).shape == (0, 2)

    def test_coefficients_beyond_int64(self):
        # the dense builder refuses them; the per-partition ranks are exact
        g = NcPoly({(1, 2): 2**64, (2, 1): 1})
        with pytest.raises(ValueError, match="int64"):
            span_matrix(3, [g])
        assert consequence_span_dim(3, [g]).rank == exact_rank(oracle_span_vectors(3, [g])) == 6


def record_block_ranks(monkeypatch) -> list:
    """Record each per-partition rank of structure as (partition, prime)."""
    calls = []
    block_rank = structure._block_rank

    def recorded(lam, gens, p):
        calls.append((lam, p))
        return block_rank(lam, gens, p)

    monkeypatch.setattr(structure, "_block_rank", recorded)
    return calls


class TestSpanKernelCertificate:
    def test_unlucky_prime_falls_back_to_exact_rank(self, monkeypatch):
        # modulo 5 the (2,1,1,1)-block of [x1^2,x2] at degree 5 has rank 2,
        # not 3, and S_5 = 5! e_{1..5} on the one-column shape vanishes
        want = {call: call() for call in (lambda: theorem1_check(5),
                                           lambda: corollary1_check(5, 4))}
        calls = record_block_ranks(monkeypatch)
        monkeypatch.setattr(structure, "PRIME", 5)
        exact = []
        for call, report in want.items():
            calls.clear()
            assert call() == report
            exact.append([lam for lam, p in calls if p is None])
            assert all((lam, 5) in calls for lam in exact[-1])
        assert exact == [[(2, 1, 1, 1)], [(2, 1, 1, 1), (1, 1, 1, 1, 1)]]

    def test_word_size_prime_needs_no_exact_span_rank(self, monkeypatch):
        calls = record_block_ranks(monkeypatch)
        for n in range(3, 8):
            assert theorem1_check(n).ok
            for k in range(1, n):
                assert corollary1_check(n, k).ok
        assert calls and {p for _, p in calls} == {PRIME}

    def test_failed_containment_is_reported(self):
        # S_3 is no identity of C_3: containment fails, the span is ranked exactly
        rep = structure.span_vs_kernel(4, 3, [standard_poly(3)], "S_3")
        assert not rep.containment_ok and not rep.ok
        assert rep.span.rank == consequence_span_dim(4, [standard_poly(3)]).rank

    @pytest.mark.parametrize("n, k, gens", [
        (4, 3, [standard_poly(3)]),  # no identity of C_3
        (4, 3, [SQUARE_COMMUTATOR]),  # contained, but S_4 is missing
        (5, 2, [SQUARE_COMMUTATOR, standard_poly(4)]),  # S_4 in place of S_3
        (6, 3, [SQUARE_COMMUTATOR]),
    ], ids=["S3-on-C3", "no-S4", "S4-on-C2", "degree-6-no-S4"])
    def test_weakened_generators(self, n, k, gens):
        """The rows where the bounds miss are reported, and the verdict,
        ranks and kernel are those of the dense oracle."""
        rep = structure.span_vs_kernel(n, k, gens, "weakened")
        want = dense_span_vs_kernel(n, k, gens)
        assert not rep.ok and not want["ok"]
        assert (rep.containment_ok, rep.span.rank, rep.kernel.kernel_dim) == (
            want["containment_ok"], want["span_rank"], want["kernel_dim"])
        missed = [row.partition for row in rep.isotypic if row.multiplicity != row.witnessed]
        assert missed
        if rep.containment_ok:
            # the lower bound is exact; what the span misses has more than k rows
            assert all(len(lam) > k for lam in missed)
        if gens == [SQUARE_COMMUTATOR]:
            assert missed == [lam for lam in partitions(n) if len(lam) > k]

    def test_missed_bounds_above_the_dense_cap_are_reported(self):
        # K comes from the Corollary 1 generators' bounds at any degree
        rep = structure.span_vs_kernel(8, 7, [SQUARE_COMMUTATOR], "no S_8")
        assert not rep.ok and rep.containment_ok
        missed = [row.partition for row in rep.isotypic if row.multiplicity != row.witnessed]
        assert missed == [(1,) * 8]
        assert (rep.span.rank, rep.kernel.kernel_dim) == (39556, 39557)

    def test_failed_containment_above_the_dense_cap_is_reported(self):
        rep = structure.span_vs_kernel(8, 3, [standard_poly(3)], "S_3")
        assert not rep.ok and not rep.containment_ok
        assert rep.span.rank == consequence_span_dim(8, [standard_poly(3)]).rank == 26962
        assert rep.kernel.kernel_dim == 39997
        assert rep.kernel.quotient_dim == sum(hook_dim(lam) for lam in partitions(8, max_rows=3))

    def test_missed_kernel_bounds_name_the_partition(self, monkeypatch):
        # without S_{k+1} the kernel's bounds miss: the theorem's premise is gone
        monkeypatch.setattr(structure, "_corollary1_generators",
                            lambda k: [structure._poly_generator(SQUARE_COMMUTATOR)])
        with pytest.raises(ValueError, match=r"partition \(2, 1, 1\) has multiplicity 1"):
            structure.span_vs_kernel(4, 2, [SQUARE_COMMUTATOR], "no S_3")
        assert structure.span_vs_kernel(4, 4, [SQUARE_COMMUTATOR], "k = n").ok

    def test_kernel_generators_outside_k_are_refused(self, monkeypatch):
        monkeypatch.setattr(structure, "_corollary1_generators",
                            lambda k: [structure._poly_generator(standard_poly(3))])
        with pytest.raises(ValueError, match=r"partition \(4,\) .* span in K: False"):
            structure.span_vs_kernel(4, 3, [SQUARE_COMMUTATOR], "no S_4")


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
        # a degree-3 tuple holds at most 3 labels, so clifford:4 needs 3 primes
        assert evaluation_kernel(3, CliffordPair.symbolic(4), seeds=((2, 3, 5),)).rank == 4
        with pytest.raises(ValueError, match="at least 3 primes"):
            evaluation_kernel(3, CliffordPair.symbolic(4), seeds=((2, 3),))

    def test_seeds_add_no_rank(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(np.shape(rows))
            return linalg.certified_rank(rows)

        monkeypatch.setattr(structure, "certified_rank", counted)
        unseeded = evaluation_kernel(6, CliffordPair.symbolic(3))
        shapes = calls[:]
        calls.clear()
        rep = evaluation_kernel(6, CliffordPair.symbolic(3), seeds=DEFAULT_SEEDS)
        # one rank per reversal-parity class of representatives
        assert rep.rank == unseeded.rank == 51 and calls == shapes and len(calls) == 2

    def test_seed_values_of_either_sign_and_past_2_32(self):
        # a negative form value with a positive largest q-monomial, and
        # q-monomials up to 1999^3 > 2^32: the scaled columns stay exact
        rep = evaluation_kernel(3, CliffordPair.symbolic(3), seeds=((-256, 3, 5),))
        assert rep.rank == 4
        rep = evaluation_kernel(
            6, CliffordPair.symbolic(3), seeds=((1999, 2003, 2011), (-2003, 1999, -7))
        )
        assert rep.rank == 51

    def test_seed_values_cancel(self):
        # two different seed lists, and none: the same report but the echo
        unseeded = evaluation_kernel(5, CliffordPair.symbolic(4))
        for seeds in (DEFAULT_SEEDS, ((1999, -7, Fraction(2, 9), 5),)):
            rep = evaluation_kernel(5, CliffordPair.symbolic(4), seeds=seeds)
            assert rep.seeds == seeds
            assert dataclasses.replace(rep, seeds=()) == unseeded
        assert unseeded.rank == sum(hook_dim(p) for p in partitions(5, max_rows=4))

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

    @pytest.mark.parametrize("wrong", [
        lambda sign, exps, blade: (sign, (exps[0] + 1, *exps[1:]), blade),
        lambda sign, exps, blade: (sign, exps, blade ^ 1),
    ], ids=["q_exponent", "blade"])
    def test_seed_spot_check_catches_a_wrong_prediction(self, monkeypatch, wrong):
        # a prediction with one q-exponent too many, or the wrong blade; the
        # evaluated side, basis_product of the word's image, is left alone
        real = structure._relabelled_prediction
        monkeypatch.setattr(structure, "_relabelled_prediction",
                            lambda *args: wrong(*real(*args)))
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
        # basis_product against the CliffordElt algebra, at a random starting
        # blade, word, basis tuple and form (symbolic or explicit values)
        k, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 7))
        start = data.draw(st.integers(0, (1 << k) - 1))
        word = data.draw(st.permutations(range(1, n + 1)))
        t = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        value = st.fractions(-5, 5, max_denominator=7).filter(bool)
        values = data.draw(st.none() | st.lists(value, min_size=k, max_size=k).map(tuple))
        form = FormParams(k, values)
        sign, exps, blade = basis_product([t[g - 1] for g in word], k, start)
        assign = {g: CliffordElt.basis_vector(t[g - 1], form) for g in range(1, n + 1)}
        got = CliffordElt(form, {start: 1}) * evaluate(NcPoly.monomial(tuple(word)), assign, form)
        assert got == CliffordElt(form, {blade: form.monomial(sign, exps)})
        # and against the multiset rule, with no product of blades: sorting
        # e_start's labels and the image by adjacent swaps of distinct labels
        # gives the sign; each pair of equal labels contracts
        labels = [i for i in range(1, k + 1) if start >> (i - 1) & 1] + [t[g - 1] for g in word]
        assert sign == (-1) ** sum(a > b for a, b in itertools.combinations(labels, 2))
        assert exps == tuple(labels.count(i) // 2 for i in range(1, k + 1))
        assert blade == sum(1 << (i - 1) for i in range(1, k + 1) if labels.count(i) % 2)

    def test_gram_rank_equals_the_sign_matrix_rank(self):
        for n in range(1, 7):
            for k in range(1, 7):
                signs = orbit_sign_matrix(multilinear_words(n), k)
                assert evaluation_kernel(n, CliffordPair.symbolic(k)).rank == \
                    linalg.certified_rank(signs)
        assert evaluation_kernel(7, CliffordPair.symbolic(3)).rank == 127
        assert evaluation_kernel(7, CliffordPair.symbolic(7)).rank == 232

    def test_reversal_parity_splits_the_gram_matrix(self):
        # reversing a word flips its sign at t when t has an odd number D(t)
        # of pairs of places with different labels: the Gram matrix is block
        # diagonal in the D-parity, and its blocks' ranks add up
        cases = [(n, k) for n in range(1, 7) for k in range(1, n + 1)] + [(7, 3)]
        for n, k in cases:
            reps = orbit_representatives(n, k).tolist()
            odd = np.array([sum(a != b for a, b in itertools.combinations(t, 2)) % 2 == 1
                            for t in reps])
            assert reversal_odd(n, k).tolist() == odd.tolist()
            g = linalg.gram(orbit_sign_matrix(multilinear_words(n), k))
            assert not g[np.ix_(odd, ~odd)].any()
            ranks = [linalg.certified_rank(g[np.ix_(c, c)]) for c in (odd, ~odd)]
            assert sum(ranks) == linalg.certified_rank(g) == \
                sum(hook_dim(lam) for lam in partitions(n, max_rows=k))

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
            rep = theorem1_check(n)
            assert rep.ok and rep.containment_ok
            assert rep.span.rank == span
            assert rep.kernel.quotient_dim == rep.predicted_quotient

    def test_corollary1_small(self):
        rep = corollary1_check(3, 2)
        assert rep.ok
        assert rep.kernel.kernel_dim == 3
        assert rep.kernel.quotient_dim == rep.predicted_quotient == 3

    def test_n_below_generator(self):
        with pytest.raises(ValueError):
            theorem1_check(2)


class TestSolveModuloIdentities:
    def test_inconsistent_after_dropping_repeated_equations(self, monkeypatch):
        # x1x2x3 = c * x3x2x1 needs c = 1 at (e1, e1, e1), c = -1 at (e1, e2, e3)
        sizes = []

        def recorded(rows, rhs):
            sizes.append(len(rows))
            return linalg.solve_exact(rows, rhs)

        monkeypatch.setattr(structure, "solve_exact", recorded)
        lhs, cand = NcPoly.monomial((1, 2, 3)), NcPoly.monomial((3, 2, 1))
        assert structure._solve_modulo_identities(lhs, [cand]) is None
        assert sizes == [3]  # 5 representatives, 3 distinct equations
        assert structure._solve_modulo_identities(lhs + cand, [lhs, cand]) == [1, 1]

    def test_one_sign_matrix_for_polarized_polynomials(self, monkeypatch):
        # x1^2 x2 = c * x2 x1^2 (squares are central: c = 1) polarizes both
        # to the letters 1, 2, 3: one sign matrix over their 2 + 2 words
        calls, real = [], structure.orbit_sign_matrix
        monkeypatch.setattr(structure, "orbit_sign_matrix",
                            lambda words, k: calls.append(words.shape) or real(words, k))
        lhs, cand = NcPoly.monomial((1, 1, 2)), NcPoly.monomial((2, 1, 1))
        assert structure._solve_modulo_identities(lhs, [cand]) == [1]
        assert calls == [(4, 3)]
        with pytest.raises(ValueError, match="candidate multidegree does not match"):
            structure._solve_modulo_identities(lhs, [NcPoly.monomial((1, 2, 2))])


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
            # the defect, rebuilt from the factors, is decided apart from the solve
            target = CliffordPair.symbolic(n + sum(map(len, ys)))
            assert component_loop_witness(factorization_defect(fac), target) is None, (n, ys)

    @given(st.lists(st.integers(4, 7), max_size=6))
    def test_splits_match_the_sub_multiset_oracle(self, letters):
        multiset = tuple(sorted(letters))
        assert structure._splits(multiset) == factor_splits(multiset)

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


@st.composite
def low_rank_residues(draw):
    """Residues modulo PRIME of rank at most r: b @ c modulo PRIME for b
    (rows x r) and c (r x cols) with entries at 0, 1, PRIME - 1 or anywhere
    below PRIME, as many rows as columns or more or fewer, and some columns
    then set to zero."""
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    r = draw(st.integers(0, min(nrows, ncols)))
    entry = st.sampled_from([0, 1, PRIME - 1]) | st.integers(0, PRIME - 1)
    b = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=nrows, max_size=nrows))
    c = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=r, max_size=r))
    a = np.array(python_product(b, c, ncols), dtype=object).reshape(nrows, ncols) % PRIME
    a[:, sorted(draw(st.sets(st.integers(0, ncols - 1))))] = 0
    return a.astype(np.int64)


def assert_echelon_matches_oracle(a: np.ndarray) -> None:
    """_echelon of a copy of the residues a against the pure-Python
    echelon_mod_p: the same pivots, residues below PRIME, a leading 1 on
    each pivot row with zeros to its left and below the rank, and rows
    whose reduced echelon form is the oracle's."""
    pivots, rows = echelon_mod_p(a)
    got = a.copy()
    assert linalg._echelon(got, PRIME) == pivots
    assert ((0 <= got) & (got < PRIME)).all()
    assert not got[len(pivots):].any()
    for i, col in enumerate(pivots):
        assert not got[i, :col].any() and got[i, col] == 1
        assert not got[i + 1:, col].any()
    assert echelon_mod_p(got[:len(pivots)]) == (pivots, rows)


@st.composite
def gram_residues(draw):
    """A prime and the residues modulo it of the Gram matrix A^T A of a
    small integer matrix A (1 to 6 rows, 1 to 4 columns, entries -2..2,
    some columns zero or repeated up to sign): PRIME, or a prime small
    enough that a diagonal entry of a Schur complement can vanish modulo it
    while its column does not (an isotropic column).  By Cauchy-Binet and
    Hadamard's bound every principal minor of A^T A is below 15 * 4^8 <
    PRIME, so modulo PRIME none is isotropic."""
    p = draw(st.sampled_from([PRIME, 3, 5, 7]))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    entry = st.integers(-2, 2)
    a = np.array(draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                               min_size=nrows, max_size=nrows)), dtype=np.int64)
    for col in draw(st.sets(st.integers(0, ncols - 1))):
        a[:, col] = a[:, draw(st.integers(0, ncols - 1))] * draw(st.integers(-1, 1))
    return p, linalg.gram(a) % p


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

    @given(low_rank_residues())
    def test_echelon_matches_the_oracle(self, a):
        assert_echelon_matches_oracle(a)

    def test_echelon_past_64_pivots(self):
        # 70 pivots of residues up to p - 1: 70 delayed subtractions of up
        # to p^2 on the last columns before the one final reduction
        rng = random.Random(64)
        b = [[rng.randrange(PRIME) for _ in range(70)] for _ in range(90)]
        c = [[rng.randrange(PRIME) for _ in range(80)] for _ in range(70)]
        a = np.array(python_product(b, c, 80), dtype=object) % PRIME
        a[:, [0, 33, 79]] = 0
        a[:5] = PRIME - 1
        assert rank_mod_p(a) >= 64
        assert_echelon_matches_oracle(a.astype(np.int64))

    def test_echelon_refuses_pivots_past_the_int64_bound(self):
        for echelon in (linalg._echelon, linalg._diagonal_echelon):
            with pytest.raises(ValueError, match="overflow int64"):
                echelon(np.zeros((2, 2), dtype=np.int64), 2**31 - 1)

    @given(gram_residues())
    def test_diagonal_pivots_match_the_oracle(self, case):
        # the pivots give a principal minor nonzero modulo p, so never more
        # of them than the rank modulo p; with no isotropic column (always
        # modulo PRIME here) they are the oracle's, and wherever they are,
        # so are the pivot rows
        p, g = case
        pivots, rows = echelon_mod_p(g, p)
        got = g.copy()
        diagonal = linalg._diagonal_echelon(got, p)
        assert len(diagonal) <= len(pivots)
        if p == PRIME:
            assert diagonal == pivots
        if diagonal == pivots:
            assert (got[pivots] % p).tolist() == rows

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

    @pytest.mark.parametrize("entry, tier", [
        (2**50 - 1, np.float64),  # column sums up to 2^53 - 8
        (2**50 + 1, np.int64),  # up to 2^53 + 8
        (2**58 - 2**8, np.int64),  # up to 2^61 - 2^11, exact in float64 too
        (2**58 + 2**8, object),  # up to 2^61 + 2^11
        (2**64, object),  # past int64
    ])
    def test_one_row_summed_over_inner_blocks(self, monkeypatch, entry, tier):
        # two rows of b per inner block, so four partial sums per column
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 6)
        a = np.array([[entry] * 8])
        b = np.array([[1] * 8, [1, -1] * 4, [1] * 4 + [-1] * 4], dtype=np.int64).T
        assert linalg._product_dtype(a, b) is tier
        got = linalg.exact_product(a, b)
        assert got.dtype == (object if tier is object else np.int64)
        assert got.tolist() == python_product(a.tolist(), b.tolist(), 3) == [[8 * entry, 0, 0]]
        a[0, 1:] -= 1  # uneven partial sums
        b[0] = -1
        assert linalg.exact_product(a, b).tolist() == python_product(a.tolist(), b.tolist(), 3)

    @pytest.mark.parametrize("row, tier", [
        ([2**23, 2**23 - 1], np.float32),  # sums up to 2^24 - 1
        ([2**23, 2**23], np.float64),  # up to 2^24, the first bound past float32
        ([2**23, 2**23 + 1], np.float64),  # 2^24 + 1 is not a float32
    ])
    def test_float32_tier_edge(self, row, tier):
        a, b = np.array([row]), np.array([[1, 1], [1, -1]])
        assert linalg._product_dtype(a, b) is tier
        got = linalg.exact_product(a, b)
        assert got.dtype == np.int64 and got.tolist() == [[sum(row), row[0] - row[1]]]

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
                assert linalg._product_dtype(a, b) is np.float32
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

    @pytest.mark.parametrize("dtype, top, tier", [
        (np.int8, 127, np.float32),  # the dtype bound 128^2 * 7 rows
        (np.int64, 2**12, np.float64),  # bounds max|a| * column sum = 7 * top^2
        (np.int64, 2**26, np.int64),
        (np.int64, 2**31, object),
        (object, 2**70, object),
    ])
    def test_is_the_product_of_the_transpose(self, monkeypatch, dtype, top, tier):
        # two rows of a per inner block, so four partial sums per entry
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 6)
        rng = random.Random(top)
        a = np.array([[rng.choice([-top, top])] + [rng.randint(-top, top) for _ in range(2)]
                      for _ in range(7)], dtype=dtype)
        assert linalg._product_dtype(a.T, a) is tier
        got = linalg.gram(a)
        assert got.dtype == (object if tier is object else np.int64)
        assert got.tolist() == linalg.exact_product(a.T, a).tolist()
        assert got.tolist() == python_product(a.T.tolist(), a.tolist(), 3)

    def test_tier_edges(self):
        assert linalg._exact_dtype(2**24 - 1) is np.float32
        assert linalg._exact_dtype(2**24) is linalg._exact_dtype(2**53 - 1) is np.float64
        assert linalg._exact_dtype(2**53) is linalg._exact_dtype(2**61 - 1) is np.int64
        assert linalg._exact_dtype(2**61) is object
        # the entry (top + 1)^2 + top^2 is 2^53 + 2^27 + 1 (int64 tier), which
        # float64 would round, and 2^63 + 2^32 + 1 (Python ints), which int64
        # would wrap
        for top in (2**26, 2**31):
            a = np.array([[top + 1], [top]], dtype=np.int64)
            assert linalg.gram(a).tolist() == [[(top + 1) ** 2 + top**2]]
        # bounds 2^24 - 2^13 + 1 (float32) and 2^24 (float64), both to int64
        for top in (2**12 - 1, 2**12):
            got = linalg.gram(np.array([[top]], dtype=np.int64))
            assert got.dtype == np.int64 and got.tolist() == [[top**2]]

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
        # denominator above sqrt(PRIME / 2) = 724
        primes = []
        echelon = linalg._diagonal_echelon

        def recorded(a, p):
            primes.append(p)
            return echelon(a, p)

        def forbidden(rows):
            raise AssertionError("exact_rank called")

        monkeypatch.setattr(linalg, "_diagonal_echelon", recorded)
        monkeypatch.setattr(linalg, "exact_rank", forbidden)
        rows = [[40000, 1, 7], [80000, 2, 14], [-40000, -1, -7]]
        assert linalg.certified_rank(rows) == 1
        assert primes == [PRIME, linalg.PRIME2]
        # modulo PRIME alone -1/40000 has no reconstruction, or a wrong one
        lifted = linalg._lift(np.array([[PRIME - pow(40000, -1, PRIME)]]), PRIME)
        assert lifted is None or [x.tolist() for x in lifted] != [[[-1]], [40000]]

    def test_unlucky_prime_falls_back_to_exact_rank(self, monkeypatch):
        # one pivot modulo 3, two modulo PRIME2 (the lift restarts there) and
        # PRIME3; with every lift failing, exact_rank decides
        rows = [[1, 1, 0], [1, 4, 0], [0, 0, 0]]  # its nonzero 2x2 minors are 3
        assert rank_mod_p(rows, 3) == 1 < rank_bareiss(rows) == 2
        exact_calls = []

        def counted_exact_rank(rows):
            exact_calls.append(rows)
            return exact_rank(rows)

        monkeypatch.setattr(linalg, "PRIME", 3)
        monkeypatch.setattr(linalg, "_lift", lambda k, m: None)
        monkeypatch.setattr(linalg, "exact_rank", counted_exact_rank)
        assert linalg.certified_rank(rows) == 2
        assert exact_calls == [rows]

    @pytest.mark.parametrize("prime, rows", [
        (3, [[1, 1], [1, 4], [0, 0]]),  # full rank modulo PRIME2
        (5, [[1, 0], [2, 1]]),  # an isotropic column modulo 5
        (3, [[1, 1, 0], [1, 4, 0], [0, 0, 0]]),  # lifted from PRIME2 alone
    ])
    def test_more_pivots_at_a_later_prime_need_no_exact_rank(self, monkeypatch, prime, rows):
        def forbidden(rows):
            raise AssertionError("exact_rank called")

        monkeypatch.setattr(linalg, "PRIME", prime)
        monkeypatch.setattr(linalg, "exact_rank", forbidden)
        assert linalg.certified_rank(rows) == rank_bareiss(rows) == 2

    def test_prime_with_fewer_pivots_is_skipped(self, monkeypatch):
        # the Gram matrix is 6 u u^T for u = (40000, 1, 7), zero modulo 3: the
        # lift goes on from PRIME to PRIME3
        primes = []
        echelon = linalg._diagonal_echelon

        def recorded(a, p):
            primes.append(p)
            return echelon(a, p)

        def forbidden(rows):
            raise AssertionError("exact_rank called")

        monkeypatch.setattr(linalg, "PRIME2", 3)
        monkeypatch.setattr(linalg, "_diagonal_echelon", recorded)
        monkeypatch.setattr(linalg, "exact_rank", forbidden)
        assert linalg.certified_rank([[40000, 1, 7], [80000, 2, 14], [-40000, -1, -7]]) == 1
        assert primes == [PRIME, 3, linalg.PRIME3]

    def test_isotropic_column_is_not_taken_for_a_zero_column(self, monkeypatch):
        # the first Gram diagonal entry 1^2 + 2^2 vanishes modulo 5, but its
        # column does not: one diagonal pivot where the rank modulo 5 is 2,
        # a kernel vector that fails the exact check, and other pivots
        # modulo the next prime
        g = linalg.gram([[1, 0], [2, 1]])
        assert g.tolist() == [[5, 2], [2, 1]] and rank_mod_p(g, 5) == 2
        assert linalg._diagonal_echelon(g % 5, 5) == [1]
        monkeypatch.setattr(linalg, "PRIME", 5)
        assert linalg.certified_rank([[1, 0], [2, 1]]) == 2

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
