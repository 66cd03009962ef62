import functools
import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakid import pairs, structure
from weakid.clifford import CliffordElt, FormParams, embed_vector, evaluate, word_sign_vector
from weakid.freealg import (
    SQUARE_COMMUTATOR,
    NcPoly,
    commutator,
    jordan,
    multilinear_words,
    multilinearize,
    standard_poly,
    star,
    substitute_linear,
)
from weakid.pairs import (
    MAT_E,
    MAT_F,
    MAT_H,
    MAT_I,
    CliffordPair,
    Mat2,
    MatrixPair,
    is_weak_identity,
    mat2_evaluate,
    substitution_basis,
)

from oracles import random_invertible_substitution

x1, x2, x3 = NcPoly.gen(1), NcPoly.gen(2), NcPoly.gen(3)


class TestMat2:
    def test_sl2_relations(self):
        assert MAT_E * MAT_F - MAT_F * MAT_E == MAT_H
        assert MAT_H * MAT_E - MAT_E * MAT_H == 2 * MAT_E
        assert MAT_H * MAT_F - MAT_F * MAT_H == -2 * MAT_F

    def test_trace_det(self):
        m = Mat2(1, 2, 3, 4)
        assert m.trace() == 5 and m.det() == -2
        assert MAT_H.trace() == 0

    def test_traceless_square_is_scalar(self):
        rng = random.Random(2)
        for _ in range(50):
            a, b, c = (Fraction(rng.randint(-4, 4)) for _ in range(3))
            m = Mat2(a, b, c, -a)
            sq = m * m
            assert sq.b == sq.c == 0 and sq.a == sq.d

    def test_evaluate_homomorphism(self):
        f = x1 * x2 - 2 * x2
        g = x2 * x1 + x1
        assign = {1: Mat2(1, 2, 0, -1), 2: Mat2(0, 1, 1, 0)}
        assert mat2_evaluate(f * g, assign) == mat2_evaluate(f, assign) * mat2_evaluate(
            g, assign
        )

    def test_evaluate_missing(self):
        with pytest.raises(ValueError, match="missing"):
            mat2_evaluate(x1 * x2, {1: MAT_E})

    def test_generator_identity_instance(self):
        assert mat2_evaluate(SQUARE_COMMUTATOR, {1: MAT_H, 2: MAT_E}).is_zero()


class TestSubstitutionBasis:
    def test_clifford(self):
        pair = CliffordPair.symbolic(3)
        labels = [lab for lab, _ in substitution_basis(pair)]
        assert labels == ["e1", "e2", "e3"]

    def test_matrix(self):
        labels = [lab for lab, _ in substitution_basis(MatrixPair())]
        assert labels == ["H", "E+F", "E-F"]


class TestIsWeakIdentity:
    def test_generator_holds_all_k(self):
        for k in range(1, 5):
            assert is_weak_identity(SQUARE_COMMUTATOR, CliffordPair.symbolic(k)) is None

    def test_commutator_witness(self):
        w = is_weak_identity(commutator(x1, x2), CliffordPair.symbolic(2))
        assert w is not None
        assert w.assignment == {1: "e1", 2: "e2"}
        assert str(w.value) == "2*e{1,2}"

    def test_standard_kills_small_dimension(self):
        # S_{k+1} vanishes on a k-dimensional space, S_k does not
        for k in (2, 3):
            pair = CliffordPair.symbolic(k)
            assert is_weak_identity(standard_poly(k + 1), pair) is None
            assert is_weak_identity(standard_poly(k), pair) is not None

    def test_matrix_pair(self):
        target = MatrixPair()
        assert is_weak_identity(SQUARE_COMMUTATOR, target) is None
        assert is_weak_identity(standard_poly(4), target) is None
        w = is_weak_identity(standard_poly(3), target)
        assert w is not None
        assert not w.value.is_zero()

    def test_explicit_form_values(self):
        pair = CliffordPair(FormParams(2, (1, -1)))
        assert is_weak_identity(SQUARE_COMMUTATOR, pair) is None

    def test_inhomogeneous_input(self):
        f = SQUARE_COMMUTATOR + commutator(NcPoly.gen(1) ** 2, NcPoly.gen(3))
        assert is_weak_identity(f, CliffordPair.symbolic(3)) is None
        g = SQUARE_COMMUTATOR + commutator(x1, x2)
        assert is_weak_identity(g, CliffordPair.symbolic(2)) is not None

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_weak_identity(NcPoly.zero(), CliffordPair.symbolic(2))

    def test_degree_cap(self):
        f = NcPoly.monomial(tuple(range(1, 9))) - NcPoly.monomial(tuple(range(8, 0, -1)))
        with pytest.raises(ValueError, match="cap"):
            is_weak_identity(f, CliffordPair.symbolic(2))
        assert is_weak_identity(f, CliffordPair.symbolic(2), max_degree=8) is not None

    def test_degree_cap_before_polarization(self):
        # x1^12 polarizes to 12! = 479,001,600 words; the cap refuses it first
        for target in (CliffordPair.symbolic(2), MatrixPair()):
            tracemalloc.start()
            start = time.monotonic()
            try:
                with pytest.raises(ValueError, match="degree 12 above cap 7"):
                    is_weak_identity(x1**12, target)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.monotonic() - start < 1.0
            assert peak < 5 * 2**20
        # an earlier failing component still returns its witness
        w = is_weak_identity(commutator(x1, x2) + x3**12, CliffordPair.symbolic(2))
        assert w is not None and set(w.assignment) == {1, 2}

    def test_witness_component_is_reported(self):
        f = SQUARE_COMMUTATOR + commutator(x1, x2)
        w = is_weak_identity(f, CliffordPair.symbolic(2))
        assert w.component is not None
        assert not w.component.is_zero()


class TestFastPathAgainstSymbolic:
    def test_multilinear_vanishing_matches_brute_force(self):
        """The integer sign fast path agrees with full symbolic evaluation."""
        rng = random.Random(17)
        k = 2
        form = FormParams(k)
        pair = CliffordPair.symbolic(k)
        for _ in range(30):
            n = rng.randint(2, 3)
            words = list(itertools.permutations(range(1, n + 1)))
            f = NcPoly(
                {w: Fraction(rng.randint(-2, 2)) for w in words}
            )
            if f.is_zero():
                continue
            fast = is_weak_identity(f, pair) is None
            slow = all(
                evaluate(
                    f,
                    {
                        i + 1: CliffordElt.basis_vector(t[i], form)
                        for i in range(n)
                    },
                    form,
                ).is_zero()
                for t in itertools.product(range(1, k + 1), repeat=n)
            )
            assert fast == slow


class TestOrbitWitness:
    def test_witness_is_first_failing_tuple_of_full_table(self):
        """The search over orbit representatives finds the same tuple as a
        first-nonzero search over all k^n tuples."""
        rng = random.Random(23)
        checked = 0
        for _ in range(60):
            n, k = rng.randint(1, 5), rng.randint(1, 5)
            perms = list(itertools.permutations(range(1, n + 1)))
            words = rng.sample(perms, rng.randint(1, min(4, len(perms))))
            f = NcPoly({w: Fraction(rng.randint(-3, 3)) for w in words})
            if f.is_zero():
                continue
            acc = sum(
                int(c) * word_sign_vector(w, k).astype(np.int64) for w, c in f.terms.items()
            )
            bad = np.flatnonzero(acc)
            w = is_weak_identity(f, CliffordPair.symbolic(k))
            if bad.size == 0:
                assert w is None
                continue
            t = np.unravel_index(int(bad[0]), (k,) * n)
            assert w.assignment == {g + 1: f"e{int(t[g]) + 1}" for g in range(n)}
            checked += 1
        assert checked > 20

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.sampled_from(
            [
                SQUARE_COMMUTATOR,
                standard_poly(3),
                commutator(x1, x2),
                x1 * x2 * x3 + x1 * x3 * x2 + x2 * x1 * x3 + x2 * x3 * x1,
                x1 * x2 - 2 * x3 * x2,
            ]
        ),
        k=st.integers(1, 4),
        scale=st.one_of(st.integers(-(2**80), 2**80), st.sampled_from([2**62, 2**63, -(2**64)]))
        .filter(bool),
    )
    def test_scaling_never_flips_the_verdict(self, base, k, scale):
        pair = CliffordPair.symbolic(k)
        plain = is_weak_identity(base, pair)
        scaled = is_weak_identity(base * scale, pair)
        assert (plain is None) == (scaled is None)
        if plain is not None:
            assert plain.assignment == scaled.assignment


class TestCliffordWitnessValue:
    def test_value_equals_symbolic_evaluation(self):
        """The witness value built from the failing sum, q-monomial and blade
        is what symbolic evaluation at the witness tuple gives."""
        rng = random.Random(29)
        checked = {True: 0, False: 0}
        for _ in range(150):
            n, k = rng.randint(1, 5), rng.randint(1, 4)
            symbolic = rng.random() < 0.5
            values = None if symbolic else [
                Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7))) for _ in range(k)
            ]
            form = FormParams(k, values)
            letters = sorted(rng.sample(range(1, 10), n))
            perms = list(itertools.permutations(letters))
            words = rng.sample(perms, rng.randint(1, min(6, len(perms))))
            f = NcPoly({w: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for w in words})
            if f.is_zero():
                continue
            w = is_weak_identity(f, CliffordPair(form))
            if w is None:
                continue
            assign = {g: CliffordElt.basis_vector(int(w.assignment[g][1:]), form) for g in letters}
            want = evaluate(f, assign, form)
            assert w.value == want and str(w.value) == str(want)
            checked[symbolic] += 1
        assert min(checked.values()) > 20


def oracle_matrix_witness(ml: NcPoly):
    """First failing tuple of the M2 substitution basis for a multilinear
    polynomial and its value, by multiplying out Fraction 2x2 matrices word
    by word, tuple by tuple."""
    letters = sorted(ml.generators())
    rename = {g: i + 1 for i, g in enumerate(letters)}
    relabeled = {tuple(rename[g] for g in w): c for w, c in ml.terms.items()}
    basis = substitution_basis(MatrixPair())
    seq_prod = {}
    for seq in itertools.product(range(3), repeat=len(letters)):
        prod = Mat2(1, 0, 0, 1)
        for i in seq:
            prod = prod * basis[i][1]
        seq_prod[seq] = prod
    for t in itertools.product(range(3), repeat=len(letters)):
        total = Mat2(0, 0, 0, 0)
        for w, c in relabeled.items():
            total = total + seq_prod[tuple(t[g - 1] for g in w)] * c
        if not total.is_zero():
            return {g: basis[t[j]][0] for j, g in enumerate(letters)}, total
    return None


def random_multilinear(rng: random.Random, n: int, coeff) -> NcPoly:
    letters = sorted(rng.sample(range(1, 10), n))
    perms = list(itertools.permutations(letters))
    words = rng.sample(perms, rng.randint(1, min(8, len(perms))))
    return NcPoly({w: coeff() or 1 for w in words})


@functools.cache
def m2_identity_rows(n: int) -> np.ndarray:
    """Integer rows over multilinear_words(n) spanning the degree-n
    multilinear consequences of [x1^2,x2] and S(4), both weak identities of
    (M_2, sl_2)."""
    return structure._span_matrix(n, [SQUARE_COMMUTATOR, standard_poly(4)])


class TestMatrixWitness:
    def test_blade_table_is_phi(self):
        """phi sends e1, e2, e3 to H, E+F, E-F, which square to q_i I and
        anticommute; the blade table holds their products in increasing
        order, so it is phi of the basis blades."""
        h = [m for _, m in substitution_basis(MatrixPair())]
        assert h == [MAT_H, MAT_E + MAT_F, MAT_E - MAT_F]
        q = pairs._M2_FORM.values
        assert q == (1, 1, -1)
        for i in range(3):
            assert h[i] * h[i] == q[i] * MAT_I
            for j in range(i):
                assert h[i] * h[j] == -(h[j] * h[i])
        assert len(pairs._M2_BLADES) == 8
        for blade, want in enumerate(pairs._M2_BLADES):
            prod = MAT_I
            for i in range(3):
                if blade >> i & 1:
                    prod = prod * h[i]
            assert want == prod
        # 1, h1h2, h1h3, h2h3, h1h2h3
        assert [pairs._M2_BLADES[b] for b in (0, 3, 5, 6, 7)] == [
            MAT_I, MAT_E - MAT_F, MAT_E + MAT_F, -MAT_H, -MAT_I]

    def check_against_oracle(self, f: NcPoly) -> bool:
        want = oracle_matrix_witness(f)
        w = is_weak_identity(f, MatrixPair())
        if want is None:
            assert w is None
            return False
        assert (w.assignment, w.value) == want
        assert str(w.value) == str(want[1])
        basis = dict(substitution_basis(MatrixPair()))
        assert mat2_evaluate(f, {g: basis[label] for g, label in w.assignment.items()}) == w.value
        return True

    def test_fraction_coefficients(self):
        rng = random.Random(37)
        coeff = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 6))  # noqa: E731
        fails = sum(self.check_against_oracle(random_multilinear(rng, rng.randint(1, 5), coeff))
                    for _ in range(80))
        assert fails > 40

    def test_coefficients_beyond_int64_and_2_62(self):
        rng = random.Random(41)
        big = (2**62 + 1, 2**63, 3 * 2**70, Fraction(2**65 + 3, 7))
        coeff = lambda: rng.choice(big) * rng.choice((1, -1, 2))  # noqa: E731
        fails = sum(self.check_against_oracle(random_multilinear(rng, rng.randint(1, 4), coeff))
                    for _ in range(30))
        assert fails > 15
        # a scaled identity stays an identity on the Python-int path
        assert is_weak_identity(standard_poly(4) * 2**70, MatrixPair()) is None

    def test_failing_tuple_after_passing_ones(self):
        x4 = NcPoly.gen(4)
        f = standard_poly(3) * x4  # first failing tuple (H, E+F, E-F, H), index 15
        want = oracle_matrix_witness(f)
        assert want[0] == {1: "H", 2: "E+F", 3: "E-F", 4: "H"}
        assert self.check_against_oracle(f)
        # each label twice: the value carries q3 = -1 from contracting E-F
        s3 = NcPoly({tuple(g + 3 for g in w): c for w, c in standard_poly(3).terms.items()})
        g = standard_poly(3) * s3
        assert oracle_matrix_witness(g)[0] == {1: "H", 2: "E+F", 3: "E-F", 4: "H", 5: "E+F",
                                               6: "E-F"}
        assert self.check_against_oracle(g)
        rng = random.Random(43)
        coeff = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2))  # noqa: E731
        for _ in range(20):
            self.check_against_oracle(random_multilinear(rng, rng.randint(2, 5), coeff))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_identities_and_perturbations_match_the_oracle(self, data):
        """A rational combination of consequence rows of [x1^2,x2] and S(4)
        is an M2 identity; with one coefficient perturbed it mostly is not.
        Both verdicts, witnesses and values are the oracle's."""
        fraction = st.fractions(-5, 5, max_denominator=6)
        n = data.draw(st.sampled_from((4, 5)), label="n")
        rows = m2_identity_rows(n)
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=4))
        letters = sorted(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n,
                                            unique=True), label="letters"))
        words = [tuple(letters[g - 1] for g in w) for w in multilinear_words(n)]
        coeffs = [Fraction(0)] * len(words)
        for i in picks:
            c = data.draw(fraction, label="coefficient")
            coeffs = [a + c * int(b) for a, b in zip(coeffs, rows[i])]
        f = NcPoly({w: c for w, c in zip(words, coeffs) if c})
        if not f.is_zero():
            assert not self.check_against_oracle(f)
        at = data.draw(st.integers(0, len(words) - 1), label="perturbed word")
        bump = data.draw(fraction.filter(bool), label="perturbation")
        g = f + bump * NcPoly.monomial(words[at])
        if not g.is_zero():
            self.check_against_oracle(g)


class TestBasisSufficiency:
    def test_holds_on_random_vectors(self):
        """An identity that passes on basis tuples vanishes on random vectors."""
        rng = random.Random(23)
        form = FormParams(3, (2, -1, Fraction(1, 3)))
        pair = CliffordPair(form)
        assert is_weak_identity(SQUARE_COMMUTATOR, pair) is None
        assert is_weak_identity(standard_poly(4), pair) is None
        for f in (SQUARE_COMMUTATOR, standard_poly(4)):
            gens = sorted(f.generators())
            for _ in range(25):
                assign = {
                    g: embed_vector(
                        [Fraction(rng.randint(-3, 3)) for _ in range(3)], form
                    )
                    for g in gens
                }
                assert evaluate(f, assign, form).is_zero()

    def test_witness_rules_out_identity_on_vectors(self):
        # the witness substitution itself is a vector substitution
        pair = CliffordPair.symbolic(2)
        w = is_weak_identity(commutator(x1, x2), pair)
        assert not w.value.is_zero()


class TestGlInvariance:
    def test_identity_stable_under_invertible_substitution(self):
        rng = random.Random(41)
        pair = CliffordPair.symbolic(3)
        ml = multilinearize(SQUARE_COMMUTATOR)  # variables 1, 2, 3
        for _ in range(20):
            sub = random_invertible_substitution(3, rng)
            g = substitute_linear(ml, sub)
            if g.is_zero():
                continue
            assert is_weak_identity(g, pair) is None

    def test_non_identity_stable_under_invertible_substitution(self):
        rng = random.Random(43)
        pair = CliffordPair.symbolic(2)
        f = commutator(x1, x2)
        for _ in range(20):
            sub = random_invertible_substitution(2, rng)
            g = substitute_linear(f, sub)
            # [.,.] is alternating: an invertible substitution scales it by det != 0
            assert is_weak_identity(g, pair) is not None


class TestStarStability:
    def test_star_preserves_weak_identities(self):
        pair = CliffordPair.symbolic(3)
        for f in (
            SQUARE_COMMUTATOR,
            standard_poly(4),
            commutator(jordan(x1, x2), x3) - commutator(jordan(x1, x3), x2),
        ):
            if is_weak_identity(f, pair) is None:
                assert is_weak_identity(star(f), pair) is None


def test_random_invertible_substitution_shape():
    rng = random.Random(1)
    sub = random_invertible_substitution(4, rng)
    assert set(sub) == {1, 2, 3, 4}
    for v in sub.values():
        assert all(len(w) == 1 for w in v.terms)
