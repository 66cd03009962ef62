import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakid import pairs
from weakid.clifford import CliffordElt, FormParams, embed_vector, evaluate, word_sign_vector
from weakid.freealg import (
    SQUARE_COMMUTATOR,
    NcPoly,
    commutator,
    jordan,
    multilinearize,
    standard_poly,
    star,
    substitute_linear,
)
from weakid.pairs import (
    MAT_E,
    MAT_F,
    MAT_H,
    CliffordPair,
    Mat2,
    MatrixPair,
    is_weak_identity,
    m2_product_table,
    mat2_evaluate,
    random_invertible_substitution,
    substitution_basis,
)

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
        assert labels == ["E", "F", "H"]


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
    """First failing E, F, H tuple of a multilinear polynomial and its value,
    by multiplying out Fraction 2x2 matrices word by word, tuple by tuple."""
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


class TestMatrixWitness:
    def test_product_table_matches_mat2_products(self):
        basis = [m for _, m in substitution_basis(MatrixPair())]
        for n in range(5):
            table = m2_product_table(n)
            assert table.shape == (3**n, 4) and table.dtype == np.int8
            for row, seq in zip(table, itertools.product(range(3), repeat=n)):
                prod = Mat2(1, 0, 0, 1)
                for i in seq:
                    prod = prod * basis[i]
                assert row.tolist() == list(prod.entries())

    def check_against_oracle(self, f: NcPoly) -> bool:
        want = oracle_matrix_witness(f)
        w = is_weak_identity(f, MatrixPair())
        if want is None:
            assert w is None
            return False
        assert (w.assignment, w.value) == want
        assert str(w.value) == str(want[1])
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

    def test_failing_tuple_in_a_later_block(self, monkeypatch):
        x4 = NcPoly.gen(4)
        f = standard_poly(3) * x4  # first failing tuple (E, F, H, E), index 15
        want = oracle_matrix_witness(f)
        assert want[0] == {1: "E", 2: "F", 3: "H", 4: "E"}
        rng = random.Random(43)
        coeff = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2))  # noqa: E731
        cases = [random_multilinear(rng, rng.randint(2, 5), coeff) for _ in range(20)]
        for entries in (4, 8, 12, 4 * 24 * 2):  # 1, 2, 3 tuples per block; 2 for f
            monkeypatch.setattr(pairs, "BLOCK_ENTRIES", entries)
            assert self.check_against_oracle(f)
            for g in cases:
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
