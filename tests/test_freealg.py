import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakid.freealg import (
    SQUARE_COMMUTATOR,
    NcPoly,
    commutator,
    is_multilinear,
    jordan,
    multidegree,
    multihomogeneous_components,
    multilinear_words,
    multilinearize,
    perm_sign,
    standard_poly,
    star,
    substitute_linear,
    word_key,
)

x1, x2, x3 = NcPoly.gen(1), NcPoly.gen(2), NcPoly.gen(3)


small_polys = st.lists(
    st.tuples(
        st.lists(st.integers(1, 3), max_size=3).map(tuple),
        st.fractions(max_denominator=4),
    ),
    max_size=4,
).map(lambda items: NcPoly(dict(items)))


class TestNcPolyRing:
    def test_zero_and_one(self):
        assert NcPoly.zero().is_zero()
        assert NcPoly.one() * x1 == x1
        assert x1 * NcPoly.one() == x1

    def test_noncommutative(self):
        assert x1 * x2 != x2 * x1

    def test_coeff_and_generators(self):
        f = 2 * x1 * x2 - x3
        assert f.coeff((1, 2)) == 2
        assert f.coeff((2, 1)) == 0
        assert f.generators() == {1, 2, 3}

    def test_pow(self):
        assert x1 ** 3 == x1 * x1 * x1
        f = x1 - 2 * x2 + Fraction(1, 3)
        want = NcPoly.one()
        for e in range(12):
            assert f ** e == want
            want = want * f
        assert (NcPoly.one() * 2) ** 100000 == NcPoly({(): 2**100000})
        assert x1 ** 0 == NcPoly.one()
        with pytest.raises(ValueError):
            x1 ** -1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            NcPoly({(0,): 1})
        with pytest.raises(TypeError):
            NcPoly({(1,): 0.5})

    @given(small_polys, small_polys, small_polys)
    def test_associativity_and_distributivity(self, f, g, h):
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


class TestBrackets:
    def test_commutator(self):
        assert commutator(x1, x2) == x1 * x2 - x2 * x1
        assert commutator(x1, x1).is_zero()

    def test_jordan(self):
        assert jordan(x1, x2) == Fraction(1, 2) * (x1 * x2 + x2 * x1)
        assert jordan(x1, x2) == jordan(x2, x1)

    def test_square_commutator(self):
        assert SQUARE_COMMUTATOR == x1 * x1 * x2 - x2 * x1 * x1


class TestStandardPoly:
    def test_s2(self):
        assert standard_poly(2) == x1 * x2 - x2 * x1

    def test_term_count_and_signs(self):
        s4 = standard_poly(4)
        assert len(s4.terms) == 24
        assert s4.coeff((1, 2, 3, 4)) == 1
        assert s4.coeff((2, 1, 3, 4)) == -1

    def test_alternation(self):
        # swapping any two variables negates S_n
        for n in range(2, 6):
            sn = standard_poly(n)
            swap = {i: NcPoly.gen(i) for i in range(1, n + 1)}
            swap[1], swap[2] = NcPoly.gen(2), NcPoly.gen(1)
            assert substitute_linear(sn, swap) == -sn

    def test_repeated_argument_kills(self):
        s3 = standard_poly(3)
        assert substitute_linear(s3, {1: x1, 2: x1, 3: x3}).is_zero()

    def test_invalid(self):
        with pytest.raises(ValueError):
            standard_poly(0)


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((2, 3, 1)) == 1
    # matches inversion parity on random permutations
    rng = random.Random(7)
    for _ in range(50):
        p = rng.sample(range(1, 7), 6)
        inv = sum(p[i] > p[j] for i in range(6) for j in range(i + 1, 6))
        assert perm_sign(p) == (-1) ** inv


class TestStar:
    def test_reverses_words(self):
        assert star(x1 * x2 * x3) == x3 * x2 * x1

    @given(small_polys, small_polys)
    def test_anti_automorphism(self, f, g):
        assert star(f * g) == star(g) * star(f)
        assert star(f + g) == star(f) + star(g)
        assert star(star(f)) == f


class TestMultidegree:
    def test_basic(self):
        assert multidegree(x1 * x2 * x1) == {1: 2, 2: 1}

    def test_zero_undefined(self):
        with pytest.raises(ValueError):
            multidegree(NcPoly.zero())

    def test_inhomogeneous_names_words(self):
        with pytest.raises(ValueError, match="multidegree"):
            multidegree(x1 + x2 * x2)

    def test_components(self):
        f = x1 * x2 + x2 * x1 + x1 * x1 + NcPoly.one()
        comps = multihomogeneous_components(f)
        assert len(comps) == 3
        assert sum(comps[1:], comps[0]) == f
        for c in comps:
            multidegree(c)  # must not raise


class TestMultilinearize:
    def test_square(self):
        # fresh variables take the smallest unused indices
        assert multilinearize(x1 * x1) == x1 * x2 + x2 * x1

    def test_square_commutator(self):
        got = multilinearize(SQUARE_COMMUTATOR)
        want = commutator(x1 * x3 + x3 * x1, x2)
        assert got == want

    def test_multilinear_fixed(self):
        f = x1 * x2 - x2 * x1
        assert multilinearize(f) == f

    def test_result_is_multilinear(self):
        f = x1 * x1 * x2 * x2
        ml = multilinearize(f)
        assert is_multilinear(ml)
        assert len(ml.generators()) == 4

    def test_identification_recovers_scaled_original(self):
        # substituting all fresh variables back gives d1!*d2!*... times f
        f = x1 ** 3
        ml = multilinearize(f)
        back = substitute_linear(ml, {g: x1 for g in ml.generators()})
        assert back == 6 * f


class TestSubstituteLinear:
    def test_expand_square(self):
        got = substitute_linear(x1 * x1, {1: x1 + x2})
        assert got == x1 * x1 + x1 * x2 + x2 * x1 + x2 * x2

    def test_nonlinear_value_rejected(self):
        with pytest.raises(ValueError, match="linear"):
            substitute_linear(x1, {1: x1 * x2})

    def test_missing_generator(self):
        with pytest.raises(ValueError, match="missing"):
            substitute_linear(x1 * x2, {1: x1})

    def test_homomorphism(self):
        sub = {1: x2 + 2 * x3, 2: x1 - x3, 3: x3}
        f, g = x1 * x2 - x3, x2 * x2 + x1
        assert substitute_linear(f * g, sub) == substitute_linear(
            f, sub
        ) * substitute_linear(g, sub)


def test_multilinear_words():
    words = multilinear_words(3)
    assert len(words) == 6
    assert words[0] == (1, 2, 3)
    assert words == sorted(words)
    with pytest.raises(ValueError):
        multilinear_words(8)


def test_word_key_orders_by_degree_then_lex():
    ws = [(2,), (1, 2), (1,), (1, 1)]
    assert sorted(ws, key=word_key) == [(1,), (2,), (1, 1), (1, 2)]
