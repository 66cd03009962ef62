import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakid.freealg import (
    SQUARE_COMMUTATOR,
    NcPoly,
    commutator,
    jordan,
    multidegree,
    multihomogeneous_components,
    multilinear_words,
    multilinearize,
    standard_poly,
    star,
    substitute_linear,
    word_key,
)
from weakid.parser import parse_poly

from oracles import perm_sign

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


def general_product(f: NcPoly, g: NcPoly) -> NcPoly:
    """f * g term by term, as the product of two polynomials of any shape."""
    out = {}
    for w1, c1 in f.terms.items():
        for w2, c2 in g.terms.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return NcPoly(out)


class TestProductWithOneWord:
    @given(small_polys, st.lists(st.integers(1, 3), max_size=3).map(tuple),
           st.sampled_from([1, Fraction(1), 2, Fraction(-1, 3)]))
    def test_equals_the_general_product(self, f, word, c):
        m = NcPoly.monomial(word, c)
        for got, want in ((f * m, general_product(f, m)), (m * f, general_product(m, f))):
            assert list(got.terms.items()) == list(want.terms.items())
            assert_clean(got)


def assert_clean(p: NcPoly):
    """The NcPoly invariant: tuple-of-positive-int keys, nonzero Fraction
    values, and equal to the polynomial the public constructor makes."""
    for w, c in p.terms.items():
        assert type(w) is tuple and all(type(i) is int and i > 0 for i in w)
        assert type(c) is Fraction and c != 0
    assert p == NcPoly(dict(p.terms))


#: Few short words with small coefficients, so that sums and products often cancel.
cancelling_polys = st.lists(
    st.tuples(
        st.lists(st.integers(1, 2), max_size=2).map(tuple),
        st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2)]),
    ),
    max_size=5,
).map(lambda items: NcPoly(dict(items)))
#: One word with coefficient 1: the products that only extend words.
unit_words = st.lists(st.integers(1, 2), max_size=2).map(NcPoly.monomial)


def term_sum(a: dict, b: dict) -> dict:
    """a + b term by term, with the zero sums left out."""
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


class TestInvariant:
    @given(small_polys, small_polys, st.fractions(max_denominator=4), st.integers(-3, 3),
           st.integers(0, 3))
    def test_operations_keep_the_invariant(self, f, g, q, k, e):
        results = [f + g, f - g, f * g, f * q, q * f, f * k, k * f, f + k, k - f, -f,
                   f ** e, commutator(f, g), jordan(f, g), star(f),
                   f - f, f + (-f), f * 0, (f + g) - g]
        for comp in multihomogeneous_components(f):
            results += [comp, multilinearize(comp)]
        for p in results:
            assert_clean(p)
        assert (f - f).is_zero() and ((f + g) - g) == f

    @given(cancelling_polys, cancelling_polys | unit_words)
    def test_sums_and_products_drop_exactly_the_cancelled_terms(self, f, g):
        """Each result holds the nonzero entries of its term-by-term sum, in
        their order, and nothing else."""
        neg = {w: -c for w, c in g.terms.items()}
        for got, want in ((f + g, term_sum(f.terms, g.terms)), (f - g, term_sum(f.terms, neg)),
                          (-g, term_sum({}, neg)), (f * g, general_product(f, g).terms),
                          (g * f, general_product(g, f).terms)):
            assert list(got.terms.items()) == list(want.items())
            assert_clean(got)

    def test_cancellation(self):
        for p in (x1 * x2 - x2 * x1 + x2 * x1, x1 - x1, commutator(x1, x1),
                  (x1 + x2) * (x1 - x2) + x1 * x2 - x2 * x1, jordan(x1, -x1) + x1 * x1):
            assert_clean(p)
        assert x1 * x2 - x2 * x1 + x2 * x1 == x1 * x2
        assert (x1 + x2) * (x1 - x2) + x1 * x2 - x2 * x1 == x1 * x1 - x2 * x2

    def test_constructions_keep_the_invariant(self):
        for n in range(1, 7):
            assert_clean(standard_poly(n))
        f = (x1 + 2 * x2) ** 3 - x1 * x2 * x1
        assert_clean(substitute_linear(f, {1: x2 - x3, 2: x3 + x2}))
        assert_clean(substitute_linear(f, {1: x2, 2: -x2 * Fraction(1, 2)}))


#: Polynomials in x1..x3 and y1..y3 (generators 1..6): words made of runs
#: of one letter (printed as powers), the empty word (a constant term) and
#: Fraction coefficients.
printed_polys = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), max_size=3).map(
            lambda runs: tuple(g for g, size in runs for _ in range(size))),
        st.fractions(max_denominator=9),
    ),
    max_size=5,
).map(lambda items: NcPoly(dict(items)))


class TestStr:
    @given(printed_polys)
    def test_parses_back(self, f):
        assert parse_poly(str(f)) == f
        assert repr(f) == f"NcPoly({f})"

    def test_input_names(self):
        f = parse_poly("y1*x2^2 - 3/2*x1")
        assert str(f) == "-3/2*x1 + y1*x2^2"
        assert str(NcPoly.zero()) == "0" and str(NcPoly.one() * 5) == "5"


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

    def test_matches_perm_sign_in_values_and_order(self):
        for n in range(1, 8):
            want = {p: Fraction(perm_sign(p)) for p in itertools.permutations(range(1, n + 1))}
            got = standard_poly(n).terms
            assert list(got.items()) == list(want.items())


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
        assert multidegree(ml) == {g: 1 for g in range(1, 5)}

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
