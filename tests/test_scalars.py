from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakid.scalars import ParamPoly


class TestParamPoly:
    def test_zero_terms_dropped(self):
        p = ParamPoly(2, {(1, 0): 0, (0, 1): 3})
        assert p.terms == {(0, 1): Fraction(3)}

    def test_qvar(self):
        q2 = ParamPoly.qvar(2, 3)
        assert q2.terms == {(0, 1, 0): Fraction(1)}
        with pytest.raises(ValueError):
            ParamPoly.qvar(4, 3)

    def test_add_cancel(self):
        q1 = ParamPoly.qvar(1, 2)
        assert (q1 - q1).is_zero()

    def test_mul(self):
        q1, q2 = ParamPoly.qvar(1, 2), ParamPoly.qvar(2, 2)
        p = (q1 + q2) * (q1 - q2)
        assert p == q1 * q1 - q2 * q2

    def test_scalar_coercion(self):
        q1 = ParamPoly.qvar(1, 1)
        assert 2 * q1 + 1 == q1 + q1 + ParamPoly.const(1, 1)
        assert 1 - q1 == -(q1 - 1)

    def test_nparams_mismatch(self):
        with pytest.raises(ValueError):
            ParamPoly.qvar(1, 1) + ParamPoly.qvar(1, 2)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            ParamPoly(2, {(1,): 1})
        with pytest.raises(ValueError):
            ParamPoly(1, {(-1,): 1})

    def test_constant_value(self):
        assert ParamPoly.const(3, Fraction(5, 2)).constant_value() == Fraction(5, 2)
        with pytest.raises(ValueError):
            ParamPoly.qvar(1, 1).constant_value()

    def test_specialize(self):
        q1, q2 = ParamPoly.qvar(1, 2), ParamPoly.qvar(2, 2)
        p = q1 * q1 * 3 - q2 + 1
        assert p.specialize({1: 2, 2: Fraction(1, 2)}) == 12 - Fraction(1, 2) + 1
        assert p.specialize([2, Fraction(1, 2)]) == Fraction(25, 2)

    def test_specialize_missing_parameter(self):
        with pytest.raises(ValueError, match="q2"):
            (ParamPoly.qvar(2, 2)).specialize({1: 5})

    def test_str(self):
        q1, q2 = ParamPoly.qvar(1, 2), ParamPoly.qvar(2, 2)
        assert str(q1 * q1 - 2 * q2) == "q1^2 - 2*q2"
        assert str(ParamPoly.zero(2)) == "0"


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(-5, 5),
        ),
        max_size=5,
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(-5, 5),
        ),
        max_size=5,
    ),
)
def test_mul_matches_specialization(t1, t2):
    p1 = ParamPoly(2, dict(t1))
    p2 = ParamPoly(2, dict(t2))
    at = {1: Fraction(3), 2: Fraction(-2, 3)}
    assert (p1 * p2).specialize(at) == p1.specialize(at) * p2.specialize(at)
    assert (p1 + p2).specialize(at) == p1.specialize(at) + p2.specialize(at)
