"""Evaluation targets and the weak-identity decision procedure.

A pair is an algebra together with a distinguished substitution space:
either a Clifford algebra with its vector space, or the 2x2 matrices with
the traceless subspace.  A polynomial is a weak identity of a pair when it
vanishes under every substitution of elements of that subspace; over the
rationals this is decided by multilinearizing each multihomogeneous
component and evaluating at all tuples of basis elements.

Both pairs are evaluated by one core, the orbit sign matrix of C_k.  On sl_2,
v^2 = B(v, v) I for B(u, v) = tr(uv)/2, so the inclusion extends to an algebra
map phi: C_3 -> M_2 sending e1, e2, e3 to H, E+F, E-F, with q = (1, 1, -1).
phi is injective on the even and on the odd part of C_3, where a multilinear
value lies, so (M_2, sl_2) has the weak identities of (C_3, V_3) at that q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Mapping, Union

import numpy as np

from . import clifford
from .clifford import CliffordElt, FormParams
from .freealg import (
    DEFAULT_DEGREE_CAP,
    NcPoly,
    multihomogeneous_components,
    multilinearize,
)
from .linalg import exact_product
from .scalars import Coeff, ParamPoly


@dataclass(frozen=True)
class CliffordPair:
    """The pair (C_k, V_k) for a diagonal non-degenerate form."""

    form: FormParams

    @classmethod
    def symbolic(cls, k: int) -> "CliffordPair":
        return cls(FormParams(k))

    @property
    def k(self) -> int:
        return self.form.k


@dataclass(frozen=True)
class MatrixPair:
    """The pair (M_2, sl_2): 2x2 matrices with the traceless subspace."""


PairTarget = Union[CliffordPair, MatrixPair]


class Mat2:
    """2x2 matrix over the rationals."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Coeff, b: Coeff, c: Coeff, d: Coeff):
        self.a, self.b, self.c, self.d = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def __add__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o):
        if isinstance(o, (int, Fraction)):
            return Mat2(self.a * o, self.b * o, self.c * o, self.d * o)
        if not isinstance(o, Mat2):
            return NotImplemented
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    __rmul__ = __mul__

    def __eq__(self, o) -> bool:
        if not isinstance(o, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    __hash__ = None

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def trace(self) -> Fraction:
        return self.a + self.d

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    __repr__ = __str__


MAT_E = Mat2(0, 1, 0, 0)
MAT_F = Mat2(0, 0, 1, 0)
MAT_H = Mat2(1, 0, 0, -1)
MAT_I = Mat2(1, 0, 0, 1)

#: The form at which (M_2, sl_2) is (C_3, V_3), and phi of the blades of C_3
#: by index: the products of h1 = H, h2 = E+F, h3 = E-F in increasing order.
_M2_FORM = FormParams(3, (1, 1, -1))
_M2_BLADES = (MAT_I, MAT_H, MAT_E + MAT_F, MAT_E - MAT_F,
              MAT_E - MAT_F, MAT_E + MAT_F, -MAT_H, -MAT_I)


def mat2_evaluate(f: NcPoly, assign: Mapping[int, Mat2]) -> Mat2:
    """The algebra homomorphism into 2x2 matrices extending assign."""
    missing = f.generators() - set(assign)
    if missing:
        raise ValueError(f"missing assignment for generators {sorted(missing)}")
    out = Mat2(0, 0, 0, 0)
    for w, c in f.terms.items():
        prod = MAT_I
        for letter in w:
            prod = prod * assign[letter]
        out = out + prod * c
    return out


def substitution_basis(target: PairTarget) -> list[tuple[str, object]]:
    """Labelled basis of the substitution space, in the fixed order: e1..ek,
    or the orthogonal basis H, E+F, E-F of sl_2 that phi maps e1, e2, e3 to."""
    if isinstance(target, CliffordPair):
        form = target.form
        return [(f"e{i}", CliffordElt.basis_vector(i, form)) for i in range(1, form.k + 1)]
    if isinstance(target, MatrixPair):
        return [("H", _M2_BLADES[1]), ("E+F", _M2_BLADES[2]), ("E-F", _M2_BLADES[4])]
    raise TypeError(f"unknown pair target {target!r}")


@dataclass
class Witness:
    """A substitution of basis elements on which the polynomial does not vanish.

    The assignment refers to the generators of the (multilinearized)
    component that was found to be nonzero; ``component`` is that polynomial.
    """

    assignment: dict[int, str]
    value: object
    component: NcPoly = field(repr=False, default=None)


def _integer_rows(ml: NcPoly) -> tuple[np.ndarray, list[int], int]:
    """A multilinear polynomial as integer rows: its words with the letters
    renamed to 1..n in sorted order (an int array, one row per word), the
    coefficients times their common denominator den, and den."""
    letters = sorted(next(iter(ml.terms)))  # every word has the same letters
    words = np.searchsorted(letters, np.array(list(ml.terms), dtype=np.intp)) + 1
    den = lcm(*(c.denominator for c in ml.terms.values()))
    if den == 1:
        return words, [c.numerator for c in ml.terms.values()], den
    coeffs = [c.numerator * (den // c.denominator) for c in ml.terms.values()]
    return words, coeffs, den


def _first_failing_orbit(ml: NcPoly, k: int) -> tuple[list[int], Fraction] | None:
    """First basis tuple of e1..ek at which a multilinear polynomial is
    nonzero, with its signed sum over den; None if there is none.

    All words of ml are permutations of the same letters, so at a fixed
    basis tuple every term evaluates to a common (nonzero) q-monomial and
    blade times an integer sign; vanishing is a pure integer statement, and
    it is enough to test one tuple per orbit of basis relabellings.  The
    tuple holds one label per letter of ml in sorted order.
    """
    words, coeffs, den = _integer_rows(ml)
    sums = exact_product([coeffs], clifford.orbit_sign_matrix(words, k))[0]
    bad = np.flatnonzero(sums)
    if bad.size == 0:
        return None
    # an orbit's representative is its lexicographically first tuple, so the
    # first failing representative is the first failing tuple overall
    rep = [int(i) for i in clifford.orbit_representatives(words.shape[1], k)[bad[0]]]
    return rep, Fraction(int(sums[bad[0]]), den)


def _component_witness(ml: NcPoly, target: PairTarget) -> Witness | None:
    """The first failing basis tuple of a multilinear polynomial as a
    witness, with its value: the signed sum times the tuple's q-monomial and
    blade, in C_k or, through phi, in M_2."""
    form = target.form if isinstance(target, CliffordPair) else _M2_FORM
    found = _first_failing_orbit(ml, form.k)
    if found is None:
        return None
    rep, c = found
    exps = clifford.tuple_q_exponents(rep, form.k)
    blade = clifford.tuple_blade(rep)
    if isinstance(target, CliffordPair):
        coeff = prod((form.q_coeff(i) for i, e in enumerate(exps, 1) for _ in range(e)),
                     start=ParamPoly.const(form.k, c))
        value, labels = CliffordElt(form, {blade: coeff}), [f"e{i}" for i in rep]
    else:
        value = _M2_BLADES[blade] * prod((q**e for q, e in zip(form.values, exps)), start=c)
        basis = substitution_basis(target)
        labels = [basis[i - 1][0] for i in rep]
    assignment = dict(zip(sorted(ml.generators()), labels))
    return Witness(assignment=assignment, value=value, component=ml)


def is_weak_identity(
    f: NcPoly, target: PairTarget, max_degree: int = DEFAULT_DEGREE_CAP
) -> Witness | None:
    """Decide whether f is a weak identity of the pair; None means it holds.

    Each multihomogeneous component must vanish separately (infinite ground
    field), is multilinearized (valid in characteristic 0), and is evaluated
    at every tuple of substitution-space basis elements (valid by
    multilinearity).  The first nonzero evaluation, in the fixed enumeration
    order, is returned as a witness.
    """
    if not isinstance(f, NcPoly):
        raise TypeError("expected an NcPoly")
    if f.is_zero():
        raise ValueError("the zero polynomial is not a meaningful candidate")
    if not isinstance(target, (CliffordPair, MatrixPair)):
        raise TypeError(f"unknown pair target {target!r}")
    for comp in multihomogeneous_components(f):
        n = len(next(iter(comp.terms)))  # before polarization makes n! words
        if n > max_degree:
            raise ValueError(f"degree {n} above cap {max_degree}")
        w = _component_witness(multilinearize(comp), target)
        if w is not None:
            return w
    return None

