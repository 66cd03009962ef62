"""Evaluation targets and the weak-identity decision procedure.

A pair is an algebra together with a distinguished substitution space:
either a Clifford algebra with its vector space, or the 2x2 matrices with
the traceless subspace.  A polynomial is a weak identity of a pair when it
vanishes under every substitution of elements of that subspace; over the
rationals this is decided by multilinearizing each multihomogeneous
component and evaluating at all tuples of basis elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
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
from .scalars import Coeff


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
    """Labelled basis of the substitution space, in the fixed order."""
    if isinstance(target, CliffordPair):
        return [
            (f"e{i}", CliffordElt.basis_vector(i, target.form))
            for i in range(1, target.k + 1)
        ]
    if isinstance(target, MatrixPair):
        return [("E", MAT_E), ("F", MAT_F), ("H", MAT_H)]
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


def _relabel_multilinear(ml: NcPoly) -> tuple[NcPoly, list[int]]:
    """Rename the generators of a multilinear polynomial to 1..n (sorted)."""
    letters = sorted(ml.generators())
    rename = {g: i + 1 for i, g in enumerate(letters)}
    relabeled = NcPoly({tuple(rename[i] for i in w): c for w, c in ml.terms.items()})
    return relabeled, letters


def _int_coeff_rows(ml: NcPoly) -> tuple[list[tuple[int, ...]], list[int]]:
    words = [w for w, _ in ml.sorted_terms()]
    den = lcm(*(ml.terms[w].denominator for w in words))
    coeffs = [int(ml.terms[w] * den) for w in words]
    return words, coeffs


def _clifford_component_witness(ml: NcPoly, pair: CliffordPair) -> Witness | None:
    """First failing basis tuple of a multilinear polynomial, or None.

    All words of ml are permutations of the same letters, so at a fixed
    basis tuple every term evaluates to a common (nonzero) q-monomial and
    blade times an integer sign; vanishing is a pure integer statement, and
    it is enough to test one tuple per orbit of basis relabellings.
    """
    relabeled, letters = _relabel_multilinear(ml)
    words, coeffs = _int_coeff_rows(relabeled)
    sums = clifford.signed_sums(coeffs, clifford.orbit_sign_matrix(words, pair.k))
    bad = np.flatnonzero(sums)
    if bad.size == 0:
        return None
    # an orbit's representative is its lexicographically first tuple, so the
    # first failing representative is the first failing tuple overall
    reps = clifford.orbit_representatives(len(letters), pair.k)
    basis_idx = [int(i) for i in reps[bad[0]]]
    assignment = {g: f"e{basis_idx[j]}" for j, g in enumerate(letters)}
    elements = {
        g: CliffordElt.basis_vector(basis_idx[j], pair.form)
        for j, g in enumerate(letters)
    }
    value = clifford.evaluate(ml, elements, pair.form)
    assert not value.is_zero()
    return Witness(assignment=assignment, value=value, component=ml)


def _matrix_component_witness(ml: NcPoly, target: MatrixPair) -> Witness | None:
    relabeled, letters = _relabel_multilinear(ml)
    n = len(letters)
    basis = substitution_basis(target)
    # product of each basis-index sequence, shared across words
    seq_prod: dict[tuple[int, ...], Mat2] = {}
    for seq in itertools.product(range(3), repeat=n):
        prod = MAT_I
        for i in seq:
            prod = prod * basis[i][1]
        seq_prod[seq] = prod
    for t in itertools.product(range(3), repeat=n):
        total = Mat2(0, 0, 0, 0)
        for w, c in relabeled.terms.items():
            total = total + seq_prod[tuple(t[g - 1] for g in w)] * c
        if not total.is_zero():
            assignment = {g: basis[t[j]][0] for j, g in enumerate(letters)}
            return Witness(assignment=assignment, value=total, component=ml)
    return None


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
    for comp in multihomogeneous_components(f):
        ml = multilinearize(comp)
        n = len(ml.generators())
        if n > max_degree:
            raise ValueError(f"degree {n} above cap {max_degree}")
        if isinstance(target, CliffordPair):
            w = _clifford_component_witness(ml, target)
        elif isinstance(target, MatrixPair):
            w = _matrix_component_witness(ml, target)
        else:
            raise TypeError(f"unknown pair target {target!r}")
        if w is not None:
            return w
    return None


def random_invertible_substitution(n: int, rng) -> dict[int, NcPoly]:
    """Random invertible linear substitution on x_1..x_n with small entries."""
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if _det(rows):
            break
    return {
        i + 1: NcPoly({(j + 1,): rows[i][j] for j in range(n) if rows[i][j]})
        for i in range(n)
    }


def _det(rows: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            fct = m[i][col] / m[col][col]
            m[i] = [x - fct * y for x, y in zip(m[i], m[col])]
    return det
