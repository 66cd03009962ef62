"""Evaluation targets and the weak-identity decision procedure.

A pair is an algebra together with a distinguished substitution space:
either a Clifford algebra with its vector space, or the 2x2 matrices with
the traceless subspace.  A polynomial is a weak identity of a pair when it
vanishes under every substitution of elements of that subspace; over the
rationals this is decided by multilinearizing each multihomogeneous
component and evaluating at all tuples of basis elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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


def _clifford_component_witness(ml: NcPoly, pair: CliffordPair) -> Witness | None:
    """First failing basis tuple of a multilinear polynomial, or None.

    All words of ml are permutations of the same letters, so at a fixed
    basis tuple every term evaluates to a common (nonzero) q-monomial and
    blade times an integer sign; vanishing is a pure integer statement, and
    it is enough to test one tuple per orbit of basis relabellings.  The
    value at the failing tuple is its signed sum over den times that
    q-monomial and blade.
    """
    words, coeffs, den = _integer_rows(ml)
    sums = exact_product([coeffs], clifford.orbit_sign_matrix(words, pair.k))[0]
    bad = np.flatnonzero(sums)
    if bad.size == 0:
        return None
    # an orbit's representative is its lexicographically first tuple, so the
    # first failing representative is the first failing tuple overall
    rep = [int(i) for i in clifford.orbit_representatives(words.shape[1], pair.k)[bad[0]]]
    exps = clifford.tuple_q_exponents(rep, pair.k)
    coeff = prod((pair.form.q_coeff(i) for i, e in enumerate(exps, 1) for _ in range(e)),
                 start=ParamPoly.const(pair.k, Fraction(int(sums[bad[0]]), den)))
    return Witness(
        assignment={g: f"e{rep[j]}" for j, g in enumerate(sorted(ml.generators()))},
        value=CliffordElt(pair.form, {clifford.tuple_blade(rep): coeff}),
        component=ml,
    )


#: The M2 witness search takes basis tuples in blocks whose float64
#: evaluation matrix holds about this many entries (1 MB).
BLOCK_ENTRIES = 1 << 17


@lru_cache(maxsize=16)
def m2_product_table(n: int) -> np.ndarray:
    """Entries (a, b, c, d) of the products of all 3^n sequences of E, F, H,
    in ``itertools.product(range(3), repeat=n)`` order, by n batched 2x2
    products.  E, F and H are signed partial permutation matrices, so every
    product is one too and fits in int8."""
    basis = np.array([m.entries() for m in (MAT_E, MAT_F, MAT_H)], dtype=np.int8)
    table = np.eye(2, dtype=np.int8)[None]
    for _ in range(n):
        table = (table[:, None] @ basis.reshape(1, 3, 2, 2)).reshape(-1, 2, 2)
    out = table.reshape(-1, 4)
    out.setflags(write=False)
    return out


def m2_evaluation_matrix(words: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Entries of multilinear words evaluated at E, F, H basis tuples.

    ``words`` is an int array of permutations of 1..n; the columns run over
    (tuple, entry) for the tuples start..stop-1 of
    ``itertools.product(range(3), repeat=n)``, four entries each.  Word w at
    tuple t is the product with sequence index sum t[w_i] * 3^(n-1-i).
    """
    n = words.shape[1]
    place = 3 ** np.arange(n - 1, -1, -1)
    weight = np.empty(words.shape, dtype=np.int64)  # 3^(n-1-i) at letter w_i
    weight[np.arange(len(words))[:, None], words - 1] = place
    stop = 3**n if stop is None else min(stop, 3**n)
    digits = np.arange(start, stop)[:, None] // place % 3
    return m2_product_table(n)[weight @ digits.T].reshape(len(words), -1)


def _matrix_component_witness(ml: NcPoly, target: MatrixPair) -> Witness | None:
    """First basis tuple of E, F, H at which a multilinear polynomial is
    nonzero, or None; the tuples are searched in blocks, in order."""
    words, coeffs, den = _integer_rows(ml)
    n = words.shape[1]
    step = max(1, BLOCK_ENTRIES // (4 * len(words)))
    for start in range(0, 3**n, step):
        sums = exact_product([coeffs], m2_evaluation_matrix(words, start, start + step))[0]
        bad = np.flatnonzero(sums)
        if bad.size:
            at = bad[0] // 4
            t = np.unravel_index(start + at, (3,) * n)
            basis = substitution_basis(target)
            return Witness(
                assignment={g: basis[t[j]][0] for j, g in enumerate(sorted(ml.generators()))},
                value=Mat2(*(Fraction(int(s), den) for s in sums[4 * at:4 * at + 4])),
                component=ml,
            )
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
        n = len(next(iter(comp.terms)))  # before polarization makes n! words
        if n > max_degree:
            raise ValueError(f"degree {n} above cap {max_degree}")
        ml = multilinearize(comp)
        if isinstance(target, CliffordPair):
            w = _clifford_component_witness(ml, target)
        elif isinstance(target, MatrixPair):
            w = _matrix_component_witness(ml, target)
        else:
            raise TypeError(f"unknown pair target {target!r}")
        if w is not None:
            return w
    return None

