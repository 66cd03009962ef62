"""Clifford algebra of a diagonal symmetric bilinear form.

Basis blades are bitmasks over {1..k}; the form values q_i are symbolic by
default (generic non-degenerate form) or explicit nonzero rationals.
Includes the evaluation homomorphism from the free algebra and integer sign
matrices for evaluating multilinear polynomials at basis tuples, one column
per orbit of tuples under relabelling of the basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .freealg import NcPoly
from .scalars import Coeff, ParamPoly


@dataclass(frozen=True)
class FormParams:
    """Diagonal Gram values q_i = <e_i, e_i>; values=None means symbolic."""

    k: int
    values: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("form dimension k must be >= 1")
        if self.values is not None:
            vals = tuple(Fraction(v) for v in self.values)
            if len(vals) != self.k:
                raise ValueError(f"expected {self.k} form values, got {len(vals)}")
            if any(v == 0 for v in vals):
                raise ValueError("form values must be nonzero (non-degeneracy)")
            object.__setattr__(self, "values", vals)

    def q_coeff(self, i: int) -> ParamPoly:
        """q_i as a coefficient: the parameter itself, or its explicit value."""
        if not 1 <= i <= self.k:
            raise ValueError(f"index {i} out of range 1..{self.k}")
        if self.values is None:
            return ParamPoly.qvar(i, self.k)
        return ParamPoly.const(self.k, self.values[i - 1])


def blade_mul(a: int, b: int, form: FormParams) -> tuple[ParamPoly, int]:
    """Product of two basis blades: (coefficient, resulting blade).

    The coefficient is (-1)^s times the product of q_i over contracted
    indices, where s counts the transpositions needed to sort the
    concatenated index sequence.
    """
    limit = 1 << form.k
    if not (0 <= a < limit and 0 <= b < limit):
        raise ValueError(f"blade index out of range for k={form.k}")
    sign = 1
    acc = a
    coeff = ParamPoly.const(form.k, 1)
    for i in range(1, form.k + 1):
        bit = 1 << (i - 1)
        if not b & bit:
            continue
        # move e_i left past the accumulated indices greater than i
        if (acc >> i).bit_count() % 2:
            sign = -sign
        if acc & bit:
            coeff = coeff * form.q_coeff(i)
        acc ^= bit
    return coeff * Fraction(sign), acc


def blade_str(blade: int) -> str:
    if blade == 0:
        return "1"
    idx = [str(i + 1) for i in range(blade.bit_length()) if blade >> i & 1]
    return "e{" + ",".join(idx) + "}"


class CliffordElt:
    """Element of C_k: map from basis blades to ParamPoly coefficients."""

    __slots__ = ("form", "terms")

    def __init__(self, form: FormParams, terms: Mapping[int, ParamPoly | Coeff] | None = None):
        clean: dict[int, ParamPoly] = {}
        limit = 1 << form.k
        if terms:
            for blade, c in terms.items():
                if not 0 <= blade < limit:
                    raise ValueError(f"blade {blade:#x} out of range for k={form.k}")
                if not isinstance(c, ParamPoly):
                    c = ParamPoly.const(form.k, c)
                elif c.nparams != form.k:
                    raise ValueError("coefficient parameter count does not match form")
                if c:
                    prev = clean.get(blade)
                    total = c if prev is None else prev + c
                    if total:
                        clean[blade] = total
                    elif prev is not None:
                        del clean[blade]
        self.form = form
        self.terms = clean

    @classmethod
    def unit(cls, form: FormParams) -> "CliffordElt":
        return cls(form, {0: 1})

    @classmethod
    def basis_vector(cls, i: int, form: FormParams) -> "CliffordElt":
        if not 1 <= i <= form.k:
            raise ValueError(f"basis index {i} out of range 1..{form.k}")
        return cls(form, {1 << (i - 1): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, CliffordElt):
            return self.form == other.form and self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def _check(self, other: "CliffordElt"):
        if self.form != other.form:
            raise ValueError("dimension/form mismatch between Clifford elements")

    def __add__(self, other):
        if not isinstance(other, CliffordElt):
            return NotImplemented
        self._check(other)
        merged = dict(self.terms)
        for b, c in other.terms.items():
            merged[b] = merged.get(b, ParamPoly.zero(self.form.k)) + c
        return CliffordElt(self.form, merged)

    def __neg__(self):
        return CliffordElt(self.form, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, CliffordElt):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return self.scale(other)
        if not isinstance(other, CliffordElt):
            return NotImplemented
        self._check(other)
        out: dict[int, ParamPoly] = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                coeff, blade = blade_mul(b1, b2, self.form)
                contrib = c1 * c2 * coeff
                if contrib:
                    prev = out.get(blade)
                    total = contrib if prev is None else prev + contrib
                    if total:
                        out[blade] = total
                    elif prev is not None:
                        del out[blade]
        return CliffordElt(self.form, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: ParamPoly | Coeff) -> "CliffordElt":
        if not isinstance(c, ParamPoly):
            c = ParamPoly.const(self.form.k, c)
        return CliffordElt(self.form, {b: v * c for b, v in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for blade in sorted(self.terms):
            c = self.terms[blade]
            cs = str(c)
            needs_parens = " " in cs
            if blade == 0:
                parts.append(f"({cs})" if needs_parens else cs)
            elif cs == "1":
                parts.append(blade_str(blade))
            else:
                cs = f"({cs})" if needs_parens else cs
                parts.append(f"{cs}*{blade_str(blade)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CliffordElt({self})"


def cliff_mul(a: CliffordElt, b: CliffordElt, form: FormParams | None = None) -> CliffordElt:
    """Bilinear, associative, unital product of Clifford elements."""
    if form is not None and (a.form != form or b.form != form):
        raise ValueError("element forms do not match the given form")
    return a * b


def embed_vector(coords: Sequence[ParamPoly | Coeff], form: FormParams) -> CliffordElt:
    """Embed a vector of V_k (coordinates in the orthogonal basis) into C_k."""
    if len(coords) != form.k:
        raise ValueError(f"expected {form.k} coordinates, got {len(coords)}")
    return CliffordElt(form, {1 << i: c for i, c in enumerate(coords)})


def evaluate(f: NcPoly, assign: Mapping[int, CliffordElt], form: FormParams) -> CliffordElt:
    """The algebra homomorphism extending assign, applied to f."""
    missing = f.generators() - set(assign)
    if missing:
        raise ValueError(f"missing assignment for generators {sorted(missing)}")
    out = CliffordElt(form)
    for w, c in f.terms.items():
        prod = CliffordElt.unit(form)
        for letter in w:
            elt = assign[letter]
            if elt.form != form:
                raise ValueError("assigned element does not live in the given algebra")
            prod = prod * elt
        out = out + prod.scale(c)
    return out


# -- multilinear evaluation tables ---------------------------------------------
#
# For a sequence s in {1..k}^N of basis-vector indices the product
# e_{s_1}...e_{s_N} equals sign(s) * (monomial in q) * blade(s), where the
# q-monomial and the blade depend only on the multiset of s.  Multilinear
# evaluation therefore reduces to integer sign arithmetic.  The full k^N
# tables below are the reference that the orbit sign matrices further down
# are tested against.


def sequence_sign(seq: Sequence[int]) -> int:
    """Sign of the basis product e_{s_1}...e_{s_N} relative to its sorted form."""
    sign = 1
    acc = 0
    for i in seq:
        if (acc >> i).bit_count() % 2:
            sign = -sign
        acc ^= 1 << (i - 1)
    return sign


def tuple_q_exponents(seq: Sequence[int], k: int) -> tuple[int, ...]:
    """Exponent of q_i contributed by contractions: floor(count_i / 2)."""
    counts = [0] * k
    for i in seq:
        counts[i - 1] += 1
    return tuple(c // 2 for c in counts)


def tuple_blade(seq: Sequence[int]) -> int:
    blade = 0
    for i in seq:
        blade ^= 1 << (i - 1)
    return blade


@lru_cache(maxsize=32)
def sign_table(n: int, k: int) -> np.ndarray:
    """Array of shape (k,)*n with entry [t_1-1,..,t_n-1] = sequence_sign(t)."""
    flat = np.empty(k ** n, dtype=np.int8)
    for idx, seq in enumerate(itertools.product(range(1, k + 1), repeat=n)):
        flat[idx] = sequence_sign(seq)
    table = flat.reshape((k,) * n)
    table.setflags(write=False)
    return table


def word_sign_vector(word: Sequence[int], k: int) -> np.ndarray:
    """Signs of evaluating the multilinear word at every basis tuple.

    ``word`` must be a permutation of 1..n.  Entry at flat (C-order) index of
    tuple t is the sign of e_{t_{word_1}}...e_{t_{word_n}}.
    """
    n = len(word)
    table = sign_table(n, k)
    # want B[t] = table[t[word_1 - 1], ..., t[word_n - 1]]; np.transpose(table,
    # axes) satisfies B[t] = table[t[axes^{-1}]], so axes is the inverse of word
    axes = [0] * n
    for pos, g in enumerate(word):
        axes[g - 1] = pos
    return np.transpose(table, axes).ravel()


# -- one column per orbit of basis tuples ---------------------------------------
#
# Relabelling the basis vectors by a permutation of 1..k multiplies the sign
# of every word at a tuple by one common +-1: it reverses the order of some
# pairs of distinct labels, which changes each word's inversion count by the
# same sum of count products.  Columns of the full k^n sign table therefore
# agree up to sign inside an orbit, and each orbit has exactly one restricted
# growth string (labels in order of first appearance), which is also its
# lexicographically first tuple.


@lru_cache(maxsize=32)
def orbit_representatives(n: int, k: int) -> np.ndarray:
    """Restricted growth strings of length n with at most k blocks.

    Rows are 1-based label tuples in lexicographic order: one per orbit of
    {1..k}^n under permutations of the labels, and the first tuple of it.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    reps: list[tuple[int, ...]] = [()]
    for _ in range(n):
        reps = [r + (i,) for r in reps for i in range(1, min(max(r, default=0) + 1, k) + 1)]
    out = np.array(reps, dtype=np.int8)
    out.setflags(write=False)
    return out


def orbit_sign_matrix(words: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """Signs of each multilinear word at each orbit representative.

    ``words`` are permutations of 1..n; entry [i, j] is the sign of
    e_{r_{w_1}}...e_{r_{w_n}} for word i and the j-th row r of
    ``orbit_representatives(n, k)``.  The sign is the parity of the strict
    inversions of that label sequence (equal to ``sequence_sign``).  A pair
    of letters g < h is an inversion when the word's order of g and h
    disagrees with the order of their labels; over GF(2) that count is
    [r_g < r_h] plus [g precedes h in w] * [r_g != r_h], summed over the
    pairs, so it reduces to one AND and popcount of bit-packed pair masks.
    """
    w = np.asarray(words, dtype=np.intp)
    n = w.shape[1]
    reps = orbit_representatives(n, k)
    g, h = np.triu_indices(n, 1)
    pos = np.empty_like(w)
    pos[np.arange(len(w))[:, None], w - 1] = np.arange(n)
    g_first = np.packbits(pos[:, g] < pos[:, h], axis=1)  # (words, pair bytes)
    differ = np.packbits(reps[:, g] != reps[:, h], axis=1)  # (reps, pair bytes)
    below = ((reps[:, g] < reps[:, h]).sum(axis=1) & 1).astype(np.uint8)
    common = np.zeros((len(w), len(reps)), dtype=np.uint8)
    for byte in range(g_first.shape[1]):  # one (words, reps) array at a time
        common ^= g_first[:, byte, None] & differ[:, byte]
    odd = (np.bitwise_count(common) ^ below) & 1
    return np.where(odd, np.int8(-1), np.int8(1))


def signed_sums(coeffs, signs: np.ndarray) -> np.ndarray:
    """Exact ``coeffs @ signs`` for integer coefficients and a matrix of
    entries in {-1, 0, 1}.

    A float64 (BLAS) product when every row of coefficients fits in int64
    and has sum of magnitudes below 2^53, so that every partial sum is an
    exactly represented integer; Python integers otherwise.
    """
    try:
        c = np.asarray(coeffs, dtype=np.int64)
    except OverflowError:
        c = None
    if c is not None:
        cf = c.astype(np.float64)
        if (np.abs(cf).sum(axis=-1) < 2**53).all():
            return (cf @ signs.astype(np.float64)).astype(np.int64)
    return np.asarray(coeffs, dtype=object) @ signs.astype(object)
