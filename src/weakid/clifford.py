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
from math import prod
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

    def monomial(self, c: Coeff, exps: Sequence[int]) -> ParamPoly:
        """c times the product of q_i^exps[i-1]: symbolic, or at the values."""
        if self.values is None:
            return ParamPoly.monomial(self.k, exps, c)
        return ParamPoly.const(self.k, prod((v ** e for v, e in zip(self.values, exps) if e),
                                            start=Fraction(c)))


def basis_product(labels: Sequence[int], k: int, blade: int = 0) -> tuple[int, tuple, int]:
    """e_blade e_{l_1} ... e_{l_N} in C_k as (sign, q-exponents, blade).

    The basis vectors are multiplied onto the blade one at a time: e_i moves
    left past the higher vectors already in the blade (one sign each), then
    contracts with e_i to q_i if the blade holds it.  The product is
    sign * prod q_i^exps[i-1] * e_blade; the exponents and the blade depend
    only on the multiset of labels and the starting blade.
    """
    sign, exps = 1, [0] * k
    for i in labels:
        if (blade >> i).bit_count() % 2:
            sign = -sign
        if blade >> (i - 1) & 1:
            exps[i - 1] += 1
        blade ^= 1 << (i - 1)
    return sign, tuple(exps), blade


def blade_mul(a: int, b: int, form: FormParams) -> tuple[ParamPoly, int]:
    """Product of two basis blades: (coefficient, resulting blade), with
    b's basis vectors multiplied onto a in increasing order."""
    limit = 1 << form.k
    if not (0 <= a < limit and 0 <= b < limit):
        raise ValueError(f"blade index out of range for k={form.k}")
    sign, exps, blade = basis_product([i for i in range(1, form.k + 1) if b >> (i - 1) & 1],
                                      form.k, a)
    return form.monomial(sign, exps), blade


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
# e_{s_1}...e_{s_N} is basis_product(s, k): a sign times a q-monomial and a
# blade that depend only on the multiset of s.  Multilinear evaluation
# therefore reduces to integer sign arithmetic.  The full k^N tables below
# are the reference that the orbit sign matrices further down are tested
# against.


@lru_cache(maxsize=32)
def sign_table(n: int, k: int) -> np.ndarray:
    """Array of shape (k,)*n with entry [t_1-1,..,t_n-1] the sign of
    e_{t_1}...e_{t_n}."""
    flat = np.empty(k ** n, dtype=np.int8)
    for idx, seq in enumerate(itertools.product(range(1, k + 1), repeat=n)):
        flat[idx] = basis_product(seq, k)[0]
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


@lru_cache(maxsize=32)
def _orbit_pair_masks(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The word-independent half of orbit_sign_matrix, read-only: the pairs
    g < h of letters (two index arrays), the packed bits [r_g != r_h] of
    each representative r (reps, pair bytes) and the parity of its
    [r_g < r_h] count."""
    reps = orbit_representatives(n, k)
    g, h = np.triu_indices(n, 1)
    differ = np.packbits(reps[:, g] != reps[:, h], axis=1)
    below = ((reps[:, g] < reps[:, h]).sum(axis=1) & 1).astype(np.int8)
    for a in (g, h, differ, below):
        a.setflags(write=False)
    return g, h, differ, below


def orbit_sign_matrix(words: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """Signs of each multilinear word at each orbit representative.

    ``words`` are permutations of 1..n; entry [i, j] is the sign of
    e_{r_{w_1}}...e_{r_{w_n}} for word i and the j-th row r of
    ``orbit_representatives(n, k)``.  The sign is the parity of the strict
    inversions of that label sequence (the sign of ``basis_product``).  A pair
    of letters g < h is an inversion when the word's order of g and h
    disagrees with the order of their labels; over GF(2) that count is
    [r_g < r_h] plus [g precedes h in w] * [r_g != r_h], summed over the
    pairs, so it reduces to one AND and popcount of bit-packed pair masks.
    """
    return next(orbit_sign_blocks(words, k, len(orbit_representatives(len(words[0]), k))))


def reversal_odd(n: int, k: int) -> np.ndarray:
    """Whether each orbit representative r has an odd number of pairs of
    places with different labels.  Reversing a word turns exactly those
    pairs, so it multiplies the word's sign at r by -1 when this holds."""
    return (np.bitwise_count(_orbit_pair_masks(n, k)[2]).sum(axis=1) & 1).astype(bool)


def orbit_sign_blocks(words: Sequence[Sequence[int]], k: int, step: int):
    """The columns of orbit_sign_matrix(words, k), ``step`` representatives
    at a time and in their order, each block a fresh int8 array (the
    transpose of a C-ordered one): the word masks are built once, and each
    block takes a row slice of the cached pair masks."""
    w = np.asarray(words, dtype=np.intp)
    n = w.shape[1]
    g, h, differ, below = _orbit_pair_masks(n, k)
    # places in the narrowest dtype (uint8 below 257 letters): its two
    # (words, pairs) copies take 26 MB at degree 9, where intp took 209 MB
    pos = np.empty(w.shape, dtype=np.min_scalar_type(max(n - 1, 0)))
    pos[np.arange(len(w))[:, None], w - 1] = np.arange(n)
    # (pair bytes, words): a block is built along the words, its long axis
    g_first = np.packbits(pos[:, g] < pos[:, h], axis=1).T.copy()
    del w, pos  # the blocks need only g_first: 29 MB fewer at degree 9
    for start in range(0, len(below), step):
        cols = slice(start, start + step)
        parity = below[cols, None]
        if len(g_first):  # one (reps, words) array at a time, from the first pair byte
            common = differ[cols, 0, None] & g_first[0]
            for byte in range(1, len(g_first)):
                common ^= differ[cols, byte, None] & g_first[byte]
        else:  # degree 0 or 1: no pair of letters
            common = np.zeros((len(parity), g_first.shape[1]), dtype=np.uint8)
        # the sign 1 - 2 * parity, computed in place in the popcount buffer
        signs = np.bitwise_count(common, out=common).view(np.int8)
        signs ^= parity
        signs &= 1
        signs *= -2
        signs += 1
        yield signs.T
