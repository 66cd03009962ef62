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

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm, prod
from typing import ClassVar, Mapping, Union

import numpy as np

from . import clifford
from .clifford import CliffordElt, FormParams
from .freealg import (
    DEFAULT_DEGREE_CAP,
    NcPoly,
    multihomogeneous_components,
    multilinearize,
    word_key,
)
from .linalg import _signed_dtype, exact_product
from .parser import MAX_TERMS, ParsedPoly, RowComponent
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

    #: The form at which (M_2, sl_2) is (C_3, V_3).
    form: ClassVar[FormParams] = FormParams(3, (1, 1, -1))


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

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    __repr__ = __str__


MAT_E = Mat2(0, 1, 0, 0)
MAT_F = Mat2(0, 0, 1, 0)
MAT_H = Mat2(1, 0, 0, -1)
MAT_I = Mat2(1, 0, 0, 1)

#: phi of the blades of C_3 by index: the products of h1 = H, h2 = E+F,
#: h3 = E-F in increasing order.
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


def _batch_rows(mls: list) -> tuple[np.ndarray, list, list[int]]:
    """Multilinear components of one degree as integer rows: the words of
    all, stacked in order, each one's with its letters renamed to 1..n in
    sorted order (an int array, one row per word); and the coefficients of
    each times their common denominator den, and den.  A parser
    RowComponent gives its rows as they are; a run of NcPolys is read in
    one pass."""
    parts, rows, dens = [], [], []
    for kind, run in itertools.groupby(mls, key=type):
        if kind is RowComponent:
            for comp in run:
                parts.append(comp.words)
                rows.append(comp.coeffs)
                dens.append(comp.den)
            continue
        run = list(run)
        n = len(next(iter(run[0].terms)))
        count = sum(len(ml.terms) for ml in run)
        letters = itertools.chain.from_iterable(
            itertools.chain.from_iterable(ml.terms for ml in run))
        words = np.fromiter(letters, dtype=np.intp, count=count * n).reshape(count, n)
        start = 0
        for ml in run:
            end = start + len(ml.terms)
            # renamed in place; every word has the same letters
            words[start:end] = np.array(sorted(next(iter(ml.terms)))).searchsorted(words[start:end])
            start = end
            coeffs = ml.terms.values()
            den = lcm(*{c.denominator for c in coeffs})
            rows.append([c.numerator for c in coeffs] if den == 1
                        else [c.numerator * (den // c.denominator) for c in coeffs])
            dens.append(den)
        words += 1
        parts.append(words)
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)), rows, dens


def _degree(comp) -> int:
    """The degree of a multihomogeneous component."""
    return len(comp.letters) if isinstance(comp, RowComponent) else len(next(iter(comp.terms)))


def _multilinear(comp, max_degree: int):
    """A multihomogeneous component, multilinearized; the component itself
    when no letter repeats in it (S_n, A * S_n * B, a fresh monomial, and
    every parser RowComponent).

    Its multidegree is read from one sorted word.  A component of degree
    above max_degree, or one whose polarization could have more than
    parser.MAX_TERMS words (its terms times prod d_i! over its
    multidegree), is refused before it is polarized.
    """
    if isinstance(comp, RowComponent):
        letters, size = comp.letters, len(comp.words)
    else:  # every word has the component's multidegree
        letters, size = sorted(next(iter(comp.terms))), len(comp.terms)
    n = len(letters)
    if n > max_degree:
        raise ValueError(f"degree {n} above cap {max_degree}")
    words = size * prod(map(factorial, Counter(letters).values()))
    if words > MAX_TERMS:
        raise ValueError(f"polarizing a degree-{n} component can give {words} words, "
                         f"above the cap {MAX_TERMS}")
    return comp if words == size else multilinearize(comp)


#: Signs per block of the orbit search (words times representatives), and
#: entries per batch of components (components times words).
ORBIT_BLOCK_ENTRIES = 1 << 22


def _components(f: NcPoly) -> list:
    """The multihomogeneous components of f, in degree-lex order of their
    least words: NcPolys, and the RowComponents of a ParsedPoly as they are."""
    if not isinstance(f, ParsedPoly):
        return multihomogeneous_components(f)
    return sorted([*multihomogeneous_components(f.rest), *f.components], key=lambda c: word_key(
        c.first if isinstance(c, RowComponent) else min(c.terms)))


def _batches(f: NcPoly, max_degree: int):
    """The components of f through _multilinear, in order, in batches:
    consecutive components of one degree, with components times words
    within ORBIT_BLOCK_ENTRIES, the entries of the batch's block-diagonal
    coefficient matrix (thousands of one-word components make batches,
    not a quadratic matrix).  A component is polarized only once
    every batch of a lower degree is yielded; one that _multilinear refuses
    ends the batch before it, which is yielded before the refusal is raised."""
    batch: list = []
    words = 0
    for comp in _components(f):
        if batch and _degree(comp) != _degree(batch[0]):
            yield batch
            batch, words = [], 0
        try:
            ml = _multilinear(comp, max_degree)
        except ValueError:
            if batch:
                yield batch
            raise
        size = len(ml.words) if isinstance(ml, RowComponent) else len(ml.terms)
        if batch and (len(batch) + 1) * (words + size) > ORBIT_BLOCK_ENTRIES:
            yield batch
            batch, words = [], 0
        batch.append(ml)
        words += size
    if batch:
        yield batch


def _first_failing_orbit(mls: list, k: int) -> tuple[int, int, Fraction] | None:
    """The first of multilinear polynomials of one degree n that is nonzero
    at some basis tuple of e1..ek, the index of its first such orbit
    representative, and its signed sum over its den; None if all vanish.

    All words of one polynomial are permutations of the same letters, so at
    a fixed basis tuple every term evaluates to a common (nonzero)
    q-monomial and blade times an integer sign; vanishing is a pure integer
    statement, and it is enough to test one tuple per orbit of basis
    relabellings.  The tuple holds one label per letter in sorted order.
    The words of all the polynomials share one orbit sign matrix, and a
    block-diagonal matrix of their integer coefficients (one row each)
    times it gives every polynomial's sums at once.  The orbits are summed
    a block of ORBIT_BLOCK_ENTRIES signs at a time.  A row that fails in a
    block has its first failing representative there, as blocks come in
    representative order; the later blocks are summed only for the rows
    above the first failing one.
    """
    words, rows, dens = _batch_rows(mls)
    # converted once, in a dtype narrow enough (int8 for most polynomials)
    # that _product_dtype bounds each block's sums with no pass over it
    top = max(int(abs(row).max()) if isinstance(row, np.ndarray) else max(map(abs, row))
              for row in rows)
    matrix = np.zeros((len(rows), len(words)), dtype=_signed_dtype(top))
    ends = list(itertools.accumulate(map(len, rows)))
    for i, (row, end) in enumerate(zip(rows, ends)):
        matrix[i, end - len(row):end] = row
    step = max(1, ORBIT_BLOCK_ENTRIES // len(words))
    live, found = len(mls), None
    for block, signs in enumerate(clifford.orbit_sign_blocks(words, k, step)):
        cut = ends[live - 1]
        sums = exact_product(matrix[:live, :cut], signs[:cut])
        bad = np.flatnonzero(sums.any(axis=1))
        if bad.size:
            live = int(bad[0])
            col = int(np.flatnonzero(sums[live])[0])
            found = live, block * step + col, Fraction(int(sums[live, col]), dens[live])
            if not live:
                break
    return found


def _batch_witness(mls: list, target: PairTarget) -> Witness | None:
    """The first failing basis tuple of the first failing one of multilinear
    polynomials of one degree as a witness, with its value: the signed sum
    times the tuple's q-monomial and blade, in C_k or, through phi, in M_2.

    A degree-n polynomial uses at most n basis labels, so on a symbolic
    clifford:k with k > n it is decided as clifford:n (clifford:1 for the
    constant): the same tuples, the same witness and the same printed
    value, with no k-sized exponent vector."""
    n = _degree(mls[0])
    if isinstance(target, CliffordPair) and target.form.values is None and target.k > n:
        target = CliffordPair.symbolic(max(n, 1))
    form = target.form
    found = _first_failing_orbit(mls, form.k)
    if found is None:
        return None
    row, index, c = found
    rep = clifford.orbit_representatives(n, form.k)[index].tolist()
    _, exps, blade = clifford.basis_product(rep, form.k)
    coeff = form.monomial(c, exps)
    if isinstance(target, CliffordPair):
        value, labels = CliffordElt(form, {blade: coeff}), [f"e{i}" for i in rep]
    else:
        value = _M2_BLADES[blade] * coeff.constant_value()
        basis = substitution_basis(target)
        labels = [basis[i - 1][0] for i in rep]
    comp = mls[row]
    if isinstance(comp, RowComponent):  # its NcPoly is expanded when read
        letters, comp = comp.letters, ParsedPoly(NcPoly._wrap({}), (comp,))
    else:
        letters = sorted(next(iter(comp.terms)))
    return Witness(assignment=dict(zip(letters, labels)), value=value, component=comp)


def is_weak_identity(
    f: NcPoly, target: PairTarget, max_degree: int = DEFAULT_DEGREE_CAP
) -> Witness | None:
    """Decide whether f is a weak identity of the pair; None means it holds.

    Each multihomogeneous component must vanish separately (infinite ground
    field), is multilinearized (valid in characteristic 0) unless it is
    multilinear already, and is evaluated at every tuple of
    substitution-space basis elements (valid by multilinearity).  The first
    nonzero evaluation, in the fixed enumeration order, is returned as a
    witness.  Components past the caps of _multilinear are refused.

    Consecutive components of one degree are decided together, a batch at
    a time (_batches): one orbit sign matrix and one product per block.  A
    failing component ahead of a larger one of its degree therefore pays
    for one block of the larger one's signs.  The S(n) summands of a
    parser.ParsedPoly are decided from their rows, never expanded.
    """
    if not isinstance(f, NcPoly):
        raise TypeError("expected an NcPoly")
    if f.is_zero():
        raise ValueError("the zero polynomial is not a meaningful candidate")
    if not isinstance(target, (CliffordPair, MatrixPair)):
        raise TypeError(f"unknown pair target {target!r}")
    for batch in _batches(f, max_degree):
        w = _batch_witness(batch, target)
        if w is not None:
            return w
    return None
