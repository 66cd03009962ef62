"""The free associative algebra over the rationals.

Words over a countable generator family x_1, x_2, ..., sparse noncommutative
polynomials, standard polynomials, the reversal involution, full
multilinearization (polarization), and linear substitution.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

Word = tuple[int, ...]
Coeff = Union[int, Fraction]

DEFAULT_DEGREE_CAP = 7


def word_key(w: Word) -> tuple[int, Word]:
    """Degree-lexicographic order key for canonical printing and indexing."""
    return (len(w), w)


class NcPoly:
    """Sparse noncommutative polynomial: map from words to rational coefficients.

    Instances are treated as immutable; all operations return new polynomials.
    Every instance keeps one invariant: the keys of ``terms`` are tuples of
    positive ints and its values are nonzero Fractions.  The public
    constructor checks its input against it; the operations below build
    their results from polynomials that already hold it and check nothing
    again: through ``_wrap`` where no two terms can cancel, through
    ``_from_terms``, which drops zero values, where some can.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Sequence[int], Coeff] | None = None):
        clean: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                w = tuple(w)
                if any(not isinstance(i, int) or i < 1 for i in w):
                    raise ValueError(f"generator indices must be positive integers: {w}")
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"coefficient {c!r} is not rational")
                c = Fraction(c)
                if c:
                    total = clean.get(w, Fraction(0)) + c
                    if total:
                        clean[w] = total
                    elif w in clean:
                        del clean[w]
        self.terms = clean

    @classmethod
    def _from_terms(cls, terms: Mapping[Word, Fraction]) -> "NcPoly":
        """A polynomial from a map whose keys are tuples of positive ints and
        whose values are Fractions.  Nothing is checked; zero values are
        dropped."""
        return cls._wrap({w: c for w, c in terms.items() if c})

    @classmethod
    def _wrap(cls, terms: dict[Word, Fraction]) -> "NcPoly":
        """A polynomial that takes terms as they are: a fresh dict whose keys
        are tuples of positive ints and whose values are nonzero Fractions."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "NcPoly":
        return cls()

    @classmethod
    def one(cls) -> "NcPoly":
        return cls({(): 1})

    @classmethod
    def gen(cls, i: int) -> "NcPoly":
        return cls({(i,): 1})

    @classmethod
    def monomial(cls, word: Sequence[int], coeff: Coeff = 1) -> "NcPoly":
        return cls({tuple(word): coeff})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, NcPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == NcPoly({(): other})
        return NotImplemented

    __hash__ = None

    def coeff(self, word: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(word), Fraction(0))

    def generators(self) -> set[int]:
        return {i for w in self.terms for i in w}

    def max_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: word_key(t[0]))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NcPoly({(): other})
        if not isinstance(other, NcPoly):
            return NotImplemented
        merged = dict(self.terms)
        for w, c in other.terms.items():
            prev = merged.get(w)
            if prev is None:
                merged[w] = c
            elif total := prev + c:
                merged[w] = total
            else:
                del merged[w]
        return NcPoly._wrap(merged)

    __radd__ = __add__

    def __neg__(self):
        return NcPoly._wrap({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NcPoly({(): other})
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return NcPoly._wrap({w: c * s for w, c in self.terms.items()} if s else {})
        if not isinstance(other, NcPoly):
            return NotImplemented
        # a factor that is one word with coefficient 1 only extends the
        # other's words, which stay distinct: the general product below,
        # without its Fraction products (y * S_n, S_n * y, d * S_n * e)
        if (w2 := _unit_word(other)) is not None:
            return NcPoly._wrap({w1 + w2: c1 for w1, c1 in self.terms.items()})
        if (w1 := _unit_word(self)) is not None:
            return NcPoly._wrap({w1 + w2: c2 for w2, c2 in other.terms.items()})
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                prev = out.get(w)
                out[w] = c if prev is None else prev + c
        return NcPoly._from_terms(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        out, base = NcPoly.one(), self
        while e:  # square and multiply: powers of one element commute
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __str__(self) -> str:
        """The parser's form, with x/y names: parse_poly reads it back."""
        from .parser import format_expr  # parser builds on this module

        return format_expr(self)

    def __repr__(self) -> str:
        return f"NcPoly({self})"


def _unit_word(f: NcPoly) -> Word | None:
    """The word of f when f is that one word with coefficient 1, else None."""
    if len(f.terms) == 1:
        ((w, c),) = f.terms.items()
        if c == 1:
            return w
    return None


def commutator(f: NcPoly, g: NcPoly) -> NcPoly:
    """[f, g] = fg - gf."""
    return f * g - g * f


def jordan(f: NcPoly, g: NcPoly) -> NcPoly:
    """Jordan product f∘g = (fg + gf) / 2."""
    return (f * g + g * f) * Fraction(1, 2)


#: The commutator [x_1^2, x_2]: the statement that squares of substituted
#: elements are central.  Generates the weak-identity ideal under study.
SQUARE_COMMUTATOR = commutator(NcPoly.gen(1) ** 2, NcPoly.gen(2))


def standard_poly(n: int) -> NcPoly:
    """The alternating polynomial S_n = sum over S_n of sign(s) x_{s(1)}..x_{s(n)}."""
    if n < 1:
        raise ValueError("standard polynomial needs n >= 1")
    return _alternating(range(1, n + 1))


def _alternating(letters: Sequence[int]) -> NcPoly:
    """The sum of sign(s) times the word of the letters in the order s, over
    all permutations s, in itertools.permutations order; for increasing
    letters, S_n in those letters."""
    signs = (Fraction(1), Fraction(-1))
    odd = _permutation_rows(len(letters))[1].tolist()
    return NcPoly._wrap(
        {perm: signs[o] for perm, o in zip(itertools.permutations(letters), odd)}
    )


def _permutation_rows(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The permutations of 0..m-1 in itertools.permutations order, one int8
    row each, and their parities (int8, 1 for odd).

    In that order the permutations with first entry a are a followed by
    those of m - 1 with every entry >= a raised by one.  That first entry
    adds a inversions: the parities for m are those for m - 1, flipped in
    every odd block of (m - 1)! rows."""
    perms = np.zeros((1, min(m, 1)), dtype=np.int8)
    odd = np.zeros(1, dtype=np.int8)
    for size in range(2, m + 1):
        first = np.arange(size, dtype=np.int8)[:, None]
        block = np.empty((size, len(perms), size), dtype=np.int8)
        block[:, :, 0] = first
        rest = block[:, :, 1:]
        rest[...] = perms
        rest += rest >= first[:, :, None]
        perms = block.reshape(-1, size)
        odd = (odd ^ (first & 1)).ravel()
    return perms, odd


def star(f: NcPoly) -> NcPoly:
    """Reversal involution: each word is reversed, coefficients unchanged."""
    return NcPoly._wrap({w[::-1]: c for w, c in f.terms.items()})


def multidegree(f: NcPoly) -> dict[int, int]:
    """Common multidegree of all words of a multihomogeneous polynomial."""
    if f.is_zero():
        raise ValueError("multidegree of the zero polynomial is undefined")
    it = iter(f.terms)
    first = next(it)
    key = sorted(first)  # two words have one multidegree iff their sorted letters agree
    for w in it:
        if sorted(w) != key:
            raise ValueError(
                f"not multihomogeneous: words {first} and {w} have different multidegrees"
            )
    md: dict[int, int] = {}
    for i in first:
        md[i] = md.get(i, 0) + 1
    return md


def multihomogeneous_components(f: NcPoly) -> list[NcPoly]:
    """Split into multihomogeneous components, in degree-lex order of a witness word."""
    groups: dict[Word, dict[Word, Fraction]] = {}
    prev = None
    for w, c in f.terms.items():
        key = sorted(w)
        if key != prev:  # words of one component mostly come in runs
            prev = key
            group = groups.setdefault(tuple(key), {})
        group[w] = c
    comps = [NcPoly._wrap(g) for g in groups.values()]
    comps.sort(key=lambda p: word_key(min(p.terms)))  # a component's words have one length
    return comps


def multilinearize(f: NcPoly) -> NcPoly:
    """Full polarization of a multihomogeneous polynomial.

    Each generator of degree d > 1 is replaced by d generators via iterated
    polarization (substitute x := x + x', keep the part linear in x').  The
    result is multilinear and unscaled: integer multiples are not divided out.
    Fresh generators take the smallest indices not occurring in the input,
    assigned in increasing order as the original generators are processed
    in increasing order.
    """
    md = multidegree(f)
    used = set(md)
    fresh_iter = (i for i in itertools.count(1) if i not in used)
    out = f
    for g in sorted(md):
        for _ in range(md[g] - 1):
            fresh = next(fresh_iter)
            out = _polarize(out, g, fresh)
    return out


def _polarize(f: NcPoly, g: int, fresh: int) -> NcPoly:
    """Substitute g -> g + fresh and keep the part of degree 1 in fresh."""
    terms: dict[Word, Fraction] = {}
    for w, c in f.terms.items():
        for p, letter in enumerate(w):
            if letter == g:
                new = w[:p] + (fresh,) + w[p + 1:]
                prev = terms.get(new)
                terms[new] = c if prev is None else prev + c
    return NcPoly._from_terms(terms)


def substitute_linear(f: NcPoly, subst: Mapping[int, NcPoly]) -> NcPoly:
    """Apply the algebra endomorphism induced by a linear substitution.

    Every generator occurring in f must be mapped to a linear combination of
    generators (a polynomial all of whose words have length 1).
    """
    for g, val in subst.items():
        if any(len(w) != 1 for w in val.terms):
            raise ValueError(f"substitution for x{g} is not a linear combination of generators")
    missing = f.generators() - set(subst)
    if missing:
        raise ValueError(f"substitution missing generators {sorted(missing)}")
    out: dict[Word, Fraction] = {}
    for w, c in f.terms.items():
        prod = NcPoly._from_terms({(): c})
        for letter in w:
            prod = prod * subst[letter]
        for pw, pc in prod.terms.items():
            prev = out.get(pw)
            out[pw] = pc if prev is None else prev + pc
    return NcPoly._from_terms(out)


def _check_dense_degree(n: int) -> None:
    """DEFAULT_DEGREE_CAP bounds every computation over the n! multilinear
    words (evaluation kernels); consequence spans are ranked one partition
    at a time instead, up to structure.ISOTYPIC_DEGREE_CAP."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > DEFAULT_DEGREE_CAP:
        raise ValueError(f"degree {n} above cap {DEFAULT_DEGREE_CAP}")


def multilinear_words(n: int) -> list[Word]:
    """The n! degree-n multilinear words, in lexicographic order of the
    permutation (the rows of _permutation_rows(n)[0] + 1)."""
    _check_dense_degree(n)
    return list(itertools.permutations(range(1, n + 1)))
