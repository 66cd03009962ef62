"""The free associative algebra over the rationals.

Words over a countable generator family x_1, x_2, ..., sparse noncommutative
polynomials, standard polynomials, the reversal involution, full
multilinearization (polarization), and linear substitution.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Word = tuple[int, ...]
Coeff = Union[int, Fraction]

DEFAULT_DEGREE_CAP = 7


def word_key(w: Word) -> tuple[int, Word]:
    """Degree-lexicographic order key for canonical printing and indexing."""
    return (len(w), w)


class NcPoly:
    """Sparse noncommutative polynomial: map from words to rational coefficients.

    Instances are treated as immutable; all operations return new polynomials.
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
            merged[w] = merged.get(w, Fraction(0)) + c
        return NcPoly(merged)

    __radd__ = __add__

    def __neg__(self):
        return NcPoly({w: -c for w, c in self.terms.items()})

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
            if not other:
                return NcPoly()
            return NcPoly({w: c * other for w, c in self.terms.items()})
        if not isinstance(other, NcPoly):
            return NotImplemented
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
        return NcPoly(out)

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
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            letters = "".join(f"x{i}" for i in w) or "1"
            if c == 1 and w:
                parts.append(letters)
            elif c == -1 and w:
                parts.append("-" + letters)
            elif not w:
                parts.append(str(c))
            else:
                parts.append(f"{c}*{letters}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"NcPoly({self})"


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
    terms: dict[Word, Fraction] = {}
    for perm, sign in _signed_permutations(n):
        terms[perm] = Fraction(sign)
    return NcPoly(terms)


def _signed_permutations(n: int) -> Iterable[tuple[Word, int]]:
    for perm in itertools.permutations(range(1, n + 1)):
        yield perm, perm_sign(perm)


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of distinct values."""
    sign = 1
    seen = [False] * len(perm)
    rank = {v: i for i, v in enumerate(sorted(perm))}
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = rank[perm[j]]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def star(f: NcPoly) -> NcPoly:
    """Reversal involution: each word is reversed, coefficients unchanged."""
    return NcPoly({w[::-1]: c for w, c in f.terms.items()})


def multidegree(f: NcPoly) -> dict[int, int]:
    """Common multidegree of all words of a multihomogeneous polynomial."""
    if f.is_zero():
        raise ValueError("multidegree of the zero polynomial is undefined")
    it = iter(f.terms)
    first = next(it)
    md = _word_multidegree(first)
    for w in it:
        if _word_multidegree(w) != md:
            raise ValueError(
                f"not multihomogeneous: words {first} and {w} have different multidegrees"
            )
    return md


def _word_multidegree(w: Word) -> dict[int, int]:
    md: dict[int, int] = {}
    for i in w:
        md[i] = md.get(i, 0) + 1
    return md


def multihomogeneous_components(f: NcPoly) -> list[NcPoly]:
    """Split into multihomogeneous components, in degree-lex order of a witness word."""
    groups: dict[tuple, dict[Word, Fraction]] = {}
    for w, c in f.terms.items():
        md = _word_multidegree(w)
        key = tuple(sorted(md.items()))
        groups.setdefault(key, {})[w] = c
    comps = [NcPoly(g) for g in groups.values()]
    comps.sort(key=lambda p: word_key(min(p.terms, key=word_key)))
    return comps


def is_multilinear(f: NcPoly) -> bool:
    try:
        md = multidegree(f)
    except ValueError:
        return False
    return all(d == 1 for d in md.values())


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
        positions = [i for i, letter in enumerate(w) if letter == g]
        for p in positions:
            new = w[:p] + (fresh,) + w[p + 1:]
            terms[new] = terms.get(new, Fraction(0)) + c
    return NcPoly(terms)


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
    out = NcPoly()
    for w, c in f.terms.items():
        prod = NcPoly({(): c})
        for letter in w:
            prod = prod * subst[letter]
        out = out + prod
    return out


def multilinear_words(n: int) -> list[Word]:
    """The n! degree-n multilinear words, in lexicographic order of the
    permutation.  Every dense multilinear computation (spans, evaluation
    kernels) starts here, so DEFAULT_DEGREE_CAP bounds them all."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > DEFAULT_DEGREE_CAP:
        raise ValueError(f"degree {n} above cap {DEFAULT_DEGREE_CAP}")
    return list(itertools.permutations(range(1, n + 1)))
