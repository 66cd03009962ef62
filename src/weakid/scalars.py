"""Exact scalar arithmetic.

Arbitrary-precision rationals (stdlib ``fractions.Fraction``) and commutative
multivariate polynomials in the bilinear-form parameters q_1, ..., q_k.
Everything here is exact; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

Coeff = Union[int, Fraction]


class ParamPoly:
    """Commutative polynomial in q_1..q_k with rational coefficients.

    Terms map dense exponent tuples (length ``nparams``) to nonzero
    coefficients.  Instances are treated as immutable values.
    """

    __slots__ = ("nparams", "terms")

    def __init__(self, nparams: int, terms: Mapping[Sequence[int], Coeff] | None = None):
        if nparams < 0:
            raise ValueError("nparams must be non-negative")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(exp)
                if len(exp) != nparams:
                    raise ValueError(
                        f"exponent vector {exp} has length {len(exp)}, expected {nparams}"
                    )
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = Fraction(c)
                if c:
                    prev = clean.get(exp)
                    total = c if prev is None else prev + c
                    if total:
                        clean[exp] = total
                    elif prev is not None:
                        del clean[exp]
        self.nparams = nparams
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, nparams: int, value: Coeff) -> "ParamPoly":
        return cls(nparams, {(0,) * nparams: Fraction(value)})

    @classmethod
    def zero(cls, nparams: int) -> "ParamPoly":
        return cls(nparams)

    @classmethod
    def qvar(cls, i: int, nparams: int) -> "ParamPoly":
        """The parameter q_i (1-based)."""
        if not 1 <= i <= nparams:
            raise ValueError(f"parameter index {i} out of range 1..{nparams}")
        exp = tuple(1 if j == i - 1 else 0 for j in range(nparams))
        return cls(nparams, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, nparams: int, exp: Sequence[int], coeff: Coeff = 1) -> "ParamPoly":
        return cls(nparams, {tuple(exp): Fraction(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * self.nparams, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, ParamPoly):
            return self.nparams == other.nparams and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == ParamPoly.const(self.nparams, other)
        return NotImplemented

    __hash__ = None  # mutable-dict backed; not hashable

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            if other.nparams != self.nparams:
                raise ValueError(
                    f"parameter-count mismatch: {self.nparams} vs {other.nparams}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(self.nparams, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self.terms)
        for exp, c in other.terms.items():
            merged[exp] = merged.get(exp, Fraction(0)) + c
        return ParamPoly(self.nparams, merged)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.nparams, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, Fraction(0)) + c1 * c2
        return ParamPoly(self.nparams, out)

    __rmul__ = __mul__

    # -- specialization ----------------------------------------------------

    def specialize(self, assign: Mapping[int, Coeff] | Sequence[Coeff]) -> Fraction:
        """Evaluate at q_i -> assign[i] (1-based mapping or full sequence).

        Every parameter actually occurring in the polynomial must be covered.
        """
        if not isinstance(assign, Mapping):
            assign = {i + 1: v for i, v in enumerate(assign)}
        total = Fraction(0)
        for exp, c in self.terms.items():
            val = c
            for i, e in enumerate(exp):
                if e:
                    if i + 1 not in assign:
                        raise ValueError(f"missing assignment for parameter q{i + 1}")
                    val *= Fraction(assign[i + 1]) ** e
            total += val
        return total

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exp]
            factors = [
                f"q{i + 1}" if e == 1 else f"q{i + 1}^{e}"
                for i, e in enumerate(exp)
                if e
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"ParamPoly({self})"
