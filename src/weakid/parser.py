"""Expression syntax for free-algebra polynomials.

Grammar (whitespace insignificant):

    expr   := ["-"] term { ("+"|"-") term }
    term   := factor { "*" factor }
    factor := atom [ "^" natural ]
    atom   := rational | var | "(" expr ")" | "[" expr "," expr "]"
            | "jord(" expr "," expr ")" | "S(" natural ")"
    var    := ("x"|"y") natural
    rational := natural [ "/" natural ]

"[f,g]" is the commutator, "jord(f,g)" the Jordan product, "S(n)" the
standard polynomial in x1..xn.  Variables map to generator indices by
x<N> -> 2N-1 and y<N> -> 2N, so the two families never collide.

parse_poly lowers each top-level summand c * w1 * S(m) * w2 whose letters
are all distinct (c a product of constants, w1 and w2 products of
variables) straight to integer rows: one RowComponent per multidegree, built in numpy from the
sign recurrence of S(m).  The other summands are expanded to an NcPoly as
before; the result, a ParsedPoly, expands the rows only when its terms are
read.

Brackets nest at most MAX_NESTING deep.  parse_poly can bound the degree
and the number of terms from the syntax tree before expanding anything
(_bounds).  A power that could reach MAX_POWER_BITS-bit coefficients is
refused unexpanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import factorial, lcm, prod

import numpy as np

from .freealg import NcPoly, Word, _alternating, _permutation_rows, commutator, jordan

# AST nodes: ("num", Fraction) | ("var", index) | ("sum", ((+-1, a), ...))
# | ("prod", (a, b, ...)) | ("pow", a, exponent) | ("comm", a, b)
# | ("jord", a, b) | ("std", n).  Sums and products are flat, so the depth
# of the tree grows with bracket nesting only.
ExprAst = tuple

MAX_NESTING = 100
MAX_POWER_BITS = 1 << 13
MAX_TERMS = 10**6


class ParseError(ValueError):
    """Syntax error with a 0-based position into the input string."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def var_index(kind: str, num: int) -> int:
    """Generator index of x<num> (odd indices) or y<num> (even indices)."""
    if num < 1:
        raise ValueError("variable numbers start at 1")
    return 2 * num - 1 if kind == "x" else 2 * num


def var_name(index: int) -> str:
    return f"x{(index + 1) // 2}" if index % 2 else f"y{index // 2}"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.eat(ch):
            raise self.error(f"expected {ch!r}")

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start:self.pos])

    def expr(self) -> ExprAst:
        terms = [(-1 if self.eat("-") else 1, self.term())]
        while True:
            if self.eat("+"):
                terms.append((1, self.term()))
            elif self.eat("-"):
                terms.append((-1, self.term()))
            elif len(terms) == 1 and terms[0][0] == 1:
                return terms[0][1]
            else:
                return ("sum", tuple(terms))

    def nested(self) -> ExprAst:
        """An expression inside an opened bracket."""
        if self.depth == MAX_NESTING:
            raise self.error(f"brackets nested more than {MAX_NESTING} deep")
        self.depth += 1
        node = self.expr()
        self.depth -= 1
        return node

    def term(self) -> ExprAst:
        factors = [self.factor()]
        while self.eat("*"):
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else ("prod", tuple(factors))

    def factor(self) -> ExprAst:
        node = self.atom()
        if self.eat("^"):
            at = self.pos
            e = self.natural()
            if e == 0:
                raise ParseError("exponent must be positive", at)
            node = ("pow", node, e)
        return node

    def atom(self) -> ExprAst:
        ch = self.peek()
        if ch.isdigit():
            num = self.natural()
            if self.eat("/"):
                at = self.pos
                den = self.natural()
                if den == 0:
                    raise ParseError("zero denominator", at)
                return ("num", Fraction(num, den))
            return ("num", Fraction(num))
        if ch in ("x", "y"):
            self.pos += 1
            return ("var", var_index(ch, self.natural()))
        if ch == "(":
            self.pos += 1
            node = self.nested()
            self.expect(")")
            return node
        if ch == "[":
            self.pos += 1
            a = self.nested()
            self.expect(",")
            b = self.nested()
            self.expect("]")
            return ("comm", a, b)
        if self.text.startswith("jord", self.pos):
            self.pos += 4
            self.expect("(")
            a = self.nested()
            self.expect(",")
            b = self.nested()
            self.expect(")")
            return ("jord", a, b)
        if ch == "S":
            self.pos += 1
            self.expect("(")
            at = self.pos
            n = self.natural()
            if n == 0:
                raise ParseError("S(n) needs n >= 1", at)
            self.expect(")")
            return ("std", n)
        raise self.error("expected a rational, variable, or bracketed expression")


def parse_expr(text: str) -> ExprAst:
    """Parse to an AST; raises ParseError with the offending position."""
    p = _Parser(text)
    node = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("unexpected trailing input")
    return node


def _bounds(ast: ExprAst) -> tuple[int, int]:
    """Upper bounds for the degree and the number of terms of the AST's
    polynomial, in one walk and without expanding it (cancellation can only
    lower either).  The term bound saturates at MAX_TERMS + 1; a subtree of
    degree bound 0 is a single constant term."""
    tag = ast[0]
    if tag in ("num", "var"):
        return int(tag == "var"), 1
    if tag == "pow":
        degree, terms = _bounds(ast[1])
        degree, terms = ast[2] * degree, terms ** min(ast[2], 64)  # 2^64 is past the cap
    elif tag == "std":
        degree, terms = ast[1], factorial(min(ast[1], 20))  # 20! is past the cap
    elif tag == "sum":
        degrees, counts = zip(*(_bounds(t) for _, t in ast[1]))
        degree, terms = max(degrees), sum(counts)
    elif tag in ("prod", "comm", "jord"):
        degrees, counts = zip(*map(_bounds, ast[1] if tag == "prod" else ast[1:]))
        degree, terms = sum(degrees), prod(counts) * (1 if tag == "prod" else 2)
    else:
        raise ValueError(f"unknown AST node {tag!r}")
    return degree, min(terms, MAX_TERMS + 1) if degree else 1


def lower_expr(ast: ExprAst) -> NcPoly:
    """Lower an AST to a free-algebra polynomial."""
    tag = ast[0]
    # the leaves hold what the tokenizer made: a Fraction, a positive index
    if tag == "num":
        return NcPoly._from_terms({(): ast[1]})  # drops a literal 0
    if tag == "var":
        return NcPoly._wrap({(ast[1],): Fraction(1)})
    if tag == "sum":
        (sign, first), *rest = ast[1]
        out = lower_expr(first) if sign > 0 else -lower_expr(first)
        for sign, t in rest:
            out = out + lower_expr(t) if sign > 0 else out - lower_expr(t)
        return out
    if tag == "prod":
        out = lower_expr(ast[1][0])
        for f in ast[1][1:]:
            out = out * lower_expr(f)
        return out
    if tag == "pow":
        return _power(lower_expr(ast[1]), ast[2])
    if tag == "comm":
        return commutator(lower_expr(ast[1]), lower_expr(ast[2]))
    if tag == "jord":
        return jordan(lower_expr(ast[1]), lower_expr(ast[2]))
    if tag == "std":
        # S(n) in the surface variables x1..xn
        return _alternating([var_index("x", i) for i in range(1, ast[1] + 1)])
    raise ValueError(f"unknown AST node {tag!r}")


def _power(base: NcPoly, e: int) -> NcPoly:
    """base ** e; ValueError first if its coefficients could exceed
    MAX_POWER_BITS bits.  With base = (sum of a_w w) / den in integers, every
    coefficient of the power is at most (sum |a_w|)^e over den^e."""
    den = lcm(*(c.denominator for c in base.terms.values()))
    norm = int(sum(map(abs, base.terms.values())) * den)
    bits = e * ((max(norm, 1) - 1).bit_length() + (den - 1).bit_length())
    if bits > MAX_POWER_BITS:
        raise ValueError(f"power ^{e} can reach {bits}-bit coefficients, above {MAX_POWER_BITS}")
    return base ** e


def parse_poly(text: str, max_degree: int | None = None) -> NcPoly:
    """Parse and expand; with max_degree, an expression whose degree bound
    exceeds it, or whose term bound exceeds MAX_TERMS, raises ValueError
    before anything is expanded.  The result equals lower_expr's; when a
    top-level summand is some c * w1 * S(m) * w2 with distinct letters, it
    is a ParsedPoly that holds those summands as RowComponents."""
    ast = parse_expr(text)
    if max_degree is not None:
        degree, terms = _bounds(ast)
        if degree > max_degree:
            raise ValueError(f"expression degree can reach {degree}, above the cap {max_degree}")
        if terms > MAX_TERMS:
            raise ValueError(f"expression can expand to more than {MAX_TERMS} terms")
    return _lower_summands(ast) if "S" in text else lower_expr(ast)  # S( starts every S(n)


@dataclass(frozen=True, eq=False)
class RowComponent:
    """A multilinear multihomogeneous component as integer rows.

    letters are its generators in increasing order; words its words with
    the letters renamed to 1..n in that order (an intp array, one row per
    word); coeffs their integer coefficients (int64, or object for Python
    ints past int64) over the common denominator den; first its least word,
    in the original letters, by word_key.
    """

    letters: tuple[int, ...]
    words: np.ndarray
    coeffs: np.ndarray
    den: int
    first: Word

    def poly(self) -> NcPoly:
        """The component as an NcPoly, expanded here."""
        named = np.array((0, *self.letters))[self.words].tolist()
        values = self.coeffs.tolist()
        scaled = {c: Fraction(c, self.den) for c in set(values)}
        return NcPoly._wrap(dict(zip(map(tuple, named), map(scaled.__getitem__, values))))


class ParsedPoly(NcPoly):
    """A parsed polynomial: rest, the NcPoly of its other summands, plus
    RowComponents of multidegrees that no word of rest has.  Its terms are
    expanded on first read; is_zero reads neither."""

    __slots__ = ("rest", "components", "_terms")

    def __init__(self, rest: NcPoly, components: tuple[RowComponent, ...]):
        self.rest, self.components, self._terms = rest, components, None

    @property
    def terms(self) -> dict[Word, Fraction]:
        if self._terms is None:
            terms = dict(self.rest.terms)
            for comp in self.components:
                terms.update(comp.poly().terms)
            self._terms = terms
        return self._terms

    def is_zero(self) -> bool:
        return self.rest.is_zero() and not self.components

    def __bool__(self) -> bool:
        return not self.is_zero()


def _standard_summand(node: ExprAst) -> tuple[Fraction, list[int], int, list[int]] | None:
    """(c, w1, m, w2) when the summand is a product of one S(m), constants c
    (factors of degree bound 0), and the variables of w1 before S(m) and of
    w2 after it, with no letter twice; None otherwise."""
    factors = node[1] if node[0] == "prod" else (node,)
    at = [i for i, factor in enumerate(factors) if factor[0] == "std"]
    if len(at) != 1:
        return None
    c, words, m = Fraction(1), ([], []), factors[at[0]][1]
    for i, factor in enumerate(factors):
        if factor[0] == "var":
            words[i > at[0]].append(factor[1])
        elif factor[0] == "num":
            c *= factor[1]
        elif i != at[0]:
            if _bounds(factor)[0]:
                return None
            c *= lower_expr(factor).coeff(())
    letters = {*words[0], *words[1], *range(1, 2 * m, 2)}
    if len(letters) != len(words[0]) + m + len(words[1]):
        return None
    return c, words[0], m, words[1]


def _lower_summands(ast: ExprAst) -> NcPoly:
    """lower_expr(ast), with its top-level S(m) summands (_standard_summand)
    as RowComponents.  The words of the other summands whose multidegree is
    one of theirs join their component."""
    rest, groups = None, {}
    for sign, node in ast[1] if ast[0] == "sum" else ((1, ast),):
        shape = _standard_summand(node)
        if shape is None:  # summed as lower_expr sums
            term = lower_expr(node)
            if rest is None:
                rest = term if sign > 0 else -term
            else:
                rest = rest + term if sign > 0 else rest - term
        elif shape[0]:
            c, w1, m, w2 = shape
            key = tuple(sorted((*w1, *range(1, 2 * m, 2), *w2)))
            groups.setdefault(key, ([], []))[0].append((sign * c, w1, m, w2))
    if rest is None:
        rest = NcPoly._wrap({})
    if not groups:
        return rest
    degrees = {len(key) for key in groups}
    moved = set()
    for w, c in rest.terms.items():
        if len(w) in degrees and (group := groups.get(tuple(sorted(w)))) is not None:
            group[1].append((w, c))
            moved.add(w)
    if moved:
        rest = NcPoly._wrap({w: c for w, c in rest.terms.items() if w not in moved})
    comps = (_row_component(key, *sources) for key, sources in groups.items())
    comps = tuple(comp for comp in comps if comp is not None)
    return ParsedPoly(rest, comps) if comps else rest


def _row_component(letters: Word, standard: list, expanded: list) -> RowComponent | None:
    """The sum of the S(m) summands (c, w1, m, w2) and the terms (w, c) of
    one multidegree, all in the given letters, as a RowComponent; None when
    it cancels.  Words that occur twice are summed."""
    rank = {g: i + 1 for i, g in enumerate(letters)}
    den = lcm(*(c.denominator for c, *_ in standard), *(c.denominator for _, c in expanded))
    scales = [int(c * den) for c, *_ in standard]
    ints = [int(c * den) for _, c in expanded]
    # no partial sum of a word's coefficient exceeds the sum of them all
    dtype = np.int64 if sum(map(abs, scales + ints)) < 2**63 else object
    blocks, coeffs = [], []
    for (_, w1, m, w2), scale in zip(standard, scales):
        perms, odd = _permutation_rows(m)
        block = np.empty((len(perms), len(letters)), dtype=np.intp)
        block[:, :len(w1)] = [rank[g] for g in w1]
        block[:, len(w1):len(w1) + m] = np.array([rank[g] for g in range(1, 2 * m, 2)]).take(perms)
        block[:, len(w1) + m:] = [rank[g] for g in w2]
        blocks.append(block)
        coeffs.append((1 - 2 * odd).astype(dtype) * scale)
    if expanded:
        blocks.append(np.array([[rank[g] for g in w] for w, _ in expanded], dtype=np.intp))
        coeffs.append(np.array(ints, dtype=dtype))
    if len(blocks) == 1:
        words, values = blocks[0], coeffs[0]
    else:
        words, inverse = np.unique(np.concatenate(blocks), axis=0, return_inverse=True)
        values = np.zeros(len(words), dtype=dtype)
        np.add.at(values, inverse.ravel(), np.concatenate(coeffs))
        keep = values != 0
        if not keep.any():
            return None
        words, values = words[keep], values[keep]
    # the least word: row 0 of one S(m) block, or of np.unique's sorted rows
    first = tuple(letters[r - 1] for r in words[0].tolist())
    return RowComponent(letters, words, values, den, first)


def _format_word(w: Word) -> str:
    runs = [(var_name(g), len(list(run))) for g, run in groupby(w)]
    return "*".join(name if size == 1 else f"{name}^{size}" for name, size in runs)


def format_expr(f: NcPoly) -> str:
    """Canonical parseable form: terms in degree-lex word order."""
    if f.is_zero():
        return "0"
    pieces = []
    for w, c in f.sorted_terms():
        neg = c < 0
        mag = -c if neg else c
        word = _format_word(w)
        if not w:
            body = str(mag)
        elif mag == 1:
            body = word
        else:
            body = f"{mag}*{word}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)
