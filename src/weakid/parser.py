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

Brackets nest at most MAX_NESTING deep.  parse_poly can bound the degree
from the syntax tree before expanding anything (degree_bound).  A power
that could reach MAX_POWER_BITS-bit coefficients is refused unexpanded.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .freealg import NcPoly, Word, commutator, jordan, standard_poly, word_key

# AST nodes: ("num", Fraction) | ("var", index) | ("sum", ((+-1, a), ...))
# | ("prod", (a, b, ...)) | ("pow", a, exponent) | ("comm", a, b)
# | ("jord", a, b) | ("std", n).  Sums and products are flat, so the depth
# of the tree grows with bracket nesting only.
ExprAst = tuple

MAX_NESTING = 100
MAX_POWER_BITS = 1 << 13


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


def degree_bound(ast: ExprAst) -> int:
    """An upper bound for the degree of the AST's polynomial, without
    expanding it (cancellation can only lower the degree)."""
    tag = ast[0]
    if tag in ("num", "var"):
        return int(tag == "var")
    if tag == "sum":
        return max(degree_bound(t) for _, t in ast[1])
    if tag == "prod":
        return sum(degree_bound(f) for f in ast[1])
    if tag == "pow":
        return ast[2] * degree_bound(ast[1])
    if tag in ("comm", "jord"):
        return degree_bound(ast[1]) + degree_bound(ast[2])
    if tag == "std":
        return ast[1]
    raise ValueError(f"unknown AST node {tag!r}")


def lower_expr(ast: ExprAst) -> NcPoly:
    """Lower an AST to a free-algebra polynomial."""
    tag = ast[0]
    if tag == "num":
        return NcPoly({(): ast[1]})
    if tag == "var":
        return NcPoly.gen(ast[1])
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
        sub = {i: var_index("x", i) for i in range(1, ast[1] + 1)}
        raw = standard_poly(ast[1])
        return NcPoly({tuple(sub[i] for i in w): c for w, c in raw.terms.items()})
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
    exceeds it raises ValueError before anything is expanded."""
    ast = parse_expr(text)
    if max_degree is not None:
        bound = degree_bound(ast)
        if bound > max_degree:
            raise ValueError(f"expression degree can reach {bound}, above the cap {max_degree}")
    return lower_expr(ast)


def _format_word(w: Word) -> str:
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        name = var_name(w[i])
        parts.append(name if run == 1 else f"{name}^{run}")
        i = j
    return "*".join(parts)


def format_expr(f: NcPoly) -> str:
    """Canonical parseable form: terms in degree-lex word order."""
    if f.is_zero():
        return "0"
    pieces = []
    for w, c in sorted(f.terms.items(), key=lambda t: word_key(t[0])):
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
