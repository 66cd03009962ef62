"""The benchmark's workloads: seeded inputs, the operations run on them, and
the check of every answer against ``reference``.

``make_plan`` turns a workload name and a seed into plain data (strings,
ints, lists) without importing ``weakid``; ``prepare`` turns a plan into
operations on weakid's public API.  Each operation's answer is checked
against a reference that does not come from the code under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

import reference

WORKLOADS = ("decide", "kernel", "span", "solve")


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


# -- decide: a stream of `weakid --json check --pair P EXPR` calls ------------

_FORM_LETTERS = ("x1", "x2", "x3", "x4")  # letters of the linear forms u, v
_OUTER_LETTERS = ("y1", "y2", "y3")  # letters of the monomials A, B
# Letters of the extra monomial of a failing input.  With indices above all
# others, that monomial is a component of its own which the decision
# procedure reaches last, so a failing input costs what its identity part
# costs, plus one witness.
_FRESH_LETTERS = ("x5", "y5", "x6", "y6", "x7", "y7")
_COEFFS = ("", "2*", "3*", "1/2*", "3/2*", "2/3*", "5*")

# (pair, generator, total degree, count).  "sq" is [u^2,v] for linear forms
# u, v; "std" is S(k+1) on clifford:k and S(4) on m2.  Every stratum is half
# identities and half identities plus one monomial, so the verdict is known
# by construction.  An m2 check costs 10-100x a Clifford check of the same
# degree, so m2 strata are few and the S(5), S(6) Clifford strata are
# weighted up: the Clifford path carries most of the time.
DECIDE_STRATA = (
    [("clifford:%d" % k, "sq", d, 4) for k in range(1, 7) for d in range(3, 7)]
    + [("clifford:%d" % k, "std", d, 4) for k in range(1, 4) for d in range(max(3, k + 1), 7)]
    + [("clifford:4", "std", 5, 8), ("clifford:4", "std", 6, 8), ("clifford:5", "std", 6, 24)]
    + [("m2", "sq", 3, 4), ("m2", "sq", 4, 4), ("m2", "std", 4, 2), ("m2", "std", 5, 2)]
)


def _linear_form(rng: random.Random) -> dict[str, Fraction]:
    letters = rng.sample(_FORM_LETTERS, 2)
    return {g: Fraction(rng.choice(_COEFFS)[:-1] or 1) * rng.choice((1, -1)) for g in letters}


def _format_linear(form: dict[str, Fraction]) -> str:
    # the grammar has a leading "-" only at the start of a sum
    parts = []
    for g, c in form.items():
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign} {mag}{g}" if parts else f"{sign}{mag}{g}")
    return "(" + " ".join(parts) + ")"


def _proportional(u: dict[str, Fraction], v: dict[str, Fraction]) -> bool:
    if set(u) != set(v):
        return False
    ratios = {u[g] / v[g] for g in u}
    return len(ratios) == 1


def _decide_expr(rng: random.Random, pair: str, kind: str, degree: int, holds: bool) -> str:
    if kind == "sq":
        u = _linear_form(rng)
        v = _linear_form(rng)
        while _proportional(u, v):  # [u^2, v] = 0 when v is a multiple of u
            v = _linear_form(rng)
        core, core_deg = f"[{_format_linear(u)}^2,{_format_linear(v)}]", 3
    else:
        m = 4 if pair == "m2" else int(pair.split(":")[1]) + 1
        core, core_deg = f"S({m})", m
    extra = degree - core_deg
    cut = rng.randint(0, extra)
    word = [rng.choice(_OUTER_LETTERS) for _ in range(extra)]
    expr = "*".join(word[:cut] + [core] + word[cut:])
    if not holds:
        # no monomial is a weak identity of either pair (substitute e1 or H
        # for every letter), so adding one breaks the identity
        coeff = rng.choice(_COEFFS)
        expr += f" {rng.choice('+-')} {coeff}{'*'.join(rng.sample(_FRESH_LETTERS, degree))}"
    return expr


def _plan_decide(rng: random.Random) -> list[dict]:
    items = []
    for pair, kind, degree, count in DECIDE_STRATA:
        for i in range(count):
            holds = i % 2 == 0
            items.append({"pair": pair, "expr": _decide_expr(rng, pair, kind, degree, holds),
                          "holds": holds})
    rng.shuffle(items)
    return items


def _prepare_decide(item: dict, rng: random.Random) -> Op:
    from weakid import cli

    argv = ["--json", "check", "--pair", item["pair"], item["expr"]]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result) -> bool:
        code, text = result
        if code not in (0, 1):
            return False
        outcome = json.loads(text)["outcome"]
        return outcome["holds"] is item["holds"] and code == (0 if item["holds"] else 1)

    return Op(f"check {item['pair']} {item['expr']}", call, check)


# -- kernel: the degree-n dimension table, one evaluation_kernel per cell -----


def _plan_kernel(rng: random.Random) -> list[dict]:
    # n = k = 6 (9-12 s, 1.1 GB) and m2 at n = 6 (2-3 s) would leave room for
    # only one pass a run, and one sample of each cell is too noisy
    items = [{"n": n, "pair": f"clifford:{k}", "seeds": False}
             for n in (5, 6) for k in range(2, 6)]
    items += [{"n": n, "pair": "m2", "seeds": False} for n in (4, 5)]
    # the one cell run the way `weakid dim` runs by default
    items.append({"n": 6, "pair": "clifford:3", "seeds": True})
    rng.shuffle(items)
    return items


def _prepare_kernel(item: dict, rng: random.Random) -> Op:
    from weakid import structure
    from weakid.pairs import CliffordPair, MatrixPair

    n = item["n"]
    if item["pair"] == "m2":
        target, quotient = MatrixPair(), reference.m2_quotient(n)
    else:
        k = int(item["pair"].split(":")[1])
        target, quotient = CliffordPair.symbolic(k), reference.clifford_quotient(n, k)
    seeds = structure.DEFAULT_SEEDS if item["seeds"] else ()
    nfact = factorial(n)

    def check(rep) -> bool:
        return (rep.rows, rep.rank, rep.quotient_dim, rep.kernel_dim) == (
            nfact, quotient, quotient, nfact - quotient)

    return Op(f"dim n={n} {item['pair']}{' seeds' if seeds else ''}",
              lambda: structure.evaluation_kernel(n, target, seeds=seeds), check)


# -- span: consequence spans against evaluation kernels -----------------------


def _plan_span(rng: random.Random) -> list[dict]:
    items = [{"call": "theorem1", "n": n, "k": n} for n in (4, 5)]
    items += [{"call": "corollary1", "n": 5, "k": k} for k in (2, 3)]
    # c*[x_a^2, x_b]: the same span as [x1^2, x2] for every nonzero c, a != b.
    # At n = 6 this one call takes 15-19 s, one sample a run: too noisy.
    a, b = rng.sample(range(1, 6), 2)
    scale = [rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 4)]
    items.append({"call": "span", "n": 5, "k": 5, "gen": [a, b, *scale]})
    rng.shuffle(items)
    return items


def _prepare_span(item: dict, rng: random.Random) -> Op:
    from weakid import structure
    from weakid.freealg import NcPoly, commutator

    n, k = item["n"], item["k"]
    quotient = reference.clifford_quotient(n, k)
    span_rank = factorial(n) - quotient
    if item["call"] == "span":
        a, b, num, den = item["gen"]
        gen = Fraction(num, den) * commutator(NcPoly.gen(a) ** 2, NcPoly.gen(b))
        return Op(f"span n={n} {num}/{den}*[x{a}^2,x{b}]",
                  lambda: structure.consequence_span_dim(n, [gen]),
                  lambda rep: rep.rank == span_rank)

    def check(rep) -> bool:
        return (rep.ok and rep.containment_ok and rep.span.rank == span_rank
                and rep.kernel.quotient_dim == quotient)

    if item["call"] == "theorem1":
        return Op(f"theorem1 n={n}", lambda: structure.theorem1_check(n), check)
    return Op(f"corollary1 n={n} k={k}", lambda: structure.corollary1_check(n, k), check)


# -- solve: exact solving modulo the identities ------------------------------

# interleavings of polarized degree <= 6: (n, slot lengths, variant).  The
# letters of one input are distinct, so relabelling maps any draw to any
# other and the cost of a shape does not depend on the seed.
FACTOR_SHAPES = ((4, (1, 0, 1), "two-sided"), (3, (2, 1), "two-sided"),
                 (4, (1, 1, 0), "right"), (3, (2, 0), "right"))


def _plan_solve(rng: random.Random) -> list[dict]:
    items = [{"call": "lemma2", "n": 5, "k": k} for k in range(1, 5)]
    # the single degree-7 case: N^N sign vectors at N = 7
    items.append({"call": "lemma2", "n": 6, "k": 3})
    for n, lengths, variant in FACTOR_SHAPES:
        alphabet = range(1, n + 1) if variant == "right" else range(n + 1, n + 4)
        letters = rng.sample(alphabet, sum(lengths))
        ys = [[letters.pop() for _ in range(m)] for m in lengths]
        items.append({"call": "factor", "n": n, "ys": ys, "variant": variant})
    rng.shuffle(items)
    return items


def _prepare_solve(item: dict, rng: random.Random) -> Op:
    from weakid import structure

    n = item["n"]
    if item["call"] == "lemma2":
        k = item["k"]
        expect = reference.insertion_coeffs(n, k)
        return Op(f"lemma2 by evaluation n={n} k={k}",
                  lambda: structure.lemma2_coeffs_by_evaluation(n, k),
                  lambda got: tuple(got) == expect)

    ys = tuple(tuple(y) for y in item["ys"])
    lhs = reference.interleaved_sum(n, ys)
    sn = reference.standard(n)
    check_rng = random.Random(rng.random())

    def check(fac) -> bool:
        if fac.variant != item["variant"]:
            return False
        if fac.variant == "right":
            defect = reference.poly_sub(lhs, reference.poly_mul(sn, fac.right_factor.terms))
        else:
            defect = lhs
            for d, e in fac.pairs:
                term = reference.poly_mul(reference.poly_mul(d.terms, sn), e.terms)
                defect = reference.poly_sub(defect, term)
        dim = n + sum(len(y) for y in ys)
        return reference.vanishes_on_vectors(defect, dim, check_rng)

    return Op(f"factor n={n} ys={list(ys)}",
              lambda: structure.factor_through_standard(n, ys), check)


_PLANNERS = {"decide": _plan_decide, "kernel": _plan_kernel,
             "span": _plan_span, "solve": _plan_solve}
_PREPARERS = {"decide": _prepare_decide, "kernel": _prepare_kernel,
              "span": _prepare_span, "solve": _prepare_solve}


def make_plan(workload: str, seed: int) -> list[dict]:
    """The workload's inputs for this seed, as plain JSON-ready data."""
    return _PLANNERS[workload](random.Random(f"{workload}:{seed}"))


def prepare(workload: str, plan: list[dict], seed: int) -> list[Op]:
    """Operations on weakid's public API, each with its reference check."""
    rng = random.Random(f"{workload}:{seed}:check")
    return [_PREPARERS[workload](item, rng) for item in plan]
