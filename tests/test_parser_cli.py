import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakid
from weakid import cli, pairs, parser
from weakid.cli import Report, build_parser, main
from weakid.freealg import NcPoly, commutator, jordan, standard_poly
from weakid.linalg import exact_rank
from weakid.pairs import CliffordPair, MatrixPair
from weakid.parser import (
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_TERMS,
    ParseError,
    _bounds,
    format_expr,
    lower_expr,
    parse_expr,
    parse_poly,
    var_index,
    var_name,
)

from oracles import component_loop_witness, oracle_span_vectors

x = NcPoly.gen


class TestVarMapping:
    def test_interleaved_indices(self):
        assert var_index("x", 1) == 1
        assert var_index("y", 1) == 2
        assert var_index("x", 3) == 5
        assert var_index("y", 3) == 6

    def test_round_trip(self):
        for i in range(1, 20):
            kind = "x" if i % 2 else "y"
            num = (i + 1) // 2
            assert var_name(i) == f"{kind}{num}"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            var_index("x", 0)


class TestParser:
    def test_variables(self):
        assert parse_poly("x1") == x(1)
        assert parse_poly("y2") == x(4)

    def test_arithmetic(self):
        assert parse_poly("x1*x2 - x2*x1") == x(1) * x(3) - x(3) * x(1)
        assert parse_poly("2*x1 + 3/2*y1") == 2 * x(1) + Fraction(3, 2) * x(2)
        assert parse_poly("-x1") == -x(1)

    def test_leaves_keep_the_invariant(self):
        # number and variable leaves are built unchecked: Fraction values,
        # and a literal 0 is still dropped
        for text, want in [("0", NcPoly.zero()), ("0*x1 + y3", x(6)), ("0/5", NcPoly.zero()),
                           ("x12", x(23)), ("4/6", NcPoly.one() * Fraction(2, 3))]:
            got = parse_poly(text)
            assert got == want
            assert all(isinstance(c, Fraction) and c for c in got.terms.values())

    def test_power(self):
        assert parse_poly("x1^3") == x(1) ** 3
        assert parse_poly("(x1+x2)^2") == (x(1) + x(3)) ** 2

    def test_commutator_and_jordan(self):
        assert parse_poly("[x1,x2]") == commutator(x(1), x(3))
        assert parse_poly("jord(x1,x2)") == jordan(x(1), x(3))
        assert parse_poly("[x1^2,x2]") == commutator(x(1) ** 2, x(3))

    def test_standard(self):
        s2 = parse_poly("S(2)")
        assert s2 == x(1) * x(3) - x(3) * x(1)

    def test_standard_in_place_equals_renamed_standard_poly(self):
        # values and key order of S(n) renamed from letters 1..n to x1..xn
        for n in range(1, 8):
            renamed = {tuple(var_index("x", i) for i in w): c
                       for w, c in standard_poly(n).terms.items()}
            got = lower_expr(("std", n)).terms
            assert list(got.items()) == list(renamed.items())

    def test_whitespace_insensitive(self):
        assert parse_poly(" [ x1 ^ 2 , x2 ] ") == parse_poly("[x1^2,x2]")

    def test_precedence(self):
        assert parse_poly("x1 + x2*x3") == x(1) + x(3) * x(5)
        assert parse_poly("(x1 + x2)*x3") == (x(1) + x(3)) * x(5)

    def test_nested(self):
        f = parse_poly("[[x1,x2],x3] - 1/3*jord(x1,[x2,x3])")
        want = commutator(commutator(x(1), x(3)), x(5)) - Fraction(1, 3) * jordan(
            x(1), commutator(x(3), x(5))
        )
        assert f == want


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,pos",
        [
            ("x1*(", 4),
            ("x1 +", 4),
            ("[x1,x2", 6),
            ("x1 x2", 3),
            ("1/0", 2),
            ("x1^0", 3),
            ("S(0)", 2),
            ("x", 1),
            ("", 0),
        ],
    )
    def test_position(self, text, pos):
        with pytest.raises(ParseError) as ei:
            parse_expr(text)
        assert ei.value.pos == pos
        assert f"position {pos}" in str(ei.value)

    def test_is_value_error(self):
        with pytest.raises(ValueError):
            parse_poly("@@")

    def test_nesting_limit(self):
        deep = "(" * 2000 + "x1" + ")" * 2000
        with pytest.raises(ParseError, match="nested") as ei:
            parse_expr(deep)
        assert ei.value.pos == MAX_NESTING + 1
        assert parse_poly("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING) == x(1)
        brackets = "[" * MAX_NESTING + "x1,x2]" + ",x3]" * (MAX_NESTING - 1)
        assert _bounds(parse_expr(brackets))[0] == MAX_NESTING + 1

    def test_long_flat_sums_and_products(self):
        assert parse_poly(" + ".join(["x1"] * 3000)) == 3000 * x(1)
        assert _bounds(parse_expr("*".join(["x1"] * 3000)))[0] == 3000


class TestDegreeBound:
    @pytest.mark.parametrize(
        "text,bound",
        [
            ("3/2", 0),
            ("x1 + x2*x3 - 1", 2),
            ("(x1 + x2)^40", 40),
            ("[x1^2, x2]*y1", 4),
            ("jord(x1, x2*x3)", 3),
            ("S(12)", 12),
            ("x1^3 - x1^3 + x2", 3),  # cancellation is not seen
        ],
    )
    def test_values(self, text, bound):
        assert _bounds(parse_expr(text))[0] == bound

    def test_bound_never_below_degree(self):
        rng = random.Random(303)
        for _ in range(100):
            ast = parse_expr(random_expr(rng))
            assert lower_expr(ast).max_degree() <= _bounds(ast)[0]

    def test_cap_applies_before_expansion(self):
        with pytest.raises(ValueError, match="degree can reach 40, above the cap 7"):
            parse_poly("(x1+x2)^40", max_degree=7)
        assert parse_poly("x1^7", max_degree=7) == x(1) ** 7


class TestTermBound:
    @pytest.mark.parametrize(
        "text,bound",
        [
            ("3/2", 1),
            ("(1+1)^100000000", 1),  # a constant is one term
            ("x1 + x2*x3 - 1", 3),
            ("(x1 + x2)^3", 8),
            ("(x1 + x2)*(x3 - x4 + 2)", 6),
            ("[x1^2, x2]*y1", 2),
            ("jord(x1 + x2, x3)", 4),
            ("S(5)", 120),
            ("(x1 + x2)^40", MAX_TERMS + 1),  # saturated
            ("S(1000000000)", MAX_TERMS + 1),
        ],
    )
    def test_values(self, text, bound):
        assert _bounds(parse_expr(text))[1] == bound

    def test_bound_never_below_term_count(self):
        rng = random.Random(304)
        for _ in range(100):
            ast = parse_expr(random_expr(rng))
            assert len(lower_expr(ast).terms) <= _bounds(ast)[1]

    def test_one_walk_for_both_bounds(self, monkeypatch):
        # parse_poly visits each node once for the degree and the term bound
        # together: the 2 * 12 + 1 nodes of 12 nested commutators
        brackets = "[" * 12 + "x1,x2]" + ",x3]" * 11
        visits, real = [], parser._bounds
        monkeypatch.setattr(parser, "_bounds", lambda ast: visits.append(ast) or real(ast))
        assert parse_poly(brackets, max_degree=13).max_degree() == 13
        assert len(visits) == 2 * 12 + 1

    def test_cap_applies_before_expansion(self):
        with pytest.raises(ValueError, match=f"more than {MAX_TERMS} terms"):
            parse_poly("(x1+x2+x3+x4+x5+x6+x7+x8+x9+x10)^7", max_degree=7)
        assert len(parse_poly("(x1+x2+x3+x4+x5+x6+x7+x8+x9+x10)^3", max_degree=7).terms) == 1000


def random_expr(rng, depth=0):
    choice = rng.random()
    if depth > 3 or choice < 0.35:
        kind = rng.choice(["x", "y"])
        return f"{kind}{rng.randint(1, 4)}"
    if choice < 0.45:
        return f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
    if choice < 0.6:
        return f"({random_expr(rng, depth + 1)} + {random_expr(rng, depth + 1)})"
    if choice < 0.72:
        return f"({random_expr(rng, depth + 1)} - {random_expr(rng, depth + 1)})"
    if choice < 0.84:
        return f"{random_expr(rng, depth + 1)}*{random_expr(rng, depth + 1)}"
    if choice < 0.92:
        return f"[{random_expr(rng, depth + 1)},{random_expr(rng, depth + 1)}]"
    return f"jord({random_expr(rng, depth + 1)},{random_expr(rng, depth + 1)})"


class TestFormatExpr:
    def test_examples(self):
        assert format_expr(x(1) * x(3) - x(3) * x(1)) == "x1*x2 - x2*x1"
        assert format_expr(NcPoly.zero()) == "0"
        assert format_expr(NcPoly.one()) == "1"
        assert format_expr(-2 * x(1) ** 2) == "-2*x1^2"

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(200):
            f = parse_poly(random_expr(rng))
            assert parse_poly(format_expr(f)) == f

    def test_format_idempotent(self):
        rng = random.Random(202)
        for _ in range(50):
            f = parse_poly(random_expr(rng))
            s = format_expr(f)
            assert format_expr(parse_poly(s)) == s


class TestCli:
    def test_check_holds(self, capsys):
        assert main(["check", "--pair", "clifford:3", "[x1^2,x2]"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_check_fails_with_witness(self, capsys):
        code = main(["check", "--pair", "clifford:2", "x1*x2 - x2*x1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "x1 -> e1" in out and "x2 -> e2" in out
        assert "2*e{1,2}" in out

    def test_check_sum_beyond_int64_fails(self, capsys):
        # the four words sum to 4 * 2^62 = 2^64 at e1,e1,e1, which wraps to 0 in int64
        expr = "4611686018427387904*(x1*x2*x3 + x1*x3*x2 + x2*x1*x3 + x2*x3*x1)"
        code = main(["--json", "check", "--pair", "clifford:1", expr])
        outcome = json.loads(capsys.readouterr().out)["outcome"]
        assert code == 1
        assert outcome["witness"]["value"] == "18446744073709551616*q1*e{1}"

    def test_check_coefficient_beyond_int64_fails(self, capsys):
        code = main(["check", "--pair", "clifford:2", "100000000000000000000*x1*x2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "x1 -> e1" in out and "x2 -> e1" in out

    @pytest.mark.parametrize("expr", ["S(12)", "(x1+x2)^40"])
    def test_degree_above_cap_exit_2_before_expansion(self, capsys, expr):
        start = time.monotonic()
        assert main(["check", "--pair", "clifford:2", expr]) == 2
        assert time.monotonic() - start < 1.0
        assert "above the cap 7" in capsys.readouterr().err

    def test_constant_to_huge_power_exit_2(self, capsys):
        # degree bound 0 passes the degree cap; the power is refused unexpanded
        start = time.monotonic()
        assert main(["check", "--pair", "clifford:2", "(1+1)^100000000"]) == 2
        assert time.monotonic() - start < 1.0
        assert "coefficients" in capsys.readouterr().err
        assert parse_poly("(1/2 + x1)^3") == parse_poly("(1/2 + x1)*(1/2 + x1)*(1/2 + x1)")
        for text in (f"2^{MAX_POWER_BITS + 1}", f"(1/3)^{MAX_POWER_BITS}", "(x1 - 2*x2)^9000"):
            with pytest.raises(ValueError, match="coefficients"):
                parse_poly(text)
        assert parse_poly(f"2^{MAX_POWER_BITS}") == NcPoly({(): 2**MAX_POWER_BITS})

    def test_term_count_above_cap_exit_2_before_expansion(self, capsys):
        expr = "(" + "+".join(f"x{i}" for i in range(1, 11)) + ")^7"  # 10^7 words
        start = time.monotonic()
        assert main(["check", "--pair", "clifford:2", expr]) == 2
        assert time.monotonic() - start < 1.0
        assert f"more than {MAX_TERMS} terms" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, words", [
        (["--max-degree", "11", "check", "--pair", "clifford:2", "x1^10*x2"], 3628800),
        (["--max-degree", "30", "check", "--pair", "clifford:2", "x1^30"],
         math.factorial(30)),
    ], ids=["x1^10*x2", "x1^30"])
    def test_polarization_above_cap_exit_2_before_expansion(self, capsys, monkeypatch, argv,
                                                            words):
        def forbidden(f):
            raise AssertionError("multilinearize called")

        monkeypatch.setattr(pairs, "multilinearize", forbidden)
        start = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - start < 1.0
        assert f"can give {words} words, above the cap {MAX_TERMS}" in capsys.readouterr().err

    def test_polarization_at_cap_is_decided(self, capsys):
        # 1 * 3! * 2! = 12 words, and S(9) polarizes to its own 9! words
        assert main(["check", "--pair", "clifford:2", "x1^3*x2^2"]) == 1
        assert pairs.MAX_TERMS == MAX_TERMS >= math.factorial(9)

    def test_huge_clifford_dimension_is_decided_as_the_degree(self, capsys):
        # a degree-2 component uses at most 2 labels: clifford:k for k > 2
        # has the tuples, witness and printed value of clifford:2
        outs = []
        for k in (2, 5, 99999999999):
            start = time.monotonic()
            assert main(["check", "--pair", f"clifford:{k}", "x1*x2"]) == 1
            assert time.monotonic() - start < 1.0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2] == "fails; witness:\n  x1 -> e1\n  x2 -> e1\n  value = q1\n"
        assert main(["check", "--pair", "clifford:99999999999", "x1*x2 - x2*x1"]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == ["  x1 -> e1", "  x2 -> e2",
                                                           "  value = 2*e{1,2}"]

    @pytest.mark.parametrize("pair, expr, value", [
        ("clifford:2", "1", "1"),
        ("clifford:2", "1+x1", "1"),
        ("clifford:5", "x1*x2+2", "2"),
        ("m2", "1", "[[1, 0], [0, 1]]"),
    ])
    def test_constant_term_fails_with_its_value(self, capsys, pair, expr, value):
        # the constant component has degree 0 and is decided on clifford:1
        assert main(["check", "--pair", pair, expr]) == 1
        assert capsys.readouterr().out == f"fails; witness:\n  value = {value}\n"

    def test_witness_value_beyond_int_str_digits(self, capsys):
        # 2^16000 has 4817 digits, above Python's default int-to-str cap of 4300
        with localcontext() as ctx:
            ctx.prec = 5000
            want = f"{Decimal(2) ** 16000}*e{{1}}"
        expr = "2^8000*2^8000*x1"
        assert main(["check", "--pair", "clifford:2", expr]) == 1
        assert f"value = {want}" in capsys.readouterr().out
        assert main(["--json", "check", "--pair", "clifford:2", expr]) == 1
        assert json.loads(capsys.readouterr().out)["outcome"]["witness"]["value"] == want

    @pytest.mark.parametrize("pair", ["clifford:2", "m2"])
    @pytest.mark.parametrize("expr", ["-x1+x2", "-[x1^2,x2]", "-1/2*x1*x2 + 1/2*x2*x1"])
    def test_expression_with_leading_minus(self, capsys, pair, expr):
        def run(*argv):
            code = main(["--json", *argv])
            return code, json.loads(capsys.readouterr().out)["outcome"]

        want = run("check", "--pair", pair, "--", expr)
        assert run("check", "--pair", pair, expr) == want
        assert run("check", expr, "--pair", pair) == want

    def test_deep_nesting_exit_2(self, capsys):
        expr = "(" * 2000 + "x1" + ")" * 2000
        assert main(["check", "--pair", "clifford:2", expr]) == 2
        assert "nested more than" in capsys.readouterr().err

    def test_parse_error_exit_2(self, capsys):
        assert main(["check", "--pair", "clifford:2", "x1*("]) == 2
        assert "position" in capsys.readouterr().err

    def test_out_of_memory_exit_2(self, capsys, monkeypatch):
        # exit 1 would read as "fails"; running out of memory is no verdict
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "is_weak_identity", exhausted)
        assert main(["--max-degree", "4", "check", "--pair", "clifford:3", "S(4)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "out of memory" in captured.err
        assert "--max-degree 4" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--json", "theorem1", "--n", "4"],
        ["check", "--pair", "clifford:3", "[x1^2,x2]"],
    ], ids=["json", "text"])
    def test_closed_stdout_keeps_the_exit_code(self, argv):
        # a reader that closes the pipe at once (as `| head -0` does) used to
        # get a BrokenPipeError traceback and exit 1, the "fails" code
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        run = subprocess.Popen([sys.executable, "-m", "weakid.cli", *argv], env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        run.stdout.close()
        err = run.stderr.read().decode()
        assert run.wait(timeout=60) == 0
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_bad_pair_exit_2(self, capsys):
        assert main(["check", "--pair", "clifford:0", "x1"]) == 2
        assert main(["check", "--pair", "m3", "x1"]) == 2
        capsys.readouterr()

    def test_dim_json(self, capsys):
        assert main(["--json", "dim", "--n", "3", "--pair", "clifford:3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["outcome"]["quotient_dim"] == 4
        assert data["outcome"]["kernel_dim"] == 2

    def test_span(self, capsys):
        assert main(["span", "--n", "4", "--gens", "[x1^2,x2]"]) == 0
        assert "rank          14" in capsys.readouterr().out

    def test_span_labels(self, capsys):
        # the rank is the span dimension; P_5 / span has dimension 5! - 94
        assert main(["span", "--n", "5", "--gens", "[x1^2,x2]"]) == 0
        out = capsys.readouterr().out
        assert "span dim      94\nquotient dim  26\n" in out and "kernel dim" not in out
        assert main(["--json", "span", "--n", "5", "--gens", "[x1^2,x2]"]) == 0
        outcome = json.loads(capsys.readouterr().out)["outcome"]
        assert (outcome["rank"], outcome["span_dim"], outcome["quotient_dim"]) == (94, 94, 26)
        assert "kernel_dim" not in outcome

    def test_span_coefficients_beyond_int64(self, capsys):
        # 2^64 once exceeded the integer span rows; the ranks are exact
        gens = "2^64*x1*x2+x2*x1"
        assert main(["span", "--n", "3", "--gens", gens]) == 0
        dim = exact_rank(oracle_span_vectors(3, [parse_poly(gens)]))
        assert f"span dim      {dim}\nquotient dim  {6 - dim}\n" in capsys.readouterr().out

    def test_span_zero_generator_spans_nothing(self, capsys):
        assert main(["span", "--n", "4", "--gens", "[x1^2,x2]"]) == 0
        want = capsys.readouterr().out
        assert main(["span", "--n", "4", "--gens", "[x1^2,x2];0"]) == 0
        assert capsys.readouterr().out == want
        assert main(["span", "--n", "4", "--gens", "0"]) == 0
        assert "span dim      0\nquotient dim  24\n" in capsys.readouterr().out

    @pytest.mark.parametrize("n, gens, dim", [
        (3, "3", 6), (4, "[x1^2,x2];1/2", 24), (1, "3", 1)])
    def test_span_constant_generator_spans_everything(self, capsys, n, gens, dim):
        assert main(["span", "--n", str(n), "--gens", gens]) == 0
        assert f"span dim      {dim}\nquotient dim  0\n" in capsys.readouterr().out

    def test_span_degree_cap(self, capsys):
        assert main(["--seeds", "none", "span", "--n", "9", "--gens", "[x1^2,x2]"]) == 0
        assert "quotient dim  2620\n" in capsys.readouterr().out
        assert main(["span", "--n", "11", "--gens", "[x1^2,x2]"]) == 2
        assert capsys.readouterr().err == "error: degree 11 above cap 10\n"

    def test_theorem1(self, capsys):
        assert main(["theorem1", "--n", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_corollary1(self, capsys):
        assert main(["corollary1", "--n", "3", "--k", "2"]) == 0
        capsys.readouterr()

    def test_lemma2(self, capsys):
        assert main(["lemma2", "--n", "3", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "-2/3" in out and "1/3" in out

    def test_lemma1(self, capsys):
        assert main(["lemma1", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "[x1,x2]" in out and "y1" in out

    def test_factor(self, capsys):
        assert main(["factor", "--n", "2", "--ys", "y1"]) == 0
        out = capsys.readouterr().out
        assert "two-sided" in out and "verified" in out

    @pytest.mark.parametrize("entry, plain", [
        ("y1^2", "y1*y1"), ("(y2)", "y2"), (" y1 * y3 ", "y1*y3"), ("x1^2", "x1*x1"),
        ("1", ""),
    ])
    def test_factor_ys_take_the_expression_syntax(self, capsys, entry, plain):
        outcomes = []
        for ys in (f"{entry},", f"{plain},"):
            assert main(["--json", "factor", "--n", "3", "--ys", ys]) == 0
            outcomes.append(json.loads(capsys.readouterr().out)["outcome"])
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("ys, message", [
        ("y1+y2,y1", "--ys entry 'y1+y2' is not one word with coefficient 1"),
        ("2*y1,y1", "--ys entry '2*y1' is not one word with coefficient 1"),
        ("0,y1", "--ys entry '0' is not one word with coefficient 1"),
        ("y1*x4,", "x4 out of range x1..x3 in 'y1*x4'"),
        ("y1^100000000,y1", "expression degree can reach 100000000, above the cap 7"),
    ])
    def test_factor_ys_refused(self, capsys, ys, message):
        start = time.monotonic()
        assert main(["factor", "--n", "3", "--ys", ys]) == 2
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_factor_ys_syntax_error_names_the_entry(self, capsys):
        assert main(["factor", "--n", "3", "--ys", "x1y1,y1"]) == 2
        assert capsys.readouterr().err == (
            "error: --ys entry 'x1y1': unexpected trailing input (at position 2)\n")

    @pytest.mark.parametrize("argv, degree", [
        (["factor", "--n", "5", "--ys", "y1*y2*y3,y4*y5,,"], 10),
        (["factor", "--n", "8"], 8),
        (["factor", "--n", "3", "--ys", "y1*y2*y3,y4*y5"], 8),
    ])
    def test_factor_above_cap_exit_2_before_the_candidates(self, capsys, monkeypatch, argv,
                                                           degree):
        # the total degree n + (letters in --ys), not only each entry's
        def forbidden(*args):
            raise AssertionError("the candidates were built")

        monkeypatch.setattr(cli.structure, "factor_through_standard", forbidden)
        start = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().err == f"error: degree {degree} above cap 7\n"

    def test_factor_at_cap(self, capsys):
        assert main(["factor", "--n", "4", "--ys", "y1,y2,y3"]) == 0
        assert "verified by evaluation" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, degree", [
        (["lemma2", "--n", "10", "--k", "3"], 11),
        (["lemma1", "--n", "14"], 16),
    ])
    def test_lemma_above_cap_exit_2_before_the_defect(self, capsys, monkeypatch, argv, degree):
        def forbidden(*args):
            raise AssertionError("the lemma was built")

        for name in ("lemma2_coeffs", "eq5_defect", "lemma1_decompose", "lemma1_defect"):
            monkeypatch.setattr(cli.structure, name, forbidden)
        start = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().err == f"error: degree {degree} above cap 7\n"

    def test_lemma_at_cap(self, capsys):
        assert main(["lemma2", "--n", "6", "--k", "3"]) == 0  # a degree-7 defect
        assert main(["lemma1", "--n", "5"]) == 0
        assert capsys.readouterr().out.count("defect is a weak identity: yes") == 2

    def test_standard(self, capsys):
        assert main(["standard", "--n", "2"]) == 0
        assert capsys.readouterr().out.strip() == "x1*x2 - x2*x1"

    def test_standard_degree_cap(self, capsys):
        assert main(["standard", "--n", "8"]) == 2
        assert capsys.readouterr().err == "error: degree 8 above cap 7\n"
        # S(12) would be 479,001,600 words; the cap refuses it first
        tracemalloc.start()
        try:
            assert main(["--max-degree", "11", "standard", "--n", "12"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert main(["--max-degree", "8", "standard", "--n", "8"]) == 0
        renamed = NcPoly({tuple(2 * i - 1 for i in w): c for w, c in standard_poly(8).terms.items()})
        assert capsys.readouterr().out == format_expr(renamed) + "\n"

    def test_diagrams(self, capsys):
        assert main(["diagrams", "min", "2,1;2,2;3,1"]) == 0
        assert "2,1" in capsys.readouterr().out

    @pytest.mark.parametrize("spec, part", [("3,a", "a"), (",", "")])
    def test_bad_partition_names_the_part(self, capsys, spec, part):
        assert main(["diagrams", "min", spec]) == 2
        assert capsys.readouterr() == (
            "", f"error: bad partition {spec!r}: {part!r} is not an integer\n")

    def test_seeds_flag(self, capsys):
        assert main(["--seeds", "none", "dim", "--n", "3", "--pair", "clifford:3"]) == 0
        assert main(
            ["--seeds", "2,3,5;7,11,13", "dim", "--n", "3", "--pair", "clifford:3"]
        ) == 0
        capsys.readouterr()
        # a negative form value, below the largest q-monomial in magnitude
        assert main(["--seeds=-256,3,5", "dim", "--n", "3", "--pair", "clifford:3"]) == 0
        assert "quotient dim  4" in capsys.readouterr().out

    @pytest.mark.parametrize("spec, entry", [
        ("2,x", "x"), ("2,3,5;1/2", "1/2"), ("2,,3", ""), ("2,3,5;", ""),
    ])
    def test_bad_seeds_name_the_entry(self, capsys, spec, entry):
        assert main(["--seeds", spec, "dim", "--n", "3", "--pair", "clifford:3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad --seeds value {spec!r}: {entry!r} is not an integer\n"

    @pytest.mark.parametrize("n, k, quotient", [(3, 9, 4), (2, 99999999999, 2)])
    def test_dim_clifford_above_the_degree_under_default_seeds(self, capsys, n, k, quotient):
        # a degree-n tuple holds at most n labels: n primes of each seed list do
        assert main(["dim", "--n", str(n), "--pair", f"clifford:{k}"]) == 0
        out = capsys.readouterr().out
        assert f"target        clifford k={k} (symbolic q)\n" in out
        assert f"matrix        {math.factorial(n)} x {k ** n}\n" in out
        assert f"quotient dim  {quotient}\n" in out

    def test_seeds_only_echoed_by_theorem1(self, capsys):
        # the seeds once had to give values to every q_i a witness contracts
        assert main(["--seeds", "2,3,5", "theorem1", "--n", "8"]) == 0
        assert "at degree 8: PASS" in capsys.readouterr().out
        assert main(["--json", "--seeds", "2,3,5", "corollary1", "--n", "4", "--k", "2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["seeds"] == [[2, 3, 5]] and rep["outcome"]["kernel"]["seeds"] == []

    def test_rank_degree_above_cap_exit_2(self, capsys):
        # --max-degree bounds expressions; dim stops at degree 7
        assert main(["--max-degree", "9", "dim", "--n", "8", "--pair", "clifford:2"]) == 2
        err = capsys.readouterr().err
        assert "degree 8 above cap 7" in err and "=" not in err
        assert main(["--max-degree", "6", "dim", "--n", "7", "--pair", "clifford:2"]) == 0
        assert "quotient dim  35" in capsys.readouterr().out

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        assert main(["check", "--pair", "m2", "x1"]) == 1
        assert main(["check", "--pair", "m2", "S(4)"]) == 0
        # an option of one call is not the default of the next
        assert main(["--max-degree", "3", "check", "--pair", "m2", "S(4)"]) == 2
        assert main(["check", "--pair", "m2", "S(4)"]) == 0
        assert len(built) == 1
        cli._parser.cache_clear()
        capsys.readouterr()


_ZERO_ERR = "error: the zero polynomial is not a meaningful candidate\n"


def _witness_lines(assignment: dict, value: str) -> str:
    lines = ["fails; witness:", *(f"  {g} -> {e}" for g, e in assignment.items()),
             f"  value = {value}"]
    return "\n".join(lines) + "\n"


class TestStandardSummands:
    """S(n) summands that merge, cancel or take the general route, on
    clifford:3: the full text and --json output of each (outputs of the
    expansion through NcPoly, kept as the reference)."""

    @pytest.mark.parametrize("expr", ["S(3) - S(3)", "0*S(3)"])
    def test_cancelling_to_zero_exit_2(self, capsys, expr):
        for argv in (["check", "--pair", "clifford:3", expr],
                     ["--json", "check", "--pair", "clifford:3", expr]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", _ZERO_ERR)

    @pytest.mark.parametrize("expr, assignment, value", [
        ("S(3) - x1*x2*x3", {"x1": "e1", "x2": "e1", "x3": "e1"}, "-q1*e{1}"),
        ("S(4)*y1 + y1*S(4)", None, None),
        ("y1*S(3)*y2 - y2*S(3)*y1",
         {"x1": "e1", "y1": "e1", "x2": "e2", "y2": "e2", "x3": "e3"}, "-12*q1*q2*e{3}"),
        ("S(3) + S(3)", {"x1": "e1", "x2": "e2", "x3": "e3"}, "12*e{1,2,3}"),
        ("1/2*S(3) - 1/2*S(3) + y1", {"y1": "e1"}, "e{1}"),
        ("x1*S(3)", {"x1": "e1", "y1": "e1", "x2": "e2", "x3": "e3"}, "12*q1*e{2,3}"),
        ("y1*S(3)*y1",
         {"x1": "e1", "y1": "e1", "x2": "e2", "y2": "e1", "x3": "e3"}, "12*q1*e{1,2,3}"),
        ("S(2)^2", {"x1": "e1", "y1": "e1", "x2": "e2", "y2": "e2"}, "-16*q1*q2"),
        ("[S(2),x3]", {"x1": "e1", "x2": "e2", "x3": "e1"}, "-4*q1*e{2}"),
        ("S(3)*S(2)",
         {"x1": "e1", "y1": "e1", "x2": "e2", "y2": "e2", "x3": "e3"}, "-48*q1*q2*e{3}"),
        ("jord(S(2),x3)", {"x1": "e1", "x2": "e2", "x3": "e3"}, "2*e{1,2,3}"),
    ])
    def test_text_and_json(self, capsys, expr, assignment, value):
        code = main(["check", "--pair", "clifford:3", expr])
        out = capsys.readouterr().out
        assert main(["--json", "check", "--pair", "clifford:3", expr]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"] == {"pair": "clifford:3", "expr": expr}
        if assignment is None:
            assert (code, out, report["outcome"]) == (0, "holds\n", {"holds": True})
            return
        assert code == 1
        assert out == _witness_lines(assignment, value)
        assert report["outcome"] == {"holds": False, "witness": {
            "assignment": dict(sorted(assignment.items())), "value": value}}


_CONTRACT_PAIRS = {**{f"clifford:{k}": CliffordPair.symbolic(k) for k in range(1, 5)},
                   "m2": MatrixPair()}


def _grammar_texts():
    """Expressions over the whole grammar: sums, differences, products,
    powers up to 3, brackets, jord, S(n) for n <= 4, Fractions and one
    coefficient past 2^63, some with a leading '-'; [x_i^2, x_j], a weak
    identity of every pair, makes some inputs hold."""
    atoms = st.one_of(
        st.builds("x{}".format, st.integers(1, 4)),
        st.builds("y{}".format, st.integers(1, 2)),
        st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 4)),
        st.builds("S({})".format, st.integers(1, 4)),
        st.just(str(2**63 + 1)),
        st.builds("[x{}^2, x{}]".format, st.integers(1, 4), st.integers(1, 4)),  # holds
    )

    def compound(inner):
        pair = st.tuples(inner, inner)
        factors = st.lists(inner, min_size=2, max_size=3)
        return st.one_of(
            factors.map(" + ".join),
            pair.map("{0[0]} - ({0[1]})".format),
            factors.map(lambda fs: "*".join(f"({f})" for f in fs)),
            st.tuples(inner, st.integers(1, 3)).map("({0[0]})^{0[1]}".format),
            pair.map("[{0[0]}, {0[1]}]".format),
            pair.map("jord({0[0]}, {0[1]})".format),
        )

    texts = st.recursive(atoms, compound, max_leaves=6)
    return st.tuples(st.sampled_from(["", "-"]), texts).map("".join)


class TestCliContract:
    @settings(max_examples=200, deadline=None)
    @given(expr=_grammar_texts(), pair=st.sampled_from(sorted(_CONTRACT_PAIRS)),
           as_json=st.booleans())
    def test_exit_code_and_witness(self, expr, pair, as_json):
        """Exit 0, 1 or 2 with no traceback; the witness of exit 1, and the
        verdict of exit 0, are those of deciding one component at a time."""
        out, err = io.StringIO(), io.StringIO()
        argv = ["--max-degree", "6", "check", "--pair", pair, expr]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--json", *argv] if as_json else argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")
            return
        want = component_loop_witness(parse_poly(expr, max_degree=6), _CONTRACT_PAIRS[pair], 6)
        if code == 0:
            assert want is None
            return
        assignment = {var_name(g): label for g, label in sorted(want.assignment.items())}
        if as_json:
            witness = json.loads(out.getvalue())["outcome"]["witness"]
            assert witness == {"assignment": assignment, "value": str(want.value)}
        else:
            assert out.getvalue() == _witness_lines(assignment, str(want.value))


def test_every_public_name_resolves():
    assert [name for name in weakid.__all__ if not hasattr(weakid, name)] == []


class TestReport:
    def test_json_round_trip(self, capsys):
        main(["--json", "lemma2", "--n", "2", "--k", "1"])
        text = capsys.readouterr().out
        rep = Report.from_json(text)
        assert rep.command == "lemma2"
        assert rep.outcome["alpha"] == "-1/2"
        assert Report.from_json(rep.to_json()) == rep

    def test_round_trip_is_lossless(self):
        rep = Report(
            command="check",
            inputs={"pair": "m2", "expr": "x1"},
            outcome={"holds": False},
            seconds=0.125,
            seeds=[[2, 3]],
        )
        assert Report.from_json(rep.to_json()) == rep
