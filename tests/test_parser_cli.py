import json
import random
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from weakid import cli
from weakid.cli import Report, build_parser, main
from weakid.freealg import NcPoly, commutator, jordan, standard_poly
from weakid.parser import (
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_TERMS,
    ParseError,
    degree_bound,
    format_expr,
    lower_expr,
    parse_expr,
    parse_poly,
    term_bound,
    var_index,
    var_name,
)

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
        assert degree_bound(parse_expr(brackets)) == MAX_NESTING + 1

    def test_long_flat_sums_and_products(self):
        assert parse_poly(" + ".join(["x1"] * 3000)) == 3000 * x(1)
        assert degree_bound(parse_expr("*".join(["x1"] * 3000))) == 3000


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
        assert degree_bound(parse_expr(text)) == bound

    def test_bound_never_below_degree(self):
        rng = random.Random(303)
        for _ in range(100):
            ast = parse_expr(random_expr(rng))
            assert lower_expr(ast).max_degree() <= degree_bound(ast)

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
        assert term_bound(parse_expr(text)) == bound

    def test_bound_never_below_term_count(self):
        rng = random.Random(304)
        for _ in range(100):
            ast = parse_expr(random_expr(rng))
            assert len(lower_expr(ast).terms) <= term_bound(ast)

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

    def test_standard(self, capsys):
        assert main(["standard", "--n", "2"]) == 0
        assert capsys.readouterr().out.strip() == "x1*x2 - x2*x1"

    def test_standard_degree_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("WID_MAX_DEGREE", raising=False)
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

    def test_seeds_flag(self, capsys):
        assert main(["--seeds", "none", "dim", "--n", "3", "--pair", "clifford:3"]) == 0
        assert main(
            ["--seeds", "2,3,5;7,11,13", "dim", "--n", "3", "--pair", "clifford:3"]
        ) == 0
        capsys.readouterr()
        # a negative form value, below the largest q-monomial in magnitude
        assert main(["--seeds=-256,3,5", "dim", "--n", "3", "--pair", "clifford:3"]) == 0
        assert "quotient dim  4" in capsys.readouterr().out

    def test_rank_degree_above_cap_exit_2(self, capsys):
        # --max-degree bounds expressions; every rank command stops at degree 7
        assert main(["--max-degree", "9", "dim", "--n", "8", "--pair", "clifford:2"]) == 2
        err = capsys.readouterr().err
        assert "degree 8 above cap 7" in err and "=" not in err
        assert main(["--max-degree", "6", "dim", "--n", "7", "--pair", "clifford:2"]) == 0
        assert "quotient dim  35" in capsys.readouterr().out

    def test_max_degree_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WID_MAX_DEGREE", "3")
        args = build_parser().parse_args(["check", "--pair", "m2", "x1"])
        assert args.max_degree == 3
        capsys.readouterr()

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.delenv("WID_MAX_DEGREE", raising=False)
        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        assert main(["check", "--pair", "m2", "x1"]) == 1
        assert main(["check", "--pair", "m2", "S(4)"]) == 0
        assert len(built) == 1
        # the one parser still reads WID_MAX_DEGREE on every call
        monkeypatch.setenv("WID_MAX_DEGREE", "3")
        assert main(["check", "--pair", "m2", "S(4)"]) == 2
        monkeypatch.delenv("WID_MAX_DEGREE")
        assert main(["check", "--pair", "m2", "S(4)"]) == 0
        assert len(built) == 1
        cli._parser.cache_clear()
        capsys.readouterr()


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
