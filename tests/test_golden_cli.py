"""Golden outputs of the weakid command.

Each case is one `weakid` argument list.  Its exit code, standard output and
standard error are compared with tests/golden_cli.json; a `--json` report is
compared as its JSON without the wall-clock `seconds` field.  The golden file
pins every answer, witness, exit code and message, so a change that is meant
to keep them (a refactor, a speedup) must leave this file untouched.

Regenerate it, on code whose outputs are known to be right, with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from weakid import cli
from weakid.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

_CLIFFORD = [f"clifford:{k}" for k in range(1, 8)]
_PAIRS = [*_CLIFFORD, "m2"]

# expressions checked on every pair, in text and --json form
_CHECK_ALL = [
    "[x1^2,x2]",  # holds on every pair
    "x1*x2 - x2*x1",  # fails on every pair
    "1/2*x1*x2 - 1/3*x2*x1",  # a witness with Fraction coefficients
    "100000000000000000000*x1*x2",  # a coefficient past int64
    "x3*x4 + x1*x2*x1 + x2",  # three failing components: the earliest is reported
    "[x1^2,x2] + 2/3*x3*x4*x3",  # the identity component comes first, then a failure
    "x1^3*x2 - x2*x1^3 + jord(x1,[x2,x3])",
]

_CHECKS = (
    [("check", "--pair", p, e) for p in _PAIRS for e in _CHECK_ALL]
    # S(k+1) holds on clifford:k and S(k) fails; S(7) on clifford:7 is the degree-7 witness
    + [("check", "--pair", f"clifford:{k}", f"S({n})") for k in range(1, 8) for n in (k, k + 1)
       if n <= 7]
    + [
        ("check", "--pair", "clifford:1",
         "4611686018427387904*(x1*x2*x3 + x1*x3*x2 + x2*x1*x3 + x2*x3*x1)"),
        ("check", "--pair", "clifford:3", "(x1 + 1/2*x2)^2*x3 - x3*(x1 + 1/2*x2)^2"),
        ("check", "--pair", "clifford:2", "x1*x2 + x2*x1 - 2*x1*x2"),
        ("check", "--pair", "m2", "S(3)"),
        ("check", "--pair", "m2", "S(4)"),
        ("check", "--pair", "m2", "S(5)"),
        ("check", "--pair", "m2", "2^70*S(3) + x4*x5*x6*x7"),
        ("check", "--pair", "clifford:2", "x2*x1 + x1*x3"),  # least words (1,3) < (2,1)
        ("check", "--pair", "m2", "x2*x1 + x1*x3"),
        ("check", "--pair", "m2", "-1/2*x1*x2 + 1/2*x2*x1"),
        # usage errors: exit 2 and a message
        ("check", "--pair", "clifford:2", "x1 - x1"),
        ("check", "--pair", "clifford:2", "S(8)"),
        ("check", "--pair", "clifford:2", "x1 +"),
        ("check", "--pair", "clifford:0", "x1"),
        ("--max-degree", "3", "check", "--pair", "m2", "S(4)"),
    ]
)

_DIMS = [("dim", "--n", str(n), "--pair", p) for n in range(1, 7) for p in _CLIFFORD[:6] + ["m2"]]

_REST = (
    [("span", "--n", str(n), "--gens", "[x1^2,x2]") for n in range(3, 6)]
    + [("span", "--n", "4", "--gens", "S(3);[x1^2,x2]"), ("span", "--n", "4", "--gens", "x1*x2")]
    + [("--seeds", "none", "dim", "--n", "5", "--pair", "clifford:5"),
       ("--seeds", "2,3,5;1/2", "dim", "--n", "3", "--pair", "clifford:3"),
       ("--seeds", "7,11,13", "dim", "--n", "4", "--pair", "clifford:3")]
    + [("theorem1", "--n", str(n)) for n in range(1, 6)]
    + [("corollary1", "--n", str(n), "--k", str(k)) for n in range(1, 6) for k in range(1, n + 1)]
    + [("lemma1", "--n", str(n)) for n in range(1, 5)]
    + [("lemma2", "--n", str(n), "--k", str(k)) for n in range(1, 5) for k in range(0, n + 1)]
    + [("factor", "--n", "2"), ("factor", "--n", "3"), ("factor", "--n", "3", "--ys", "y1*y3,y2"),
       ("factor", "--n", "3", "--ys", "x1,"), ("factor", "--n", "4", "--ys", "y1,y2,y3")]
    + [("standard", "--n", str(n)) for n in range(1, 6)]
    + [("diagrams", "min", "3,1;2,2;2,1,1;4")]
)


def cases() -> list[tuple[str, ...]]:
    """Every golden argument list: the checks in text and --json form, the
    other commands in --json form."""
    out = []
    for argv in _CHECKS:
        out += [argv, ("--json", *argv)]
    return out + [("--json", *argv) for argv in _DIMS + _REST]


def run(argv: tuple[str, ...]) -> dict:
    """Exit code, standard output and standard error of one call of main,
    with the `seconds` field removed from a --json report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    if "--json" in argv and code in (0, 1):
        report = json.loads(text)
        del report["seconds"]
        text = json.dumps(report, sort_keys=True)
    return {"argv": list(argv), "exit": code, "out": text, "err": err.getvalue()}


@functools.cache
def _golden() -> dict[tuple[str, ...], dict]:
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_case():
    assert list(_golden()) == cases()


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_matches_golden(argv, monkeypatch):
    monkeypatch.delenv("WID_MAX_DEGREE", raising=False)
    assert run(argv) == _golden()[argv]


def test_report_json_equals_the_deep_copy(monkeypatch):
    # Report.to_json dumps its fields as they are; on the report of every
    # command that equals the dump of a deep copy through asdict
    seen = []
    to_json = cli.Report.to_json

    def spy(report):
        seen.append((report.command, to_json(report), json.dumps(asdict(report), sort_keys=True)))
        return seen[-1][1]

    monkeypatch.delenv("WID_MAX_DEGREE", raising=False)
    monkeypatch.setattr(cli.Report, "to_json", spy)
    for argv in cases():
        if "--json" in argv:
            run(argv)
    assert {command for command, _, _ in seen} == set(cli._HANDLERS)
    assert all(text == deep for _, text, deep in seen)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    os.environ.pop("WID_MAX_DEGREE", None)
    records = [run(argv) for argv in cases()]
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
