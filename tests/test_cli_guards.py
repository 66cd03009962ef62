"""The CLI guard runner reports a row as failed on each bound it misses."""

import cli_guards
from cli_guards import Guard

HOLDS = ("check", "--pair", "clifford:3", "[x1^2,x2]")


def test_each_missed_bound_fails_its_row(capsys):
    rows = [
        Guard(HOLDS, 10, 0, 200, ("holds",)),
        Guard(HOLDS, 10, 1, 200, ("holds",)),  # wrong exit code
        Guard(("theorem1", "--n", "9"), 0.01, 0, 200, "PASS"),  # killed at its time limit
        Guard(HOLDS, 10, 0, 200, "fails"),  # missed output
        Guard(HOLDS, 10, 0, 1, ("holds",)),  # max RSS above the bound
    ]
    assert cli_guards.check(rows) == [True, False, False, False, False]
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith(("ok ", "FAILED "))]
    assert [line.split()[0] for line in lines] == ["ok"] + ["FAILED"] * 4
    assert lines[0].endswith("exit 0  weakid check --pair clifford:3 [x1^2,x2]")
    assert " exit -9 " in lines[2]  # killed at the limit

