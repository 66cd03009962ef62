"""The CLI guards: one weakid command per row, run in a fresh interpreter
and checked for its time limit, exit code, max RSS and output.

    PYTHONPATH=src python tests/cli_guards.py   # exits 1 if any row failed
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple, Sequence


class Guard(NamedTuple):
    """A command line, its time limit (s), exit code and max RSS (MB); out is a
    substring of stdout or, as a tuple, its exact lines; err one of stderr."""

    argv: tuple[str, ...]
    seconds: float
    exit: int
    max_mb: float
    out: str | tuple[str, ...] = ""
    err: str = ""


def _witness(n: int, value: str) -> tuple[str, ...]:
    return ("fails; witness:", *(f"  x{i} -> e{i}" for i in range(1, n + 1)), f"  value = {value}")


GUARDS = (
    Guard(("--seeds", "none", "theorem1", "--n", "6"), 10, 0, 120),
    Guard(("--max-degree", "9", "check", "--pair", "m2", "S(8)"), 10, 0, 180, ("holds",)),
    Guard(("--max-degree", "9", "check", "--pair", "clifford:8", "S(8)"), 10, 1, 180,
          _witness(8, "40320*e{1,2,3,4,5,6,7,8}")),
    Guard(("--max-degree", "9", "check", "--pair", "clifford:3", "S(9)"), 20, 0, 400, ("holds",)),
    Guard(("--max-degree", "9", "check", "--pair", "m2", "S(9)"), 20, 0, 400, ("holds",)),
    Guard(("dim", "--n", "7", "--pair", "m2"), 10, 0, 150, "quotient dim  127"),
    Guard(("check", "--pair", "clifford:7", "S(7)"), 10, 1, 160,
          _witness(7, "5040*e{1,2,3,4,5,6,7}")),
    Guard(("dim", "--n", "7", "--pair", "clifford:7"), 10, 0, 80, "quotient dim  232"),
    Guard(("--seeds", "none", "theorem1", "--n", "7"), 10, 0, 120, "PASS"),
    Guard(("theorem1", "--n", "9"), 10, 0, 130, "at degree 9: PASS"),
    Guard(("theorem1", "--n", "10"), 18, 0, 260, "quotient dim    9496"),
    Guard(("corollary1", "--n", "9", "--k", "3"), 10, 0, 130, "at degree 9, k=3: PASS"),
    Guard(("span", "--n", "5", "--gens", "[x1^2,x2]"), 10, 0, 120, "quotient dim  26"),
    Guard(("span", "--n", "9", "--gens", "[x1^2,x2]"), 10, 0, 130, "quotient dim  2620"),
    Guard(("span", "--n", "8", "--gens", "[x1,x2]*[x3,x4]"), 10, 0, 130, "quotient dim  8920"),
    Guard(("--json", "factor", "--n", "3", "--ys", "y1*y3,y2"), 10, 0, 120, '"verified": true'),
    Guard(("dim", "--n", "8", "--pair", "clifford:2"), 10, 2, 120),
    Guard(("standard", "--n", "8"), 10, 2, 120),
    Guard(("lemma2", "--n", "10", "--k", "3"), 10, 2, 120, err="degree 11 above cap 7"),
    Guard(("factor", "--n", "5", "--ys", "y1*y2*y3,y4*y5,,"), 10, 2, 120,
          err="degree 10 above cap 7"),
)


def run(guard: Guard) -> tuple[float, float, int, str, str]:
    """Run the command, killed at its time limit: (wall seconds, max RSS
    in MB, exit code, stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.monotonic()
        child = subprocess.Popen([sys.executable, "-m", "weakid.cli", *guard.argv],
                                 stdout=out, stderr=err, env=env)
        timer = threading.Timer(guard.seconds, child.kill)
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.monotonic() - start
        timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (seconds, usage.ru_maxrss / 1024, child.returncode,
                out.read().decode(), err.read().decode())


def check(guards: Sequence[Guard]) -> list[bool]:
    """Run every guard and return which passed.  Each prints one line: ok or
    FAILED, wall time, max RSS and exit code; a failed one its output too."""
    passed = []
    for guard in guards:
        seconds, mb, code, out, err = run(guard)
        printed = (out == "".join(line + "\n" for line in guard.out)
                   if isinstance(guard.out, tuple) else guard.out in out)
        ok = (seconds <= guard.seconds and mb <= guard.max_mb and code == guard.exit
              and printed and guard.err in err)
        print(f"{'ok' if ok else 'FAILED':6} {seconds:6.2f} s {mb:5.0f} MB  exit {code}  "
              f"weakid {' '.join(guard.argv)}", flush=True)
        if not ok:
            print(out + err, flush=True)
        passed.append(ok)
    return passed


if __name__ == "__main__":
    sys.exit(0 if all(check(GUARDS)) else 1)
