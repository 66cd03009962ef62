"""Command-line interface and machine-readable reports.

One subcommand per verification artifact: identity checking with witnesses,
kernel/quotient dimensions, consequence-span ranks, the combined span/kernel
comparisons, insertion coefficients, commutator and standard-polynomial
factorizations, and diagram minimality.  ``--json`` switches the output to a
single machine-readable object per invocation.

Exit codes: 0 = holds / computation succeeded; 1 = identity fails or a
checked equality does not hold (witness or report emitted); 2 = usage or
parse error, or an input too large for memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field

from . import structure
from .freealg import DEFAULT_DEGREE_CAP, NcPoly, _alternating, _unit_word
from .pairs import CliffordPair, MatrixPair, Witness, is_weak_identity
from .parser import ParseError, format_expr, parse_poly, var_name
from .structure import DEFAULT_SEEDS, RankReport, SpanKernelReport


@dataclass
class Report:
    """Per-invocation result; serializable to human text and stable JSON."""

    command: str
    inputs: dict
    outcome: dict
    seconds: float
    seeds: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)  # its fields hold JSON data only

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        return cls(**data)


def _parse_pair(spec: str):
    if spec == "m2":
        return MatrixPair()
    m = re.fullmatch(r"clifford:(\d+)", spec)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise ValueError("clifford dimension must be >= 1")
        return CliffordPair.symbolic(k)
    raise ValueError(f"unknown pair {spec!r}; use clifford:<k> or m2")


def _parse_seeds(spec: str):
    if spec == "default":
        return DEFAULT_SEEDS
    if spec in ("none", ""):
        return ()
    return tuple(tuple(map(_seed, part.split(","))) for part in spec.split(";"))


def _seed(entry: str) -> int:
    try:
        return int(entry)
    except ValueError:
        raise ValueError(f"{entry!r} is not an integer") from None


def _parse_partition(spec: str) -> tuple[int, ...]:
    spec = spec.strip()
    if not spec:
        return ()
    try:
        return tuple(map(_seed, spec.split(",")))
    except ValueError as exc:
        raise ValueError(f"bad partition {spec!r}: {exc}") from None


def _interleaved_word(entry: str, n: int, max_degree: int) -> tuple[int, ...]:
    """One `factor --ys` entry, a word with coefficient 1 in the parser's
    syntax (empty for the trivial word): x<j> maps to j (j <= n), y<j> to n+j."""
    try:
        f = parse_poly(entry, max_degree=max_degree) if entry.strip() else NcPoly.one()
    except ParseError as e:  # its position is one inside the entry
        raise ValueError(f"--ys entry {entry!r}: {e}") from None
    word = _unit_word(f)
    if word is None:
        raise ValueError(f"--ys entry {entry!r} is not one word with coefficient 1")
    bad = next((g for g in word if g % 2 and g > 2 * n), None)
    if bad is not None:
        raise ValueError(f"{var_name(bad)} out of range x1..x{n} in {entry!r}")
    return tuple((g + 1) // 2 if g % 2 else n + g // 2 for g in word)


def _remap(f: NcPoly, mapping: dict[int, int]) -> NcPoly:
    """Rename generator indices so format_expr prints the intended x/y names."""
    return NcPoly._from_terms({tuple(mapping[i] for i in w): c for w, c in f.terms.items()})


def _witness_dict(w: Witness) -> dict:
    # the value in full: lift Python's cap on int-to-str digits while printing
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        value = str(w.value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return {
        "assignment": {var_name(g): label for g, label in sorted(w.assignment.items())},
        "value": value,
    }


def _rank_report_lines(r: RankReport, dims: dict[str, int] | None = None) -> list[str]:
    if dims is None:
        dims = {"kernel dim": r.kernel_dim, "quotient dim": r.quotient_dim}
    lines = [
        f"degree        {r.degree}",
        f"target        {r.target}",
        f"matrix        {r.rows} x {r.cols}",
        f"rank          {r.rank}",
    ]
    lines += [f"{name:<14}{value}" for name, value in dims.items()]
    if r.seeds:
        lines.append(f"seeds         {'; '.join(','.join(map(str, s)) for s in r.seeds)}")
    return lines


def _span_kernel_lines(r: SpanKernelReport, what: str) -> list[str]:
    return [
        f"{what}: {'PASS' if r.ok else 'FAIL'}",
        f"span rank       {r.span.rank}",
        f"kernel dim      {r.kernel.kernel_dim}",
        f"quotient dim    {r.kernel.quotient_dim}",
        f"span in kernel  {'yes' if r.containment_ok else 'NO'}",
        f"predicted quotient dim  {r.predicted_quotient}",
    ]


# -- command handlers: return (inputs, outcome, human lines, exit code) -----


def _cmd_check(args):
    target = _parse_pair(args.pair)
    f = parse_poly(args.expr, max_degree=args.max_degree)
    witness = is_weak_identity(f, target, max_degree=args.max_degree)
    inputs = {"pair": args.pair, "expr": args.expr}
    if witness is None:
        return inputs, {"holds": True}, ["holds"], 0
    wd = _witness_dict(witness)
    lines = ["fails; witness:"]
    lines += [f"  {name} -> {label}" for name, label in wd["assignment"].items()]
    lines.append(f"  value = {wd['value']}")
    return inputs, {"holds": False, "witness": wd}, lines, 1


def _cmd_dim(args):
    rep = structure.evaluation_kernel(args.n, _parse_pair(args.pair), seeds=args.seeds)
    return {"n": args.n, "pair": args.pair}, asdict(rep), _rank_report_lines(rep), 0


def _cmd_span(args):
    gens = [parse_poly(g, max_degree=args.max_degree) for g in args.gens.split(";")]
    rep = structure.consequence_span_dim(args.n, gens)
    # the rank is the dimension of the span; P_n / span has dimension n! - rank
    outcome = asdict(rep)
    del outcome["kernel_dim"]
    outcome.update(span_dim=rep.rank, quotient_dim=rep.kernel_dim)
    dims = {"span dim": rep.rank, "quotient dim": rep.kernel_dim}
    return {"n": args.n, "gens": args.gens}, outcome, _rank_report_lines(rep, dims), 0


def _cmd_theorem1(args):
    rep = structure.theorem1_check(args.n)
    return (
        {"n": args.n},
        asdict(rep),
        _span_kernel_lines(rep, f"generator spans all identities at degree {args.n}"),
        0 if rep.ok else 1,
    )


def _cmd_corollary1(args):
    rep = structure.corollary1_check(args.n, args.k)
    return (
        {"n": args.n, "k": args.k},
        asdict(rep),
        _span_kernel_lines(
            rep, f"generator + S_{args.k + 1} span all identities at degree {args.n}, k={args.k}"
        ),
        0 if rep.ok else 1,
    )


def _check_degree(degree: int, max_degree: int) -> None:
    if degree > max_degree:  # refused before anything of that degree is built
        raise ValueError(f"degree {degree} above cap {max_degree}")


def _cmd_lemma2(args):
    _check_degree(args.n + 1, args.max_degree)
    co = structure.lemma2_coeffs(args.n, args.k)
    defect = structure.eq5_defect(args.n, args.k)
    holds = is_weak_identity(
        defect, CliffordPair.symbolic(args.n + 1), max_degree=args.max_degree
    ) is None
    outcome = {
        "alpha": str(co.alpha),
        "beta": str(co.beta),
        "defect_is_identity": holds,
    }
    lines = [
        f"alpha({args.n},{args.k}) = {co.alpha}",
        f"beta({args.n},{args.k})  = {co.beta}",
        f"defect is a weak identity: {'yes' if holds else 'NO'}",
    ]
    return {"n": args.n, "k": args.k}, outcome, lines, 0 if holds else 1


def _cmd_lemma1(args):
    _check_degree(args.n + 2, args.max_degree)
    pairs = structure.lemma1_decompose(args.n)
    defect = structure.lemma1_defect(args.n)
    holds = (
        defect.is_zero()
        or is_weak_identity(
            defect, CliffordPair.symbolic(args.n + 2), max_degree=args.max_degree
        )
        is None
    )
    # letters: 1, 2 are x1, x2; 3.. are y1..; rename for display
    disp = {1: 1, 2: 3}
    disp.update({j + 2: 2 * j for j in range(1, args.n + 1)})
    shown = [(format_expr(_remap(a, disp)), format_expr(_remap(b, disp))) for a, b in pairs]
    outcome = {
        "pairs": [[a, b] for a, b in shown],
        "defect_is_identity": holds,
    }
    lines = [f"{len(pairs)} commutator factor pair(s):"]
    lines += [f"  ({a})  [x1,x2]  ({b})" for a, b in shown]
    lines.append(f"defect is a weak identity: {'yes' if holds else 'NO'}")
    return {"n": args.n}, outcome, lines, 0 if holds else 1


def _cmd_factor(args):
    ys = [
        _interleaved_word(w, args.n, args.max_degree)
        for w in (args.ys.split(",") if args.ys else [""] * (args.n - 1))
    ]
    _check_degree(args.n + sum(map(len, ys)), args.max_degree)
    fac = structure.factor_through_standard(args.n, ys)
    # letters: 1..n are x1..xn; n+1.. are y1..; rename for display
    disp = {j: 2 * j - 1 for j in range(1, args.n + 1)}
    max_y = max((max(w) for w in ys if w), default=args.n) - args.n
    disp.update({args.n + j: 2 * j for j in range(1, max_y + 1)})
    outcome = {"variant": fac.variant, "verified": fac.verified}
    lines = [f"variant: {fac.variant}"]
    if fac.variant == "right":
        rf = format_expr(_remap(fac.right_factor, disp))
        outcome["right_factor"] = rf
        lines.append(f"S_{args.n} * ({rf})")
    else:
        shown = [
            (format_expr(_remap(d, disp)), format_expr(_remap(e, disp)))
            for d, e in fac.pairs
        ]
        outcome["pairs"] = [[d, e] for d, e in shown]
        for d, e in shown:
            lines.append(f"  ({d})  S_{args.n}  ({e})")
    lines.append("verified by evaluation")
    return {"n": args.n, "ys": args.ys}, outcome, lines, 0


def _cmd_standard(args):
    if args.n < 1:
        raise ValueError("standard polynomial needs n >= 1")
    _check_degree(args.n, args.max_degree)  # S_n has n! words
    # S_n in the surface variables x1..xn, the odd generator indices
    text = format_expr(_alternating(range(1, 2 * args.n, 2)))
    return {"n": args.n}, {"expr": text}, [text], 0


def _cmd_diagrams(args):
    if args.action != "min":
        raise ValueError(f"unknown diagrams action {args.action!r}")
    parts = [p for p in (s.strip() for s in args.partitions.split(";")) if p]
    diagrams = [_parse_partition(p) for p in parts]
    minimal = structure.minimal_diagrams(diagrams)
    as_text = [",".join(map(str, p)) for p in minimal]
    return (
        {"partitions": args.partitions},
        {"minimal": as_text},
        ["minimal diagrams: " + ("; ".join(as_text) if as_text else "(none)")],
        0,
    )


_HANDLERS = {
    "check": _cmd_check,
    "dim": _cmd_dim,
    "span": _cmd_span,
    "theorem1": _cmd_theorem1,
    "corollary1": _cmd_corollary1,
    "lemma2": _cmd_lemma2,
    "lemma1": _cmd_lemma1,
    "factor": _cmd_factor,
    "standard": _cmd_standard,
    "diagrams": _cmd_diagrams,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weakid",
        description="Exact verification of weak polynomial identities of Clifford pairs.",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument(
        "--max-degree",
        type=int,
        default=DEFAULT_DEGREE_CAP,
        help="degree cap for expressions and for standard (default 7); dim is "
        "capped at degree 7 regardless, span, theorem1 and corollary1 at degree 10",
    )
    ap.add_argument(
        "--seeds",
        type=str,
        default="default",
        help="form values at which dim spot-checks the orbit sign matrix against "
        "exact products of basis vectors: 'default', 'none', or lists like "
        "'2,3,5;7,11,13'; the other commands only echo them",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether an expression is a weak identity")
    p.add_argument("--pair", required=True, help="clifford:<k> or m2")
    p.add_argument("expr", help="the polynomial; it may begin with '-'")

    p = sub.add_parser("dim", help="evaluation kernel / quotient dimensions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pair", required=True, help="clifford:<k> or m2")

    p = sub.add_parser("span", help="rank of a multilinear consequence span")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", required=True, help="';'-separated generator expressions")

    p = sub.add_parser("theorem1", help="span = kernel for the generic pair, k = n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("corollary1", help="span of generator + S_{k+1} = kernel at k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("lemma2", help="insertion coefficients and defect check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("lemma1", help="commutator factorization of x1 Y x2 - x2 Y x1")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("factor", help="factor an interleaved alternating sum through S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--ys",
        default="",
        help="comma-separated interleaved words in the expression syntax, e.g. "
        "'y1*y3,y2', 'y1^2' or 'x1'; empty entries are the trivial word",
    )

    p = sub.add_parser("standard", help="print the standard polynomial S_n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("diagrams", help="Young diagram operations")
    p.add_argument("action", choices=["min"])
    p.add_argument("partitions", help="';'-separated partitions, e.g. '3,1;2,2'")

    return ap


def _dash_expression_last(argv: list[str]) -> list[str]:
    """Move a `check` argument that begins with a single '-' but is not one
    of its options (such as "-x1+x2") behind a '--', where argparse takes it
    for the expression instead of an unknown option."""
    at = 0
    while at < len(argv) and argv[at].startswith("-"):  # options before the command
        at += 2 if argv[at] in ("--max-degree", "--seeds") else 1
    if argv[at:at + 1] != ["check"] or "--" in argv:
        return argv
    exprs = [a for a in argv[at + 1:] if a[:1] == "-" and a[:2] != "--" and a != "-h"]
    rest = [a for a in argv[at + 1:] if a not in exprs]
    return argv[:at + 1] + rest + ["--", *exprs] if exprs else argv


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(_dash_expression_last(argv))
    try:
        args.seeds = _parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"error: bad --seeds value {args.seeds!r}: {exc}", file=sys.stderr)
        return 2
    handler = _HANDLERS[args.command]
    start = time.monotonic()
    try:
        inputs, outcome, lines, code = handler(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory; the input is too large at --max-degree "
              f"{args.max_degree}", file=sys.stderr)
        return 2
    seconds = time.monotonic() - start
    report = Report(
        command=args.command,
        inputs=inputs,
        outcome=outcome,
        seconds=seconds,
        seeds=[list(s) for s in args.seeds],
    )
    try:
        for line in [report.to_json()] if args.json else lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:  # a reader that closed early: no output is owed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
