"""The weakid benchmark: one seeded workload per run, every answer checked.

    python3 perfbench/run.py --workload {decide,kernel,span,solve} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout; weakid is imported from its ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give the environment and every metric in words.  Runs also write their
details (per-pass times, per-operation latencies, failures, and with
``--trace 1`` every span) to ``perfbench/out/``.

A pass runs the workload's operations once, in order, with the sign-table
cache cleared first, as every ``weakid`` invocation starts with it cold.
With ``--trace 0`` a run repeats passes while another fits in ``--seconds``
(at least one), and set-up is timed in five fresh interpreters.  With
``--trace 1`` a run makes one untraced and one traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5

# All load comes from this one thread; numpy's BLAS pools stay at one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans  # noqa: E402  (after the thread settings, before numpy loads)
import workloads  # noqa: E402


def _setup(workload: str, seed: int):
    """Everything between a fresh interpreter and the first timed operation."""
    sys.path.insert(0, str(ROOT / "src"))
    import weakid  # noqa: F401
    plan = workloads.make_plan(workload, seed)
    ops = workloads.prepare(workload, plan, seed)
    digest = hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()
    return ops, digest


def _probe_setup(workload: str, seed: int) -> tuple[float, str]:
    """Set-up time of a fresh interpreter, and the digest of the inputs it made."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["ready"] - start, probe["digest"]


def _environment(seed: int, sign_table) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "seed": seed,
        "sign_table_cold_at_start": sign_table.cache_info().currsize == 0,
    }


def _run_pass(ops, sign_table) -> dict:
    """Run every operation once; check the answers after the timed pass."""
    sign_table.cache_clear()
    results, latencies = [], []
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            results.append((op.call(), None))
        except Exception as exc:  # a raising operation is a failed one
            results.append((None, repr(exc)))
        latencies.append(time.perf_counter() - t)
    seconds = time.perf_counter() - start
    failures = []
    for op, (result, error) in zip(ops, results):
        if error is None:
            try:
                if op.check(result):
                    continue
                error = "answer differs from the reference"
            except Exception as exc:
                error = f"unreadable answer: {exc!r}"
        failures.append({"op": op.label, "error": error})
    return {"seconds": seconds, "latencies": latencies, "failures": failures,
            "sign_table": sign_table.cache_info()._asdict()}


def _end_to_end(passes: list[dict], setup_s: float) -> dict[str, tuple[float, str]]:
    latencies_ms = sorted(1000 * t for p in passes for t in p["latencies"])
    # nearest rank: an observed latency, never a blend of two far-apart
    # operations of a short list
    p90 = latencies_ms[math.ceil(0.9 * len(latencies_ms)) - 1]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(p["seconds"] for p in passes), "s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.setup_probe and (args.seconds is None or args.trace is None):
        ap.error("--seconds and --trace are required")

    if not (ROOT / "src" / "weakid" / "__init__.py").is_file():
        print(f"error: no weakid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.setup_probe:
        _, digest = _setup(args.workload, args.seed)
        print(json.dumps({"ready": time.monotonic(), "digest": digest}))
        return 0

    probes = [] if args.trace else [_probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
    ops, digest = _setup(args.workload, args.seed)
    from weakid import clifford

    sign_table = clifford.sign_table
    env = _environment(args.seed, sign_table)
    same_inputs = all(d == digest for _, d in probes)

    passes: list[dict] = []
    traced = None
    start = time.perf_counter()
    if not args.trace:
        while True:
            passes.append(_run_pass(ops, sign_table))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1]["seconds"] > args.seconds:
                break
    else:
        passes.append(_run_pass(ops, sign_table))
        tracer = spans.Tracer()
        spans.instrument(tracer)
        try:
            traced = _run_pass(ops, sign_table)
        finally:
            tracer.restore()
        passes.append(traced)

    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    if args.trace:
        overhead = traced["seconds"] - passes[0]["seconds"]
        values = spans.layer_metrics(tracer.spans, traced["sign_table"], overhead)
        metrics = {name: (values[name], unit) for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = _end_to_end(passes, statistics.median(s for s, _ in probes))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    details = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "inputs_sha256": digest, "setup_probes_s": [s for s, _ in probes],
        "labels": [op.label for op in ops], "passes": passes,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if traced is not None:
        details["spans"] = [vars(s) for s in tracer.spans]
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details))

    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload}: {len(passes)} pass(es) x {len(ops)} ops, "
          f"{len(failures)} failed (failed_share {len(failures) / attempted:.4f}), "
          f"inputs {digest[:12]}{'' if same_inputs else ' DIFFER between set-ups'}")
    for f in failures[:20]:
        print(f"# FAILED {f['op']}: {f['error']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and same_inputs,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
