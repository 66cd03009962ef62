"""Tracing from the benchmark's side: spans around weakid's public functions.

``instrument`` replaces each traced function at the binding its caller looks
up (``weakid.cli.is_weak_identity``, ``weakid.structure.exact_rank``, ...)
with a wrapper that records a span: name, start, end, parent span and a few
counts.  Spans stay in memory until the run writes them out.  ``layer_metrics``
turns a span list into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, counts: Callable | None = None) -> Callable:
        """fn, recording a span per call; counts(args, result) -> dict of counts."""

        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._open[-1] if self._open else None,
                        name, time.perf_counter())
            self.spans.append(span)
            self._open.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    def replace(self, owner: object, attr: str, value: object):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner: object, attr: str, name: str, counts: Callable | None = None):
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), counts))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


class _NumpyWithTracedUnique:
    """Stands in for ``numpy`` in one module, so that only that module's
    ``np.unique`` calls are traced."""

    def __init__(self, numpy, unique):
        self._numpy = numpy
        self.unique = unique

    def __getattr__(self, name):
        return getattr(self._numpy, name)


def _rows(args, result) -> dict:
    rows = args[0]
    return {"rows_in": len(rows), "rank": result}


def _unique_rows(args, result) -> dict:
    out = result[0] if isinstance(result, tuple) else result
    return {"rows_in": args[0].shape[0], "rows_out": out.shape[0]}


def _pairs_decision(args, result) -> dict:
    from weakid.pairs import MatrixPair

    return {"m2": isinstance(args[1], MatrixPair), "witness": result is not None}


STRUCTURE_OPS = ("evaluation_kernel", "consequence_span_dim", "theorem1_check",
                 "corollary1_check", "lemma2_coeffs_by_evaluation", "factor_through_standard")


def instrument(tracer: Tracer):
    """Wrap weakid's public functions at the bindings their callers use."""
    import numpy
    from weakid import cli, clifford, pairs, structure

    patch = tracer.patch
    patch(cli, "main", "cli.main")
    patch(cli, "parse_poly", "parser.parse_poly", lambda a, r: {"terms": len(r.terms)})
    for owner in (cli, structure):
        patch(owner, "is_weak_identity", "pairs.is_weak_identity", _pairs_decision)
    patch(pairs, "multihomogeneous_components", "freealg.multihomogeneous_components",
          lambda a, r: {"components": len(r)})
    for owner in (pairs, structure):
        patch(owner, "multilinearize", "freealg.multilinearize",
              lambda a, r: {"words": len(r.terms)})
    patch(structure, "substitute_linear", "freealg.substitute_linear")
    patch(clifford, "sign_table", "clifford.sign_table")
    for owner in (clifford, structure):
        patch(owner, "word_sign_vector", "clifford.word_sign_vector",
              lambda a, r: {"entries": r.size})
    patch(clifford, "evaluate", "clifford.evaluate")
    for op in STRUCTURE_OPS:
        patch(structure, op, f"structure.{op}")
    patch(structure, "exact_rank", "linalg.exact_rank", _rows)
    patch(structure, "solve_exact", "linalg.solve_exact",
          lambda a, r: {"rows_in": len(a[0])})
    unique = tracer.wrap("structure.unique", numpy.unique, _unique_rows)
    tracer.replace(structure, "np", _NumpyWithTracedUnique(numpy, unique))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# (metric, unit, better): the per_layer list of BENCHMARK.json, in order
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("parser.parse_poly_s", "s", "lower"),
    ("parser.calls", "count", "lower"),
    ("parser.terms_out", "count", "lower"),
    ("freealg.multihomogeneous_components_s", "s", "lower"),
    ("freealg.multilinearize_s", "s", "lower"),
    ("freealg.multilinearize_words_out", "count", "lower"),
    ("freealg.substitute_linear_s", "s", "lower"),
    ("freealg.substitute_linear_calls", "count", "lower"),
    ("clifford.sign_table_s", "s", "lower"),
    ("clifford.sign_table_misses", "count", "lower"),
    ("clifford.sign_table_hit_ratio", "ratio", "higher"),
    ("clifford.word_sign_vector_s", "s", "lower"),
    ("clifford.word_sign_vector_calls", "count", "lower"),
    ("clifford.sign_entries", "count", "lower"),
    ("clifford.evaluate_s", "s", "lower"),
    ("clifford.evaluate_calls", "count", "lower"),
    ("pairs.clifford_s", "s", "lower"),
    ("pairs.m2_s", "s", "lower"),
    ("pairs.self_s", "s", "lower"),
    ("pairs.components", "count", "lower"),
    ("pairs.witnesses", "count", "lower"),
    ("structure.evaluation_kernel_s", "s", "lower"),
    ("structure.consequence_span_dim_s", "s", "lower"),
    ("structure.theorem1_check_s", "s", "lower"),
    ("structure.corollary1_check_s", "s", "lower"),
    ("structure.lemma2_by_evaluation_s", "s", "lower"),
    ("structure.factor_through_standard_s", "s", "lower"),
    ("structure.unique_s", "s", "lower"),
    ("structure.unique_rows_in", "count", "lower"),
    ("structure.unique_rows_out", "count", "lower"),
    ("structure.unique_keep_ratio", "ratio", "higher"),
    ("structure.self_s", "s", "lower"),
    ("linalg.exact_rank_s", "s", "lower"),
    ("linalg.exact_rank_calls", "count", "lower"),
    ("linalg.rank_rows_in", "count", "lower"),
    ("linalg.rank_found", "count", "lower"),
    ("linalg.pivot_ratio", "ratio", "higher"),
    ("linalg.solve_exact_s", "s", "lower"),
    ("linalg.solve_rows_in", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(spans: list[Span], sign_table: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer values from one traced pass; 0 where the pass never called in.

    sign_table holds the pass's ``sign_table.cache_info()`` hits and misses."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counted: dict[str, int] = defaultdict(int)
    for s in spans:
        total[s.name] += s.end - s.start
        own_total[s.name] += own[s.id]
        calls[s.name] += 1
        for key, value in s.counts.items():
            counted[f"{s.name}.{key}"] += value
    decisions = [s for s in spans if s.name == "pairs.is_weak_identity"]
    lookups = sign_table["hits"] + sign_table["misses"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.self_s": own_total["cli.main"],
        "cli.calls": calls["cli.main"],
        "parser.parse_poly_s": total["parser.parse_poly"],
        "parser.calls": calls["parser.parse_poly"],
        "parser.terms_out": counted["parser.parse_poly.terms"],
        "freealg.multihomogeneous_components_s": total["freealg.multihomogeneous_components"],
        "freealg.multilinearize_s": total["freealg.multilinearize"],
        "freealg.multilinearize_words_out": counted["freealg.multilinearize.words"],
        "freealg.substitute_linear_s": total["freealg.substitute_linear"],
        "freealg.substitute_linear_calls": calls["freealg.substitute_linear"],
        "clifford.sign_table_s": total["clifford.sign_table"],
        "clifford.sign_table_misses": sign_table["misses"],
        "clifford.sign_table_hit_ratio": ratio(sign_table["hits"], lookups),
        "clifford.word_sign_vector_s": total["clifford.word_sign_vector"],
        "clifford.word_sign_vector_calls": calls["clifford.word_sign_vector"],
        "clifford.sign_entries": counted["clifford.word_sign_vector.entries"],
        "clifford.evaluate_s": total["clifford.evaluate"],
        "clifford.evaluate_calls": calls["clifford.evaluate"],
        "pairs.clifford_s": sum(s.end - s.start for s in decisions if not s.counts["m2"]),
        "pairs.m2_s": sum(s.end - s.start for s in decisions if s.counts["m2"]),
        "pairs.self_s": own_total["pairs.is_weak_identity"],
        "pairs.components": counted["freealg.multihomogeneous_components.components"],
        "pairs.witnesses": counted["pairs.is_weak_identity.witness"],
        "structure.evaluation_kernel_s": total["structure.evaluation_kernel"],
        "structure.consequence_span_dim_s": total["structure.consequence_span_dim"],
        "structure.theorem1_check_s": total["structure.theorem1_check"],
        "structure.corollary1_check_s": total["structure.corollary1_check"],
        "structure.lemma2_by_evaluation_s": total["structure.lemma2_coeffs_by_evaluation"],
        "structure.factor_through_standard_s": total["structure.factor_through_standard"],
        "structure.unique_s": total["structure.unique"],
        "structure.unique_rows_in": counted["structure.unique.rows_in"],
        "structure.unique_rows_out": counted["structure.unique.rows_out"],
        "structure.unique_keep_ratio": ratio(counted["structure.unique.rows_out"],
                                             counted["structure.unique.rows_in"]),
        "structure.self_s": sum(own_total[f"structure.{op}"] for op in STRUCTURE_OPS),
        "linalg.exact_rank_s": total["linalg.exact_rank"],
        "linalg.exact_rank_calls": calls["linalg.exact_rank"],
        "linalg.rank_rows_in": counted["linalg.exact_rank.rows_in"],
        "linalg.rank_found": counted["linalg.exact_rank.rank"],
        "linalg.pivot_ratio": ratio(counted["linalg.exact_rank.rank"],
                                    counted["linalg.exact_rank.rows_in"]),
        "linalg.solve_exact_s": total["linalg.solve_exact"],
        "linalg.solve_rows_in": counted["linalg.solve_exact.rows_in"],
        "trace.overhead_s": overhead_s,
    }
