"""Tests of the benchmark itself: seeded inputs, references, span arithmetic.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_plan(workload, 7) == workloads.make_plan(workload, 7)
    assert json.loads(json.dumps(workloads.make_plan(workload, 7))) == workloads.make_plan(workload, 7)


def test_seeds_change_the_decide_stream():
    assert workloads.make_plan("decide", 1) != workloads.make_plan("decide", 2)


def test_quotient_dimensions_match_hand_values():
    assert [reference.clifford_quotient(6, k) for k in range(2, 7)] == [20, 51, 70, 75, 76]
    assert [reference.m2_quotient(n) for n in (4, 5, 6)] == [9, 21, 51]
    for n in range(1, 9):
        assert reference.clifford_quotient(n, n) == reference.involution_count(n)
        assert reference.m2_quotient(n) == reference.motzkin(n)
        assert sum(reference.tableaux(p) ** 2 for p in reference.partitions_of(n, n)) == factorial(n)


def test_insertion_coefficients():
    assert reference.insertion_coeffs(2, 1) == (Fraction(-1, 2), Fraction(-1, 2))
    assert reference.insertion_coeffs(3, 1) == (Fraction(-2, 3), Fraction(1, 3))
    assert reference.insertion_coeffs(5, 2) == (Fraction(3, 5), Fraction(-2, 5))
    for n in range(2, 9):
        for k in range(1, n):
            # telescoped closed form, and the mirror symmetry alpha(n,k) = beta(n,n-k)
            alpha, beta = reference.insertion_coeffs(n, k)
            assert alpha == Fraction((-1) ** k * (n - k), n)
            assert beta == Fraction((-1) ** (n - k) * k, n)


def test_vanishing_check_separates_identities():
    rng = random.Random(0)
    square_commutator = {(1, 1, 2): Fraction(1), (2, 1, 1): Fraction(-1)}
    assert reference.vanishes_on_vectors(square_commutator, 3, rng)
    assert reference.vanishes_on_vectors(reference.standard(4), 3, rng)
    assert not reference.vanishes_on_vectors(reference.standard(3), 3, rng)
    assert not reference.vanishes_on_vectors({(1, 2): Fraction(1)}, 2, rng)


def test_self_time_on_synthetic_tree():
    tree = [
        spans.Span(0, None, "root", 0.0, 10.0),
        spans.Span(1, 0, "a", 1.0, 4.0),
        spans.Span(2, 1, "a.child", 2.0, 3.0),
        spans.Span(3, 0, "b", 5.0, 6.5),
        spans.Span(4, 0, "c", 6.0, 7.0),  # overlaps b: covered once
        spans.Span(5, 0, "d", 9.5, 12.0),  # runs past its parent: clipped
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 10.0 - 3.0 - 2.0 - 0.5, 1: 2.0, 2: 1.0,
                                 3: 1.5, 4: 1.0, 5: 2.5})


def test_decide_inputs_parse_to_nonzero_polynomials():
    from weakid.parser import parse_poly

    for seed in (1, 2, 3):
        for item in workloads.make_plan("decide", seed):
            f = parse_poly(item["expr"])
            assert not f.is_zero(), item
            assert f.max_degree() <= (5 if item["pair"] == "m2" else 6)


def test_instrument_restores_every_binding():
    from weakid import cli, clifford, pairs, structure

    modules = (cli, clifford, pairs, structure)
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    spans.instrument(tracer)
    assert structure.exact_rank is not before[3]["exact_rank"]
    tracer.restore()
    assert [dict(vars(m)) for m in modules] == before


def test_benchmark_json_lists_the_metrics_the_runs_print():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _, _ in spans.PER_LAYER]
    assert [(m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (unit, better) for _, unit, better in spans.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "run_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
