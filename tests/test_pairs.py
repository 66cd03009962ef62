import collections
import functools
import importlib
import itertools
import json
import random
import time
import tracemalloc
import unittest.mock
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weakid import cli, clifford, pairs, parser
from weakid.clifford import CliffordElt, FormParams, embed_vector, evaluate, word_sign_vector
from weakid.freealg import (
    DEFAULT_DEGREE_CAP,
    SQUARE_COMMUTATOR,
    NcPoly,
    commutator,
    jordan,
    multihomogeneous_components,
    multilinear_words,
    multilinearize,
    standard_poly,
    star,
    substitute_linear,
)
from weakid.pairs import (
    MAT_E,
    MAT_F,
    MAT_H,
    MAT_I,
    CliffordPair,
    Mat2,
    MatrixPair,
    is_weak_identity,
    mat2_evaluate,
    substitution_basis,
)

import oracles
from oracles import random_invertible_substitution, span_matrix

x1, x2, x3 = NcPoly.gen(1), NcPoly.gen(2), NcPoly.gen(3)


class TestMat2:
    def test_sl2_relations(self):
        assert MAT_E * MAT_F - MAT_F * MAT_E == MAT_H
        assert MAT_H * MAT_E - MAT_E * MAT_H == 2 * MAT_E
        assert MAT_H * MAT_F - MAT_F * MAT_H == -2 * MAT_F

    def test_trace_det(self):
        m = Mat2(1, 2, 3, 4)
        assert m.trace() == 5 and m.det() == -2
        assert MAT_H.trace() == 0

    def test_traceless_square_is_scalar(self):
        rng = random.Random(2)
        for _ in range(50):
            a, b, c = (Fraction(rng.randint(-4, 4)) for _ in range(3))
            m = Mat2(a, b, c, -a)
            sq = m * m
            assert sq.b == sq.c == 0 and sq.a == sq.d

    def test_evaluate_homomorphism(self):
        f = x1 * x2 - 2 * x2
        g = x2 * x1 + x1
        assign = {1: Mat2(1, 2, 0, -1), 2: Mat2(0, 1, 1, 0)}
        assert mat2_evaluate(f * g, assign) == mat2_evaluate(f, assign) * mat2_evaluate(
            g, assign
        )

    def test_evaluate_missing(self):
        with pytest.raises(ValueError, match="missing"):
            mat2_evaluate(x1 * x2, {1: MAT_E})

    def test_generator_identity_instance(self):
        assert mat2_evaluate(SQUARE_COMMUTATOR, {1: MAT_H, 2: MAT_E}).is_zero()


class TestSubstitutionBasis:
    def test_clifford(self):
        pair = CliffordPair.symbolic(3)
        labels = [lab for lab, _ in substitution_basis(pair)]
        assert labels == ["e1", "e2", "e3"]

    def test_matrix(self):
        labels = [lab for lab, _ in substitution_basis(MatrixPair())]
        assert labels == ["H", "E+F", "E-F"]


class TestIsWeakIdentity:
    def test_generator_holds_all_k(self):
        for k in range(1, 5):
            assert is_weak_identity(SQUARE_COMMUTATOR, CliffordPair.symbolic(k)) is None

    def test_commutator_witness(self):
        w = is_weak_identity(commutator(x1, x2), CliffordPair.symbolic(2))
        assert w is not None
        assert w.assignment == {1: "e1", 2: "e2"}
        assert str(w.value) == "2*e{1,2}"

    def test_standard_kills_small_dimension(self):
        # S_{k+1} vanishes on a k-dimensional space, S_k does not
        for k in (2, 3):
            pair = CliffordPair.symbolic(k)
            assert is_weak_identity(standard_poly(k + 1), pair) is None
            assert is_weak_identity(standard_poly(k), pair) is not None

    def test_matrix_pair(self):
        target = MatrixPair()
        assert is_weak_identity(SQUARE_COMMUTATOR, target) is None
        assert is_weak_identity(standard_poly(4), target) is None
        w = is_weak_identity(standard_poly(3), target)
        assert w is not None
        assert not w.value.is_zero()

    def test_explicit_form_values(self):
        pair = CliffordPair(FormParams(2, (1, -1)))
        assert is_weak_identity(SQUARE_COMMUTATOR, pair) is None

    def test_inhomogeneous_input(self):
        f = SQUARE_COMMUTATOR + commutator(NcPoly.gen(1) ** 2, NcPoly.gen(3))
        assert is_weak_identity(f, CliffordPair.symbolic(3)) is None
        g = SQUARE_COMMUTATOR + commutator(x1, x2)
        assert is_weak_identity(g, CliffordPair.symbolic(2)) is not None

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_weak_identity(NcPoly.zero(), CliffordPair.symbolic(2))

    def test_degree_cap(self):
        f = NcPoly.monomial(tuple(range(1, 9))) - NcPoly.monomial(tuple(range(8, 0, -1)))
        with pytest.raises(ValueError, match="cap"):
            is_weak_identity(f, CliffordPair.symbolic(2))
        assert is_weak_identity(f, CliffordPair.symbolic(2), max_degree=8) is not None

    def test_degree_cap_before_polarization(self):
        # x1^12 polarizes to 12! = 479,001,600 words; the cap refuses it first
        for target in (CliffordPair.symbolic(2), MatrixPair()):
            tracemalloc.start()
            start = time.monotonic()
            try:
                with pytest.raises(ValueError, match="degree 12 above cap 7"):
                    is_weak_identity(x1**12, target)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.monotonic() - start < 1.0
            assert peak < 5 * 2**20
        # an earlier failing component still returns its witness
        w = is_weak_identity(commutator(x1, x2) + x3**12, CliffordPair.symbolic(2))
        assert w is not None and set(w.assignment) == {1, 2}

    def test_witness_component_is_reported(self):
        f = SQUARE_COMMUTATOR + commutator(x1, x2)
        w = is_weak_identity(f, CliffordPair.symbolic(2))
        assert w.component is not None
        assert not w.component.is_zero()


class TestFastPathAgainstSymbolic:
    def test_multilinear_vanishing_matches_brute_force(self):
        """The integer sign fast path agrees with full symbolic evaluation."""
        rng = random.Random(17)
        k = 2
        form = FormParams(k)
        pair = CliffordPair.symbolic(k)
        for _ in range(30):
            n = rng.randint(2, 3)
            words = list(itertools.permutations(range(1, n + 1)))
            f = NcPoly(
                {w: Fraction(rng.randint(-2, 2)) for w in words}
            )
            if f.is_zero():
                continue
            fast = is_weak_identity(f, pair) is None
            slow = all(
                evaluate(
                    f,
                    {
                        i + 1: CliffordElt.basis_vector(t[i], form)
                        for i in range(n)
                    },
                    form,
                ).is_zero()
                for t in itertools.product(range(1, k + 1), repeat=n)
            )
            assert fast == slow


class TestOrbitWitness:
    def test_witness_is_first_failing_tuple_of_full_table(self):
        """The search over orbit representatives finds the same tuple as a
        first-nonzero search over all k^n tuples."""
        rng = random.Random(23)
        checked = 0
        for _ in range(60):
            n, k = rng.randint(1, 5), rng.randint(1, 5)
            perms = list(itertools.permutations(range(1, n + 1)))
            words = rng.sample(perms, rng.randint(1, min(4, len(perms))))
            f = NcPoly({w: Fraction(rng.randint(-3, 3)) for w in words})
            if f.is_zero():
                continue
            acc = sum(
                int(c) * word_sign_vector(w, k).astype(np.int64) for w, c in f.terms.items()
            )
            bad = np.flatnonzero(acc)
            w = is_weak_identity(f, CliffordPair.symbolic(k))
            if bad.size == 0:
                assert w is None
                continue
            t = np.unravel_index(int(bad[0]), (k,) * n)
            assert w.assignment == {g + 1: f"e{int(t[g]) + 1}" for g in range(n)}
            checked += 1
        assert checked > 20

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.sampled_from(
            [
                SQUARE_COMMUTATOR,
                standard_poly(3),
                commutator(x1, x2),
                x1 * x2 * x3 + x1 * x3 * x2 + x2 * x1 * x3 + x2 * x3 * x1,
                x1 * x2 - 2 * x3 * x2,
            ]
        ),
        k=st.integers(1, 4),
        scale=st.one_of(st.integers(-(2**80), 2**80), st.sampled_from([2**62, 2**63, -(2**64)]))
        .filter(bool),
    )
    def test_scaling_never_flips_the_verdict(self, base, k, scale):
        pair = CliffordPair.symbolic(k)
        plain = is_weak_identity(base, pair)
        scaled = is_weak_identity(base * scale, pair)
        assert (plain is None) == (scaled is None)
        if plain is not None:
            assert plain.assignment == scaled.assignment


class TestStreamedOrbitSearch:
    @pytest.mark.parametrize("step", [1, 3])
    def test_decide_plan_for_any_block_size(self, capsys, monkeypatch, step):
        """Every check of the benchmark's decide plan gives the same verdict
        and witness with 1 or 3 orbit representatives per block."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        items = importlib.import_module("workloads").make_plan("decide", 1)

        def outcomes():
            got = []
            for item in items:
                code = cli.main(["--json", "check", "--pair", item["pair"], item["expr"]])
                got.append((code, json.loads(capsys.readouterr().out)["outcome"]))
            return got

        want = outcomes()
        assert [code for code, _ in want] == [0 if item["holds"] else 1 for item in items]
        real, blocks = clifford.orbit_sign_blocks, []

        def fixed_step(words, k, _):
            for block in real(words, k, step):
                blocks.append(block.shape[1])
                yield block

        monkeypatch.setattr(clifford, "orbit_sign_blocks", fixed_step)
        assert outcomes() == want
        assert set(blocks) <= {1, 2, 3} and len(blocks) > 10 * len(items)

    @pytest.mark.parametrize("entries", [1, 3 * 6, pairs.ORBIT_BLOCK_ENTRIES])
    def test_witness_in_a_later_block(self, monkeypatch, entries):
        # S(3) * x4 has 6 words; it first fails at the 12th of the 14
        # representatives (1, 2, 3, 1): in block 12, 4 or 1 of 1, 3 or all
        monkeypatch.setattr(pairs, "ORBIT_BLOCK_ENTRIES", entries)
        f = standard_poly(3) * NcPoly.gen(4)
        w = is_weak_identity(f, MatrixPair())
        assert w.assignment == {1: "H", 2: "E+F", 3: "E-F", 4: "H"}
        assert w.value == -6 * MAT_H


    def test_row_is_narrow_and_never_summed_per_block(self, monkeypatch):
        """The coefficient row of S(5) reaches every block's exact_product as
        int8, so _product_dtype bounds the sums from the dtypes alone: no
        abs-sum pass over the row, in none of the blocks."""
        monkeypatch.setattr(pairs, "ORBIT_BLOCK_ENTRIES", 5 * 120)  # 41 reps, 9 blocks
        rows, passes = [], []
        real_product, real_abs = pairs.exact_product, np.abs

        def product(a, b):
            rows.append(a.dtype)
            return real_product(a, b)

        def counted_abs(x, *args, **kwargs):
            passes.append(np.shape(x))
            return real_abs(x, *args, **kwargs)

        monkeypatch.setattr(pairs, "exact_product", product)
        monkeypatch.setattr(np, "abs", counted_abs)
        assert is_weak_identity(standard_poly(5), CliffordPair.symbolic(3)) is None
        assert len(rows) == 9 and set(rows) == {np.dtype(np.int8)}
        assert (1, 120) not in passes


class TestCliffordWitnessValue:
    def test_value_equals_symbolic_evaluation(self):
        """The witness value built from the failing sum, q-monomial and blade
        is what symbolic evaluation at the witness tuple gives."""
        rng = random.Random(29)
        checked = {True: 0, False: 0}
        for _ in range(150):
            n, k = rng.randint(1, 5), rng.randint(1, 4)
            symbolic = rng.random() < 0.5
            values = None if symbolic else [
                Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7))) for _ in range(k)
            ]
            form = FormParams(k, values)
            letters = sorted(rng.sample(range(1, 10), n))
            perms = list(itertools.permutations(letters))
            words = rng.sample(perms, rng.randint(1, min(6, len(perms))))
            f = NcPoly({w: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for w in words})
            if f.is_zero():
                continue
            w = is_weak_identity(f, CliffordPair(form))
            if w is None:
                continue
            # a symbolic C_k with k > n holds the value in its copy of C_n
            home = FormParams(n) if symbolic and k > n else form
            for at in (form, home):
                assign = {g: CliffordElt.basis_vector(int(w.assignment[g][1:]), at)
                          for g in letters}
                want = evaluate(f, assign, at)
                assert str(w.value) == str(want)
            assert w.value == want
            checked[symbolic] += 1
        assert min(checked.values()) > 20


#: Coefficients of the decision inputs: small, fractional, and past int64.
DECISION_COEFFS = (st.integers(-3, 3).filter(bool)
                   | st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(2, 6))
                   | st.sampled_from([2**63, -(2**64) + 1, Fraction(2**70, 3), Fraction(1, 2**65)]))


@st.composite
def decision_inputs(draw):
    """Nonzero polynomials of degree at most 4: random words over x1..x4
    (constants, repeated letters, mixed degrees), often a rearrangement of
    the first word (a second term in its component), and often S(2), S(3)
    or S(4), a multilinear component that holds on clifford:1, 2 or 3."""
    words = st.lists(st.integers(1, 4), max_size=4).map(tuple)
    terms = draw(st.lists(st.tuples(words, DECISION_COEFFS), max_size=4))
    if terms and draw(st.booleans()):
        terms.append((tuple(draw(st.permutations(terms[0][0]))), draw(DECISION_COEFFS)))
    f = NcPoly(dict(terms))
    if draw(st.booleans()):
        f = f + standard_poly(draw(st.integers(2, 4))) * draw(DECISION_COEFFS)
    assume(not f.is_zero())
    return f


def row_multiset(rows) -> collections.Counter:
    """An integer-rows record as the multiset of (word, coefficient / den)."""
    words, coeffs, den = rows
    return collections.Counter((tuple(w), Fraction(c, den)) for w, c in zip(words.tolist(), coeffs))


class TestComponentRows:
    @settings(max_examples=120, deadline=None)
    @given(f=decision_inputs(), k=st.sampled_from([1, 2, 3, 9]))
    # two denominators in one component, multilinear and polarized
    @example(f=NcPoly({(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 3)}), k=2)
    @example(f=NcPoly({(1, 1, 2): Fraction(3, 4), (2, 1, 1): Fraction(-5, 6), (): 2}), k=9)
    def test_rows_and_witness_match_the_polarizing_chain(self, f, k):
        """Each component's record, taken straight from a multilinear one or
        through multilinearize, and the witness equal those of polarizing
        every component; clifford:9 is past every degree (k > n)."""
        comps = multihomogeneous_components(f)
        want = oracles.component_rows(f)
        assert len(comps) == len(want)
        for comp, rows in zip(comps, want):
            words, (coeffs,), (den,) = pairs._batch_rows(
                [pairs._multilinear(comp, DEFAULT_DEGREE_CAP)])
            assert row_multiset((words, coeffs, den)) == row_multiset(rows) and den == rows[2]
        w = is_weak_identity(f, CliffordPair.symbolic(k))
        found = None if w is None else (w.assignment, str(w.value))
        assert found == oracles.clifford_witness(f, k)

    @pytest.mark.parametrize("pair, expr, code", [
        ("clifford:4", "S(5)*x6", 0),
        ("clifford:5", "S(6) + 5*x7*x8*x9*x10*x11*x12", 1),
        ("m2", "y1*S(4)*y2", 0),
    ])
    def test_multilinear_components_are_not_polarized(self, monkeypatch, pair, expr, code):
        calls = []
        monkeypatch.setattr(pairs, "multilinearize", lambda f: calls.append(f))
        assert cli.main(["check", "--pair", pair, expr]) == code
        assert calls == []

    @pytest.mark.parametrize("f, pair", [
        (x1 * x1 * x2 + x3, CliffordPair.symbolic(1)),
        (SQUARE_COMMUTATOR + Fraction(2, 3) * x3 * NcPoly.gen(4) * x3, CliffordPair.symbolic(2)),
        (standard_poly(3) * NcPoly.gen(4), MatrixPair()),
        (standard_poly(6) + NcPoly.monomial(range(7, 13), 5), CliffordPair.symbolic(5)),
        (x1 * x2 * x1 - 2 * x1 * x1 * x2, CliffordPair.symbolic(3)),
    ])
    def test_witness_component_is_the_polarized_failing_component(self, f, pair):
        failing = next(c for c in multihomogeneous_components(f)
                       if is_weak_identity(c, pair) is not None)
        w = is_weak_identity(f, pair)
        assert w.component == multilinearize(failing)
        assert set(w.assignment) == w.component.generators()


#: Targets of the batched decision: every symbolic clifford:k up to 7
#: (k > n for most inputs), one at explicit form values, and M_2.
BATCH_TARGETS = [CliffordPair.symbolic(k) for k in range(1, 8)] + [
    CliffordPair(FormParams(3, (2, Fraction(-1, 3), 5))), MatrixPair()]


@st.composite
def linear_form_products(draw):
    """Sums of terms with Fraction coefficients: c * A * [u^2, v] * B, a weak
    identity of every pair, for linear forms u, v in x1..x4 and optional
    letters A, B; and c times a product of up to four linear forms or
    letters in x2..x7, which fails.  So there are several components of
    one degree (a product of linear forms spreads over many), failing
    components behind holding ones, mixed degrees, and other denominators
    in each component."""
    def linear(low, top):
        letters = draw(st.lists(st.integers(low, top), min_size=1, max_size=3, unique=True))
        return sum((draw(st.integers(-2, 2).filter(bool)) * NcPoly.gen(i) for i in letters),
                   NcPoly.zero())

    def letters():
        return [NcPoly.gen(i) for i in draw(st.lists(st.integers(1, 7), max_size=1))]

    f = NcPoly.zero()
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 2)):
            u, v = linear(1, 4), linear(1, 4)
            factors = [*letters(), commutator(u * u, v), *letters()]
        else:
            factors = [linear(2, 7) if draw(st.booleans()) else NcPoly.gen(draw(st.integers(2, 7)))
                       for _ in range(draw(st.integers(1, 4)))]
        term = NcPoly.one() * draw(DECISION_COEFFS)
        for g in factors:
            term = term * g
        f = f + term
    assume(not f.is_zero())
    return f


def witness_outcome(w):
    return None if w is None else (w.assignment, str(w.value), w.component)


class TestBatchedDecision:
    """is_weak_identity decides a run of components of one degree with one
    orbit sign matrix and one product per block; the answer is that of
    deciding the components one at a time (oracles.component_loop_witness)."""

    @settings(max_examples=150, deadline=None)
    @given(f=linear_form_products(), target=st.sampled_from(BATCH_TARGETS),
           entries=st.sampled_from([1, 4, 30, pairs.ORBIT_BLOCK_ENTRIES]))
    @example(f=x1 * x2 - x2 * x1 + NcPoly.gen(4) * x3 * 2 + NcPoly.monomial((5, 6), Fraction(1, 3)),
             target=CliffordPair.symbolic(2), entries=pairs.ORBIT_BLOCK_ENTRIES)
    @example(f=SQUARE_COMMUTATOR + x1 * x1 * x1 + x2 * x2 * x2, target=CliffordPair.symbolic(7),
             entries=4)
    @example(f=2 * SQUARE_COMMUTATOR + Fraction(1, 3) * x3 * x3 * x1 * x2,
             target=CliffordPair.symbolic(3), entries=30)
    @example(f=NcPoly.one() * 3 + x1 * Fraction(1, 2) - x2 * Fraction(2, 3), target=MatrixPair(),
             entries=1)
    def test_same_answer_as_one_component_at_a_time(self, f, target, entries):
        # small ORBIT_BLOCK_ENTRIES split the runs into batches and the
        # representatives into blocks of one or a few
        with unittest.mock.patch.object(pairs, "ORBIT_BLOCK_ENTRIES", entries):
            got = is_weak_identity(f, target)
        assert witness_outcome(got) == witness_outcome(oracles.component_loop_witness(f, target))

    def test_decide_inputs_match_the_component_loop(self):
        for pair, expr in [("clifford:3", "y1*[(x1 - 2*x3)^2,(x2 + 3/2*x4)]*y2 + x5*y5*x6*y6"),
                           ("clifford:5", "S(6) + 2/3*x7*x8*x9*x10*x11*x12"),
                           ("m2", "[(x1 + x2)^2,(x3 - 1/2*x4)]*y1 - 5*x5*y5*x6*y6"),
                           ("clifford:2", "x1^3 + x2^3")]:
            f, target = cli.parse_poly(expr), cli._parse_pair(pair)
            assert witness_outcome(is_weak_identity(f, target)) == witness_outcome(
                oracles.component_loop_witness(f, target))

    def test_later_blocks_sum_only_the_rows_above_the_first_failure(self, monkeypatch):
        # S(7)*x8 (5040 words) fails first at (1, 2, 3, 4, 5, 6, 7, 1), in
        # the last of five blocks of 832 representatives; the monomial after
        # it fails in the first block, so the later blocks sum one row only
        f = standard_poly(7) * NcPoly.gen(8) + NcPoly.monomial(range(9, 17), 3)
        shapes, real = [], pairs.exact_product
        monkeypatch.setattr(pairs, "exact_product",
                            lambda a, b: shapes.append(a.shape) or real(a, b))
        w = is_weak_identity(f, CliffordPair.symbolic(8), max_degree=8)
        assert shapes == [(2, 5041)] + [(1, 5040)] * 4
        assert w.assignment == {**{g: f"e{g}" for g in range(1, 8)}, 8: "e1"}
        assert str(w.value) == "5040*q1*e{2,3,4,5,6,7}"
        assert w.component == f - NcPoly.monomial(range(9, 17), 3)
        assert witness_outcome(w) == witness_outcome(oracles.component_loop_witness(
            f, CliffordPair.symbolic(8), max_degree=8))

    def test_many_one_word_components_stay_in_linear_memory(self):
        # 5,000 components of one word each: one batch of all would be a
        # 5000 x 5000 coefficient matrix (200 MB as float64); batches of
        # components x words <= ORBIT_BLOCK_ENTRIES keep it near 2048 x 2048
        f = NcPoly({(3 * j + 1, 3 * j + 2, 3 * j + 3): Fraction(1, j % 7 + 1)
                    for j in range(5000)})
        assert len(multihomogeneous_components(f)) == 5000
        tracemalloc.start()
        try:
            w = is_weak_identity(f, CliffordPair.symbolic(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.assignment == {1: "e1", 2: "e1", 3: "e1"} and str(w.value) == "q1*e{1}"
        assert peak < 64 * 2**20

    def test_refusal_waits_for_the_components_before_it_in_its_run(self, monkeypatch):
        real, seen = pairs._multilinear, []

        def refuse_x5(comp, max_degree):
            seen.append(comp)
            if 5 in next(iter(comp.terms)):
                raise ValueError("refused")
            return real(comp, max_degree)

        monkeypatch.setattr(pairs, "_multilinear", refuse_x5)
        pair = CliffordPair.symbolic(2)
        # x1*x2 fails, ahead of x4*x5 in its run: its witness is the answer
        w = is_weak_identity(x1 * x2 + NcPoly.monomial((4, 5)), pair)
        assert w.assignment == {1: "e1", 2: "e1"}
        # S(3) holds on clifford:2, so the refusal of x4*x5*x6 is raised, and
        # x6*x7*x8, after it, is never polarized
        seen.clear()
        f = standard_poly(3) + NcPoly.monomial((4, 5, 6)) + NcPoly.monomial((6, 7, 8))
        with pytest.raises(ValueError, match="refused"):
            is_weak_identity(f, pair)
        assert len(seen) == 2

    def test_failing_component_ahead_of_a_larger_one(self):
        # the monomial comes first and fails at once, but it shares its
        # degree with S(6)*y3 (720 words), whose first block it pays for
        f = cli.parse_poly("x1*x2*x3*x4*x5*y1*y2 + S(6)*y3")
        start = time.monotonic()
        w = is_weak_identity(f, CliffordPair.symbolic(7))
        assert time.monotonic() - start < 2.0
        assert w.assignment == {g: "e1" for g in (1, 2, 3, 4, 5, 7, 9)}
        assert str(w.value) == "q1^3*e{1}"
        assert witness_outcome(w) == witness_outcome(oracles.component_loop_witness(
            f, CliffordPair.symbolic(7)))


def oracle_matrix_witness(ml: NcPoly):
    """First failing tuple of the M2 substitution basis for a multilinear
    polynomial and its value, by multiplying out Fraction 2x2 matrices word
    by word, tuple by tuple."""
    letters = sorted(ml.generators())
    rename = {g: i + 1 for i, g in enumerate(letters)}
    relabeled = {tuple(rename[g] for g in w): c for w, c in ml.terms.items()}
    basis = substitution_basis(MatrixPair())
    seq_prod = {}
    for seq in itertools.product(range(3), repeat=len(letters)):
        prod = Mat2(1, 0, 0, 1)
        for i in seq:
            prod = prod * basis[i][1]
        seq_prod[seq] = prod
    for t in itertools.product(range(3), repeat=len(letters)):
        total = Mat2(0, 0, 0, 0)
        for w, c in relabeled.items():
            total = total + seq_prod[tuple(t[g - 1] for g in w)] * c
        if not total.is_zero():
            return {g: basis[t[j]][0] for j, g in enumerate(letters)}, total
    return None


def random_multilinear(rng: random.Random, n: int, coeff) -> NcPoly:
    letters = sorted(rng.sample(range(1, 10), n))
    perms = list(itertools.permutations(letters))
    words = rng.sample(perms, rng.randint(1, min(8, len(perms))))
    return NcPoly({w: coeff() or 1 for w in words})


@functools.cache
def m2_identity_rows(n: int) -> np.ndarray:
    """Integer rows over multilinear_words(n) spanning the degree-n
    multilinear consequences of [x1^2,x2] and S(4), both weak identities of
    (M_2, sl_2)."""
    return span_matrix(n, [SQUARE_COMMUTATOR, standard_poly(4)])


class TestMatrixWitness:
    def test_blade_table_is_phi(self):
        """phi sends e1, e2, e3 to H, E+F, E-F, which square to q_i I and
        anticommute; the blade table holds their products in increasing
        order, so it is phi of the basis blades."""
        h = [m for _, m in substitution_basis(MatrixPair())]
        assert h == [MAT_H, MAT_E + MAT_F, MAT_E - MAT_F]
        q = MatrixPair().form.values
        assert q == (1, 1, -1)
        for i in range(3):
            assert h[i] * h[i] == q[i] * MAT_I
            for j in range(i):
                assert h[i] * h[j] == -(h[j] * h[i])
        assert len(pairs._M2_BLADES) == 8
        for blade, want in enumerate(pairs._M2_BLADES):
            prod = MAT_I
            for i in range(3):
                if blade >> i & 1:
                    prod = prod * h[i]
            assert want == prod
        # 1, h1h2, h1h3, h2h3, h1h2h3
        assert [pairs._M2_BLADES[b] for b in (0, 3, 5, 6, 7)] == [
            MAT_I, MAT_E - MAT_F, MAT_E + MAT_F, -MAT_H, -MAT_I]

    def check_against_oracle(self, f: NcPoly) -> bool:
        want = oracle_matrix_witness(f)
        w = is_weak_identity(f, MatrixPair())
        if want is None:
            assert w is None
            return False
        assert (w.assignment, w.value) == want
        assert str(w.value) == str(want[1])
        basis = dict(substitution_basis(MatrixPair()))
        assert mat2_evaluate(f, {g: basis[label] for g, label in w.assignment.items()}) == w.value
        return True

    def test_fraction_coefficients(self):
        rng = random.Random(37)
        coeff = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 6))  # noqa: E731
        fails = sum(self.check_against_oracle(random_multilinear(rng, rng.randint(1, 5), coeff))
                    for _ in range(80))
        assert fails > 40

    def test_coefficients_beyond_int64_and_2_62(self):
        rng = random.Random(41)
        big = (2**62 + 1, 2**63, 3 * 2**70, Fraction(2**65 + 3, 7))
        coeff = lambda: rng.choice(big) * rng.choice((1, -1, 2))  # noqa: E731
        fails = sum(self.check_against_oracle(random_multilinear(rng, rng.randint(1, 4), coeff))
                    for _ in range(30))
        assert fails > 15
        # a scaled identity stays an identity on the Python-int path
        assert is_weak_identity(standard_poly(4) * 2**70, MatrixPair()) is None

    def test_failing_tuple_after_passing_ones(self):
        x4 = NcPoly.gen(4)
        f = standard_poly(3) * x4  # first failing tuple (H, E+F, E-F, H), index 15
        want = oracle_matrix_witness(f)
        assert want[0] == {1: "H", 2: "E+F", 3: "E-F", 4: "H"}
        assert self.check_against_oracle(f)
        # each label twice: the value carries q3 = -1 from contracting E-F
        s3 = NcPoly({tuple(g + 3 for g in w): c for w, c in standard_poly(3).terms.items()})
        g = standard_poly(3) * s3
        assert oracle_matrix_witness(g)[0] == {1: "H", 2: "E+F", 3: "E-F", 4: "H", 5: "E+F",
                                               6: "E-F"}
        assert self.check_against_oracle(g)
        rng = random.Random(43)
        coeff = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2))  # noqa: E731
        for _ in range(20):
            self.check_against_oracle(random_multilinear(rng, rng.randint(2, 5), coeff))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_identities_and_perturbations_match_the_oracle(self, data):
        """A rational combination of consequence rows of [x1^2,x2] and S(4)
        is an M2 identity; with one coefficient perturbed it mostly is not.
        Both verdicts, witnesses and values are the oracle's."""
        fraction = st.fractions(-5, 5, max_denominator=6)
        n = data.draw(st.sampled_from((4, 5)), label="n")
        rows = m2_identity_rows(n)
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=4))
        letters = sorted(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n,
                                            unique=True), label="letters"))
        words = [tuple(letters[g - 1] for g in w) for w in multilinear_words(n)]
        coeffs = [Fraction(0)] * len(words)
        for i in picks:
            c = data.draw(fraction, label="coefficient")
            coeffs = [a + c * int(b) for a, b in zip(coeffs, rows[i])]
        f = NcPoly({w: c for w, c in zip(words, coeffs) if c})
        if not f.is_zero():
            assert not self.check_against_oracle(f)
        at = data.draw(st.integers(0, len(words) - 1), label="perturbed word")
        bump = data.draw(fraction.filter(bool), label="perturbation")
        g = f + bump * NcPoly.monomial(words[at])
        if not g.is_zero():
            self.check_against_oracle(g)


class TestBasisSufficiency:
    def test_holds_on_random_vectors(self):
        """An identity that passes on basis tuples vanishes on random vectors."""
        rng = random.Random(23)
        form = FormParams(3, (2, -1, Fraction(1, 3)))
        pair = CliffordPair(form)
        assert is_weak_identity(SQUARE_COMMUTATOR, pair) is None
        assert is_weak_identity(standard_poly(4), pair) is None
        for f in (SQUARE_COMMUTATOR, standard_poly(4)):
            gens = sorted(f.generators())
            for _ in range(25):
                assign = {
                    g: embed_vector(
                        [Fraction(rng.randint(-3, 3)) for _ in range(3)], form
                    )
                    for g in gens
                }
                assert evaluate(f, assign, form).is_zero()

    def test_witness_rules_out_identity_on_vectors(self):
        # the witness substitution itself is a vector substitution
        pair = CliffordPair.symbolic(2)
        w = is_weak_identity(commutator(x1, x2), pair)
        assert not w.value.is_zero()


class TestGlInvariance:
    def test_identity_stable_under_invertible_substitution(self):
        rng = random.Random(41)
        pair = CliffordPair.symbolic(3)
        ml = multilinearize(SQUARE_COMMUTATOR)  # variables 1, 2, 3
        for _ in range(20):
            sub = random_invertible_substitution(3, rng)
            g = substitute_linear(ml, sub)
            if g.is_zero():
                continue
            assert is_weak_identity(g, pair) is None

    def test_non_identity_stable_under_invertible_substitution(self):
        rng = random.Random(43)
        pair = CliffordPair.symbolic(2)
        f = commutator(x1, x2)
        for _ in range(20):
            sub = random_invertible_substitution(2, rng)
            g = substitute_linear(f, sub)
            # [.,.] is alternating: an invertible substitution scales it by det != 0
            assert is_weak_identity(g, pair) is not None


class TestStarStability:
    def test_star_preserves_weak_identities(self):
        pair = CliffordPair.symbolic(3)
        for f in (
            SQUARE_COMMUTATOR,
            standard_poly(4),
            commutator(jordan(x1, x2), x3) - commutator(jordan(x1, x3), x2),
        ):
            if is_weak_identity(f, pair) is None:
                assert is_weak_identity(star(f), pair) is None


def test_random_invertible_substitution_shape():
    rng = random.Random(1)
    sub = random_invertible_substitution(4, rng)
    assert set(sub) == {1, 2, 3, 4}
    for v in sub.values():
        assert all(len(w) == 1 for w in v.terms)


_LETTERS = ("x1", "x2", "x3", "x4", "y1", "y2", "y3")
_SUMMAND_COEFFS = ("", "2*", "1/2*", "2/3*", "2^70*", "(1/3)^41*", "0*")


@st.composite
def standard_sums(draw):
    """Expressions that sum S(m) summands c * w1 * S(m) * w2 (letters
    repeated or overlapping in some), other summands, and some summands
    twice with opposite signs."""
    summands = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.sampled_from(_SUMMAND_COEFFS))
        w1 = draw(st.lists(st.sampled_from(_LETTERS), max_size=2))
        w2 = draw(st.lists(st.sampled_from(_LETTERS), max_size=2))
        kind = draw(st.sampled_from(("std", "std", "word", "bracket")))
        if kind == "std":
            core = [f"S({draw(st.integers(1, 4))})"]
        elif kind == "word":
            core = draw(st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=4))
        else:
            core = [f"[{draw(st.sampled_from(_LETTERS))},S({draw(st.integers(1, 2))})]"]
        summands.append(coeff + "*".join([*w1, *core, *w2]))
        if draw(st.booleans()):
            summands.append(draw(st.sampled_from(_SUMMAND_COEFFS[:4])) + summands[-1])
    signs = draw(st.lists(st.sampled_from("+-"), min_size=len(summands), max_size=len(summands)))
    if draw(st.booleans()):  # a summand cancelled, or doubled
        at = draw(st.integers(0, len(summands) - 1))
        summands.append(summands[at])
        signs.append(draw(st.sampled_from((signs[at], "+" if signs[at] == "-" else "-"))))
    text = " ".join(f"{sign} {s}" for sign, s in zip(signs, summands))
    return text[2:] if text[0] == "+" else text


def decision_outcome(f, target):
    try:
        w = is_weak_identity(f, target)
    except ValueError as exc:
        return "refused", str(exc)
    return None if w is None else (w.assignment, str(w.value), w.component)


class TestParsedStandardSummands:
    """parse_poly keeps S(m) summands as integer rows (parser.RowComponent);
    deciding them gives what deciding the expanded NcPoly gives."""

    @settings(max_examples=200, deadline=None)
    @given(text=standard_sums(),
           target=st.sampled_from([*map(CliffordPair.symbolic, range(1, 8)), MatrixPair()]))
    @example(text="S(3) - S(2)*x3 + x1*x2*x3", target=CliffordPair.symbolic(3))
    @example(text="S(4)*y1 + y1*S(4)", target=CliffordPair.symbolic(2))
    @example(text="2^70*S(3) + x4*x5*x6*x7", target=MatrixPair())
    @example(text="S(2) - x1*x2 + x2*x1 + y1", target=CliffordPair.symbolic(1))
    @example(text="x1*S(3) - 1/2*S(3)*y1 + 2^70*y2*S(2)*y1", target=CliffordPair.symbolic(5))
    def test_rows_decide_as_the_expanded_polynomial(self, text, target):
        f = cli.parse_poly(text)
        assert f == parser.lower_expr(parser.parse_expr(text))
        assume(not f.is_zero())
        expanded = NcPoly(dict(f.terms))
        assert decision_outcome(f, target) == decision_outcome(expanded, target)

    def test_rows_are_not_expanded_to_decide(self, monkeypatch):
        f = cli.parse_poly("y1*S(6) + 2/3*x7*x8*x9*x10*x11*x12")
        assert isinstance(f, parser.ParsedPoly) and f.rest == NcPoly.monomial(
            (13, 15, 17, 19, 21, 23), Fraction(2, 3))
        monkeypatch.setattr(parser.RowComponent, "poly", None)  # expanding would raise
        w = is_weak_identity(f, CliffordPair.symbolic(5))
        assert w.assignment == {g: "e1" for g in (13, 15, 17, 19, 21, 23)}
        monkeypatch.undo()
        # a failing row component is expanded when its witness is read
        w = is_weak_identity(cli.parse_poly("S(3) + S(3)"), CliffordPair.symbolic(3))
        assert isinstance(w.component, parser.ParsedPoly)
        assert w.component == 2 * parser.lower_expr(("std", 3))
