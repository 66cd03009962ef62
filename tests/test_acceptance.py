"""Acceptance gate: ten end-to-end criteria, each printed as one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from weakid import structure
from weakid.cli import main as cli_main
from weakid.clifford import CliffordElt, FormParams, embed_vector, evaluate
from weakid.freealg import (
    SQUARE_COMMUTATOR,
    NcPoly,
    commutator,
    multilinearize,
    standard_poly,
    star,
    substitute_linear,
)
from weakid.pairs import CliffordPair, MatrixPair, is_weak_identity
from weakid.parser import format_expr, parse_poly
from weakid.structure import (
    corollary1_check,
    eq5_defect,
    eq6_defect,
    evaluation_kernel,
    factor_through_standard,
    hook_dim,
    in_consequence_span,
    involutions,
    lemma1_decompose,
    lemma1_defect,
    lemma2_coeffs,
    partitions,
    theorem1_check,
)

from oracles import component_loop_witness, factorization_defect, random_invertible_substitution


def report(num, ok, seconds, note=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {note}" if note else ""
    print(f"criterion {num}: {status} ({seconds:.2f}s){suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_criterion_1_generator_identity(capsys):
    """check --pair clifford:k "[x1^2,x2]" holds for k = 1..6, < 1 s each."""
    ok = True
    worst = 0.0
    for k in range(1, 7):
        t0 = time.monotonic()
        code = cli_main(["check", "--pair", f"clifford:{k}", "[x1^2,x2]"])
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        ok = ok and code == 0 and dt < 1.0
    capsys.readouterr()  # swallow the CLI output
    with capsys.disabled():
        report(1, ok, worst, "max per-k runtime")


def test_criterion_2_standard_on_basis(capsys):
    """evaluate(S_n, e_1..e_n) = n! * e_{1..n} for n <= 6."""
    t0 = time.monotonic()
    ok = True
    for n in range(1, 7):
        form = FormParams(n)
        assign = {i: CliffordElt.basis_vector(i, form) for i in range(1, n + 1)}
        got = evaluate(standard_poly(n), assign, form)
        ok = ok and got == CliffordElt(form, {(1 << n) - 1: math.factorial(n)})
    with capsys.disabled():
        report(2, ok, time.monotonic() - t0)


def test_criterion_3_insertion_coefficients(capsys):
    """Printed constants, symmetry to n = 8, and all defects for n = 2..5; < 30 s."""
    t0 = time.monotonic()
    c21 = lemma2_coeffs(2, 1)
    c31 = lemma2_coeffs(3, 1)
    ok = (c21.alpha, c21.beta) == (Fraction(-1, 2), Fraction(-1, 2))
    ok = ok and (c31.alpha, c31.beta) == (Fraction(-2, 3), Fraction(1, 3))
    for n in range(2, 9):
        for k in range(1, n):
            co, mirror = lemma2_coeffs(n, k), lemma2_coeffs(n, n - k)
            ok = ok and (co.alpha, co.beta) == (mirror.beta, mirror.alpha)
    for n in range(2, 6):
        pair = CliffordPair.symbolic(n + 1)
        for k in range(1, n):
            ok = ok and is_weak_identity(eq5_defect(n, k), pair) is None
        for i in range(1, n + 1):
            ok = ok and is_weak_identity(eq6_defect(n, i), pair) is None
    dt = time.monotonic() - t0
    with capsys.disabled():
        report(3, ok and dt < 30, dt)


def test_criterion_4_commutator_decomposition(capsys):
    """n = 2 term-for-term; defects pass for n = 3, 4; < 30 s."""
    t0 = time.monotonic()
    h = Fraction(1, 2)
    expect = [
        (NcPoly({(3, 4): h, (4, 3): h}), NcPoly.one()),
        (NcPoly({(4,): -h}), NcPoly.monomial((3,))),
        (NcPoly({(3,): h}), NcPoly.monomial((4,))),
    ]

    def key(pair):
        a, b = pair
        return (tuple(sorted(a.terms.items())), tuple(sorted(b.terms.items())))

    ok = {key(p) for p in lemma1_decompose(2)} == {key(p) for p in expect}
    for n in (3, 4):
        d = lemma1_defect(n)
        ok = ok and (
            d.is_zero()
            or is_weak_identity(d, CliffordPair.symbolic(n + 2)) is None
        )
    dt = time.monotonic() - t0
    with capsys.disabled():
        report(4, ok and dt < 30, dt)


def test_criterion_5_theorem1_desk_scale(capsys):
    """Span/kernel dims 2, 14, 94 and quotients 4, 10, 26 for n = 3, 4, 5."""
    t0 = time.monotonic()
    want = {3: (2, 4), 4: (14, 10), 5: (94, 26)}
    ok = True
    n5_time = 0.0
    for n, (span_dim, quot) in want.items():
        t1 = time.monotonic()
        rep = theorem1_check(n)
        if n == 5:
            n5_time = time.monotonic() - t1
        ok = ok and rep.ok and rep.containment_ok
        ok = ok and rep.span.rank == span_dim == rep.kernel.kernel_dim
        ok = ok and rep.kernel.quotient_dim == quot == involutions(n)
    ok = ok and n5_time < 600
    with capsys.disabled():
        report(5, ok, time.monotonic() - t0, f"n=5 took {n5_time:.2f}s")


def test_criterion_6_corollary1_desk_scale(capsys):
    """corollary1_check on (3,2), (4,2), (4,3), (5,2); quotients match hook sums."""
    t0 = time.monotonic()
    ok = True
    for n, k in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        rep = corollary1_check(n, k)
        predicted = sum(hook_dim(p) for p in partitions(n, max_rows=k))
        ok = ok and rep.ok and rep.kernel.quotient_dim == predicted
    # hook formula cross-checked by direct tableau enumeration up to n = 6
    from test_structure import count_syt_brute

    for n in range(1, 7):
        for lam in partitions(n):
            ok = ok and hook_dim(lam) == count_syt_brute(lam)
    with capsys.disabled():
        report(6, ok, time.monotonic() - t0)


def test_criterion_7_matrix_pair(capsys):
    """Both identities hold on the matrix pair; quotient dim 9 at n = 4; S_4
    lies in the degree-4 span once a commutator-substituted instance of the
    generator is admitted (the traceless substitution space is closed under
    commutators, so that instance is a legitimate consequence for this pair;
    with linear substitutions only the membership provably fails, since the
    purely linear span vanishes on the generic Clifford pair while S_4 does
    not)."""
    t0 = time.monotonic()
    target = MatrixPair()
    s4 = standard_poly(4)
    ok = is_weak_identity(SQUARE_COMMUTATOR, target) is None
    ok = ok and is_weak_identity(s4, target) is None
    ok = ok and evaluation_kernel(4, target).quotient_dim == 9
    # [x1 x3 + x3 x1, x2] with x1 -> [x1, x2] (fresh letters): degree-4 instance
    c12 = commutator(NcPoly.gen(1), NcPoly.gen(2))
    x3, x4 = NcPoly.gen(3), NcPoly.gen(4)
    lie_instance = commutator(c12 * x3 + x3 * c12, x4)
    ok = ok and is_weak_identity(lie_instance, target) is None
    ok = ok and not in_consequence_span(s4, 4, [SQUARE_COMMUTATOR])
    ok = ok and in_consequence_span(s4, 4, [SQUARE_COMMUTATOR, lie_instance])
    dt = time.monotonic() - t0
    with capsys.disabled():
        report(7, ok and dt < 60, dt)


def _criterion_8_cases():
    """(n, ys, variant) for every interleaving of total degree <= 2 at
    n = 2, 3, in x letters for the right variant and y letters for the
    two-sided one."""
    for n in (2, 3):
        for variant, alphabet in (
            ("right", list(range(1, n + 1))),
            ("two-sided", [n + 1, n + 2]),
        ):
            words = [()] + [(a,) for a in alphabet] + [
                (a, b) for a in alphabet for b in alphabet
            ]
            for ys in itertools.product(words, repeat=n - 1):
                if sum(len(y) for y in ys) <= 2:
                    yield n, ys, variant


def test_criterion_8_factorization_sweep(capsys):
    """factor_through_standard on every interleaving of total degree <= 2 for
    n = 2, 3, both variants; the 'violated' error never fires, and every
    defect, rebuilt from the factors, holds by the component-loop decision."""
    t0 = time.monotonic()
    ok = True
    count = 0
    for n, ys, variant in _criterion_8_cases():
        # with no interleaved letter both variants are the one
        # factorization S_n = S_n, reported as the right variant
        fac = factor_through_standard(n, ys)
        want = variant if any(ys) else "right"
        target = CliffordPair.symbolic(n + sum(map(len, ys)))
        ok = ok and fac.variant == want
        ok = ok and component_loop_witness(factorization_defect(fac), target) is None
        count += 1
    dt = time.monotonic() - t0
    with capsys.disabled():
        report(8, ok, dt, f"{count} factorizations")


def test_criterion_8_needs_no_second_decision(monkeypatch):
    """The solve's equations verify each factorization: with the decision
    procedure made to raise, every criterion-8 factorization comes out the
    same and verified."""
    cases = list(_criterion_8_cases())
    want = [factor_through_standard(n, ys) for n, ys, _ in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("factor_through_standard called is_weak_identity")

    monkeypatch.setattr(structure, "is_weak_identity", refuse)
    for (n, ys, _), fac in zip(cases, want):
        got = factor_through_standard(n, ys)
        assert got == fac and got.verified, (n, ys)


def test_criterion_9_combinatorial_oracles(capsys):
    """Hook dimension sums against factorials and involution counts, n <= 8."""
    t0 = time.monotonic()
    ok = True
    for n in range(1, 9):
        dims = [hook_dim(p) for p in partitions(n)]
        ok = ok and sum(d * d for d in dims) == math.factorial(n)
        ok = ok and sum(dims) == involutions(n)
    dt = time.monotonic() - t0
    with capsys.disabled():
        report(9, ok and dt < 5, dt)


def test_criterion_10_property_suites(capsys):
    """Randomized property checks with fixed seeds; zero failures."""
    t0 = time.monotonic()
    ok = True

    # Clifford associativity, >= 1000 triples
    rng = random.Random(1009)
    form = FormParams(3)
    blades = list(range(8))

    def rand_elt():
        return CliffordElt(
            form, {b: rng.randint(-2, 2) for b in rng.sample(blades, 3)}
        )

    for _ in range(1000):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        ok = ok and (a * b) * c == a * (b * c)

    # evaluate is a homomorphism
    for _ in range(50):
        f = NcPoly(
            {
                tuple(rng.choices(range(1, 3), k=rng.randint(0, 3))): rng.randint(-2, 2)
                for _ in range(3)
            }
        )
        g = NcPoly(
            {
                tuple(rng.choices(range(1, 3), k=rng.randint(0, 3))): rng.randint(-2, 2)
                for _ in range(3)
            }
        )
        assign = {
            i: embed_vector([rng.randint(-2, 2) for _ in range(3)], form)
            for i in (1, 2)
        }
        ok = ok and evaluate(f * g, assign, form) == evaluate(
            f, assign, form
        ) * evaluate(g, assign, form)
        # star is an anti-automorphism
        ok = ok and star(f * g) == star(g) * star(f)

    # S_n alternation under a random transposition
    for n in range(2, 6):
        i, j = rng.sample(range(1, n + 1), 2)
        swap = {m: NcPoly.gen(m) for m in range(1, n + 1)}
        swap[i], swap[j] = NcPoly.gen(j), NcPoly.gen(i)
        ok = ok and substitute_linear(standard_poly(n), swap) == -standard_poly(n)

    # parser round trip, >= 200 expressions
    from test_parser_cli import random_expr

    prng = random.Random(7001)
    for _ in range(200):
        f = parse_poly(random_expr(prng))
        ok = ok and parse_poly(format_expr(f)) == f

    # GL-invariance of the identity checker, >= 20 invertible substitutions
    pair = CliffordPair.symbolic(3)
    ml = multilinearize(SQUARE_COMMUTATOR)
    for _ in range(20):
        sub = random_invertible_substitution(3, rng)
        g = substitute_linear(ml, sub)
        if not g.is_zero():
            ok = ok and is_weak_identity(g, pair) is None

    dt = time.monotonic() - t0
    with capsys.disabled():
        report(10, ok, dt)
