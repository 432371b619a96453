"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass line; the conftest summary hook repeats a
criterion-by-criterion table at the end of the run.
"""

import json
import random
from fractions import Fraction
from math import factorial
from time import perf_counter

import pytest

from nbracket.algebra import FreeElement
from nbracket.expand import (
    expand_bracket,
    fast_profile,
    intercalate_one,
    intercalate_two,
    naive_term_count,
    oracle_profile,
)
from nbracket.identities import (
    CoefficientProfile,
    closed_form_multiplicity,
    decompose,
    decomposition_basis,
    decomposition_target,
    nested_shape,
    odd_reduction_constant,
    reduced_multiplicity,
    split_shape,
    verify_bremner,
    verify_even_gji,
)
from nbracket.syntax import Atom, Bracket, parse, render

from support import random_ast, random_supported_shape

L1_PROFILE = (24, 36, 36, 24, 36, 36, 24)

# frozen after first oracle derivation; never assumed
ODD_REDUCTION_CONSTANTS = {1: Fraction(1), 3: Fraction(3, 10), 5: Fraction(5, 126)}


def timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


@pytest.mark.acceptance(criterion=1, title="N-bracket expansion emits the exact signed words")
def test_criterion_1_expansion_fidelity(capsys):
    from nbracket.cli import main

    main(["expand", "[ABC]"])  # warm-up, keeps import cost out of the timing
    capsys.readouterr()

    start = perf_counter()
    assert main(["expand", "[ABC]"]) == 0
    elapsed_abc = perf_counter() - start
    words_abc = capsys.readouterr().out.splitlines()

    start = perf_counter()
    assert main(["expand", "[AD,B,C]"]) == 0
    elapsed_ad = perf_counter() - start
    words_ad = capsys.readouterr().out.splitlines()

    assert set(words_abc) == {
        "+1 A B C", "-1 A C B", "+1 B C A", "-1 B A C", "+1 C A B", "-1 C B A",
    }
    assert set(words_ad) == {
        "+1 A D B C", "-1 A D C B", "+1 B C A D", "-1 B A D C",
        "+1 C A D B", "-1 C B A D",
    }
    assert words_ad[0] == "+1 A D B C"
    assert elapsed_abc < 0.010 and elapsed_ad < 0.010
    print(f"criterion 1: both expansions exact, {elapsed_abc * 1e3:.2f} ms / "
          f"{elapsed_ad * 1e3:.2f} ms")


@pytest.mark.acceptance(criterion=2, title="both L=1 nestings resolve to (-1)^n (24,36,36,24,36,36,24)")
def test_criterion_2_l1_resolution(capsys):
    from nbracket.cli import main

    start = perf_counter()
    for text in ("[[A[bcd]e]fg]", "[[Abc][def]g]"):
        classes = oracle_profile(parse(text))
        profile = CoefficientProfile.from_classes(classes, 1)
        assert profile.m == L1_PROFILE, text
        assert all(classes[p] == profile.signed(n) for n, p in
                   enumerate(sorted(classes, key=lambda q: q.index("A"))))
        assert main(["reduce", text, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["profile"] == list(L1_PROFILE)
    elapsed = perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 2: both shapes give m = {L1_PROFILE} in {elapsed:.2f} s")


@pytest.mark.acceptance(criterion=3, title="7-bracket decomposition recovers (1/20, -1/6)")
def test_criterion_3_decomposition():
    start = perf_counter()
    coefficients = decompose(decomposition_target(1), decomposition_basis(1))
    elapsed = perf_counter() - start
    assert coefficients == [Fraction(1, 20), Fraction(-1, 6)]
    assert elapsed < 5.0
    print(f"criterion 3: coefficients (1/20, -1/6) exact in {elapsed:.2f} s")


@pytest.mark.acceptance(criterion=4, title="even double action vanishes for N = 2, 4, 6")
def test_criterion_4_even_identity():
    for N, limit in ((2, 1.0), (4, 1.0), (6, 120.0)):
        report, elapsed = timed(verify_even_gji, N)
        assert report.verified and report.witness is None, N
        assert elapsed < limit, (N, elapsed)
        print(f"criterion 4: N={N} zero profile in {elapsed:.2f} s")


@pytest.mark.acceptance(criterion=5, title="odd double action reduces with one exact constant")
def test_criterion_5_odd_reduction():
    double = oracle_profile(parse("[b1 b2 [b3 b4 b5]]"))
    flat = oracle_profile(parse("[b1 b2 b3 b4 b5]"))
    assert double, "double action profile must be nonzero for odd size"
    assert set(double) == set(flat)
    ratios = {Fraction(double[p]) / Fraction(flat[p]) for p in flat}
    assert len(ratios) == 1
    k = ratios.pop()
    assert k != 0
    assert k == ODD_REDUCTION_CONSTANTS[3]
    for N, pinned in ODD_REDUCTION_CONSTANTS.items():
        assert odd_reduction_constant(N) == pinned
    print(f"criterion 5: k(3) = {k} derived by oracle, matches pinned constants "
          f"{ {n: str(v) for n, v in ODD_REDUCTION_CONSTANTS.items()} }")


@pytest.mark.acceptance(criterion=6, title="insertion expansions equal the oracle")
def test_criterion_6_insertion_rules():
    head = FreeElement.from_symbol("A")
    tail = FreeElement.from_symbol("Z")
    for J in range(7):
        expr = Bracket((Atom("A"),) + tuple(Atom(i) for i in range(1, J + 1)))
        assert intercalate_one(head, J) == oracle_profile(expr), f"one-insertion J={J}"
    for J in range(6):
        expr = Bracket((Atom("A"),) + tuple(Atom(i) for i in range(1, J + 1)) + (Atom("Z"),))
        assert intercalate_two(head, tail, J) == oracle_profile(expr), f"two-insertion J={J}"
    print("criterion 6: one-insertion J<=6 and two-insertion J<=5 match the oracle exactly")


@pytest.mark.acceptance(criterion=7, title="triple-nesting identity at L = 1, 2, 3")
def test_criterion_7_identity_at_scale():
    for L in (1, 2):
        report = verify_bremner(L)
        closed = [closed_form_multiplicity(n, L) for n in range(6 * L + 1)]
        assert report.verified and report.profile == closed, L

    expr = nested_shape(2)
    assert naive_term_count(expr) == 1_728_000
    start = perf_counter()
    oracle_classes = oracle_profile(expr)
    elapsed_oracle = perf_counter() - start
    assert elapsed_oracle < 60.0
    assert CoefficientProfile.from_classes(oracle_classes, 2).m == tuple(
        closed_form_multiplicity(n, 2) for n in range(13)
    )
    assert oracle_classes == fast_profile(expr)

    report3, elapsed3 = timed(verify_bremner, 3)
    assert report3.verified
    assert report3.profile == [closed_form_multiplicity(n, 3) for n in range(19)]
    assert elapsed3 < 300.0
    print(f"criterion 7: L=1,2 verified, 1.7M-word oracle cross-check {elapsed_oracle:.1f} s, "
          f"L=3 fast path {elapsed3 * 1e3:.0f} ms")


@pytest.mark.acceptance(criterion=8, title="closed-form sums and reflection for L = 1..50")
def test_criterion_8_closed_form_sweep():
    start = perf_counter()
    for L in range(1, 51):
        values = [reduced_multiplicity(n, L) for n in range(6 * L + 1)]
        assert sum(values) == 2 * L * (2 * L + 1) ** 2, L
        full = [closed_form_multiplicity(n, L) for n in range(6 * L + 1)]
        assert sum(full) == factorial(2 * L + 1) ** 3, L
        assert full == full[::-1], L
    elapsed = perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 8: sums and reflection hold for L = 1..50 in {elapsed:.2f} s")


@pytest.mark.acceptance(criterion=9, title="property suite: exactness, equivalence, determinism")
def test_criterion_9_property_suite():
    rng = random.Random(97)

    # entry-swap antisymmetry and multilinearity on random small elements
    for _ in range(25):
        entries = [
            FreeElement.from_word(tuple(rng.sample(range(1, 10), rng.randint(1, 2))))
            for _ in range(rng.randint(2, 4))
        ]
        i, j = rng.sample(range(len(entries)), 2)
        swapped = list(entries)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert expand_bracket(swapped) == -expand_bracket(entries)
        x, y = FreeElement.from_word((11,)), FreeElement.from_word((12, 13))
        combined = expand_bracket([x + y] + entries)
        assert combined == expand_bracket([x] + entries) + expand_bracket([y] + entries)

    # oracle/fast equivalence on 100 random supported shapes (<= 1e6 naive
    # words); every tenth draw is forced above 2e4 words
    start = perf_counter()
    total_words = 0
    for case in range(100):
        floor = 20_000 if case % 10 == 0 else 0
        expr = random_supported_shape(rng, max_naive=1_000_000, min_naive=floor)
        total_words += naive_term_count(expr)
        assert fast_profile(expr) == oracle_profile(expr), f"case {case}: {render(expr)}"
    elapsed_equiv = perf_counter() - start

    # parser round-trip on 1000 random expression trees
    for case in range(1000):
        expr = random_ast(rng)
        assert parse(render(expr)) == expr, f"round-trip case {case}"

    # identical class maps regardless of worker count
    for expr in (nested_shape(1), split_shape(1), random_supported_shape(rng)):
        assert oracle_profile(expr, jobs=1) == oracle_profile(expr, jobs=2)

    print(f"criterion 9: 100-shape equivalence ({total_words} words in {elapsed_equiv:.1f} s), "
          f"1000 round-trips, thread-count determinism all exact")
