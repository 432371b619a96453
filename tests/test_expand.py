import random
from math import factorial

import pytest

from nbracket import expand
from nbracket.algebra import FreeElement
from nbracket.expand import (
    TermBudgetExceeded,
    UnsupportedShapeError,
    bracket_sizes,
    expand_bracket,
    expand_expr,
    fast_profile,
    intercalate_one,
    intercalate_two,
    naive_term_count,
    oracle_profile,
    profile_auto,
    word_count,
)
from nbracket.syntax import Atom, Bracket, Product, parse

from support import random_composite_shape, random_supported_shape

A = FreeElement.from_symbol("A")
Z = FreeElement.from_symbol("Z")


def element(*words):
    return FreeElement((tuple(w), 1) for w in words)


def scaled(classes, factor):
    return {p: factor * c for p, c in classes.items()}


# ---------------------------------------------------------------------------
# literal expansion


def test_three_bracket_words():
    out = expand_bracket([A, FreeElement.from_symbol("B"), FreeElement.from_symbol("C")])
    assert {w: c for w, c in out.items()} == {
        ("A", "B", "C"): 1,
        ("A", "C", "B"): -1,
        ("B", "C", "A"): 1,
        ("B", "A", "C"): -1,
        ("C", "A", "B"): 1,
        ("C", "B", "A"): -1,
    }


def test_product_entry_words():
    out = expand_expr(parse("[AD,B,C]"))
    assert {w: c for w, c in out.items()} == {
        ("A", "D", "B", "C"): 1,
        ("A", "D", "C", "B"): -1,
        ("B", "C", "A", "D"): 1,
        ("B", "A", "D", "C"): -1,
        ("C", "A", "D", "B"): 1,
        ("C", "B", "A", "D"): -1,
    }


def test_equal_entries_cancel():
    assert expand_bracket([A, A]) == FreeElement.zero()


def test_entry_swap_negates():
    rng = random.Random(7)
    for _ in range(20):
        entries = [
            FreeElement.from_word(tuple(rng.sample(range(1, 9), rng.randint(1, 2))))
            for _ in range(3)
        ]
        swapped = [entries[1], entries[0], entries[2]]
        assert expand_bracket(swapped) == -expand_bracket(entries)


def test_multilinearity():
    x, y, z = element((1,)), element((2,)), element((3,))
    left = expand_bracket([x + y, z])
    assert left == expand_bracket([x, z]) + expand_bracket([y, z])


def test_nested_commutator_words():
    # [[A b1] b2] spelled out by hand from the two commutators
    out = expand_expr(parse("[[A b1] b2]"))
    assert {w: c for w, c in out.items()} == {
        ("A", 1, 2): 1,
        (1, "A", 2): -1,
        (2, "A", 1): -1,
        (2, 1, "A"): 1,
    }


def test_triple_nesting_word_count():
    expr = parse("[[A[bcd]e]fg]")
    assert naive_term_count(expr) == 216
    assert len(expand_expr(expr)) == 216


def test_budget_is_enforced():
    with pytest.raises(TermBudgetExceeded):
        expand_expr(parse("[[A[bcd]e]fg]"), budget=100)
    with pytest.raises(TermBudgetExceeded):
        oracle_profile(flat(12), budget=10**6)


def flat(size):
    return Bracket(tuple(Atom(i) for i in range(1, size + 1)))


# ---------------------------------------------------------------------------
# oracle profiles


def test_profile_of_single_head_brackets():
    assert oracle_profile(parse("[A b1 b2]")) == {
        ("A", 0, 0): 2,
        (0, "A", 0): -2,
        (0, 0, "A"): 2,
    }


def test_full_expansion_reduces_to_the_seven_class_profile():
    from nbracket.algebra import reduce_element

    expr = parse("[[A[bcd]e]fg]")
    classes = reduce_element(expand_expr(expr))
    assert classes == {
        ("A", 0, 0, 0, 0, 0, 0): 24,
        (0, "A", 0, 0, 0, 0, 0): -36,
        (0, 0, "A", 0, 0, 0, 0): 36,
        (0, 0, 0, "A", 0, 0, 0): -24,
        (0, 0, 0, 0, "A", 0, 0): 36,
        (0, 0, 0, 0, 0, "A", 0): -36,
        (0, 0, 0, 0, 0, 0, "A"): 24,
    }
    assert classes == oracle_profile(expr)


def test_profile_requires_distinct_indices():
    from nbracket.syntax import DuplicateAntiIndexError

    with pytest.raises(DuplicateAntiIndexError):
        oracle_profile(parse("[b1 [b1 b2]]"))


def test_jobs_do_not_change_the_profile():
    expr = parse("[[A[bcd]e]fg]")
    serial = oracle_profile(expr)
    assert oracle_profile(expr, jobs=2) == serial
    assert oracle_profile(parse("[a b]"), jobs=8) == oracle_profile(parse("[a b]"))


def test_worker_count_is_clamped_at_cpu_count(monkeypatch):
    # a stub pool records its size and maps serially, so no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(expand, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(expand.os, "cpu_count", lambda: 3)
    expr = Bracket((Atom("A"),) + tuple(Atom(i) for i in range(1, 8)))
    assert oracle_profile(expr, jobs=100_000) == oracle_profile(expr)
    assert sizes == [3]


# ---------------------------------------------------------------------------
# antisymmetry of family atoms


def test_inner_family_bracket_is_factorial_times_its_ordered_product():
    # every ordering of distinct family atoms reduces to one class, the
    # ordering sign cancelled by relabeling; checked on the oracle alone
    expr = parse("[[A[bcd]e]fg]")
    inner = Product((Atom(1), Atom(2), Atom(3)))
    ordered = Bracket((Bracket((Atom("A"), inner, Atom(4))), Atom(5), Atom(6)))
    assert oracle_profile(expr) == scaled(oracle_profile(ordered), 6)
    assert oracle_profile(parse("[b1b2b3]")) == scaled(oracle_profile(parse("(b1b2b3)")), 6)


# ---------------------------------------------------------------------------
# insertion expansions


def test_intercalate_one_examples():
    assert intercalate_one(A, 1) == {("A", 0): 1, (0, "A"): -1}
    assert intercalate_one(A, 2) == {("A", 0, 0): 2, (0, "A", 0): -2, (0, 0, "A"): 2}


@pytest.mark.parametrize("slots", range(7))
def test_intercalate_one_matches_oracle(slots):
    expr = Bracket((Atom("A"),) + tuple(Atom(i) for i in range(1, slots + 1)))
    assert intercalate_one(A, slots) == oracle_profile(expr)


def test_intercalate_two_commutator():
    assert intercalate_two(A, Z, 0) == {("A", "Z"): 1, ("Z", "A"): -1}


@pytest.mark.parametrize("slots", range(6))
def test_intercalate_two_matches_oracle(slots):
    expr = Bracket(
        (Atom("A"),) + tuple(Atom(i) for i in range(1, slots + 1)) + (Atom("Z"),)
    )
    assert intercalate_two(A, Z, slots) == oracle_profile(expr)


def test_intercalate_splices_composite_heads():
    # head with its own family indices, tail an ordered product
    head_expr = Bracket((Atom("A"), Atom(4), Atom(5)))
    head = expand_expr(head_expr)
    tail = FreeElement.from_word((6, 7))
    expr = Bracket(
        (head_expr, Atom(1), Atom(2), Atom(3), Product((Atom(6), Atom(7))))
    )
    assert intercalate_two(head, tail, 3) == oracle_profile(expr)


def test_intercalate_two_at_triple_nesting_scale():
    # the insertion rule applied to a five-entry bracket head and a
    # five-factor product tail, the workload the fast route runs on
    head_expr = Bracket((Atom("A"),) + tuple(Atom(i) for i in range(4, 8)))
    tail_word = tuple(range(8, 13))
    expr = Bracket(
        (head_expr, Atom(1), Atom(2), Atom(3),
         Product(tuple(Atom(i) for i in tail_word)))
    )
    result = intercalate_two(expand_expr(head_expr), FreeElement.from_word(tail_word), 3)
    assert result == oracle_profile(expr)


def test_intercalate_rejects_slot_collisions():
    with pytest.raises(ValueError):
        intercalate_one(FreeElement.from_word((1, "A")), 2)


# ---------------------------------------------------------------------------
# fast route


def test_fast_profile_matches_oracle_on_named_shapes():
    for text in (
        "[ABC]",
        "[A b1 b2]",
        "[b1 b2 b3]",
        "[b1 [b2 b3]]",
        "[[A[bcd]e]fg]",
        "[[Abc][def]g]",
        "[A [bcd] [efg]]",
        "[(AD) b1 b2]",
        "[([b1 b2] [A b3]) b4]",
        "[(b2 A b1) [Z b3] b4 b5]",
        "[A B C b1 b2]",
    ):
        expr = parse(text)
        assert fast_profile(expr) == oracle_profile(expr), text


def test_fast_profile_matches_oracle_on_random_shapes():
    rng = random.Random(20260810)
    for _ in range(25):
        expr = random_supported_shape(rng, max_naive=50_000)
        assert fast_profile(expr) == oracle_profile(expr), expr


def test_fast_profile_matches_oracle_on_composite_products():
    # products of brackets, like ([b1 b2] [A b3]), and fixed atoms inside
    # products, which random_supported_shape never draws
    rng = random.Random(20261018)
    shapes = [random_composite_shape(rng, max_naive=20_000) for _ in range(200)]
    products = [f for expr in shapes for f in _nodes(expr) if isinstance(f, Product)]
    assert sum(any(isinstance(x, Bracket) for x in f.factors) for f in products) >= 50
    assert sum(any(isinstance(x, Atom) and isinstance(x.symbol, str) for x in f.factors)
               for f in products) >= 100
    for expr in shapes:
        assert fast_profile(expr) == oracle_profile(expr), expr


def _nodes(expr):
    yield expr
    for kid in getattr(expr, "factors", getattr(expr, "entries", ())):
        yield from _nodes(kid)


def test_moving_an_inner_bracket_to_a_trailing_product():
    # [[A b1 b2][b3 b4 b5] b6] equals -3! times [[A b1 b2] b6 (b3 b4 b5)]:
    # one entry transposition past an odd entry count, then the factor 3! of
    # the inner family bracket
    head = Bracket((Atom("A"), Atom(1), Atom(2)))
    original = Bracket((head, Bracket((Atom(3), Atom(4), Atom(5))), Atom(6)))
    moved = Bracket((head, Atom(6), Product((Atom(3), Atom(4), Atom(5)))))
    assert oracle_profile(original) == scaled(oracle_profile(moved), -6)


def test_entry_permutations_scale_profiles_by_parity():
    from nbracket.permutations import parity

    rng = random.Random(3344)
    for _ in range(10):
        expr = random_supported_shape(rng, max_naive=20_000)
        baseline = oracle_profile(expr)
        order = list(range(len(expr.entries)))
        rng.shuffle(order)
        permuted = Bracket(tuple(expr.entries[i] for i in order))
        assert oracle_profile(permuted) == scaled(baseline, parity(order))
        assert fast_profile(permuted) == scaled(baseline, parity(order))


def test_single_entry_bracket_equals_its_entry():
    for text in ("[A]", "[b1]", "[(A b1 b2)]"):
        wrapped = expand_expr(parse(text))
        unwrapped = expand_expr(parse(text[1:-1]))
        assert wrapped == unwrapped, text


@pytest.mark.slow
def test_fast_matches_oracle_on_the_wide_half_order_two_shape():
    from nbracket.identities import split_shape

    expr = split_shape(2)
    assert naive_term_count(expr) == 1_728_000
    assert fast_profile(expr) == oracle_profile(expr)


def test_fast_profile_rejects_wide_nestings():
    expr = Bracket((
        Bracket((Atom("A"), Atom(1))),
        Bracket((Atom("Z"), Atom(2))),
        Bracket((Atom("Q"), Atom(3))),
    ))
    with pytest.raises(UnsupportedShapeError):
        fast_profile(expr)
    # the oracle still covers it
    assert oracle_profile(expr) != {}


def test_wide_brackets_below_the_root_are_refused_and_fall_back():
    # the first profile vanishes; the second, of 3-brackets, keeps 4 classes
    for text, size in (("[A [[b1 b2][b3 b4][b5 b6]] b7]", 0),
                       ("[A [[b1 b2 b3][b4 b5 b6][b7 b8 b9]] b10]", 4)):
        expr = parse(text)
        with pytest.raises(UnsupportedShapeError):
            fast_profile(expr)
        classes, route = profile_auto(expr, budget=10**6)
        assert route == "oracle" and classes == oracle_profile(expr), text
        assert len(classes) == size, text
    # a product of three brackets is composed, not refused
    expr = parse("[A ([b1 b2][b3 b4][b5 b6]) b7]")
    classes = oracle_profile(expr)
    assert classes and profile_auto(expr, budget=10**6) == (classes, "fast")


def test_kernel_generates_exactly_the_counted_words():
    # the budget gates rest on these counters: the literal count must equal
    # the number of words the oracle's kernel yields, and the fast route, which
    # builds no word, must pass a budget of its collapsed count and no less
    rng = random.Random(4417)
    for _ in range(25):
        expr = random_supported_shape(rng, max_naive=20_000)
        literal = sum(1 for _ in expand._terms(expr))
        assert literal == naive_term_count(expr), expr
        collapsed = word_count(bracket_sizes(expr, collapsed=True))
        assert fast_profile(expr, budget=collapsed) == oracle_profile(expr), expr
        with pytest.raises(TermBudgetExceeded):
            fast_profile(expr, budget=collapsed - 1)


def test_collapsed_count_is_factorially_smaller():
    expr = parse("[[A[bcd]e]fg]")
    assert naive_term_count(expr) == 216
    assert word_count(bracket_sizes(expr, collapsed=True)) < 216
    # family atoms collapse to one representative, fixed atoms cannot
    assert word_count(bracket_sizes(flat(4), collapsed=True)) == 1
    assert word_count(bracket_sizes(parse("[ABCD]"), collapsed=True)) == factorial(4)
