from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nbracket.algebra import (
    FreeElement,
    canonical_reduce,
    merge_class_maps,
    pattern_str,
    reduce_element,
    reduce_terms,
    sort_words,
    symbol_sort_key,
)

A, Z = "A", "Z"


def words(element):
    return {w: c for w, c in element.items()}


# ---------------------------------------------------------------------------
# canonical reduction


def test_reduce_single_transposition():
    assert canonical_reduce((2, 1, A)) == (-1, (0, 0, A))


def test_reduce_repeated_index_vanishes():
    assert canonical_reduce((1, 1, A)) is None


def test_reduce_even_cycle():
    assert canonical_reduce((3, A, 1, 2)) == (1, (0, A, 0, 0))


def test_reduce_empty_and_fixed_only():
    assert canonical_reduce(()) == (1, ())
    assert canonical_reduce((A, Z)) == (1, (A, Z))


@st.composite
def random_words(draw, max_len=12):
    length = draw(st.integers(0, max_len))
    return tuple(
        draw(st.one_of(st.integers(1, 9), st.sampled_from("AZQ")))
        for _ in range(length)
    )


@given(random_words())
def test_reduce_sign_is_inversion_parity(word):
    indices = [s for s in word if isinstance(s, int)]
    if len(set(indices)) != len(indices):
        assert canonical_reduce(word) is None
        return
    inversions = sum(
        1
        for i in range(len(indices))
        for j in range(i + 1, len(indices))
        if indices[i] > indices[j]
    )
    sign, pattern = canonical_reduce(word)
    assert sign == (-1) ** inversions
    assert len(pattern) == len(word)
    assert [s for s in pattern if s != 0] == [s for s in word if isinstance(s, str)]


def test_reduce_terms_accumulates_and_cancels():
    assert reduce_terms([(1, (A, 1)), (-1, (1, A))]) == {(A, 0): 1, (0, A): -1}
    assert reduce_terms([(1, (2, 1)), (1, (1, 2))]) == {}


def test_merge_class_maps_is_partition_independent():
    terms = [(1, (1, 2, A)), (2, (2, 1, A)), (-1, (A, 1, 2)), (1, (A, 2, 1))]
    whole = reduce_terms(terms)
    pieces = [reduce_terms([t]) for t in terms]
    assert merge_class_maps(pieces) == whole
    assert merge_class_maps([reduce_terms(terms[:2]), reduce_terms(terms[2:])]) == whole


# ---------------------------------------------------------------------------
# free elements

free_elements = st.builds(
    FreeElement,
    st.lists(
        st.tuples(random_words(max_len=4), st.integers(-3, 3)),
        max_size=4,
    ).map(lambda items: [(w, c) for w, c in items]),
)


def test_zero_coefficients_never_stored():
    e = FreeElement([((A,), 1), ((A,), -1), ((1,), 2)])
    assert words(e) == {(1,): 2}


def test_fraction_coefficients_stay_exact():
    e = FreeElement([((A,), Fraction(1, 20))])
    assert (e + e).coefficient((A,)) == Fraction(1, 10)
    assert (e - e - e).coefficient((A,)) == Fraction(-1, 20)


def test_inexact_coefficients_are_refused_and_words_become_tuples():
    for coeff in (True, 1.0):
        with pytest.raises(TypeError):
            FreeElement([((A,), coeff)])
    e = FreeElement([([A, 1], 2), ((A, 1), 1)])
    assert words(e) == {(A, 1): 3}


@given(free_elements, free_elements)
def test_reduce_element_is_linear(x, y):
    left = reduce_element(x + y)
    right = merge_class_maps([reduce_element(x), reduce_element(y)])
    assert left == right


def test_rendering():
    assert pattern_str((0, A, 0)) == "b* A b*"


# ---------------------------------------------------------------------------
# word order


def test_sort_words_puts_fixed_names_before_family_indices():
    words_ = [(2,), (1, A), (), (Z,), (A, 2), (A,), (A, 1), (1,)]
    assert sort_words(words_) == [(), (A,), (A, 1), (A, 2), (Z,), (1,), (1, A), (2,)]


@given(st.lists(random_words(), max_size=20))
def test_sort_words_equals_a_sort_by_per_symbol_keys(words_):
    # a rank table read symbol by symbol gives the order of the symbols' own keys
    expected = sorted(words_, key=lambda w: [symbol_sort_key(s) for s in w])
    assert sort_words(words_) == expected
