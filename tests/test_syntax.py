import pytest
from hypothesis import given, settings, strategies as st

from nbracket.syntax import (
    MAX_DEPTH,
    Atom,
    Bracket,
    DuplicateAntiIndexError,
    ParseError,
    Product,
    anti_indices,
    parse,
    render,
    validate_unique_anti,
)


def test_bare_letters_get_indices_by_first_appearance():
    assert parse("[abc]") == Bracket((Atom(1), Atom(2), Atom(3)))


def test_comma_groups_form_products():
    assert parse("[AD,B,C]") == Bracket((Product((Atom("A"), Atom("D"))), Atom("B"), Atom("C")))


def test_comma_and_paren_forms_agree():
    assert parse("[AD,B,C]") == parse("[(AD)BC]") == parse("[(AD) B C]")


def test_nested_brackets():
    expected = Bracket((
        Bracket((Atom("A"), Bracket((Atom(1), Atom(2), Atom(3))), Atom(4))),
        Atom(5),
        Atom(6),
    ))
    assert parse("[[A[bcd]e]fg]") == expected


def test_explicit_indices_and_whitespace():
    assert parse(" [ A b2  b1 ] ") == Bracket((Atom("A"), Atom(2), Atom(1)))
    assert parse("[b12b3]") == Bracket((Atom(12), Atom(3)))
    # any decimal digit int() reads is an index digit ("b²" is a parse error)
    assert parse("[A b\u0663]") == Bracket((Atom("A"), Atom(3)))


def test_bare_letters_skip_explicit_indices():
    # a and c take the lowest unused indices around the explicit b2
    assert parse("[b2 a c]") == Bracket((Atom(2), Atom(1), Atom(3)))


def test_repeated_bare_letter_is_same_generator():
    assert parse("[a a]") == Bracket((Atom(1), Atom(1)))


def test_single_entry_bracket():
    assert parse("[x]") == Bracket((Atom(1),))
    assert parse("(A)") == Product((Atom("A"),))


def test_role_overrides():
    assert parse("[zbc]", roles={"z": "fixed"}) == Bracket((Atom("z"), Atom(1), Atom(2)))
    assert parse("[Z1 Z2]", roles={"Z": "anti"}) == Bracket((Atom(1), Atom(2)))


PARSE_ERRORS = [
    ("", 0, "unexpected end of input"),
    ("[]", 0, "empty bracket"),
    ("()", 0, "empty parentheses"),
    ("[A", 0, "unclosed bracket"),
    ("(A", 0, "unclosed parenthesis"),
    ("A]", 1, "trailing input"),
    ("[A)", 2, "mismatched ')'"),
    ("[A,,B]", 3, "empty entry before comma"),
    ("[,A]", 1, "empty entry before comma"),
    ("[A,B,]", 5, "empty entry after comma"),
    (",", 0, "unexpected ','"),
    ("[A?B]", 2, "unexpected character '?'"),
    ("[b0]", 1, "family index must be >= 1, got b0"),
    ("[A3]", 1, "fixed symbol 'A' takes no index"),
    ("[AB] C", 5, "trailing input"),
    ("3", 0, "unexpected character '3'"),
    ("[A b²]", 4, "unexpected character '²'"),
    # past int()'s digit limit: the count is reported, not the digits
    ("[A b" + "7" * 5000 + "]", 3, "family index too long: 5000 digits"),
    # every unexpected character is reported before any bad index
    ("[b0 ?]", 4, "unexpected character '?'"),
]


@pytest.mark.parametrize("text, offset_hint, message", PARSE_ERRORS,
                         ids=[f"{text[:12]}-{offset}" for text, offset, _ in PARSE_ERRORS])
def test_parse_errors_carry_offsets(text, offset_hint, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset_hint
    assert message in str(err.value)


def test_roles_are_validated_whether_or_not_their_letter_occurs():
    with pytest.raises(ValueError, match="must be 'fixed' or 'anti'"):
        parse("[A]", roles={"q": "bogus"})


@pytest.mark.parametrize("opener, closer", [("[", "]"), ("(", ")")])
def test_nesting_depth_is_capped(opener, closer):
    deepest = opener * MAX_DEPTH + "A" + closer * MAX_DEPTH
    assert render(parse(deepest)) == deepest
    with pytest.raises(ParseError) as info:
        parse(opener + deepest + closer)
    assert info.value.offset == MAX_DEPTH


def test_render_examples():
    assert render(parse("[A b1 c]")) == "[A b1 b2]"
    assert render(parse("[AD,B,C]")) == "[(AD) B C]"
    assert render(parse("[[A[bcd]e]fg]")) == "[[A [b1 b2 b3] b4] b5 b6]"


# hypothesis AST generator used for the round-trip law

atoms = st.one_of(
    st.integers(1, 30).map(Atom),
    st.sampled_from("ABCDXYZ").map(Atom),
)


def expressions(depth=3):
    if depth == 0:
        return atoms
    sub = expressions(depth - 1)
    return st.one_of(
        atoms,
        st.lists(sub, min_size=1, max_size=4).map(lambda xs: Product(tuple(xs))),
        st.lists(sub, min_size=1, max_size=4).map(lambda xs: Bracket(tuple(xs))),
    )


@settings(max_examples=300)
@given(expressions())
def test_parse_render_roundtrip(expr):
    assert parse(render(expr)) == expr


def test_anti_index_validation():
    expr = parse("[b1 [b2 b1]]")
    assert anti_indices(expr) == [1, 2, 1]
    with pytest.raises(DuplicateAntiIndexError):
        validate_unique_anti(expr)
    validate_unique_anti(parse("[b1 [b2 b3]]"))
    with pytest.raises(DuplicateAntiIndexError, match=r"expression: b1, b3$"):
        validate_unique_anti(parse("[b3 b1 [b3 b1 (b1 A)] b2]"))


def test_anti_indices_keep_occurrence_order_under_a_product_and_deep_nesting():
    expr = Product((Atom(3), Bracket((Atom("A"), Atom(1), Product((Atom(3), Atom("B"))))), Atom(2)))
    assert anti_indices(expr) == [3, 1, 3, 2]
    assert anti_indices(Atom(5)) == [5] and anti_indices(Atom("A")) == []
    deep = Atom(1)
    for depth in range(2, MAX_DEPTH + 1):  # k A (deeper) k, products and brackets in turn
        deep = (Bracket if depth % 2 else Product)((Atom(depth), Atom("A"), deep, Atom(depth)))
    assert anti_indices(deep) == [*range(MAX_DEPTH, 1, -1), 1, *range(2, MAX_DEPTH + 1)]


def test_anti_indices_reject_a_non_expression():
    for bad in ("[b1]", 1, None, Bracket((Atom(1), "b2")), Product((Bracket((Atom(1), 2)),))):
        with pytest.raises(TypeError, match="not a bracket expression"):
            anti_indices(bad)
        with pytest.raises(TypeError, match="not a bracket expression"):
            validate_unique_anti(bad)
