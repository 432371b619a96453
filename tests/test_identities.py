import random
from fractions import Fraction
from math import comb, factorial, gcd
from time import perf_counter

import pytest

import nbracket.identities as identities
from nbracket.expand import bracket_sizes, fast_profile, oracle_profile, word_count
from nbracket.identities import (
    SKELETONS,
    CoefficientProfile,
    UnsupportedParameter,
    bremner_profiles,
    build,
    check_sums,
    closed_form_multiplicity,
    coeff_json,
    decompose,
    decomposition_basis,
    decomposition_target,
    double_action_expr,
    flat_bracket_expr,
    intercalation_profile,
    multiplicity_prefactor,
    nested_shape,
    odd_reduction_constant,
    one_fixed_pattern,
    reduced_multiplicity,
    relate,
    skeleton_sizes,
    split_shape,
    verify_bremner,
    verify_decomposition,
    verify_even_gji,
    verify_odd_reduction,
)
from nbracket.algebra import pattern_str, symbol_sort_key
from nbracket.syntax import anti_indices, parse, render


# ---------------------------------------------------------------------------
# closed forms


def test_reduced_multiplicity_half_order_one():
    assert [reduced_multiplicity(n, 1) for n in range(7)] == [2, 3, 3, 2, 3, 3, 2]


def test_reduced_multiplicity_half_order_two():
    values = [reduced_multiplicity(n, 2) for n in range(13)]
    assert values == [4, 7, 9, 10, 10, 7, 6, 7, 10, 10, 9, 7, 4]
    assert sum(values) == 100


def test_reduced_multiplicity_range_checks():
    with pytest.raises(UnsupportedParameter):
        reduced_multiplicity(-1, 1)
    with pytest.raises(UnsupportedParameter):
        reduced_multiplicity(7, 1)
    for L in (0, -1):
        with pytest.raises(UnsupportedParameter):
            reduced_multiplicity(0, L)
    # the factorial prefactor refuses a bad half-order before math.factorial can
    for call in (lambda: multiplicity_prefactor(0), lambda: CoefficientProfile.closed_form(0),
                 lambda: CoefficientProfile.closed_form(-2),
                 lambda: closed_form_multiplicity(0, 0)):
        with pytest.raises(UnsupportedParameter, match="half-order must be an integer >= 1"):
            call()


def test_closed_form_multiplicity_values():
    assert closed_form_multiplicity(0, 1) == 24
    assert closed_form_multiplicity(1, 1) == 36
    assert closed_form_multiplicity(0, 2) == 17280 * 4 == 69120
    assert multiplicity_prefactor(2) == 17280


def test_check_sums_examples():
    for L, reduced_sum in ((1, 18), (2, 100), (10, 8820)):
        report = check_sums(L)
        assert report.verified
        assert report.details["reduced_sum"] == reduced_sum
    assert check_sums(1).details["multiplicity_sum"] == str(216)


def test_check_sums_refuses_exactly_the_sums_too_long_to_print():
    # ((2L+1)!)^3 has 4300 digits at L = 304, the default limit, and 4317 at L = 305
    assert check_sums(304).verified
    with pytest.raises(UnsupportedParameter):
        check_sums(305)


def test_reports_time_themselves():
    for verify, param in ((check_sums, 3), (verify_bremner, 1), (verify_even_gji, 4),
                          (verify_odd_reduction, 3), (verify_decomposition, 1)):
        start = perf_counter()
        report = verify(param)
        assert 0 <= report.elapsed_ms <= (perf_counter() - start) * 1e3, verify.__name__


def test_check_sums_builds_the_prefactor_once(monkeypatch):
    import nbracket.identities as identities

    calls = []

    def counted(L):
        calls.append(L)
        return multiplicity_prefactor(L)

    monkeypatch.setattr(identities, "multiplicity_prefactor", counted)
    assert check_sums(5).verified
    assert calls == [5]


def test_check_sums_reports_both_sums_when_they_miss(monkeypatch):
    import nbracket.identities as identities

    true_values = identities.reduced_multiplicity

    def perturbed(n, L):
        value = true_values(n, L)
        return value + 1 if n == 2 else value

    # the mirror class n = 4 reads n = 2, so both gain 1
    monkeypatch.setattr(identities, "reduced_multiplicity", perturbed)
    report = check_sums(1)
    assert report.status == "violated"
    assert report.witness == {"reduced_sum": 20, "expected_reduced_sum": 18,
                              "multiplicity_sum": "240", "expected_multiplicity_sum": "216"}


# ---------------------------------------------------------------------------
# shapes


def test_shape_builders_match_notation():
    assert render(split_shape(1)) == "[[A b1 b2] [b3 b4 b5] b6]"
    assert render(nested_shape(1)) == "[[A [b1 b2 b3] b4] b5 b6]"
    assert render(double_action_expr(2)) == "[b1 [b2 b3]]"
    assert render(flat_bracket_expr(3)) == "[b1 b2 b3]"
    assert render(flat_bracket_expr(3, lead_fixed="A")) == "[A b1 b2]"
    assert [render(b) for b in decomposition_basis(1)] == ["[A b1 b2 b3 b4 b5 b6]",
                                                           "[A [b1 b2 b3] [b4 b5 b6]]"]
    assert split_shape(1) == parse("[[Abc][def]g]")
    assert nested_shape(1) == parse("[[A[bcd]e]fg]")


# ---------------------------------------------------------------------------
# even and odd double action


def test_even_double_action_vanishes():
    for N in (2, 4):
        report = verify_even_gji(N)
        assert report.verified
        assert report.witness is None


def test_odd_double_action_survives():
    for N in (3, 5):
        report = verify_even_gji(N)
        assert report.status == "violated"
        assert report.witness["coefficient"] != 0
        assert report.witness["expected"] == 0


def test_double_action_routes_agree():
    # verify even runs the fast route; the oracle stays its reference
    for N in range(2, 7):
        expr = double_action_expr(N)
        assert fast_profile(expr) == oracle_profile(expr), N


def test_even_gji_rejects_small_sizes():
    with pytest.raises(UnsupportedParameter):
        verify_even_gji(1)


def test_odd_reduction_constants():
    # derived once from the oracle, pinned here as regression values
    assert odd_reduction_constant(1) == 1
    assert odd_reduction_constant(3) == Fraction(3, 10)
    assert odd_reduction_constant(5) == Fraction(5, 126)


def test_odd_reduction_constant_conjecture():
    # N / C(2N-1, N) is a conjecture swept here, not a formula the verifier uses
    for N in range(3, 52, 2):
        assert odd_reduction_constant(N) == Fraction(N, comb(2 * N - 1, N)), N


def test_odd_reduction_oracle_and_fast_agree():
    oracle, _ = relate(oracle_profile(double_action_expr(3)),
                       [oracle_profile(flat_bracket_expr(5))])
    assert oracle == [odd_reduction_constant(3)]


def test_odd_reduction_rejects_even_sizes():
    with pytest.raises(UnsupportedParameter):
        odd_reduction_constant(2)


def test_verify_odd_reduction_report():
    report = verify_odd_reduction(3)
    assert report.verified
    assert report.details["constant"] == "3/10"


def test_a_zero_odd_reduction_constant_is_a_violation(monkeypatch):
    import nbracket.identities as identities

    true_profile = identities.fast_profile
    victim = double_action_expr(3)
    monkeypatch.setattr(identities, "fast_profile", lambda expr, budget:
                        {} if expr == victim else true_profile(expr, budget=budget))
    report = verify_odd_reduction(3)
    assert report.status == "violated"
    assert report.details == {"constant": "0"}
    assert report.witness is None


# ---------------------------------------------------------------------------
# the triple-nesting identity


def test_profiles_match_closed_form_up_to_three():
    for L in (1, 2, 3):
        side1, side2 = bremner_profiles(L)
        closed = CoefficientProfile.closed_form(L)
        assert side1.m == side2.m == closed.m
        assert side1.m == side1.m[::-1]


def test_profiles_beyond_the_verification_limit():
    for L in (4, 20, 30, 60, 100):
        side1, side2 = bremner_profiles(L)
        assert side1.m == side2.m == CoefficientProfile.closed_form(L).m, L


def test_every_skeleton_builds_its_public_shape_and_knows_its_sizes():
    by_half_order = {"split": split_shape, "nested": nested_shape,
                     "flat": lambda L: decomposition_basis(L)[0],
                     "paired": lambda L: decomposition_basis(L)[1]}
    by_size = {"double action": double_action_expr,
               "odd reduction": lambda N: flat_bracket_expr(2 * N - 1)}
    assert set(SKELETONS) == set(by_half_order) | set(by_size)
    cases = [(SKELETONS[name](2 * L + 1), shape(L))
             for name, shape in by_half_order.items() for L in range(1, 7)]
    cases += [(SKELETONS[name](N), shape(N)) for name, shape in by_size.items() for N in range(2, 14)]
    for skeleton, expr in cases:
        assert build(skeleton) == expr, skeleton
        indices = anti_indices(expr)  # numbered depth-first from 1
        assert indices == list(range(1, len(indices) + 1)), skeleton
        for collapsed in (False, True):
            assert skeleton_sizes(skeleton, collapsed) == bracket_sizes(expr, collapsed), skeleton


def test_half_order_one_profile_values():
    side1, _ = bremner_profiles(1)
    assert side1.m == (24, 36, 36, 24, 36, 36, 24)
    assert side1.signed(0) == 24
    assert side1.signed(1) == -36


def test_verify_bremner_small_orders():
    for L in (1, 2):
        report = verify_bremner(L)
        assert report.verified
        assert report.profile == [closed_form_multiplicity(n, L) for n in range(6 * L + 1)]
        assert report.witness is None


def test_verify_bremner_compares_real_profiles_at_large_order():
    report = verify_bremner(5)
    assert report.verified
    assert report.details["path"] == "fast"
    assert report.profile == list(CoefficientProfile.closed_form(5).m)
    assert report.terms == sum(word_count(bracket_sizes(shape(5), collapsed=True))
                               for shape in (split_shape, nested_shape))


def test_verify_bremner_detects_perturbation(monkeypatch):
    import nbracket.identities as identities

    true_values = identities.reduced_multiplicity

    def perturbed(n, L):
        value = true_values(n, L)
        return value + 1 if n == 2 else value

    monkeypatch.setattr(identities, "reduced_multiplicity", perturbed)
    report = verify_bremner(1)
    assert report.status == "violated"
    assert report.witness["n"] == 2
    assert report.witness["closed_form"] != report.witness["split"]


def test_verify_bremner_rejects_bad_order():
    for L in (0, -1):
        for call in (verify_bremner, bremner_profiles):
            with pytest.raises(UnsupportedParameter):
                call(L)


def test_oracle_cross_check_half_order_one():
    closed = CoefficientProfile.closed_form(1)
    for expr in (split_shape(1), nested_shape(1)):
        classes = oracle_profile(expr)
        assert CoefficientProfile.from_classes(classes, 1).m == closed.m


def test_from_classes_rejects_stray_patterns():
    with pytest.raises(ValueError):
        CoefficientProfile.from_classes({("A", "A"): 1}, 1)


def test_from_classes_reads_no_classes_as_a_zero_profile(monkeypatch):
    import nbracket.identities as identities

    assert CoefficientProfile.from_classes({}, 1).m == (0,) * 7
    # an empty fast profile is then a violation, not an internal error
    monkeypatch.setattr(identities, "fast_profile", lambda expr, budget: {})
    report = verify_bremner(1)
    assert report.status == "violated" and report.profile == [0] * 7
    assert report.witness == {"n": 0, "pattern": "A b* b* b* b* b* b*", "split": 0,
                              "nested": 0, "closed_form": 24}


def test_intercalation_profile_helper():
    classes = oracle_profile(parse("[A b1 b2]"))
    assert intercalation_profile(classes) == [2, 2, 2]
    assert intercalation_profile({}) is None
    assert intercalation_profile(oracle_profile(parse("[ABC]"))) is None
    # no fixed symbol, two different ones, ragged widths, one symbol twice
    for classes in ({(0, 0): 1}, {("A", 0): 1, (0, "B"): 1}, {("A", 0): 1, (0, 0, "A"): 1},
                    {("A", "A"): 1}):
        assert intercalation_profile(classes) is None


# ---------------------------------------------------------------------------
# decomposition


def test_seven_bracket_decomposition():
    coefficients = decompose(decomposition_target(1), decomposition_basis(1))
    assert coefficients == [Fraction(1, 20), Fraction(-1, 6)]


def test_decomposition_coefficient_conjecture():
    # closed forms swept as conjectures; verify decomp derives its own
    for L in range(1, 21):
        a1 = Fraction(6 * L + 1, 4 * L + 2) * Fraction(factorial(2 * L + 1) ** 3,
                                                     factorial(6 * L + 1))
        a2 = Fraction(-(2 * L - 1), 4 * L + 2)
        assert decompose(decomposition_target(L), decomposition_basis(L)) == [a1, a2], L


def test_decomposition_identity_basis():
    target = flat_bracket_expr(3, lead_fixed="A")
    assert decompose(target, [target]) == [1]


def test_decomposition_covers_wide_shapes():
    # three composite entries under the root, composed by the fast route
    wide = parse("[[A b1] [Z b2] [Q b3]]")
    assert decompose(wide, [wide]) == [1]


def test_decomposition_minimum_norm_when_underdetermined():
    target = flat_bracket_expr(3, lead_fixed="A")
    assert decompose(target, [target, target]) == [Fraction(1, 2), Fraction(1, 2)]


def test_decomposition_reports_inconsistency():
    target = flat_bracket_expr(3, lead_fixed="A")
    basis = [parse("(A b1 b2)")]
    assert decompose(target, basis) is None


def test_decomposition_requires_shared_indices():
    with pytest.raises(ValueError):
        decompose(flat_bracket_expr(3, lead_fixed="A"), [flat_bracket_expr(5, lead_fixed="A")])


def test_verify_decomposition_reports():
    report = verify_decomposition(1)
    assert report.verified
    assert report.details["coefficients"] == ["1/20", "-1/6"]
    # the same solve at half-order two, pinned after first derivation
    report2 = verify_decomposition(2)
    assert report2.verified
    assert report2.details["coefficients"] == ["1/2772", "-3/10"]


# ---------------------------------------------------------------------------
# the relation core

P1, P2, P3, P4 = ("A", 0, 0), (0, "A", 0), (0, 0, "A"), (0, 0, 0)


def test_relate_with_an_empty_basis_witnesses_the_first_class():
    assert relate({}, []) == ([], None)
    # classes are taken in sort_words order, fixed names before family slots,
    # not in insertion order
    assert relate({P3: 5, P2: -3}, []) == (
        None, {"pattern": "b* A b*", "coefficient": -3, "expected": 0})


def test_relate_witnesses_the_first_class_no_combination_matches():
    basis = [{P1: 1, P3: 1}, {P2: 1, P3: 1}]
    assert relate({P1: 1, P2: 2, P3: 3}, basis) == ([1, 2], None)
    # P1 and P2 fix both coefficients, so the basis gives 3 at P3; P4 is never reached
    coefficients, witness = relate({P1: 1, P2: 2, P3: 4, P4: 9}, basis)
    assert coefficients is None
    assert witness == {"pattern": "b* b* A", "coefficient": 4, "expected": 3}
    # a class missing from the basis is matched only by a zero target there
    _, witness = relate({P1: Fraction(1, 2), P4: 1}, [{P1: 1}])
    assert witness == {"pattern": "b* b* b*", "coefficient": 1, "expected": 0}
    _, witness = relate({P1: 1, P2: 1}, [{P1: 2, P2: 1}])
    assert witness == {"pattern": "b* A b*", "coefficient": 1, "expected": "1/2"}


def test_relate_reads_a_class_the_target_lacks_as_zero():
    assert relate({("A", 0): 2}, [{("A", 0): 1, (0, "A"): 1}]) == (
        None, {"pattern": "b* A", "coefficient": 0, "expected": 2})


def test_relate_gives_the_minimum_norm_solution_of_a_dependent_basis():
    assert relate({P1: 5}, [{P1: 1}, {P1: 2}]) == ([1, 2], None)
    coefficients, _ = relate({P1: 2, P2: 2, P3: 3}, [{P1: 1, P2: 1}, {P3: 1}, {P1: 1, P2: 1}])
    assert coefficients == [1, 3, 1]


def test_relate_stores_each_row_divided_by_the_gcd_of_its_entries(monkeypatch):
    stored = []
    primitive = identities._primitive
    monkeypatch.setattr(identities, "_primitive",
                        lambda row: stored.append(primitive(row)) or stored[-1])
    target, basis = decomposition_target(2), decomposition_basis(2)
    assert decompose(target, basis) == [Fraction(1, 2772), Fraction(-3, 10)]
    # a dependent basis whose null row holds Fractions, and a Fraction target
    assert relate({P1: Fraction(9, 2), P2: 3}, [{P1: 6, P2: 4}, {P1: 9, P2: 6}]) == (
        [Fraction(3, 13), Fraction(9, 26)], None)
    assert stored and all(gcd(*row) == 1 for _, row in stored)
    # [2 4 | 10] comes in and is kept as [1 2 | 5]; [4 18 | 30] comes in, folds to
    # [0 5 | 5], updates the first row to [5 0 | 15] and is kept as [0 1 | 1]
    stored.clear()
    assert relate({P1: 10, P2: 30}, [{P1: 2, P2: 4}, {P1: 4, P2: 18}]) == ([3, 1], None)
    assert stored == [(2, [1, 2, 5]), (1, [1, 2, 5]), (2, [2, 9, 15]), (5, [1, 0, 3]),
                      (5, [0, 1, 1])]
    assert primitive([4, -6, 0]) == (2, [2, -3, 0]) and primitive([0, 0]) == (1, [0, 0])
    # explicit zero values make zero rows, whose gcd is 0
    assert relate({P1: 0, P2: 2}, [{P1: 0, P2: 1}]) == ([2], None)
    # the residue keeps the factor divided out of its row
    assert relate({P1: 6}, [{P2: 4}]) == (
        None, {"pattern": "A b* b*", "coefficient": 6, "expected": 0})
    _, witness = relate({P2: Fraction(9, 4), P3: 1}, [{P2: Fraction(3, 2), P3: 2}])
    assert witness == {"pattern": "b* b* A", "coefficient": 1, "expected": 3}


def fraction_relate(target, basis):
    """``relate`` over Fraction rows, each pivot row scaled to a leading 1."""
    n = len(basis)
    pivots = {}

    def eliminate(row):
        for c, pivot_row in pivots.items():
            if row[c]:
                row = [x - row[c] * y for x, y in zip(row, pivot_row)]
        c = next((c for c in range(n) if row[c]), None)
        if c is None:
            return row[n]
        row = [x / row[c] for x in row]
        for k, other in pivots.items():
            if other[c]:
                pivots[k] = [x - other[c] * y for x, y in zip(other, row)]
        pivots[c] = row
        return 0

    for pattern in sorted(set(target).union(*basis),
                          key=lambda w: [symbol_sort_key(s) for s in w]):
        value = target.get(pattern, 0)
        residue = eliminate([Fraction(b.get(pattern, 0)) for b in basis] + [Fraction(value)])
        if residue:
            return None, {"pattern": pattern_str(pattern), "coefficient": coeff_json(value),
                          "expected": coeff_json(value - residue)}
    nulls = [[-pivots[c][free] if c in pivots else Fraction(c == free) for c in range(n)]
             for free in range(n) if free not in pivots]
    for null in nulls:
        eliminate(null + [Fraction(0)])
    return [pivots[c][n] for c in range(n)], None


CLASS_POOL = [one_fixed_pattern(n, 4) for n in range(4)] + [
    ("A", "B", 0, 0), (0, "B", 0, "A"), ("B", 0, 0, 0), (0, 0, 0, 0)]


def _combination(coefficients, maps):
    total = {}
    for a, m in zip(coefficients, maps):
        for pattern, value in m.items():
            total[pattern] = total.get(pattern, 0) + a * value
    return {p: v for p, v in total.items() if v}


def test_integral_relate_equals_the_fraction_elimination():
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(600):
        classes = rng.sample(CLASS_POOL, rng.randint(1, len(CLASS_POOL)))

        def random_map():
            values = {c: rng.randint(-4, 4) for c in classes if rng.random() < 0.7}
            return {c: v for c, v in values.items() if v}

        basis = [random_map() for _ in range(rng.randint(1, 3))]
        dependent = len(basis) > 1 and rng.random() < 0.4
        if dependent:
            basis[-1] = _combination([rng.randint(-3, 3) for _ in basis[:-1]], basis[:-1])
        if rng.random() < 0.5:  # in the span
            target = _combination([rng.randint(-5, 5) for _ in basis], basis)
        else:
            target = random_map()
        expected = fraction_relate(target, basis)
        assert relate(target, basis) == expected, (target, basis)
        outcomes.add((expected[0] is None, dependent))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def _perturb_profile(monkeypatch, victim, extra):
    """Make fast_profile add the class map extra to the profile of victim."""
    import nbracket.identities as identities

    true_profile = identities.fast_profile

    def perturbed(expr, *args, **kwargs):
        classes = true_profile(expr, *args, **kwargs)
        if expr == victim:
            classes = {p: classes.get(p, 0) + extra.get(p, 0) for p in set(classes) | set(extra)}
        return classes

    monkeypatch.setattr(identities, "fast_profile", perturbed)


def test_violated_odd_reduction_report_carries_the_class_witness(monkeypatch):
    _perturb_profile(monkeypatch, double_action_expr(3), {("Z",): 1})
    report = verify_odd_reduction(3)
    assert report.status == "violated"
    assert report.details["constant"] is None
    assert report.witness == {"pattern": "Z", "coefficient": 1, "expected": 0}


def test_violated_decomposition_report_carries_the_class_witness(monkeypatch):
    last = (0,) * 6 + ("A",)
    _perturb_profile(monkeypatch, decomposition_target(1), {last: 1})
    report = verify_decomposition(1)
    assert report.status == "violated"
    assert report.details["coefficients"] is None
    assert report.witness == {"pattern": "b* b* b* b* b* b* A", "coefficient": 25, "expected": 24}


# ---------------------------------------------------------------------------
# report shape


def test_report_json_schema():
    doc = check_sums(2).to_json_dict()
    assert list(doc) == [
        "identity", "params", "status", "profile", "profile_sign",
        "witness", "terms", "details", "elapsed_ms",
    ]
    assert doc["profile_sign"] == "(-1)^n"
