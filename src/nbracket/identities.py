"""Verifiers and closed-form coefficient formulas for bracket identities.

Covered identities, each reported through IdentityReport:

* ``even``       the generalized Jacobi identity: an even N-bracket acting on
                 another vanishes under total antisymmetrization.
* ``odd-reduce`` an odd N-bracket acting on another reduces to a single
                 (2N-1)-bracket; the proportionality constant is derived, not
                 assumed.
* ``bremner``    the generalized Bremner identity between the two ways of
                 nesting three odd (2L+1)-brackets around one fixed operator,
                 with its closed-form coefficients.
* ``sums``       the arithmetic checks on those closed forms.
* ``decomp``     the exact decomposition of the nested shape over a flat
                 (6L+1)-bracket and a bracket of two inner brackets.

Every verifier, and ``decompose``, takes its profiles from the fast route,
which covers every shape; the oracle cross-checks live in the test suite.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import factorial, gcd, lcm, log10
from time import perf_counter

from .algebra import ANTI_SLOT, pattern_str, sort_words
from .expand import (
    DEFAULT_TERM_BUDGET,
    check_budget,
    count_bits,
    fast_profile,
    word_count,
)
from .syntax import Atom, Bracket, anti_indices, render

PROFILE_SIGN_CONVENTION = "(-1)^n"


class UnsupportedParameter(ValueError):
    """The identity is not defined (or not budgeted) at this parameter."""


def _require_half_order(L):
    if not isinstance(L, int) or L < 1:
        raise UnsupportedParameter(f"half-order must be an integer >= 1, got {L}")


# ---------------------------------------------------------------------------
# closed forms


def reduced_multiplicity(n: int, L: int) -> int:
    """Closed-form class count with the factorial prefactor divided out.

    Piecewise in n: (n+1)(4L-n)/2 up to n = 2L, the quadratic
    10L^2 - 6Ln + L + n^2 up to n = 3L, then the mirror value for larger n.
    """
    _require_half_order(L)
    if not 0 <= n <= 6 * L:
        raise UnsupportedParameter(f"class index {n} outside 0..{6 * L}")
    if n <= 2 * L:
        return (n + 1) * (4 * L - n) // 2
    if n <= 3 * L:
        return 10 * L * L - 6 * L * n + L + n * n
    return reduced_multiplicity(6 * L - n, L)


def multiplicity_prefactor(L: int) -> int:
    _require_half_order(L)
    return factorial(2 * L + 1) * factorial(2 * L) * factorial(2 * L - 1)


def closed_form_multiplicity(n: int, L: int) -> int:
    """Closed-form coefficient magnitude of class n in either triple nesting."""
    return multiplicity_prefactor(L) * reduced_multiplicity(n, L)


# ---------------------------------------------------------------------------
# profiles of the fixed-operator resolutions


def one_fixed_pattern(n, width):
    """The class of ``width`` slots with the fixed symbol A at position n."""
    return (ANTI_SLOT,) * n + ("A",) + (ANTI_SLOT,) * (width - 1 - n)


def _one_fixed(classes):
    """(name, m) when all classes have one width and each holds the same single fixed
    symbol among family slots; m_n is (-1)^n times the class with it at n.  Else None, as for {}."""
    first = next(iter(classes), ())
    name, width = next((s for s in first if s != ANTI_SLOT), None), len(first)
    m = [0] * width
    try:
        for pattern, coeff in classes.items():
            if len(pattern) != width or pattern.count(ANTI_SLOT) != width - 1:
                return None
            n = pattern.index(name)  # ValueError if another symbol holds the slot
            m[n] = -coeff if n & 1 else coeff
    except ValueError:
        return None
    return (name, m) if classes else None


@dataclass(frozen=True)
class CoefficientProfile:
    """Magnitudes m_n of a resolution sum_n (-1)^n m_n (n family factors,
    the fixed operator, the rest); ``half_order`` is L with 6L+1 classes."""

    half_order: int
    m: tuple

    @property
    def width(self) -> int:
        return 6 * self.half_order + 1

    def signed(self, n):
        return -self.m[n] if n & 1 else self.m[n]

    @classmethod
    def closed_form(cls, L: int):
        prefactor = multiplicity_prefactor(L)
        return cls(L, tuple(prefactor * reduced_multiplicity(n, L) for n in range(6 * L + 1)))

    @classmethod
    def from_classes(cls, classes, L: int):
        """Read one-A classes of width 6L+1: none read as zeros, stray ones raise ValueError."""
        found = _one_fixed(classes) if classes else ("A", [0] * (6 * L + 1))
        if found is None or found[0] != "A" or len(found[1]) != 6 * L + 1:
            raise ValueError(f"classes are not one-A classes of width {6 * L + 1}")
        return cls(L, tuple(found[1]))


def intercalation_profile(classes):
    """The m list of ``_one_fixed(classes)``, or None."""
    found = _one_fixed(classes)
    return None if found is None else found[1]


# ---------------------------------------------------------------------------
# reports


@dataclass
class IdentityReport:
    identity: str
    params: dict
    status: str
    profile: list | None = None
    witness: dict | None = None
    terms: int | None = None
    details: dict | None = None
    elapsed_ms: float = 0.0

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "status": self.status,
            "profile": self.profile,
            "profile_sign": PROFILE_SIGN_CONVENTION,
            "witness": self.witness,
            "terms": self.terms,
            "details": self.details,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _report(identity, params, start, ok, **fields):
    """The report of a verifier run timed from ``start``; ``ok`` decides its status."""
    return IdentityReport(identity, params, "verified" if ok else "violated",
                          elapsed_ms=(perf_counter() - start) * 1e3, **fields)


def require_printable(sizes, what):
    """Reject work whose report would hold about prod n!/k! over the (n, k)
    sizes, an integer too long for int-to-str conversion (a limit of 0, off,
    counts as 4300)."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if count_bits(sizes) * log10(2) >= limit:
        raise UnsupportedParameter(
            f"{what} would exceed the {limit}-digit limit for printing integers"
        )


def coeff_json(value):
    """An exact coefficient as JSON: an int when integral, else "p/q"."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


# ---------------------------------------------------------------------------
# the relation core


def relate(target, basis):
    """Exact coefficients a with target = sum a_i basis_i, class by class.

    Target and basis are class maps.  Their classes are eliminated one at a
    time in ``sort_words`` order.  Returns ``(coefficients, None)``, the
    minimum-norm solution when the basis is dependent, or ``(None, witness)``
    at the first class that no combination of the basis matching the earlier
    classes can match: ``{"pattern", "coefficient": the target's value,
    "expected": the value the basis gives there}``.
    """
    n = len(basis)
    pivots = {}  # pivot column -> reduced row, basis values then the target's; integral

    def eliminate(row):
        """Fold row into the reduced rows; return its residue if it has no pivot."""
        den = lcm(*[x.denominator for x in row])  # null rows, at least, hold Fractions
        common, row = _primitive([x.numerator * (den // x.denominator) for x in row])
        scale = den  # row is scale / common times the true row; cross-multiplying keeps that
        for c, pivot_row in pivots.items():
            if row[c]:
                x_c, y_c = row[c], pivot_row[c]
                row = [x * y_c - x_c * y for x, y in zip(row, pivot_row)]
                scale *= y_c
        c = next((c for c in range(n) if row[c]), None)
        if c is None:
            return Fraction(row[n] * common, scale)
        for k, other in pivots.items():
            if other[c]:
                x_c, y_c = other[c], row[c]
                pivots[k] = _primitive([x * y_c - x_c * y for x, y in zip(other, row)])[1]
        pivots[c] = _primitive(row)[1]
        return 0

    for pattern in sort_words(set(target).union(*basis)):
        value = target.get(pattern, 0)
        residue = eliminate([b.get(pattern, 0) for b in basis] + [value])
        if residue:
            return None, {"pattern": pattern_str(pattern), "coefficient": coeff_json(value),
                          "expected": coeff_json(value - residue)}
    # a dependent basis: the minimum-norm solution is orthogonal to the null space
    nulls = [[Fraction(-pivots[c][free], pivots[c][c]) if c in pivots else Fraction(c == free)
              for c in range(n)] for free in range(n) if free not in pivots]
    for null in nulls:
        eliminate(null + [0])
    return [Fraction(pivots[c][n], pivots[c][c]) for c in range(n)], None


def _primitive(row):
    """(g, row / g) for an integral row, g the gcd of its entries or 1 for a zero
    row; ``relate`` divides every row it keeps, so its integers stay small."""
    common = gcd(*row) or 1
    return common, [x // common for x in row]


# ---------------------------------------------------------------------------
# bracket shapes, each described once by a skeleton


def build(skeleton) -> Bracket:
    """The bracket of a skeleton: a tuple of fixed names, ints k for k fresh
    family atoms, and sub-skeletons.  Atoms number depth-first from 1."""
    return _bracket(skeleton, count(1))


def _bracket(entries, fresh):  # not a closure: a recursive one is a cycle left to gc
    out = []
    for e in entries:
        out += (map(Atom, islice(fresh, e)) if isinstance(e, int)
                else [_bracket(e, fresh) if isinstance(e, tuple) else Atom(e)])
    return Bracket(tuple(out))


def skeleton_sizes(skeleton, collapsed=False):
    """``bracket_sizes(build(skeleton), collapsed)`` in O(depth): no atom is built."""
    atoms = sum(e for e in skeleton if isinstance(e, int))
    sizes = [(atoms + sum(not isinstance(e, int) for e in skeleton), atoms if collapsed else 0)]
    return sum((skeleton_sizes(e, collapsed) for e in skeleton if isinstance(e, tuple)), sizes)


# the verifiers' shapes by bracket size n: N for the first two, 2L+1 for the rest
SKELETONS = {
    "double action": lambda n: (n - 1, (n,)),
    "odd reduction": lambda n: (2 * n - 1,),
    "split": lambda n: (("A", n - 1), (n,), n - 2),
    "nested": lambda n: (("A", (n,), n - 2), n - 1),
    "flat": lambda n: ("A", 3 * n - 3),
    "paired": lambda n: ("A", (n,), (n,), n - 3),
}


def _half_order_skeletons(L, *names):
    _require_half_order(L)
    return [SKELETONS[name](2 * L + 1) for name in names]


def double_action_expr(N: int) -> Bracket:
    """One N-bracket acting on another: the inner bracket is the last entry."""
    return build(SKELETONS["double action"](N))


def flat_bracket_expr(size: int, lead_fixed: str | None = None) -> Bracket:
    """Flat bracket of ``size`` entries, optionally with a leading fixed symbol."""
    return build((size,) if lead_fixed is None else (lead_fixed, size - 1))


def split_shape(L: int) -> Bracket:
    """[[A B1..B2L] [B_{2L+1}..B_{4L+1}] B_{4L+2}..B_{6L}]"""
    return build(*_half_order_skeletons(L, "split"))


def nested_shape(L: int) -> Bracket:
    """[[A [B1..B_{2L+1}] B_{2L+2}..B_{4L}] B_{4L+1}..B_{6L}]"""
    return build(*_half_order_skeletons(L, "nested"))


decomposition_target = nested_shape


def decomposition_basis(L: int) -> list:
    """Flat (6L+1)-bracket and the bracket of A with two inner brackets."""
    return list(map(build, _half_order_skeletons(L, "flat", "paired")))


def _fast_budget_words(skeletons, budget) -> int:
    """Check the fast budget of each skeleton in order; return their collapsed words."""
    size_lists = [skeleton_sizes(s, collapsed=True) for s in skeletons]
    for sizes in size_lists:
        check_budget(sizes, budget, "fast expansion")
    return sum(map(word_count, size_lists))


def check_triple_budgets(L: int, budget) -> int:
    """Check both triple nestings' fast budgets, then the print limit of their
    word count ((2L+1)!)^3, from skeletons alone; return their collapsed words."""
    split, nested = _half_order_skeletons(L, "split", "nested")
    words = _fast_budget_words([split, nested], budget)
    require_printable(skeleton_sizes(split), "the word count ((2L+1)!)^3")
    return words


# ---------------------------------------------------------------------------
# verifiers


def verify_even_gji(N: int, budget=DEFAULT_TERM_BUDGET) -> IdentityReport:
    """Check that one N-bracket acting on another reduces to zero.

    Holds for even N; for odd N the report is violated and carries the first
    surviving class as witness.
    """
    if not isinstance(N, int) or N < 2:
        raise UnsupportedParameter(f"bracket size must be an integer >= 2, got {N}")
    sizes = skeleton_sizes(SKELETONS["double action"](N))  # (N!)^2 words, before 2N atoms
    check_budget(sizes, budget, "oracle expansion")
    start = perf_counter()
    classes = fast_profile(double_action_expr(N), budget=budget)
    _, witness = relate(classes, [])
    return _report("even", {"N": N}, start, witness is None, witness=witness,
                   terms=word_count(sizes), details={"surviving_classes": len(classes)})


def _require_odd_size(N):
    if not isinstance(N, int) or N < 1 or N % 2 == 0:
        raise UnsupportedParameter(f"odd bracket size required, got {N}")


def _relation(target, basis, budget):
    """``relate`` over the fast profiles of the target and of each basis shape."""
    return relate(fast_profile(target, budget=budget),
                  [fast_profile(b, budget=budget) for b in basis])


def _odd_reduction(N, budget):
    double, flat = SKELETONS["double action"](N), SKELETONS["odd reduction"](N)
    coefficients, witness = _relation(build(double), [build(flat)], budget)
    return None if coefficients is None else coefficients[0], witness


def odd_reduction_constant(N: int, budget=DEFAULT_TERM_BUDGET) -> Fraction | None:
    """Constant k with profile(double action) = k * profile(flat bracket).

    Defined for odd N.  Returns None if no single k fits every class, which
    would falsify the reduction claim.
    """
    _require_odd_size(N)
    return _odd_reduction(N, budget)[0]


def verify_odd_reduction(N: int, budget=DEFAULT_TERM_BUDGET) -> IdentityReport:
    _require_odd_size(N)
    double, flat = SKELETONS["double action"](N), SKELETONS["odd reduction"](N)
    require_printable(skeleton_sizes(flat), "the word count (2N-1)!")
    terms = word_count(skeleton_sizes(double)) + word_count(skeleton_sizes(flat))
    start = perf_counter()
    k, witness = _odd_reduction(N, budget)  # a zero constant is a violation too
    return _report("odd-reduce", {"N": N}, start, k, witness=witness, terms=terms,
                   details={"constant": None if k is None else str(k)})


def bremner_profiles(L: int, budget=DEFAULT_TERM_BUDGET):
    """Profiles of the two triple nestings, split shape first.

    Both come out of the fast route; the oracle cross-check lives in the test
    suite so the two routes stay independent.
    """
    return tuple(CoefficientProfile.from_classes(fast_profile(build(s), budget=budget), L)
                 for s in _half_order_skeletons(L, "split", "nested"))


def verify_bremner(L: int, budget=DEFAULT_TERM_BUDGET) -> IdentityReport:
    """Compare both triple-nesting profiles with each other and the closed form."""
    terms = check_triple_budgets(L, budget)
    start = perf_counter()
    side1, side2 = bremner_profiles(L, budget=budget)
    closed = CoefficientProfile.closed_form(L)
    witness = None
    for n in range(closed.width):
        if not side1.m[n] == side2.m[n] == closed.m[n]:
            witness = {
                "n": n,
                "pattern": pattern_str(one_fixed_pattern(n, closed.width)),
                "split": coeff_json(side1.m[n]),
                "nested": coeff_json(side2.m[n]),
                "closed_form": closed.m[n],
            }
            break
    return _report("bremner", {"L": L}, start, witness is None, profile=list(side1.m),
                   witness=witness, terms=terms, details={"path": "fast"})


def check_sums(L: int) -> IdentityReport:
    """Arithmetic checks: reduced coefficients sum to 2L(2L+1)^2 and the full
    multiplicities to ((2L+1)!)^3."""
    split = skeleton_sizes(*_half_order_skeletons(L, "split"))  # the multiplicities sum its words
    require_printable(split, "the multiplicity sum ((2L+1)!)^3")
    start = perf_counter()
    reduced_sum = sum(reduced_multiplicity(n, L) for n in range(6 * L + 1))
    full_sum = multiplicity_prefactor(L) * reduced_sum
    expected_reduced = 2 * L * (2 * L + 1) ** 2
    expected_full = factorial(2 * L + 1) ** 3
    ok = reduced_sum == expected_reduced and full_sum == expected_full
    witness = None
    if not ok:
        witness = {
            "reduced_sum": reduced_sum,
            "expected_reduced_sum": expected_reduced,
            "multiplicity_sum": str(full_sum),
            "expected_multiplicity_sum": str(expected_full),
        }
    return _report("sums", {"L": L}, start, ok, witness=witness, terms=0,
                   details={"reduced_sum": reduced_sum, "multiplicity_sum": str(full_sum)})


# ---------------------------------------------------------------------------
# exact decomposition


def decompose(target, basis, budget=DEFAULT_TERM_BUDGET):
    """Exact rationals a_i with profile(target) = sum a_i profile(basis_i).

    Returns None when the target profile is outside the basis span.  Target
    and basis must use the same family index set.
    """
    target_set = set(anti_indices(target))
    for expr in basis:
        if set(anti_indices(expr)) != target_set:
            raise ValueError(
                f"basis entry {render(expr)} does not use the target's family indices"
            )
    return _relation(target, basis, budget)[0]


def verify_decomposition(L: int, budget=DEFAULT_TERM_BUDGET) -> IdentityReport:
    """Decompose the nested shape over the flat bracket and the paired shape."""
    skeletons = _half_order_skeletons(L, "nested", "flat", "paired")
    terms = _fast_budget_words(skeletons, budget)
    target, *basis = map(build, skeletons)
    start = perf_counter()
    coefficients, witness = _relation(target, basis, budget)
    details = {
        "target": render(target),
        "basis": [render(b) for b in basis],
        "coefficients": None if coefficients is None else [str(c) for c in coefficients],
    }
    return _report("decomp", {"L": L}, start, coefficients is not None, witness=witness,
                   terms=terms, details=details)
