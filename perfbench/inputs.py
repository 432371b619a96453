"""Seeded inputs: family relabellings, random bracket shapes and request text.

Everything here is a pure function of a ``random.Random`` built from the
benchmark's ``--seed``; the same seed gives the same inputs.  The expressions
are built from nbracket's AST classes so they can be handed to the library
directly, and rendered to text for the command-line requests.
"""

from math import factorial
from string import ascii_lowercase, ascii_uppercase

from nbracket.syntax import Atom, Bracket, Product

MAX_FAMILY_INDEX = 99


def sign_of(sequence) -> int:
    """Sign of a sequence of distinct integers (parity of its inversions)."""
    inversions = sum(1 for i, a in enumerate(sequence) for b in sequence[i + 1:] if a > b)
    return -1 if inversions & 1 else 1


def family_indices(expr):
    if isinstance(expr, Atom):
        return [expr.symbol] if isinstance(expr.symbol, int) else []
    children = expr.factors if isinstance(expr, Product) else expr.entries
    return [i for child in children for i in family_indices(child)]


def map_family(expr, mapping):
    if isinstance(expr, Atom):
        return Atom(mapping.get(expr.symbol, expr.symbol))
    if isinstance(expr, Product):
        return Product(tuple(map_family(f, mapping) for f in expr.factors))
    return Bracket(tuple(map_family(e, mapping) for e in expr.entries))


def relabelling(expr, rng):
    """A seed-drawn permutation of the family indices of ``expr``, and its sign."""
    indices = sorted(family_indices(expr))
    image = list(indices)
    rng.shuffle(image)
    return dict(zip(indices, image)), sign_of(image)


def relabel(expr, rng):
    """Permute the family indices of ``expr`` among themselves.

    Returns the relabelled expression and the sign of the permutation.  When
    every word of the expansion holds every family index once, each canonical
    class coefficient is multiplied by exactly that sign.
    """
    mapping, sign = relabelling(expr, rng)
    return map_family(expr, mapping), sign


def literal_words(expr) -> int:
    """Words of the literal expansion: factorial(entries) per bracket."""
    if isinstance(expr, Atom):
        return 1
    children = expr.factors if isinstance(expr, Product) else expr.entries
    count = factorial(len(children)) if isinstance(expr, Bracket) else 1
    for child in children:
        count *= literal_words(child)
    return count


def fast_route_covers(expr) -> bool:
    """True when no bracket holds more than two composite (non-atom) entries."""
    if isinstance(expr, Atom):
        return True
    if isinstance(expr, Product):
        return all(fast_route_covers(f) for f in expr.factors)
    composite = sum(1 for e in expr.entries if not isinstance(e, Atom))
    return composite <= 2 and all(fast_route_covers(e) for e in expr.entries)


def random_shape(rng, supported, min_words, max_words):
    """A random expression whose literal expansion has min..max words.

    Family indices are distinct random integers and each fixed letter occurs
    at most once.  ``supported`` selects shapes the fast route covers; the
    others have a bracket with three composite entries, so the fast route
    refuses them and ``--path auto`` falls back to the oracle.
    """
    while True:
        family = iter(rng.sample(range(1, MAX_FAMILY_INDEX + 1), 40))
        fixed = iter(rng.sample(ascii_uppercase, 10))
        if supported:
            expr = _bracket(rng, family, fixed, rng.choice((1, 1, 2)))
        else:
            forced = [_product(rng, family, fixed) for _ in range(3)]
            expr = _bracket(rng, family, fixed, 1, forced)
        if fast_route_covers(expr) == supported and min_words <= literal_words(expr) <= max_words:
            return expr


def _atom(rng, family, fixed):
    if rng.random() < 0.15:
        return Atom(next(fixed))
    return Atom(next(family))


def _product(rng, family, fixed):
    return Product(tuple(_atom(rng, family, fixed) for _ in range(rng.randint(1, 2))))


def _bracket(rng, family, fixed, depth, forced=()):
    entries = list(forced)
    quota = 2
    for _ in range(rng.randint(2, 4)):
        if depth > 0 and quota and rng.random() < 0.35:
            quota -= 1
            if rng.random() < 0.5:
                entries.append(_product(rng, family, fixed))
            else:
                entries.append(_bracket(rng, family, fixed, depth - 1))
        else:
            entries.append(_atom(rng, family, fixed))
    rng.shuffle(entries)
    return Bracket(tuple(entries))


def to_text(expr, rng) -> str:
    """Bracket notation with a random letter on each explicit family index.

    Brackets are written either with space-separated entries or, at random,
    in the comma form where each comma group is one entry.
    """
    if isinstance(expr, Atom):
        if isinstance(expr.symbol, int):
            return f"{rng.choice(ascii_lowercase)}{expr.symbol}"
        return expr.symbol
    if isinstance(expr, Product):
        return "(" + " ".join(to_text(f, rng) for f in expr.factors) + ")"
    if len(expr.entries) > 1 and rng.random() < 0.3:
        groups = []
        for entry in expr.entries:
            if isinstance(entry, Product) and len(entry.factors) > 1:
                groups.append(" ".join(to_text(f, rng) for f in entry.factors))
            else:
                groups.append(to_text(entry, rng))
        return "[" + ", ".join(groups) + "]"
    return "[" + " ".join(to_text(e, rng) for e in expr.entries) + "]"
