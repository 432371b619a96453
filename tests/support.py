"""Shared test helpers: seeded random generation of fast-route shapes, and
exhaustive enumeration of small bracket-rooted shapes."""

from itertools import count, product

from nbracket.expand import naive_term_count
from nbracket.syntax import Atom, Bracket, Product

FIXED_POOL = ("A", "Z", "Q")


def serial_pool(sizes):
    """A stand-in for ProcessPoolExecutor that appends each pool's size to
    ``sizes`` and maps serially, so no process starts."""

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return SerialPool


def random_supported_shape(rng, max_naive=200_000, min_naive=0):
    """A random bracket nesting the fast route supports.

    Family indices are globally distinct, every bracket holds at most two
    composite entries, and the literal expansion falls inside
    [min_naive, max_naive] words.
    """
    while True:
        counter = count(1)
        fixed_budget = [rng.randint(0, 2)]
        expr = _bracket(rng, counter, rng.choice((1, 1, 1, 2)), fixed_budget)
        if min_naive <= naive_term_count(expr) <= max_naive:
            return expr


def _bracket(rng, counter, depth, fixed_budget):
    size = rng.randint(2, 5)
    composite_quota = rng.randint(0, 2)
    entries = []
    for _ in range(size):
        if depth > 0 and composite_quota and rng.random() < 0.4:
            composite_quota -= 1
            if rng.random() < 0.5:
                factors = tuple(Atom(next(counter)) for _ in range(rng.randint(1, 3)))
                entries.append(Product(factors))
            else:
                entries.append(_bracket(rng, counter, depth - 1, fixed_budget))
        elif fixed_budget[0] and rng.random() < 0.2:
            fixed_budget[0] -= 1
            entries.append(Atom(FIXED_POOL[fixed_budget[0]]))
        else:
            entries.append(Atom(next(counter)))
    rng.shuffle(entries)
    return Bracket(tuple(entries))


def random_ast(rng, depth=3):
    """An arbitrary expression tree, unconstrained by fast-route shape rules."""
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Atom(rng.randint(1, 30))
        return Atom(rng.choice("ABCDXYZ"))
    children = tuple(random_ast(rng, depth - 1) for _ in range(rng.randint(1, 4)))
    return Product(children) if rng.random() < 0.5 else Bracket(children)


def random_composite_shape(rng, max_naive=20_000, min_naive=24):
    """A random supported nesting whose products hold brackets and fixed atoms.

    ``random_supported_shape`` builds products of family atoms only.  Here a
    product takes any factors, composite ones included, and a fixed symbol
    may repeat; brackets still hold at most two composite entries.
    """
    while True:
        expr = _any_bracket(rng, count(1), depth=2)
        if min_naive <= naive_term_count(expr) <= max_naive:
            return expr


def _any_bracket(rng, counter, depth):
    entries = []
    for _ in range(rng.randint(2, 5)):
        may_nest = sum(not isinstance(e, Atom) for e in entries) < 2
        entries.append(_any_node(rng, counter, depth if may_nest else 0))
    return Bracket(tuple(entries))


def _any_node(rng, counter, depth):
    roll = rng.random()
    if depth and roll < 0.25:
        return _any_bracket(rng, counter, depth - 1)
    if depth and roll < 0.5:
        factors = tuple(_any_node(rng, counter, depth - 1) for _ in range(rng.randint(1, 3)))
        return Product(factors)
    if roll < 0.6:
        return Atom(rng.choice(FIXED_POOL))
    return Atom(next(counter))


def _compositions(n):
    """Every ordered tuple of positive ints summing to n."""
    yield (n,)
    for first in range(1, n):
        for rest in _compositions(n - first):
            yield (first, *rest)


def _trees(leaves, kinds=(Bracket, Product)):
    """Plane trees as (kind, children) pairs with None at each leaf; every
    internal node is one of kinds with at least two children."""
    if leaves == 1:
        yield None
        return
    for parts in _compositions(leaves):
        if len(parts) > 1:
            for kids in product(*[list(_trees(p)) for p in parts]):
                for kind in kinds:
                    yield kind, kids


def _is_wide(tree):
    """Whether a bracket of the tree has three or more composite children."""
    return tree is not None and (
        tree[0] is Bracket and sum(kid is not None for kid in tree[1]) > 2
        or any(map(_is_wide, tree[1])))


def labellings(leaves):
    """Leaf symbols left to right: family indices 1, 2, ... wherever A and C
    do not stand; at most one A and one C, and C only with A."""
    slots = range(leaves)
    for a in (None, *slots):
        for c in (None,) if a is None else (None, *(i for i in slots if i != a)):
            fresh = count(1)
            yield ["A" if i == a else "C" if i == c else next(fresh) for i in slots]


def _build(tree, symbols):
    if tree is None:
        return Atom(next(symbols))
    return tree[0](tuple(_build(kid, symbols) for kid in tree[1]))


def bracket_trees(leaves, wide=False):
    """Every bracket-rooted plane tree of ``leaves`` leaves whose internal
    nodes, brackets or products, have at least two children; with ``wide``,
    only those holding a bracket of three or more composite entries."""
    return [t for t in _trees(leaves, (Bracket,)) if not wide or _is_wide(t)]


def enumerated_shapes(leaves, wide=False, symbol_lists=None):
    """Each of ``bracket_trees(leaves, wide)`` under each leaf symbol list,
    by default every one of ``labellings(leaves)``."""
    symbol_lists = list(labellings(leaves) if symbol_lists is None else symbol_lists)
    return [_build(tree, iter(symbols))
            for tree in bracket_trees(leaves, wide) for symbols in symbol_lists]
