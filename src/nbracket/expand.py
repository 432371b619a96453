"""Expansion of bracket expressions into canonical-class profiles.

The *oracle* is literal.  ``_concat`` is the only place words are built: for
each signed ordering of a bracket's entries, and each choice of one term per
entry, it yields the signed concatenation; ``_terms`` applies it
recursively over every ordering, ``signed_perm_range``, a product being a
bracket with the single identity ordering.  The oracle streams the root
bracket's words straight into the canonical reduction, so memory stays
bounded by the handful of classes even when the word count runs to millions.
The root's orderings can be partitioned into lexicographic-rank blocks and
merged additively, which is how multi-process runs work.

The *fast* route builds no word.  Every word of a sub-expression holds its
family indices once each, so ``_compose`` describes each sub-expression,
bottom-up, by its class map, its sorted family indices and its width.  A
bracket sums its entries' class maps concatenated in each placement of its
other entries among its family atoms, which keep their order, with weight
factorial(#atoms).  The sign of the identity order is the parity of the
entries' sorted index runs concatenated; swapping adjacent entries X and Y
with d_X and d_Y family indices multiplies a term by -(-1)^(d_X d_Y), so
family atoms commute and an entry with even d flips the sign for each atom
it passes.  Classes are keyed sparsely by their (position, fixed symbol)
pairs and made dense patterns only at the root.  The oracle never uses these
shortcuts, which is what makes the cross-check between routes mean something.

``profile_auto`` is the one place that chooses a route: the fast one, or the
oracle on a bracket nesting more than two composite entries, which
``_compose`` refuses when it reaches one.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import permutations as iter_placements, product as iter_product
from math import factorial, lgamma, log, log2, prod

from .algebra import ANTI_SLOT, FreeElement, is_anti, merge_class_maps, reduce_terms
from .permutations import parity, signed_perm_range
from .syntax import Atom, Bracket, Product, validate_unique_anti

DEFAULT_TERM_BUDGET = 10**8


class TermBudgetExceeded(RuntimeError):
    """An expansion would generate more words than the configured budget."""


class UnsupportedShapeError(ValueError):
    """The fast route does not cover this nesting; use the oracle route."""


def count_bits(sizes) -> float:
    """Estimate of log2 of prod n!/k! over the (n, k) pairs of sizes.  From
    n = 2**53 on, where lgamma cannot tell n! from k!, it is (n - k) log2 n,
    with n - k capped at 2**53 so the estimate stays finite."""
    return sum((lgamma(n + 1) - lgamma(k + 1)) / log(2) if n < 2**53
               else min(n - k, 2**53) * log2(n) for n, k in sizes)


def check_budget(sizes, budget, label):
    """Raise TermBudgetExceeded when prod n!/k! over sizes exceeds budget; the
    estimate settles far larger counts before any factorial is built."""
    bits = count_bits(sizes)
    if bits > max(budget.bit_length(), 3000) + 1 or word_count(sizes) > budget:
        shown = word_count(sizes) if bits < 3000 else f"over 2^{int(bits) - 1}"
        raise TermBudgetExceeded(
            f"{label} needs {shown} words, exceeding the term budget of {budget}"
        )


def _is_family_atom(node):
    return isinstance(node, Atom) and is_anti(node.symbol)


def _child_nodes(node):
    if isinstance(node, Product):
        return node.factors
    if isinstance(node, Bracket):
        return node.entries
    return ()


def bracket_sizes(expr, collapsed=False):
    """One (n, k) pair per bracket of expr: n entries, k of them family atoms
    whose orderings collapse (0 unless ``collapsed``).  The bracket gives
    n!/k! orderings, so a route's word count is the product of n!/k!."""
    if isinstance(expr, Atom):
        return []
    if not isinstance(expr, (Product, Bracket)):
        raise TypeError(f"not a bracket expression: {expr!r}")
    sizes = []
    if isinstance(expr, Bracket):
        atoms = sum(map(_is_family_atom, expr.entries)) if collapsed else 0
        sizes.append((len(expr.entries), atoms))
    for kid in _child_nodes(expr):
        if not isinstance(kid, Atom):
            sizes += bracket_sizes(kid, collapsed)
    return sizes


def word_count(sizes):
    return prod(prod(range(k + 1, n + 1)) for n, k in sizes)


def naive_term_count(expr) -> int:
    """Words the literal expansion generates (factorial per bracket)."""
    return word_count(bracket_sizes(expr))


# ---------------------------------------------------------------------------
# the kernel and its ordering sources


def _concat(lists, orderings):
    """Yield (weight times the chosen coefficients, concatenated word).

    One word per ``(weight, order)`` in orderings and per choice of one
    ``(coefficient, word)`` term from each entry list, entries taken in order.
    """
    for weight, order in orderings:
        for combo in iter_product(*[lists[i] for i in order]):
            coeff = weight
            word = ()
            for c, w in combo:
                coeff *= c
                word += w
            yield coeff, word


def _terms(expr):
    """Signed words of expr, every signed ordering of each bracket's entries.

    Entries are expanded into lists; the words of expr itself are streamed.
    Nothing is accumulated, so exactly the counted words are generated.
    """
    if isinstance(expr, Atom):
        return [(1, (expr.symbol,))]
    if not isinstance(expr, (Product, Bracket)):
        raise TypeError(f"not a bracket expression: {expr!r}")
    kids = _child_nodes(expr)
    lists = [list(_terms(kid)) for kid in kids]
    if isinstance(expr, Bracket):
        return _concat(lists, signed_perm_range(len(kids)))
    return _concat(lists, ((1, range(len(kids))),))


def _collapsed_orderings(total, special_pos):
    """Orderings of a bracket whose entries outside special_pos are family atoms.

    One ordering per placement of the special entries; the atoms fill the
    remaining positions in their original order, and the ordering's weight is
    factorial(#atoms) times its parity.
    """
    atom_pos = [i for i in range(total) if i not in special_pos]
    multiplicity = factorial(len(atom_pos))
    for placement in iter_placements(range(total), len(special_pos)):
        order = [None] * total
        for orig, pos in zip(special_pos, placement):
            order[pos] = orig
        fill = iter(atom_pos)
        order = [next(fill) if i is None else i for i in order]
        yield multiplicity * parity(order), order


def _element_terms(element):
    return [(c, w) for w, c in element.items()]


# ---------------------------------------------------------------------------
# oracle route


def expand_bracket(entries, budget=DEFAULT_TERM_BUDGET) -> FreeElement:
    """Sum of sign(ordering) times the concatenated entries, all orderings.

    Entries are FreeElements; the result is multilinear and totally
    antisymmetric in them.
    """
    lists = [_element_terms(e) for e in entries]
    if not lists:
        raise ValueError("bracket needs at least one entry")
    # n! orderings, each once per choice of terms; (m, m - 1) stands for m terms
    sizes = [(len(lists), 0)] + [(len(terms), len(terms) - 1) for terms in lists if terms]
    check_budget(sizes, budget, "bracket expansion")
    return FreeElement((w, c) for c, w in _concat(lists, signed_perm_range(len(lists))))


def expand_expr(expr, budget=DEFAULT_TERM_BUDGET) -> FreeElement:
    """Recursive literal expansion of a bracket expression."""
    check_budget(bracket_sizes(expr), budget, "expansion")
    return FreeElement((w, c) for c, w in _terms(expr))


def _profile_block(expr, rank_range=(0, None)):
    """Classes from one lexicographic-rank block of root-bracket orderings.

    The default block is every ordering.
    """
    if not isinstance(expr, Bracket):
        return reduce_terms(_terms(expr))
    lists = [list(_terms(e)) for e in expr.entries]
    return reduce_terms(_concat(lists, signed_perm_range(len(lists), *rank_range)))


def oracle_profile(expr, budget=DEFAULT_TERM_BUDGET, jobs=1):
    """Ground-truth profile: literal expansion with eager canonical reduction.

    ``jobs`` > 1 splits the outermost bracket's orderings into contiguous
    lexicographic-rank blocks handled by at most ``os.cpu_count()`` worker
    processes; partial class maps merge additively and the result is
    identical for any block layout.
    """
    validate_unique_anti(expr)
    check_budget(bracket_sizes(expr), budget, "oracle expansion")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1 and isinstance(expr, Bracket):
        total = factorial(len(expr.entries))
        jobs = min(jobs, total)
        step = -(-total // jobs)
        blocks = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_profile_block, [expr] * len(blocks), blocks))
        return merge_class_maps(parts)
    return _profile_block(expr)


# ---------------------------------------------------------------------------
# fast route


def _compose(expr):
    """(class map, sorted family indices, width) of expr, keys sparse.

    A product is the identity placement with weight 1.  Entries without fixed
    symbols, whose single class is (), enter as scalars, so the placements
    are summed by the offsets of the other entries alone.  A bracket of more
    than two composite entries is refused before any entry is composed.
    """
    if isinstance(expr, Atom):
        if is_anti(expr.symbol):
            return {(): 1}, (expr.symbol,), 1
        return {((0, expr.symbol),): 1}, (), 1
    kids = _child_nodes(expr)
    # kept only until the oracle fallback goes (ROADMAP item 1)
    if isinstance(expr, Bracket) and sum(not isinstance(kid, Atom) for kid in kids) > 2:
        raise UnsupportedShapeError(
            "bracket nests more than two composite entries; use the oracle route"
        )
    others, widths, even, keyed, indices = [], [], [], [], []
    scale = 1  # the entries without fixed symbols are scalars
    for pos, kid in enumerate(kids):
        if _is_family_atom(kid):
            indices.append(kid.symbol)
            continue
        classes, kid_indices, size = _compose(kid)
        if () in classes:
            scale *= classes[()]
        else:
            keyed.append((len(others), classes))
        others.append(pos)
        widths.append(size)
        even.append(len(kid_indices) % 2 == 0)
        indices += kid_indices
    width = len(kids) - len(others) + sum(widths)
    run = sorted(indices)
    scale *= parity(indices)  # the identity order's sign
    if isinstance(expr, Bracket):
        scale *= factorial(len(kids) - len(others))
        placements = iter_placements(range(len(kids)), len(others))
    else:
        placements = (others,)
    if not others:  # family atoms alone: one placement
        return {(): scale}, run, width
    # moving X past Y multiplies by -(-1)^(d_X d_Y): d counts family indices,
    # so atoms commute and an even-d entry flips the sign per atom it passes
    signs = {}
    for placement in placements:
        flips = 0
        offsets = []
        for i, p in enumerate(placement):
            atoms, offset = p, 0  # atoms and the others' widths before entry i
            for j, q in enumerate(placement):
                if q < p:
                    atoms -= 1
                    offset += widths[j]
                    flips += j > i and (even[i] or even[j])
            if even[i]:
                flips += atoms - others[i] + i
            offsets.append(offset + atoms)
        shift = tuple([offsets[j] for j, _ in keyed])
        signs[shift] = signs.get(shift, 0) + (-scale if flips & 1 else scale)
    out = {}
    for shift, coeff in signs.items():
        terms = [((), coeff)]
        for off, (_, classes) in sorted(zip(shift, keyed)):
            terms = [(key + tuple([(p + off, s) for p, s in k]), value * c)
                     for key, value in terms for k, c in classes.items()]
        for key, value in terms:
            out[key] = out.get(key, 0) + value
    return {k: c for k, c in out.items() if c}, run, width


def fast_profile(expr, budget=DEFAULT_TERM_BUDGET):
    """Profile by composing class maps bottom-up; equals oracle_profile.

    Raises UnsupportedShapeError when a bracket nests more than two composite
    entries.
    """
    validate_unique_anti(expr)
    check_budget(bracket_sizes(expr, collapsed=True), budget, "fast expansion")
    classes, _, width = _compose(expr)
    profile = {}
    for key, coeff in classes.items():
        pattern = [ANTI_SLOT] * width
        for pos, symbol in key:
            pattern[pos] = symbol
        profile[tuple(pattern)] = coeff
    return profile


def profile_auto(expr, budget, jobs=1, path="auto"):
    """``(classes, route)``: the fast route, falling back to the oracle on
    shapes it does not cover unless ``path`` names one route."""
    if path != "oracle":
        try:
            return fast_profile(expr, budget=budget), "fast"
        except UnsupportedShapeError:
            if path == "fast":
                raise
    return oracle_profile(expr, budget=budget, jobs=jobs), "oracle"


# ---------------------------------------------------------------------------
# insertion expansions


def _head_indices(element):
    return {s for word, _ in element.items() for s in word if is_anti(s)}


def _require_fresh_slots(slots, *elements):
    if slots < 0:
        raise ValueError("slot count must be >= 0")
    reserved = set(range(1, slots + 1))
    used = set()
    for element in elements:
        indices = _head_indices(element)
        if indices & reserved:
            clash = sorted(indices & reserved)
            raise ValueError(f"entry reuses slot indices {clash}; slots take 1..{slots}")
        if indices & used:
            raise ValueError("entries share family indices")
        used |= indices


def _slot_terms(slots):
    return [[(1, (i,))] for i in range(1, slots + 1)]


def intercalate_one(head, slots: int):
    """Profile of the bracket [head b1 .. b_slots] over fresh family slots.

    Through the collapsed orderings this is factorial(slots) times the
    alternating sum over insertion points j of (slot words 1..j) head
    (slot words j+1..slots).
    """
    _require_fresh_slots(slots, head)
    lists = [_element_terms(head)] + _slot_terms(slots)
    return reduce_terms(_concat(lists, _collapsed_orderings(slots + 1, [0])))


def intercalate_two(head, tail, slots: int):
    """Profile of the bracket [head b1 .. b_slots tail] over fresh family slots.

    Through the collapsed orderings, head and tail take every ordered pair of
    distinct positions with the slots filling the rest in order, each
    placement weighted factorial(slots) times its sign.
    """
    _require_fresh_slots(slots, head, tail)
    lists = [_element_terms(head)] + _slot_terms(slots) + [_element_terms(tail)]
    return reduce_terms(_concat(lists, _collapsed_orderings(slots + 2, [0, slots + 1])))
