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
it passes.  A bracket with family atoms and one keyed entry, holding fixed
symbols, counts placements per order of its other entries as running sums,
left[x] (+-1)^x right[x] at keyed offset (widths ahead) + x, which multiply
single-symbol keyed classes as a polynomial.  Classes are keyed sparsely by
(position, fixed symbol), dense patterns only at the root.  The oracle never
uses these shortcuts, which is what makes the cross-check mean something.
Both routes cover every shape; ``profile_auto`` is the one place that picks one.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import accumulate, permutations as iter_placements, product as iter_product
from math import factorial, gcd, lgamma, log, log2, prod

from .algebra import ANTI_SLOT, FreeElement, is_anti, merge_class_maps, reduce_terms
from .permutations import inversion_count, parity, signed_perm_range
from .syntax import Atom, Bracket, Product, validate_unique_anti

DEFAULT_TERM_BUDGET = 10**8


class TermBudgetExceeded(RuntimeError):
    """An expansion would generate more words than the configured budget."""


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


def _is_family_atom(node):  # is_anti by class identity: the fast route's hottest test
    return node.__class__ is Atom and node.symbol.__class__ is int


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


def oracle_workers(expr, jobs):
    """``jobs`` capped at ``os.cpu_count()`` and the root bracket's n! orderings."""
    root = expr.entries if isinstance(expr, Bracket) else ()
    return min(jobs, os.cpu_count() or 1, factorial(len(root)))


def oracle_profile(expr, budget=DEFAULT_TERM_BUDGET, jobs=1):
    """Ground-truth profile: literal expansion with eager canonical reduction.

    With more than one ``oracle_workers``, the root bracket's orderings split
    into contiguous lexicographic-rank blocks, one per worker process, whose
    class maps merge additively to the same result for any block layout.
    """
    validate_unique_anti(expr)
    check_budget(bracket_sizes(expr), budget, "oracle expansion")
    jobs = oracle_workers(expr, jobs)
    if jobs > 1:
        total = factorial(len(expr.entries))
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
    are summed by the offsets of the other, keyed, entries alone: in closed
    form in a bracket with family atoms and exactly one of them.
    """
    if isinstance(expr, Atom):
        if is_anti(expr.symbol):
            return {(): 1}, (expr.symbol,), 1
        return {((0, expr.symbol),): 1}, (), 1
    kids = _child_nodes(expr)
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
    if not others:  # family atoms alone: one placement
        return {(): scale}, run, width
    signs, placements = {}, (others,)  # a product's one placement, the identity
    if isinstance(expr, Bracket) and (len(keyed) != 1 or len(kids) == len(others)):
        placements = iter_placements(range(len(kids)), len(others))
    elif isinstance(expr, Bracket):  # one keyed entry among atoms: closed form
        j, classes = keyed[0]
        counts = _placement_sums(others, widths, even, j, len(kids) - len(others))
        names = {key[0][1] for key in classes}
        if len(names) == 1 and all(len(key) == 1 for key in classes):  # a coefficient list
            name = names.pop()
            common = gcd(*classes.values())
            coeffs = [classes.get(((p, name),), 0) // common for p in range(widths[j])]
            short, long = (coeffs, counts) if len(coeffs) < len(counts) else (counts, coeffs)
            total, scale = [0] * width, scale * common
            for off, n in enumerate(short):  # the polynomial product
                total[off:off + len(long)] = [t + n * c for t, c in zip(total[off:], long)]
            return {((q, name),): scale * t for q, t in enumerate(total) if t}, run, width
        signs, placements = {(off,): n for off, n in enumerate(counts)}, ()
    # moving X past Y multiplies by -(-1)^(d_X d_Y), d counting family indices
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
        signs[shift] = signs.get(shift, 0) + (-1 if flips & 1 else 1)
    out = {}
    for shift, coeff in signs.items():
        terms = [((), coeff)]
        for off, (_, classes) in sorted(zip(shift, keyed)):
            terms = [(key + tuple([(p + off, s) for p, s in k]), value * c)
                     for key, value in terms for k, c in classes.items()]
        for key, value in terms:
            out[key] = out.get(key, 0) + value
    return {k: scale * c for k, c in out.items() if c}, run, width


def _running_sums(slots, even, atoms, far=0):
    """By x, sums over 0 <= a_1 <= .. <= a_k <= x of prod (-1)^(a_i + far) over even slots."""
    sums = [1] * (atoms + 1)
    for i in slots:
        sums = list(accumulate(-c if even[i] and (x + far) & 1 else c for x, c in enumerate(sums)))
    return sums


def _placement_sums(others, widths, even, j, atoms):
    """Signed placement counts by the offset of other entry j, one order at a time."""
    base = sum(others[i] - i for i in range(len(others)) if even[i])
    counts = [0] * (sum(widths) - widths[j] + atoms + 1)
    for order in iter_placements(range(len(others))):
        flips = base + inversion_count(order) + inversion_count([i for i in order if not even[i]])
        m = order.index(j)
        left = _running_sums(order[:m], even, atoms)
        right = _running_sums(order[:m:-1], even, atoms, atoms)[::-1]  # a_i from the far end
        ahead = sum(widths[i] for i in order[:m])
        for x, (a, b) in enumerate(zip(left, right)):
            counts[ahead + x] += -a * b if (flips + even[j] * x) & 1 else a * b
    return counts


def fast_profile(expr, budget=DEFAULT_TERM_BUDGET):
    """Profile by composing class maps bottom-up; equals oracle_profile."""
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


def _is_wide(expr):
    """Whether a bracket anywhere in expr holds more than two composite entries."""
    kids = _child_nodes(expr)
    return (isinstance(expr, Bracket) and sum(not isinstance(k, Atom) for k in kids) > 2
            or any(map(_is_wide, kids)))


def profile_auto(expr, budget, jobs=1, path="auto"):
    """``(classes, route)`` from the route ``path`` names.  ``auto`` keeps the
    routes and errors of the fast route that refused wide brackets: the oracle,
    after the fast route's checks, where ``_is_wide``; the fast route elsewhere."""
    if path == "auto":
        path = "oracle" if _is_wide(expr) else "fast"
        if path == "oracle":
            validate_unique_anti(expr)
            check_budget(bracket_sizes(expr, collapsed=True), budget, "fast expansion")
    if path == "fast":
        return fast_profile(expr, budget=budget), "fast"
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
