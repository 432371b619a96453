"""Words over two kinds of generators, their exact sums, and their reduction.

A *fixed* generator is a named operator that antisymmetrization leaves in
place.  A member of the *antisymmetrized family* carries a positive integer
index; every expression handled here is read modulo total antisymmetrization
over that family, so a word may be rewritten, up to a sign, with its family
indices ascending.  That rewrite is what ``canonical_reduce`` performs.

Representation is deliberately lean: a fixed generator is its name string, a
family member is its index int, a word is a tuple of generators, and a
canonical class is a word tuple whose family slots hold ``ANTI_SLOT`` (0).
Coefficients are exact throughout (int, promoted to Fraction only where
division actually occurs).  All values are immutable once built, so partial
results can be computed independently and merged.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import chain

ANTI_SLOT = 0


def is_anti(symbol) -> bool:
    return isinstance(symbol, int)


def symbol_str(symbol) -> str:
    return f"b{symbol}" if isinstance(symbol, int) else symbol


def symbol_sort_key(symbol):
    # Fixed names order before family indices; each kind orders internally.
    if isinstance(symbol, int):
        return (1, "", symbol)
    return (0, symbol, 0)


def sort_words(words) -> list:
    """Words in symbol_sort_key order symbol by symbol, each symbol keyed once."""
    words = list(words)
    rank = {s: i for i, s in enumerate(sorted(set().union(*words), key=symbol_sort_key))}
    return sorted(words, key=lambda w: tuple(map(rank.__getitem__, w)))


def pattern_str(pattern) -> str:
    """Display form of a canonical class, family slots shown as ``b*``."""
    if not pattern:
        return "1"
    return " ".join("b*" if s == ANTI_SLOT else s for s in pattern)


def canonical_reduce(word):
    """Rewrite a word with family indices ascending, tracking the sign.

    Returns ``(sign, pattern)`` where sign is the parity of the permutation
    sorting the family indices and pattern keeps fixed generators in place
    with 0 in every family slot.  Returns None when an index repeats: the
    class vanishes by antisymmetry.
    """
    inversions = 0
    seen = []  # family indices so far, kept sorted
    pattern = []
    for s in word:
        if s.__class__ is int:
            pos = bisect_left(seen, s)
            if pos < len(seen) and seen[pos] == s:
                return None
            inversions += len(seen) - pos
            seen.insert(pos, s)
            pattern.append(ANTI_SLOT)
        else:
            pattern.append(s)
    return (-1 if inversions & 1 else 1), tuple(pattern)


def reduce_terms(terms) -> dict:
    """Signed accumulation of (coefficient, word) pairs into canonical classes.

    Zero classes are dropped, including those that cancel during accumulation.
    """
    classes = {}
    for coeff, word in terms:
        reduced = canonical_reduce(word)
        if reduced is None:
            continue
        sign, pattern = reduced
        value = classes.get(pattern, 0) + (coeff if sign > 0 else -coeff)
        if value:
            classes[pattern] = value
        elif pattern in classes:
            del classes[pattern]
    return classes


def reduce_element(element) -> dict:
    """Canonical classes of a FreeElement (map pattern -> exact coefficient)."""
    return reduce_terms((c, w) for w, c in element.items())


def merge_class_maps(parts) -> dict:
    """Additive merge of class maps; exact coefficients make it order-free."""
    total = {}
    for part in parts:
        for pattern, coeff in part.items():
            value = total.get(pattern, 0) + coeff
            if value:
                total[pattern] = value
            elif pattern in total:
                del total[pattern]
    return total


def _as_coefficient(value):
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise TypeError(f"coefficients must be exact (int or Fraction), got {type(value).__name__}")


class FreeElement:
    """A finite formal sum of words with exact rational coefficients.

    Supports addition and subtraction; identities are checked on class maps,
    so no product is needed.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for word, coeff in items:
            if coeff.__class__ is not int:  # checked: bools and floats are refused
                coeff = _as_coefficient(coeff)
            if word.__class__ is not tuple:
                word = tuple(word)
            value = data.get(word, 0) + coeff
            if value:
                data[word] = value
            elif word in data:
                del data[word]
        self._terms = data

    @classmethod
    def from_word(cls, word, coeff=1):
        return cls(((tuple(word), coeff),))

    @classmethod
    def from_symbol(cls, symbol):
        return cls((((symbol,), 1),))

    @classmethod
    def zero(cls):
        return cls()

    def items(self):
        return self._terms.items()

    def coefficient(self, word):
        return self._terms.get(tuple(word), 0)

    def words_in_order(self):
        return sort_words(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if isinstance(other, FreeElement):
            return self._terms == other._terms
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return FreeElement(chain(self.items(), other.items()))

    def __neg__(self):
        return FreeElement((w, -c) for w, c in self.items())

    def __sub__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self + (-other)

    def __repr__(self):
        return f"FreeElement({self._terms!r})"
