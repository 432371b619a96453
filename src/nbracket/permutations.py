"""Permutations of range(n): parity and signed lexicographic ranges.

The oracle enumerates the n! signed orderings of bracket entries in
lexicographic order, which is the order of ``itertools.permutations``.  A
rank range picks one contiguous block of that order, so the enumeration can
be partitioned among workers without coordination.

Each ordering's sign is that of its Lehmer code's digit sum, its inversion
count (Knuth, TAOCP 3, 5.1.1): the codes ``product(range(n), range(n - 1),
..., range(1))`` come in the lexicographic order of the permutations.
"""

from itertools import combinations, islice, permutations, product, starmap
from operator import gt


def inversion_count(seq) -> int:
    """Number of out-of-order pairs (i < j with seq[i] > seq[j])."""
    return sum(starmap(gt, combinations(seq, 2)))


def parity(seq) -> int:
    """Sign (+1 or -1) of a sequence of distinct comparables."""
    return -1 if inversion_count(seq) & 1 else 1


def signed_perm_range(n: int, start: int = 0, stop: int | None = None):
    """Iterate (sign, perm) for lexicographic ranks start..stop over range(n)."""
    inversions = map(sum, product(*map(range, range(n, 0, -1))))
    signs = (-1 if k & 1 else 1 for k in inversions)
    return islice(zip(signs, permutations(range(n))), start, stop)
