"""Permutations of range(n): parity and signed lexicographic ranges.

The oracle enumerates the n! signed orderings of bracket entries in
lexicographic order, which is the order of ``itertools.permutations``.  A
rank range picks one contiguous block of that order, so the enumeration can
be partitioned among workers without coordination.
"""

from itertools import islice, permutations


def inversion_count(seq) -> int:
    """Number of out-of-order pairs (i < j with seq[i] > seq[j])."""
    count = 0
    n = len(seq)
    for i in range(n - 1):
        a = seq[i]
        for j in range(i + 1, n):
            if a > seq[j]:
                count += 1
    return count


def parity(seq) -> int:
    """Sign (+1 or -1) of a sequence of distinct comparables."""
    return -1 if inversion_count(seq) & 1 else 1


def signed_perm_range(n: int, start: int = 0, stop: int | None = None):
    """Yield (sign, perm) for lexicographic ranks start..stop over range(n)."""
    for perm in islice(permutations(range(n)), start, stop):
        yield parity(perm), perm
