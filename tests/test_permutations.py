from itertools import islice, permutations

import nbracket.expand as expand
from nbracket.expand import oracle_profile
from nbracket.identities import flat_bracket_expr
from nbracket.permutations import inversion_count, parity, signed_perm_range


def test_inversions_small():
    assert inversion_count((0, 1, 2)) == 0
    assert inversion_count((2, 1, 0)) == 3
    assert inversion_count((1, 0, 2)) == 1


def test_parity_matches_transposition_count():
    # parity of a permutation equals (-1)^(number of adjacent swaps to sort)
    for perm in permutations(range(5)):
        seq = list(perm)
        swaps = 0
        for i in range(len(seq)):
            for j in range(len(seq) - 1):
                if seq[j] > seq[j + 1]:
                    seq[j], seq[j + 1] = seq[j + 1], seq[j]
                    swaps += 1
        assert parity(perm) == (-1) ** swaps


def test_signed_range_is_lexicographic():
    perms = [perm for _, perm in signed_perm_range(5)]
    assert perms == sorted(set(perms)) == list(permutations(range(5)))
    assert [perm for _, perm in signed_perm_range(4, 5, 9)] == list(permutations(range(4)))[5:9]


def test_signed_range_blocks_cover_everything():
    whole = list(signed_perm_range(5))
    assert len(whole) == 120
    pieces = []
    for lo in range(0, 120, 17):
        pieces.extend(signed_perm_range(5, lo, min(lo + 17, 120)))
    assert pieces == whole
    for sign, perm in whole[:24]:
        assert sign == parity(perm)


def signed_by_parity(n, start=0, stop=None):
    return [(parity(perm), perm) for perm in islice(permutations(range(n)), start, stop)]


def test_lehmer_signs_equal_parity_over_the_full_range():
    for n in range(8):
        assert list(signed_perm_range(n)) == signed_by_parity(n), n


def test_lehmer_signs_equal_parity_over_every_oracle_block(monkeypatch):
    blocks = []

    class InlinePool:
        """Runs the rank blocks in this process and records them."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, exprs, ranges):
            ranges = list(ranges)
            blocks.extend(ranges)
            return map(fn, exprs, ranges)

    monkeypatch.setattr(expand, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(expand.os, "cpu_count", lambda: 4)
    for n in range(1, 8):
        for jobs in range(1, 5):
            blocks.clear()
            oracle_profile(flat_bracket_expr(n), jobs=jobs)
            layout = blocks or [(0, None)]  # one job runs the whole range in place
            pieces = []
            for block in layout:
                signed = list(signed_perm_range(n, *block))
                assert signed == signed_by_parity(n, *block), (n, jobs, block)
                pieces += signed
            assert pieces == signed_by_parity(n), (n, jobs)
