from itertools import permutations

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
