import itertools

import pytest

import reference
from inputs import KINDS, LENGTHS, long_inputs, random_ranks, tied_ranks


def is_rank_sequence(ranks):
    return ranks[-1] == 1 and min(ranks) >= 1 and all(a - b <= 1 for a, b in zip(ranks, ranks[1:]))


def test_same_seed_same_inputs():
    assert long_inputs(7) == long_inputs(7)
    assert long_inputs(7) != long_inputs(8)


def test_every_kind_covers_the_length_schedule():
    commands = long_inputs(3)
    assert len(LENGTHS) == 100 and LENGTHS[0] == 24 and LENGTHS[-1] == 128
    for kind in KINDS:
        assert sorted(len(values) for k, _, values in commands if k == kind) == sorted(LENGTHS)


def test_inputs_have_the_promised_shape():
    for kind, argv, values in long_inputs(5):
        assert argv[-1] == " ".join(map(str, values))
        if kind == "invert":
            assert argv[:2] == ["rank", "--invert"] and is_rank_sequence(values)
            continue
        assert reference.is_permutation(values)
        assert reference.contains_132(values) == (kind == "rank_other")
        if kind == "map":
            ranks = reference.start_ranks(values)
            assert ranks.count(max(ranks)) > 1


@pytest.mark.parametrize("n", range(1, 8))
def test_contains_132_matches_triples(n):
    for entries in itertools.permutations(range(1, n + 1)):
        brute = any(entries[i] < entries[k] < entries[j]
                    for i, j, k in itertools.combinations(range(n), 3))
        assert reference.contains_132(list(entries)) == brute


def test_avoider_from_ranks_inverts_start_ranks():
    import random

    rng = random.Random(0)
    for n in (1, 2, 5, 40):
        for _ in range(20):
            ranks = random_ranks(rng, n)
            avoider = reference.avoider_from_ranks(ranks)
            assert reference.is_permutation(avoider)
            assert not reference.contains_132(avoider)
            assert reference.start_ranks(avoider) == ranks


def test_bump_makes_the_maximum_unique():
    import random

    rng = random.Random(1)
    ranks = tied_ranks(rng, 30)
    bumped = reference.bump_tied_maximum(ranks)
    assert bumped.count(max(bumped)) == 1 and max(bumped) == max(ranks) + 1
    assert reference.bump_tied_maximum([2, 2, 1]) == [3, 2, 1]
