"""Seeded inputs for the long_inputs commands, made without the library.

Each of the four command kinds gets one input per length in LENGTHS, so its
percentiles fall at the same lengths whatever the seed; the seed picks the
contents and shuffles the order in which the commands run.
"""

from __future__ import annotations

import random

from reference import avoider_from_ranks, contains_132

LENGTHS = tuple(24 + round(i * 104 / 99) for i in range(100))  # 24..128

KINDS = ("rank_avoider", "rank_other", "invert", "map")


def random_ranks(rng: random.Random, n: int) -> list[int]:
    """A random rank sequence: ends in 1, never drops by more than 1.

    Built right to left: each value either climbs one above its right
    neighbour or falls anywhere from 1 to that neighbour.
    """
    ranks = [1] * n
    for i in range(n - 2, -1, -1):
        right = ranks[i + 1]
        ranks[i] = right + 1 if rng.random() < 0.5 else rng.randint(1, right)
    return ranks


def tied_ranks(rng: random.Random, n: int) -> list[int]:
    """A random rank sequence whose maximum occurs at least twice."""
    while True:
        ranks = random_ranks(rng, n)
        if ranks.count(max(ranks)) > 1:
            return ranks


def permutation_with_132(rng: random.Random, n: int) -> list[int]:
    while True:
        entries = list(range(1, n + 1))
        rng.shuffle(entries)
        if contains_132(entries):
            return entries


def _text(values: list[int]) -> str:
    return " ".join(map(str, values))


def long_inputs(seed: int) -> list[tuple[str, list[str], list[int]]]:
    """(kind, argv, input values) for every long_inputs command, in run order.

    The input values are the permutation for `rank` and `map`, and the rank
    sequence for `rank --invert`.
    """
    rng = random.Random(seed)
    commands = []
    for n in LENGTHS:
        avoider = avoider_from_ranks(random_ranks(rng, n))
        commands.append(("rank_avoider", ["rank", _text(avoider)], avoider))
        other = permutation_with_132(rng, n)
        commands.append(("rank_other", ["rank", _text(other)], other))
        ranks = random_ranks(rng, n)
        commands.append(("invert", ["rank", "--invert", _text(ranks)], ranks))
        tied = avoider_from_ranks(tied_ranks(rng, n))
        commands.append(("map", ["map", _text(tied)], tied))
    rng.shuffle(commands)
    return commands
