"""Rank sequences: the Catalan family in bijection with 132-avoiders.

The rank sequence of a permutation records, position by position, the length
of the longest increasing subsequence starting there.  For 132-avoiding
permutations the resulting sequences are exactly the positive-integer
sequences that end in 1 and never drop by more than 1 between neighbours;
this module owns that family (membership validation, exhaustive generation,
exact counting) and the inverse map reconstructing the unique 132-avoider
from its rank sequence.

In a 132-avoider the entries right of p_i that are larger than p_i increase
(two of them in decreasing order would make a 132 with p_i), so the rank of
p_i is one more than their number: the rank sequence minus one is the
avoider's larger-to-the-right inversion table, which `invert` decodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import InputError, SequenceValidationError, _check_length
from .permutations import Permutation, format_values, parse_values, start_ranks

# Exhaustive generation visits catalan(n) sequences (catalan(12) = 208012).
SEQUENCE_CAP = 12


@dataclass(frozen=True)
class RankSequence:
    """A member of the rank-sequence family: positive integers, final value 1,
    adjacent drops at most 1.

    >>> RankSequence((2, 2, 1)).n
    3
    >>> RankSequence((1, 3, 1))
    Traceback (most recent call last):
        ...
    ulisperm.errors.SequenceValidationError: drop of 2 at positions 2->3
    """

    values: tuple[int, ...]

    def __post_init__(self):
        validate_values(self.values)

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def from_text(cls, text: str) -> "RankSequence":
        return cls(parse_values(text))

    def __str__(self) -> str:
        return format_values(self.values)

    def __len__(self) -> int:
        return len(self.values)


def validate_values(values: tuple[int, ...]) -> None:
    """Raise SequenceValidationError naming the violated condition and its
    1-based position; return silently on members of the family."""
    n = len(values)
    if n == 0:
        raise SequenceValidationError("empty", 0, "rank sequence must be nonempty")
    for i, v in enumerate(values):
        if v < 1:
            raise SequenceValidationError(
                "positive", i + 1, f"entry {v} at position {i + 1} is not positive"
            )
    if values[-1] != 1:
        raise SequenceValidationError(
            "final-entry", n, f"must end in 1, ends in {values[-1]}"
        )
    for i in range(n - 1):
        drop = values[i] - values[i + 1]
        if drop > 1:
            raise SequenceValidationError(
                "adjacent-drop", i + 1,
                f"drop of {drop} at positions {i + 1}->{i + 2}"
            )
    # Implied bound: reaching the final 1 by unit drops forces
    # values[i] <= n - i.  Guaranteed by the checks above.
    assert all(v <= n - i for i, v in enumerate(values))


def rank_sequence(p: Permutation) -> RankSequence:
    """The rank sequence of `p`.

    Ranks themselves are defined for every permutation (see
    `permutations.start_ranks`); the wrapped family member is guaranteed to
    exist when `p` avoids 132, and for some inputs containing 132 the raw
    ranks fall outside the family, in which case this raises.

    >>> rank_sequence(Permutation.from_text("213")).values
    (2, 2, 1)
    """
    return RankSequence(start_ranks(p))


def catalan(n: int) -> int:
    """The n-th Catalan number, by integer-only evaluation.

    binom(2n, n)/(n+1) rewritten as a difference of binomials so that no
    intermediate division occurs.

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if n < 0:
        raise InputError(f"catalan is defined for n >= 0, got {n}")
    return math.comb(2 * n, n) - math.comb(2 * n, n + 1)


def enumerate_rank_sequences(n: int, *, cap: int = SEQUENCE_CAP) -> Iterator[RankSequence]:
    """Yield every rank sequence of length n exactly once, in lexicographic
    order.  There are catalan(n) of them.

    Generated as lexicographic successors, without recursion: raise the
    rightmost entry below n - i (the most that still reaches the final 1 by
    drops of at most 1), then refill the rest with max(1, previous - 1).

    >>> [str(t) for t in enumerate_rank_sequences(3)]
    ['1 1 1', '1 2 1', '2 1 1', '2 2 1', '3 2 1']
    """
    _check_length("rank-sequence enumeration", n, 1, cap)
    return _generate_sequences(n)


def _generate_sequences(n: int) -> Iterator[RankSequence]:
    values = [1] * n
    while True:
        yield RankSequence(tuple(values))
        i = n - 2
        while i >= 0 and values[i] == n - i:
            i -= 1
        if i < 0:
            return
        values[i] += 1
        for j in range(i + 1, n):
            values[j] = max(1, values[j - 1] - 1)


def invert(t: RankSequence) -> Permutation:
    """The unique 132-avoiding permutation whose rank sequence is `t`.

    In a 132-avoider the entries right of p_i that are larger than p_i
    increase from left to right: two of them in decreasing order would make
    a 132 with p_i.  So p_i followed by all of them is the longest increasing
    subsequence starting at p_i, r_i = 1 + #{j > i : p_j > p_i}, and t minus
    one is the avoider's larger-to-the-right inversion table.
    Decoding it left to right, p_i is the r_i-th largest value not yet
    placed (r_i <= n - i + 1, the number of such values, by membership):

    >>> print(invert(RankSequence.from_text("121")))
    3 1 2
    >>> print(invert(RankSequence.from_text("221")))
    2 1 3
    """
    values = t.values
    free = list(range(len(values), 0, -1))
    result = Permutation(tuple(free.pop(r - 1) for r in values))
    assert start_ranks(result) == values, (t, result)
    return result
