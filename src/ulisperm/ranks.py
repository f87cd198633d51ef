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

Members of length n are also ranked by their position in lexicographic
order, 0..catalan(n) - 1 (`_lex_ranker`).  Position k (0-based) holds a value
from lo_k = max(1, values[k-1] - 1) (lo_0 = 1) up to n - k, and W(k, v), the
number of ways to fill positions k+1..n-1 after value v at position k, obeys

    W(n-1, 1) = 1,    W(k, v) = sum of W(k+1, w) over w >= max(1, v - 1).

A member's rank counts the members that agree with it before some position k
and are smaller there: the sum over k of W(k, x) for lo_k <= x < values[k].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Callable, Iterator

from .errors import (
    SEQUENCE_CAP,
    ConstructionError,
    InputError,
    SequenceValidationError,
    _check_length,
)
from .permutations import Permutation, _sweep_132, format_values, parse_values, start_ranks


@dataclass(frozen=True)
class RankSequence:
    """A member of the rank-sequence family: positive integers, final value 1,
    adjacent drops at most 1.

    Direct construction, `from_text`, `rank_sequence` and `uniquify_max`'s
    image validate their values (any sequence of ints is stored as a tuple).
    Only tuples that are members by construction are wrapped unchecked,
    through `_trusted`: those `enumerate_rank_sequences` yields, and the tied
    inputs the injection-f suite passes to `uniquify_max`.

    >>> RankSequence((2, 2, 1)).n
    3
    >>> RankSequence([2, 2, 1]) == RankSequence((2, 2, 1))
    True
    >>> RankSequence((1, 3, 1))
    Traceback (most recent call last):
        ...
    ulisperm.errors.SequenceValidationError: drop of 2 at positions 2->3
    """

    values: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        validate_values(self.values)

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def from_text(cls, text: str) -> "RankSequence":
        return cls(parse_values(text))

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> "RankSequence":
        """Wrap `values` without validating them.  Only for tuples that are
        members by construction: those `_generate_sequences` yields, wrapped
        by `enumerate_rank_sequences` and, for its tied inputs only, by the
        injection-f suite.  The twin of `Permutation._trusted`."""
        t = object.__new__(cls)
        t.__dict__["values"] = values  # past the frozen __setattr__
        return t

    def __str__(self) -> str:
        return format_values(self.values)

    def __len__(self) -> int:
        return len(self.values)


def validate_values(values: tuple[int, ...]) -> None:
    """Raise SequenceValidationError naming the violated condition and its
    1-based position; return silently on members of the family.  A member
    passes three C-level scans (ends in 1, least entry positive, largest drop
    below 2); anything else goes to the loops, which find the first
    violation."""
    if (values[-1:] == (1,) and min(values) > 0
            and max(map(sub, values, values[1:]), default=0) < 2):
        return
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
    """The n-th Catalan number, binom(2n, n) // (n+1), in exact integers:
    the division leaves no remainder.

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if n < 0:
        raise InputError(f"catalan is defined for n >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def enumerate_rank_sequences(n: int, *, cap: int = SEQUENCE_CAP) -> Iterator[RankSequence]:
    """Yield every rank sequence of length n exactly once, in lexicographic
    order.  There are catalan(n) of them.

    Generated as lexicographic successors, without recursion: raise the
    rightmost entry below n - i (the most that still reaches the final 1 by
    drops of at most 1) and refill the rest, each entry one below the last
    down to 1: one slice of a list built once per n.  Every successor is a
    member, so it is wrapped unvalidated (`RankSequence._trusted`); the
    constructor, `from_text` and `rank_sequence` still validate.  The walk
    itself, `_generate_sequences`, yields plain tuples: the enumerative
    census and the injection-f suite read those and wrap nothing they do
    not pass on.

    >>> [str(t) for t in enumerate_rank_sequences(3)]
    ['1 1 1', '1 2 1', '2 1 1', '2 2 1', '3 2 1']
    """
    _check_length("rank-sequence enumeration", n, 1, cap)
    wrap = RankSequence._trusted
    return (wrap(values) for values in _generate_sequences(n))


def _generate_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """The values of every rank sequence of length n, in lexicographic
    order, as plain tuples; the length is not checked."""
    values = [1] * n
    stairs = [*range(n, 1, -1), *[1] * n]
    while True:
        yield tuple(values)
        i = n - 2
        while i >= 0 and values[i] == n - i:
            i -= 1
        if i < 0:
            return
        start = n - 1 - values[i]  # where stairs holds values[i] + 1
        values[i:] = stairs[start:start + n - i]


def _lex_ranker(n: int) -> Callable[[tuple[int, ...]], int]:
    """A function from the values of a member of length n to its 0-based
    position in `enumerate_rank_sequences(n)`; a tuple of any other length
    is refused by an assertion, and non-members are not ranked.

    With P(k, v) = W(k, 1) + ... + W(k, v - 1) (module docstring), the rank is
    the sum over k of P(k, values[k]) - P(k, lo_k).  Since lo_(k+1) depends
    only on values[k], both terms of a position are folded into one row
    indexed by values[k], so a call is one sum over the rows.

    >>> rank = _lex_ranker(3)
    >>> [rank(t.values) for t in enumerate_rank_sequences(3)]
    [0, 1, 2, 3, 4]
    """
    prefix = [0, 0, 1]  # P(n-1, v) for v = 0..2: only the value 1 fits
    rows = [[0, 0]]
    for k in range(n - 2, -1, -1):
        # P(k+1, lo) for each value v = 0..n-k at position k, lo = max(1, v - 1)
        before = [prefix[max(1, v - 1)] for v in range(n - k + 1)]
        completions = [prefix[-1] - b for b in before]  # W(k, v)
        below = [0, *accumulate(completions[1:], initial=0)]  # P(k, v)
        rows.append([p - b for p, b in zip(below, before)])
        prefix = below
    rows.reverse()

    def rank(values: tuple[int, ...]) -> int:
        assert len(values) == n, (n, values)
        return sum(map(list.__getitem__, rows, values))

    return rank


def invert(t: RankSequence) -> Permutation:
    """The unique 132-avoiding permutation whose rank sequence is `t`.

    In a 132-avoider the entries right of p_i that are larger than p_i
    increase from left to right: two of them in decreasing order would make
    a 132 with p_i.  So p_i followed by all of them is the longest increasing
    subsequence starting at p_i, r_i = 1 + #{j > i : p_j > p_i}, and t minus
    one is the avoider's larger-to-the-right inversion table.
    Decoding it left to right, p_i is the r_i-th largest value not yet
    placed (r_i <= n - i + 1, the number of such values, by membership).
    The unplaced values are kept largest first in a doubly linked list, and
    a cursor stops after each entry on the value just above it, the
    (r_i - 1)-th largest left.  By membership r_{i+1} >= r_i - 1, so from
    there the cursor only moves down, and the decoding takes O(n) steps.
    The result is then checked in O(n) by `permutations._sweep_132`: it must
    avoid 132, and its ranks, the heights of that sweep's stack, must equal
    t; otherwise ConstructionError is raised, under `python -O` too.

    >>> print(invert(RankSequence.from_text("121")))
    3 1 2
    >>> print(invert(RankSequence.from_text("221")))
    2 1 3
    """
    values = t.values
    n = len(values)
    # the unplaced values between the sentinels n + 1 (above the largest) and
    # 0 (below the smallest): below[v] and above[v] are v's neighbours
    below = list(range(-1, n + 1))
    above = list(range(1, n + 3))
    entries = []
    append = entries.append
    cursor, rank = n + 1, 0  # the cursor is the rank-th largest unplaced value
    for r in values:
        while rank < r:
            cursor = below[cursor]
            rank += 1
        append(cursor)
        up = above[cursor]
        down = below[cursor]
        below[up] = down
        above[down] = up
        cursor = up
        rank -= 1
    # every value is unlinked once, so the result is a permutation as built
    result = Permutation._trusted(tuple(entries))
    first, ranks = _sweep_132(result.entries)
    if first >= 0 or ranks != values:
        raise ConstructionError(
            f"decoding {t} gave {result}, not a 132-avoider with those ranks"
        )
    return result
