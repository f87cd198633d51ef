"""Unique-maximum classification of rank sequences and the two injections.

A 132-avoider has a unique longest increasing subsequence exactly when its
rank sequence attains its maximum at a single position.  On rank sequences
whose maximum is tied, `uniquify_max` bumps the stretch between the last two
maximum positions up by one, producing a sequence whose (new) maximum is
unique; it never collides on distinct inputs.  Conjugating by the rank
bijection gives `uniquify_lis`, an injection from avoiders without a unique
longest increasing subsequence to avoiders with one -- which is what pins the
count of the former below the count of the latter.
"""

from __future__ import annotations

from .errors import ConstructionError, InputError
from .permutations import PATTERN_132, Permutation, contains_pattern, start_ranks
from .ranks import RankSequence, invert


def _unique_max(values: tuple[int, ...]) -> bool:
    """Whether the maximum of `values` occurs exactly once: the rank sequence
    of a 132-avoider has a unique maximum iff the avoider has a unique longest
    increasing subsequence."""
    return values.count(max(values)) == 1


def uniquify_max(t: RankSequence) -> RankSequence:
    """Make the maximum of a tied-maximum rank sequence unique.

    With i < j the final two positions holding the maximum, every value on
    [i, j) is incremented by one.  Only position i held the maximum there, so
    the result has a unique maximum, one higher, at position i; entries at and
    beyond j are untouched.  Distinct inputs give distinct outputs, since the
    image determines i, j, and hence the original sequence.

    j is found as the first maximum of the reversed sequence and i as the
    next one after it; the bumped sequence is spliced from three slices.  The
    image is rebuilt through the validating `RankSequence` constructor, and
    then checked: its maximum must be the old maximum plus one, occur once,
    and sit at position i.

    A sequence whose maximum is already unique is rejected: accepting it
    silently would hide classification bugs in callers.

    >>> str(uniquify_max(RankSequence.from_text("221")))
    '3 2 1'
    >>> str(uniquify_max(RankSequence.from_text("2221")))
    '2 3 2 1'
    """
    values = t.values
    top = max(values)
    if values.count(top) == 1:
        raise InputError(
            f"sequence already has a unique maximum: {t}"
        )
    # i and j as 0-based indices, from the right end of the sequence
    last = len(values) - 1
    backwards = values[::-1]
    j = last - backwards.index(top)
    i = last - backwards.index(top, last - j + 1)
    bumped = values[:i] + tuple(v + 1 for v in values[i:j]) + values[j:]
    result = RankSequence(bumped)  # revalidates family membership
    image = result.values
    if not (max(image) == top + 1 and image.count(top + 1) == 1
            and image[i] == top + 1):
        raise ConstructionError(
            f"image of {t} lacks the promised unique maximum: {result}"
        )
    return result


def uniquify_stages(p: Permutation) -> tuple[RankSequence, RankSequence, Permutation]:
    """`uniquify_lis` stage by stage: the rank sequence of `p`, that sequence
    with its maximum made unique by `uniquify_max`, and its inverse, the image
    of `p`.  Preconditions are recomputed here rather than trusted, in O(n):
    `p` must avoid 132 (a linear sweep), and then `start_ranks` takes its
    ranks from a second sweep.  By Lemma 1 each entry of an avoider starts
    exactly one longest increasing subsequence among those starting there, so
    `p` has as many longest increasing subsequences as its ranks have
    positions of maximal rank: it lacks a unique one iff the maximum is tied.
    The validating `RankSequence` constructor then wraps the ranks.

    >>> [str(stage) for stage in uniquify_stages(Permutation.from_text("321"))]
    ['1 1 1', '1 2 1', '3 1 2']
    """
    verdict = contains_pattern(p, PATTERN_132)
    if verdict.contains:
        raise InputError(f"input contains 132 at positions {verdict.witness}: {p}")
    values = start_ranks(p)
    if not values or _unique_max(values):
        raise InputError(f"input already has a unique longest increasing subsequence: {p}")
    ranks = RankSequence(values)
    lifted = uniquify_max(ranks)
    return ranks, lifted, invert(lifted)


def uniquify_lis(p: Permutation) -> Permutation:
    """Carry a 132-avoider without a unique longest increasing subsequence to
    one with a unique longest increasing subsequence.

    Conjugation of `uniquify_max` by the rank bijection: take ranks, make the
    maximum unique, reconstruct (see `uniquify_stages`).

    >>> print(uniquify_lis(Permutation.from_text("213")))
    1 2 3
    >>> print(uniquify_lis(Permutation.from_text("321")))
    3 1 2
    """
    return uniquify_stages(p)[2]
