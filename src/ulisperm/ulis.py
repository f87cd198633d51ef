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
from .permutations import Permutation, _sweep_132, format_values
from .ranks import RankSequence, _decode, validate_values


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
    image determines i, j, and hence the original sequence (`_restore_max`).

    The work and every check are `_bump`'s, on the plain values; the image
    it returns is validated there, so it is wrapped unchecked
    (`RankSequence._trusted`).  A sequence whose maximum is already unique,
    for which `_bump` returns None, is rejected with InputError: accepting it
    silently would hide classification bugs in callers.

    >>> str(uniquify_max(RankSequence.from_text("221")))
    '3 2 1'
    >>> str(uniquify_max(RankSequence.from_text("2221")))
    '2 3 2 1'
    """
    image = _bump(t.values)
    if image is None:
        raise InputError(f"sequence already has a unique maximum: {t}")
    return RankSequence._trusted(image)


def _bump(values: tuple[int, ...]) -> tuple[int, ...] | None:
    """`uniquify_max` on the plain values of a rank sequence: the image's
    values, checked, or None if the maximum is already unique.  So one call
    both classifies a sequence and bumps it: the injection-f suite and
    `_stages` call it on every candidate, with no separate `_unique_max`.

    j is found as the first maximum of the reversed sequence and i as the
    next one after it; the bumped sequence is spliced from three slices.
    The image is validated as a member of the family (`validate_values`)
    and then checked: its maximum must be the old maximum plus one, occur
    once, and sit at position i.  A failed check raises ConstructionError,
    under `python -O` too.
    """
    top = max(values)
    if values.count(top) == 1:
        return None
    # i and j as 0-based indices, from the right end of the sequence
    last = len(values) - 1
    backwards = values[::-1]
    j = last - backwards.index(top)
    i = last - backwards.index(top, last - j + 1)
    image = values[:i] + tuple(v + 1 for v in values[i:j]) + values[j:]
    validate_values(image)
    if not (max(image) == top + 1 and image.count(top + 1) == 1
            and image[i] == top + 1):
        raise ConstructionError(
            f"image of {format_values(values)} lacks the promised unique maximum: "
            f"{format_values(image)}"
        )
    return image


def _restore_max(values: tuple[int, ...]) -> tuple[int, ...] | None:
    """The input of `uniquify_max` whose image has the values `values`, or
    None if there is none: the left inverse that proves the bump injective.

    In an image with maximum M, i is the position of M, its only one, and j
    the last position holding M - 1, right of i: the bump left the old
    maximum M - 1 at j and raised nothing after it.  Subtracting one on
    [i, j) gives the input back.  None when M is tied, when no M - 1 follows
    it, or when an entry on (i, j) would fall to 0.  On a member of the
    family that covers every non-image; any other tuple gives None or a
    tuple outside the family.  Never raises.

    >>> _restore_max((2, 3, 2, 1))
    (2, 2, 2, 1)
    >>> _restore_max((1, 1)) is None
    True
    """
    top = max(values, default=1)
    if values.count(top) != 1:
        return None
    i = values.index(top)
    try:
        j = len(values) - 1 - values[::-1].index(top - 1)
    except ValueError:  # no M - 1 anywhere
        return None
    if j < i or 1 in values[i + 1:j]:
        return None
    restored = list(values)
    for k in range(i, j):
        restored[k] -= 1
    return tuple(restored)


def uniquify_stages(p: Permutation) -> tuple[RankSequence, RankSequence, Permutation]:
    """`uniquify_lis` stage by stage: the rank sequence of `p`, that sequence
    with its maximum made unique by `uniquify_max`, and its inverse, the image
    of `p`.  Preconditions are recomputed here rather than trusted, in O(n):
    one linear sweep (`permutations._sweep_132`, which `start_ranks` runs
    first) gives the ranks of an avoider, or names the least 132 of a
    rejected input.
    By Lemma 1 each entry of an avoider starts exactly one longest increasing
    subsequence among those starting there, so `p` has as many longest
    increasing subsequences as its ranks have positions of maximal rank: it
    lacks a unique one iff the maximum is tied.

    The work and every check are `_stages`', on the plain entries; it
    validates the ranks and the bump validates the lifted sequence, so all
    three stages are wrapped unchecked.

    >>> [str(stage) for stage in uniquify_stages(Permutation.from_text("321"))]
    ['1 1 1', '1 2 1', '3 1 2']
    """
    ranks, lifted, image = _stages(p.entries)
    return RankSequence._trusted(ranks), RankSequence._trusted(lifted), Permutation._trusted(image)


def _stages(e: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """`uniquify_stages` on the entries of a permutation: the three stages
    as plain tuples.  The injection-g suite calls it directly.

    The bump classifies the ranks, returning None on a unique maximum, and
    only then are they validated as a member of the family: the ranks of a
    rejected input are not.
    """
    witness, values = _sweep_132(e)
    if witness:
        raise InputError(f"input contains 132 at positions {witness}: {format_values(e)}")
    lifted = _bump(values) if values else None
    if lifted is None:
        raise InputError("input already has a unique longest increasing subsequence: "
                         f"{format_values(e)}")
    validate_values(values)
    return values, lifted, _decode(lifted)


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
