"""Rank sequences: the Catalan family in bijection with 132-avoiders.

The rank sequence of a permutation records, position by position, the length
of the longest increasing subsequence starting there.  For 132-avoiding
permutations the resulting sequences are exactly the positive-integer
sequences that end in 1 and never drop by more than 1 between neighbours;
this module owns that family (membership validation, exhaustive generation)
and the inverse map reconstructing the unique 132-avoider from its rank
sequence.  It is counted by `permutations.catalan`, re-exported here.

In a 132-avoider the entries right of p_i that are larger than p_i increase
(two of them in decreasing order would make a 132 with p_i), so the rank of
p_i is one more than their number: the rank sequence minus one is the
avoider's larger-to-the-right inversion table, which `invert` decodes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from operator import index, sub

from .errors import (
    SEQUENCE_CAP,
    ConstructionError,
    InputError,
    SequenceValidationError,
    _check_length,
)
from .permutations import (
    Permutation,
    _TAIL,
    _sweep_132,
    _walk_fault,
    catalan,
    format_values,
    parse_values,
    start_ranks,
)


@dataclass(frozen=True)
class RankSequence:
    """A member of the rank-sequence family: positive integers, final value 1,
    adjacent drops at most 1.

    Direct construction, `from_text` and `rank_sequence` validate their
    values (any sequence of integers, bools included, is stored as a tuple
    of ints).  Only tuples that are members by construction, or already
    validated, are wrapped unchecked, through `_trusted`: those
    `enumerate_rank_sequences` yields, and the stages `ulis._stages`
    validated.  The verify suites other than `catalan` check the plain
    values and build none.

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
        try:  # exact ints: a float, a string or any other non-integer is refused
            values = tuple(map(index, self.values))
        except TypeError:
            try:  # name the first entry without __index__
                i, v = next((i, v) for i, v in enumerate(self.values, 1)
                            if not hasattr(type(v), "__index__"))
            except (TypeError, StopIteration):  # not a sequence at all
                raise InputError(f"not an integer sequence: {self.values!r}") from None
            raise SequenceValidationError(
                "integer", i, f"entry {v!r} at position {i} is not an integer") from None
        object.__setattr__(self, "values", values)
        validate_values(values)

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def from_text(cls, text: str) -> "RankSequence":
        return cls(parse_values(text))

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> "RankSequence":
        """Wrap `values` without validating them.  Only for tuples that are
        members by construction or already validated.  Three callers:
        `enumerate_rank_sequences`, on what `_generate_sequences` yields;
        `ulis.uniquify_max`, on the image `ulis._bump` validated; and
        `ulis.uniquify_stages`, on the ranks and the image `ulis._stages`
        validated.  The twin of `Permutation._trusted`."""
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


def enumerate_rank_sequences(n: int, *, cap: int = SEQUENCE_CAP) -> Iterator[RankSequence]:
    """Yield every rank sequence of length n exactly once, in lexicographic
    order.  There are catalan(n) of them; a walk that miscounts raises
    ConstructionError.

    Generated by a search without recursion that visits no dead end: the
    entries after a prefix depend only on its last value, so the tails of
    the last five entries are searched once per value, kept in a table
    local to the walk, and shared by every prefix that ends in it.  Every
    item is a member, so it is wrapped unvalidated (`RankSequence._trusted`);
    the constructor, `from_text` and `rank_sequence` still validate.  The
    walk itself, `_generate_sequences`, yields plain tuples: the enumerative
    census classifies them, the bijection suite decodes them and the
    injection-f suite bumps and restores them, and none wraps any.

    >>> [str(t) for t in enumerate_rank_sequences(3)]
    ['1 1 1', '1 2 1', '2 1 1', '2 2 1', '3 2 1']
    """
    _check_length("rank-sequence enumeration", n, 1, cap)
    wrap = RankSequence._trusted
    return (wrap(values) for values in _generate_sequences(n))


def _generate_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """The values of every rank sequence of length n, in lexicographic
    order, as plain tuples; the length is not checked.

    The entries that may follow a prefix depend only on its length and its
    last value v: at 0-based position k they are max(1, v - 1) .. n - k, the
    most that still reaches the final 1 by drops of at most 1.  So every
    prefix of length n - _TAIL that ends in v has the same tails.  The walk
    searches the prefixes, and the last _TAIL entries once per last value,
    the first time it comes up, into a table local to the walk; each prefix
    then takes its value's tails.  The table holds at most _TAIL + 1 keys
    of at most catalan(_TAIL) tails each.  Every offer completes, so the
    search visits no dead end.

    The search is finite, so it can only miscount: it raises
    ConstructionError before yielding a chunk of tails that would pass
    catalan(n), at an end short of it, and if the last tuple is not the
    last member, n ... 2 1."""
    total = catalan(n)
    walked = 0
    head = max(n - _TAIL, 0)
    tails: dict[int, list[tuple[int, ...]]] = {}  # last prefix value -> its tails
    for prefix in _extend(n, 0, head, 1):
        v = prefix[-1] if prefix else 1  # the empty prefix allows 1 .. n
        chunk = tails.get(v)
        if chunk is None:
            chunk = tails[v] = list(_extend(n, head, n - head, v))
        walked += len(chunk)
        if walked > total:
            raise _walk_fault("rank-sequence", n, walked, total)
        yield from map(prefix.__add__, chunk)
    if walked != total:
        raise _walk_fault("rank-sequence", n, walked, total)
    if prefix + chunk[-1] != tuple(range(n, 0, -1)):
        raise _walk_fault("rank-sequence", n, total + 1, total)


def _admissible(n: int, k: int, v: int) -> range:
    """The entries a rank sequence of length n may have at 0-based position
    k after the entry v, increasing."""
    return range(max(1, v - 1), n - k + 1)


def _extend(n: int, k: int, count: int, v: int) -> Iterator[tuple[int, ...]]:
    """Every way to fill the `count` positions from k on of a rank sequence
    of length n after the entry v, as tuples in lexicographic order."""
    if not count:
        yield ()
        return
    out: list[int] = []
    # one iterator per position filled, the last one last
    offers = [iter(_admissible(n, k, v))]
    while True:
        u = next(offers[-1], 0)
        if u:
            out.append(u)
            if len(out) < count:
                offers.append(iter(_admissible(n, k + len(out), u)))
                continue
            yield tuple(out)
        else:
            offers.pop()
            if not out:
                return
        out.pop()


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
    The result is then checked in O(n) by `permutations._sweep_132`: it
    must avoid 132 and have the ranks t; otherwise ConstructionError is
    raised, under `python -O` too.  The decoding and its certificate are
    `_decode`'s, on the plain values; the bijection and injection-g suites
    call it directly.

    >>> print(invert(RankSequence.from_text("121")))
    3 1 2
    >>> print(invert(RankSequence.from_text("221")))
    2 1 3
    """
    return Permutation._trusted(_decode(t.values))


def _decode(values: tuple[int, ...]) -> tuple[int, ...]:
    """`invert` on the values of a rank sequence: the entries of the
    decoded avoider, certified."""
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
    result = tuple(entries)
    if _sweep_132(result) != (None, values):
        raise ConstructionError(f"decoding {format_values(values)} gave "
                                f"{format_values(result)}, not a 132-avoider with those ranks")
    return result
