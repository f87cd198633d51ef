"""Permutations, pattern containment, and increasing-subsequence machinery.

Conventions used throughout the package:

- A permutation of length n is a rearrangement of the values 1..n, held as a
  tuple of ints.  Positions are 1-based in every public interface (matching
  the usual combinatorial convention); internal loops are 0-based.
- An increasing subsequence picks entries at strictly increasing positions
  with strictly increasing values.  Two subsequences are the same only if
  they occupy the same set of positions; since a permutation has no repeated
  values, this coincides with comparing value sets.
- The text form of a permutation is space-separated values on one line, e.g.
  "3 4 2 5 6 1 7 8".  On input, a single token of two or more of the digits
  1-9, such as "34256178", is read as one value per digit.  A permutation can
  use this compact form only up to length 9; a rank sequence of any length
  can, as long as its entries are at most 9.

All counting here is exact: subsequence counts grow exponentially and are
kept as Python ints, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InputError, _check_length

# Default enumeration ceilings.  Avoider enumeration visits C_n objects
# (C_12 = 208012); scans over all n! permutations stop earlier.  Both are
# overridable per call; the CLI exposes them as flags.
AVOIDER_CAP = 12
ALL_PERMUTATION_CAP = 10


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    >>> Permutation((2, 1, 3)).n
    3
    >>> print(Permutation.from_text("34256178"))
    3 4 2 5 6 1 7 8
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        n = len(self.entries)
        if sorted(self.entries) != list(range(1, n + 1)):
            raise InputError(
                f"not a permutation of 1..{n}: {self.entries}"
            )

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        return cls(parse_values(text))

    def __str__(self) -> str:
        return format_values(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PatternVerdict:
    """Outcome of a containment check.

    When `contains` is true, `witness` holds the lexicographically least
    triple of 1-based positions whose entries are order-isomorphic to the
    pattern.
    """

    contains: bool
    witness: tuple[int, int, int] | None = None


def parse_values(text: str) -> tuple[int, ...]:
    """Parse the one-line text form into a tuple of ints.

    A single token of two or more characters, all digits 1-9, is read as the
    compact digit form (one value per character); anything else is read as
    space-separated integers.

    >>> parse_values("3 4 2 5 6 1 7 8")
    (3, 4, 2, 5, 6, 1, 7, 8)
    >>> parse_values("213")
    (2, 1, 3)
    >>> parse_values("10")
    (10,)
    """
    tokens = text.split()
    if len(tokens) == 1 and len(tokens[0]) > 1 and all(c in "123456789" for c in tokens[0]):
        return tuple(int(c) for c in tokens[0])
    try:
        return tuple(int(tok) for tok in tokens)
    except ValueError as exc:
        raise InputError(f"not an integer sequence: {text!r}") from exc


def format_values(values: Sequence[int]) -> str:
    return " ".join(str(v) for v in values)


def contains_pattern(p: Permutation, pattern: Permutation) -> PatternVerdict:
    """Decide whether `p` contains the length-3 `pattern`.

    Containment means some positions i < j < k carry entries order-isomorphic
    to the pattern.  The witness returned is the lexicographically least such
    triple.  Quadratic scan: for each i in turn, one right-to-left pass keeps
    the extreme value so far among later entries on the pattern's k side of
    e[i] (the minimum when the pattern puts e[j] above e[k], else the
    maximum); the last entry on the j side that beats it is the least j, and
    a forward scan from j finds the least k.  The first i with a j wins.

    >>> contains_pattern(Permutation.from_text("2413"), PATTERN_132)
    PatternVerdict(contains=True, witness=(1, 2, 4))
    >>> contains_pattern(Permutation.from_text("34256178"), PATTERN_132).contains
    False
    """
    if pattern.n != 3:
        raise InputError(f"pattern must have length 3, got length {pattern.n}")
    a, b, c = pattern.entries
    j_above_i, k_above_i, j_above_k = b > a, c > a, b > c
    e = p.entries
    n = len(e)
    # a sentinel no entry beats: above every value for a minimum, below for a maximum
    sentinel = n + 1 if j_above_k else 0
    for i in range(n - 2):
        ei = e[i]
        extreme = sentinel
        j = 0
        for m in range(n - 1, i, -1):
            em = e[m]
            if (em > extreme) == j_above_k:
                if (em > ei) == j_above_i:
                    j = m
            elif (em > ei) == k_above_i:
                extreme = em
        if j:
            ej = e[j]
            k = next(k for k in range(j + 1, n)
                     if (e[k] > ei) == k_above_i and (ej > e[k]) == j_above_k)
            return PatternVerdict(True, (i + 1, j + 1, k + 1))
    return PatternVerdict(False)


PATTERN_132 = Permutation((1, 3, 2))


def start_lengths_counts(p: Permutation) -> tuple[list[int], list[int]]:
    """Per-position longest-increasing-subsequence data.

    Returns two lists aligned with positions: `lengths[i]` is the length of
    the longest increasing subsequence beginning at position i+1, and
    `counts[i]` is the exact number of position sets realizing it.  Computed
    right to left: a subsequence starting here continues at any later, larger
    entry.  Quadratic, which keeps the count bookkeeping transparent.
    """
    n = len(p.entries)
    lengths = [1] * n
    counts = [1] * n
    _fill_starts(p.entries, lengths, counts, n - 2, 0)
    return lengths, counts


def _fill_starts(e: Sequence[int], lengths: list[int], counts: list[int],
                 start: int, stop: int) -> None:
    """The package's one LIS kernel: set lengths[i] and counts[i] for
    i = start down to stop, reading only the positions right of i, which
    must already be set.  Both are always written, so reused lists stay
    correct."""
    n = len(e)
    for i in range(start, stop - 1, -1):
        ei = e[i]
        best = 0
        total = 1
        for j in range(i + 1, n):
            if e[j] > ei:
                lj = lengths[j]
                if lj > best:
                    best = lj
                    total = counts[j]
                elif lj == best:
                    total += counts[j]
        lengths[i] = best + 1
        counts[i] = total


def start_ranks(p: Permutation) -> tuple[int, ...]:
    """The rank of each entry: length of the longest increasing subsequence
    starting there.  Defined for every permutation.

    >>> start_ranks(Permutation.from_text("213"))
    (2, 2, 1)
    >>> start_ranks(Permutation.from_text("321"))
    (1, 1, 1)
    """
    lengths, _ = start_lengths_counts(p)
    return tuple(lengths)


def lis_stats(p: Permutation) -> tuple[int, int]:
    """Length of the longest increasing subsequence and the exact number of
    position sets attaining it.  The empty permutation yields (0, 1): the
    empty subsequence is its unique longest one.

    >>> lis_stats(Permutation.from_text("34256178"))
    (6, 1)
    >>> lis_stats(Permutation.from_text("32456178"))
    (6, 2)
    """
    if p.n == 0:
        return 0, 1
    lengths, counts = start_lengths_counts(p)
    longest = max(lengths)
    return longest, sum(c for l, c in zip(lengths, counts) if l == longest)


def has_ulis(p: Permutation) -> bool:
    """True iff exactly one increasing subsequence attains the maximal length.

    >>> has_ulis(Permutation.from_text("34256178"))
    True
    >>> has_ulis(Permutation.from_text("32456178"))
    False
    """
    return lis_stats(p)[1] == 1


# --- enumeration of pattern avoiders -------------------------------------
#
# Lexicographic backtracking.  A prefix is extended one value at a time; a
# candidate value completes the pattern only as its final element (earlier
# completions would have been caught when their own final element was
# appended), and for each length-3 pattern the values that would do so with
# some existing pair form a union of open intervals, one interval added per
# appended element.  The interval added when `u` is appended after a prefix
# whose least placed value is `lo` and greatest is `hi` (none after an empty
# prefix):
#
#   1 3 2:  (lo, u)          ascent pairs below u, future middle values
#   3 1 2:  (u, hi)          descent pairs above u, future middle values
#   1 2 3:  (u, +inf)        u tops an ascent, larger values complete it
#   3 2 1:  (-inf, u)        u bottoms a descent, smaller values complete it
#   2 1 3:  (above(u), +inf) smallest prefix value above u caps new descents
#   2 3 1:  (-inf, below(u)) largest prefix value below u floors new ascents
#
# One rule decides each candidate: append it only if every value in its new
# interval is already placed.  The rule is necessary, because a blocked value
# stays blocked for the rest of the branch and every value must still be
# placed.  It is sufficient, because any prefix that obeys it completes:
# append the remaining values in increasing order for 132, 321 and 231, in
# decreasing order for 123, 312 and 213, and each one blocks only values
# already placed.  So no table of blocked values is needed (under the rule it
# would hold placed values only), and every visited prefix completes: the
# search visits catalan(n+1) prefixes for catalan(n) avoiders.


def _block_bounds(sig: tuple[int, int, int], u: int,
                  used: bytearray) -> tuple[int, int] | None:
    """Open interval (a, b) of values that appending u forbids, or None.
    `used` marks the placed values 1..n (index 0 is never set)."""
    if sig == (1, 3, 2):
        lo = used.find(1, 1, u)
        return (lo, u) if lo > 0 else None
    if sig == (3, 1, 2):
        hi = used.rfind(1, u + 1)
        return (u, hi) if hi > 0 else None
    if sig == (1, 2, 3):
        return (u, len(used)) if used.find(1, 1, u) > 0 else None
    if sig == (3, 2, 1):
        return (0, u) if used.find(1, u + 1) > 0 else None
    if sig == (2, 1, 3):
        w = used.find(1, u + 1)
        return (w, len(used)) if w > 0 else None
    # (2, 3, 1)
    w = used.rfind(1, 1, u)
    return (0, w) if w > 0 else None


def enumerate_avoiders(n: int, pattern: Permutation = PATTERN_132, *,
                       cap: int = AVOIDER_CAP) -> Iterator[Permutation]:
    """Yield every permutation of length `n` avoiding the length-3 `pattern`,
    exactly once, in lexicographic order of entries.

    There are catalan(n) of them, whichever pattern is chosen.  The default
    cap keeps accidental `n` typos from enumerating millions of objects; pass
    a larger `cap` explicitly to go further.

    >>> [str(p) for p in enumerate_avoiders(3)]
    ['1 2 3', '2 1 3', '2 3 1', '3 1 2', '3 2 1']
    """
    if pattern.n != 3:
        raise InputError(f"pattern must have length 3, got length {pattern.n}")
    _check_length("avoider enumeration", n, 0, cap)
    return _generate_avoiders(n, pattern.entries)


def _generate_avoiders(n: int, sig: tuple[int, int, int]) -> Iterator[Permutation]:
    used = bytearray(n + 1)
    out: list[int] = []
    v = 1  # next candidate for position len(out)
    while True:
        if len(out) == n:
            yield Permutation(tuple(out))
        elif v <= n:
            if not used[v]:
                block = _block_bounds(sig, v, used)
                if block is None or used.find(0, block[0] + 1, block[1]) < 0:
                    used[v] = 1
                    out.append(v)
                    v = 1
                    continue
            v += 1
            continue
        if not out:
            return
        used[out[-1]] = 0
        v = out.pop() + 1
