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
# (C_12 = 208012); the count over all permutations (`census.ulis_count_all`,
# which merges suffixes by profile) stops earlier.  Both are overridable per
# call.  The CLI sets only the avoider cap by a flag (`avoiders --cap`); the
# other is the fixed ceiling of `verify oeis --max-n`.
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
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
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

    @classmethod
    def _trusted(cls, entries: tuple[int, ...]) -> "Permutation":
        """Wrap `entries` without validating them.  Only for tuples that are
        permutations by construction: the avoider search's output and
        `ranks.invert`'s decoding.  Its twin `RankSequence._trusted` wraps
        the rank-sequence enumerator's output."""
        p = object.__new__(cls)
        p.__dict__["entries"] = entries  # past the frozen __setattr__
        return p

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
    whitespace-separated integers, each ASCII digits with an optional leading
    minus sign (no "+", "_" or non-ASCII digits, which `int` would take).

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
    # on ASCII tokens without "+" or "_", int accepts exactly -?[0-9]+
    joined = "".join(tokens)
    if joined.isascii() and "+" not in joined and "_" not in joined:
        try:
            return tuple(map(int, tokens))
        except ValueError:  # another token, or one past int's digit limit
            pass
    raise InputError(f"not an integer sequence: {text!r}")


def format_values(values: Sequence[int]) -> str:
    return " ".join(str(v) for v in values)


def contains_pattern(p: Permutation, pattern: Permutation) -> PatternVerdict:
    """Decide whether `p` contains the length-3 `pattern`.

    Containment means some positions i < j < k carry entries order-isomorphic
    to the pattern.  The witness returned is the lexicographically least
    triple.  Linear time: one right-to-left sweep finds the least i that
    starts an occurrence (`_least_start`); for that i alone, one more pass
    from the right keeps the extreme value so far among later entries on the
    pattern's k side of e[i] (the minimum when the pattern puts e[j] above
    e[k], else the maximum), the last entry on the j side that beats it is
    the least j, and a forward scan from j finds the least k.  For 132 the
    sweep (`_sweep_132`) also builds the start ranks, discarded here.

    >>> contains_pattern(Permutation.from_text("2413"), PATTERN_132)
    PatternVerdict(contains=True, witness=(1, 2, 4))
    >>> contains_pattern(Permutation.from_text("34256178"), PATTERN_132).contains
    False
    """
    if pattern.n != 3:
        raise InputError(f"pattern must have length 3, got length {pattern.n}")
    a, b, c = pattern.entries
    e = p.entries
    i = _least_start(e, a, b, c)
    if i < 0:
        return PatternVerdict(False)
    j_above_i, k_above_i, j_above_k = b > a, c > a, b > c
    n = len(e)
    ei = e[i]
    # a sentinel no entry beats: above every value for a minimum, below for a maximum
    extreme = n + 1 if j_above_k else 0
    for m in range(n - 1, i, -1):
        em = e[m]
        if (em > extreme) == j_above_k:
            if (em > ei) == j_above_i:
                j = m
        elif (em > ei) == k_above_i:
            extreme = em
    ej = e[j]
    k = next(k for k in range(j + 1, n)
             if (e[k] > ei) == k_above_i and (ej > e[k]) == j_above_k)
    return PatternVerdict(True, (i + 1, j + 1, k + 1))


def _least_start(e: Sequence[int], a: int, b: int, c: int) -> int:
    """The least 0-based i that starts an occurrence of the pattern a b c in
    `e`, or -1.  Negating every entry keeps positions and turns 312, 321 and
    231 into 132, 123 and 213, so three sweeps from the right cover all six
    patterns: `_sweep_132` for 132, and below for 123 and 213, each keeping
    `first`, the last (so least) start it has seen.
    """
    if a > c:
        e, b = [-v for v in e], 4 - b
    if b == 3:
        return _sweep_132(e)[0]
    first = -1
    low = -len(e) - 1  # below every entry, negated or not
    if b == 2:
        # 123: `best` is the largest entry with a larger one after it, `top`
        # the largest entry right of i
        best = top = low
        for i in range(len(e) - 1, -1, -1):
            v = e[i]
            if v < best:
                first = i
            elif v < top:
                best = v
            else:
                top = v
    else:
        # 213: i starts one iff some entry right of its next smaller entry
        # exceeds e[i]; the stack holds the candidates for next smaller entry,
        # each with the largest entry right of it
        top, values, tops = low, [], []
        for i in range(len(e) - 1, -1, -1):
            v = e[i]
            while values and values[-1] > v:
                values.pop()
                tops.pop()
            if tops and tops[-1] > v:
                first = i
            values.append(v)
            tops.append(top)
            if v > top:
                top = v
    return first


def _sweep_132(e: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The least 0-based i that starts a 132 in `e`, or -1, and, when it is
    -1, the start ranks of `e`, from one right-to-left sweep in O(n).

    `third` is the largest entry right of i with a larger one between them,
    found when its nearest larger entry to the left pops it; an entry below
    `third` starts an occurrence and can neither pop a larger third nor be a
    later one, so it is not stacked.  Without a 132 nothing is skipped, and
    once e[i] is pushed the stack is its chain of nearest larger entries.  In
    a 132-avoider the larger entries right of e[i] increase, so they are that
    chain, and the rank of e[i] is the stack's height (r_i = 1 + r_k, k the
    nearest larger entry).  On an input with a 132 the heights are not ranks.

    >>> _sweep_132((3, 4, 2, 5, 6, 1, 7, 8))
    (-1, (6, 5, 5, 4, 3, 3, 2, 1))
    >>> _sweep_132((2, 4, 1, 3))[0]
    0
    """
    first = -1
    third = -len(e) - 1  # below every entry, negated or not
    stack = []
    ranks = [0] * len(e)
    for i in range(len(e) - 1, -1, -1):
        v = e[i]
        if v < third:
            first = i
        else:
            while stack and stack[-1] < v:
                third = stack.pop()
            stack.append(v)
        ranks[i] = len(stack)
    return first, tuple(ranks)


PATTERN_132 = Permutation((1, 3, 2))


def start_lengths_counts(p: Permutation) -> tuple[list[int], list[int]]:
    """Per-position longest-increasing-subsequence data.

    Returns two lists aligned with positions: `lengths[i]` is the length of
    the longest increasing subsequence beginning at position i+1, and
    `counts[i]` is the exact number of position sets realizing it.  Computed
    right to left: a subsequence starting here continues at any later, larger
    entry.  The later entries sit in a Fenwick tree (Fenwick 1994) over
    values, mirrored so that one read upward from v + 1 covers every entry
    above v, the prefix of a tree over reversed values n + 1 - v.  Each node
    holds the longest length in its range and the count at that length, and
    nodes merge by max and sum.  O(n log n); an entry above every later one
    skips the read.
    """
    e = p.entries
    n = len(e)
    longest = [0] * (n + 1)
    tally = [0] * (n + 1)
    lengths = []
    counts = []
    top = 0  # the largest entry read so far
    for v in reversed(e):
        best, total = 0, 1  # nothing above v: the entry alone
        if v < top:
            q = v + 1
            while q <= n:
                length = longest[q]
                if length > best:
                    best, total = length, tally[q]
                elif length == best:
                    total += tally[q]  # an empty node adds 0
                q += q & -q
        else:
            top = v
        best += 1
        lengths.append(best)
        counts.append(total)
        while v:
            length = longest[v]
            if best > length:
                longest[v], tally[v] = best, total
            elif best == length:
                tally[v] += total
            v &= v - 1
    lengths.reverse()
    counts.reverse()
    return lengths, counts


def start_ranks(p: Permutation) -> tuple[int, ...]:
    """The rank of each entry: length of the longest increasing subsequence
    starting there.  Defined for every permutation.  On a 132-avoider one
    linear sweep gives them (`_sweep_132`); only an input containing 132 is
    passed on to the O(n log n) `start_lengths_counts`.  The package's one way
    to find ranks: `rank_sequence`, the `rank` command and `map` go through
    it.  Outside this module only `ranks.invert`'s certificate reads
    `_sweep_132` itself.

    >>> start_ranks(Permutation.from_text("213"))
    (2, 2, 1)
    >>> start_ranks(Permutation.from_text("321"))
    (1, 1, 1)
    >>> start_ranks(Permutation.from_text("1423"))
    (3, 1, 2, 1)
    """
    first, ranks = _sweep_132(p.entries)
    if first < 0:
        return ranks
    lengths, _ = start_lengths_counts(p)
    return tuple(lengths)


def lis_stats(p: Permutation) -> tuple[int, int]:
    """Length of the longest increasing subsequence and the exact number of
    position sets attaining it: the counts of one `start_lengths_counts` pass
    summed over the positions whose start length is the longest (O(n log n),
    any permutation).  The empty permutation yields (0, 1): the empty
    subsequence is its unique longest one.

    >>> lis_stats(Permutation.from_text("34256178"))
    (6, 1)
    >>> lis_stats(Permutation.from_text("32456178"))
    (6, 2)
    """
    lengths, counts = start_lengths_counts(p)
    if not lengths:
        return 0, 1
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
# appended element.  One rule decides each candidate: append it only if every
# value in its new interval is already placed.  The rule is necessary,
# because a blocked value stays blocked for the rest of the branch and every
# value must still be placed.  It is sufficient, because any prefix that
# obeys it completes: append the remaining values in increasing order for
# 132, 321 and 231, in decreasing order for 123, 312 and 213, and each one
# blocks only values already placed.  So every visited prefix completes: the
# search visits catalan(n+1) prefixes for catalan(n) avoiders.
#
# Solved for the candidate u, the rule names the admissible values: every
# value after the empty prefix.  After a nonempty, incomplete one, let m and
# M be the least and greatest placed values and f and g the least and
# greatest unplaced ones, counting 0 and n + 1 as placed.  Then u adds:
#
#   1 3 2:  (m, u) if m < u, ascents up to u: 1..m-1, then the least
#           unplaced value above m, the only u > m with (m, u) placed
#   3 1 2:  (u, M) if u < M, descents down to u: the greatest unplaced
#           value below M, the only u < M with (u, M) placed, then M+1..n
#   1 2 3:  (u, n] if m < u, u tops an ascent: 1..m-1, then g if g > m
#   3 2 1:  [1, u) if u < M, u bottoms a descent: f if f < M, then M+1..n
#   2 1 3:  (w, n], w the least placed value above u, placed iff no placed
#           value lies in (u, g]: a+1..g, a the greatest placed below g
#   2 3 1:  [1, w), w the greatest placed value below u, placed iff no
#           placed value lies in [f, u): f..b-1, b the least placed above f


def _admissible(sig: tuple[int, int, int], used: bytearray) -> Sequence[int]:
    """The admissible values after a nonempty, incomplete prefix, increasing."""
    top = len(used) - 1
    if sig[0] == 1:  # 132 or 123: below m, then one value above
        m = used.find(1, 1)
        w = used.find(0, m) if sig[1] == 3 else used.rfind(0)
        return [*range(1, m), w] if w > m else range(1, m)
    if sig[0] == 3:  # 312 or 321: one value below M, then above
        big = used.rfind(1, 0, top)
        w = used.rfind(0, 0, big) if sig[1] == 1 else used.find(0)
        return [w, *range(big + 1, top)] if 0 < w < big else range(big + 1, top)
    if sig[1] == 1:  # 213
        g = used.rfind(0)
        return range(used.rfind(1, 0, g) + 1, g + 1)
    f = used.find(0)  # 231
    return range(f, used.find(1, f))


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
    used = bytearray(n + 2)
    used[0] = used[n + 1] = 1  # the sentinels, counted as placed
    out: list[int] = []
    offers = [iter(range(1, n + 1))]  # one iterator per prefix, longest last
    while True:
        if len(out) == n:
            yield Permutation._trusted(tuple(out))
        else:
            v = next(offers[-1], 0)
            if v:
                used[v] = 1
                out.append(v)
                if len(out) < n:
                    offers.append(iter(_admissible(sig, used)))
                continue
            offers.pop()
        if not out:
            return
        used[out.pop()] = 0
