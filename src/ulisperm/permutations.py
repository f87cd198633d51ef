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

import math
from dataclasses import dataclass, field
from operator import index
from typing import Iterator, Sequence

from .errors import ConstructionError, InputError, _check_length, _int_text

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
        try:  # exact ints: a float, a string or any other non-integer is refused
            entries = tuple(map(index, self.entries))
        except TypeError:
            raise InputError(f"not an integer sequence: {self.entries!r}") from None
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
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
        permutations by construction.  Three callers: `enumerate_avoiders`,
        on what `_generate_avoiders` yields; `ranks.invert`, on what
        `ranks._decode` certified; and `ulis.uniquify_stages`, on the image
        of `ulis._stages`.  The verify suites other than `catalan` wrap
        nothing.
        Its twin is `RankSequence._trusted`."""
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
    triple of 1-based positions whose entries form a 132; else `ranks` holds
    the start ranks from the same sweep, which neither print nor compare.
    """

    contains: bool
    witness: tuple[int, int, int] | None = None
    ranks: tuple[int, ...] | None = field(default=None, repr=False, compare=False)


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


def contains_pattern(p: Permutation) -> PatternVerdict:
    """Decide whether `p` contains 132.

    Containment means some positions i < j < k carry entries e_i < e_k < e_j.
    One linear `_sweep_132` gives the lexicographically least triple as the
    witness, or, on an avoider, its start ranks, which `rank` prints.  `map`
    and `invert`'s certificate call the sweep themselves, on plain entries.

    >>> contains_pattern(Permutation.from_text("2413"))
    PatternVerdict(contains=True, witness=(1, 2, 4))
    >>> contains_pattern(Permutation.from_text("34256178")).contains
    False
    """
    witness, ranks = _sweep_132(p.entries)
    return PatternVerdict(witness is not None, witness, ranks)


def _sweep_132(e: Sequence[int]) -> tuple[tuple[int, int, int] | None, tuple[int, ...] | None]:
    """`(None, ranks)`, the start ranks of `e`, if `e` avoids 132, else
    `(witness, None)`, the lexicographically least 1-based triple of positions
    whose entries form a 132: the 132 test of `contains_pattern` (so of
    `rank`), `map` and `invert`, from one right-to-left sweep in O(n).

    `third` is the largest entry right of i with a larger one between them,
    found when its nearest larger entry to the left pops it; an entry below
    `third` starts an occurrence and can neither pop a larger third nor be a
    later one, so it is not stacked.  Without a 132 nothing is skipped, and
    once e[i] is pushed the stack is its chain of nearest larger entries.  In
    a 132-avoider the larger entries right of e[i] increase, so they are that
    chain, and the rank of e[i] is the stack's height (r_i = 1 + r_k, k the
    nearest larger entry).  On an input with a 132 the heights are not ranks,
    and `_least_132` completes the least start the sweep found.

    >>> _sweep_132((3, 4, 2, 5, 6, 1, 7, 8))
    (None, (6, 5, 5, 4, 3, 3, 2, 1))
    >>> _sweep_132((2, 4, 1, 3))
    ((1, 2, 4), None)
    """
    first = -1
    third = 0  # below every entry
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
    if first < 0:
        return None, tuple(ranks)
    return _least_132(e, first), None


def _least_132(e: Sequence[int], i: int) -> tuple[int, int, int]:
    """The lexicographically least 1-based triple of positions of a 132 in
    `e`, given the 0-based least start i that `_sweep_132` found.  One pass
    from the right keeps the least entry above e_i so far, the last entry it
    finds above that one is the least j, and a forward scan from j finds the
    least k.  Kept out of the sweep: there the generator below would make
    `e` a cell variable, read more slowly in the sweep's loop, and these
    locals would enlarge the frame of every sweep."""
    n = len(e)
    ei = e[i]
    low = n + 1  # the least entry above e_i right of m, or above every entry
    for m in range(n - 1, i, -1):
        em = e[m]
        if em > low:
            j = m
        elif em > ei:
            low = em
    ej = e[j]
    k = next(k for k in range(j + 1, n) if ei < e[k] < ej)
    return i + 1, j + 1, k + 1


PATTERN_132 = Permutation((1, 3, 2))


def start_lengths_counts(p: Permutation) -> tuple[list[int], list[int]]:
    """Per-position longest-increasing-subsequence data.

    Returns two lists aligned with positions: `lengths[i]` is the length of
    the longest increasing subsequence beginning at position i+1, and
    `counts[i]` is the exact number of position sets realizing it.  One
    `_fenwick_starts` pass, less its sentinel.  O(n log n).  The lemma1
    suite calls the body, `_start_lengths_counts`, on the plain entries.
    """
    return _start_lengths_counts(p.entries)


def _start_lengths_counts(e: Sequence[int]) -> tuple[list[int], list[int]]:
    """`start_lengths_counts` on the entries of a permutation."""
    lengths, counts = _fenwick_starts(e)
    return lengths[-2::-1], counts[-2::-1]


def _fenwick_starts(e: Sequence[int]) -> tuple[list[int], list[int]]:
    """The start lengths and counts of `e` right to left, then those of a
    sentinel entry 0 before the first: the package's one LIS kernel.

    Computed right to left: a subsequence starting here continues at any
    later, larger entry.  The later entries sit in a Fenwick tree (Fenwick
    1994) over values, mirrored so that one read upward from v + 1 covers
    every entry above v, the prefix of a tree over reversed values n + 1 - v.
    Each node holds the longest length in its range and the count at that
    length, and nodes merge by max and sum.  An entry above every later one
    skips the read.  Every entry is above the sentinel, so its read, upward
    from index 1, covers the whole tree: its length is one more than the
    longest increasing subsequence's, and its count is the number of longest
    ones (1 for the empty sequence, whose longest is empty).
    """
    n = len(e)
    longest = [0] * (n + 1)
    tally = [0] * (n + 1)
    lengths = []
    counts = []
    top = 0  # the largest entry read so far
    for v in (*reversed(e), 0):
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
    return lengths, counts


def start_ranks(p: Permutation) -> tuple[int, ...]:
    """The rank of each entry: length of the longest increasing subsequence
    starting there.  Defined for every permutation.  On a 132-avoider one
    linear `_sweep_132` gives them; only an input containing 132 is passed
    on to the O(n log n) Fenwick pass.  `rank_sequence` finds ranks through
    it, and the bijection and characterization suites through its body,
    `_start_ranks`, on the plain entries.  `rank` reads them from
    `contains_pattern`'s verdict, or passes an input that contains 132,
    swept once, straight to `start_lengths_counts`.

    >>> start_ranks(Permutation.from_text("213"))
    (2, 2, 1)
    >>> start_ranks(Permutation.from_text("321"))
    (1, 1, 1)
    >>> start_ranks(Permutation.from_text("1423"))
    (3, 1, 2, 1)
    """
    return _start_ranks(p.entries)


def _start_ranks(e: Sequence[int]) -> tuple[int, ...]:
    """`start_ranks` on the entries of a permutation."""
    witness, ranks = _sweep_132(e)
    return ranks if witness is None else tuple(_start_lengths_counts(e)[0])


def lis_stats(p: Permutation) -> tuple[int, int]:
    """Length of the longest increasing subsequence and the exact number of
    position sets attaining it, read from the sentinel of one
    `_fenwick_starts` pass (O(n log n), any permutation).  The empty
    permutation yields (0, 1): the empty subsequence is its unique longest
    one.

    >>> lis_stats(Permutation.from_text("34256178"))
    (6, 1)
    >>> lis_stats(Permutation.from_text("32456178"))
    (6, 2)
    """
    lengths, counts = _fenwick_starts(p.entries)
    return lengths[-1] - 1, counts[-1]


def has_ulis(p: Permutation) -> bool:
    """True iff exactly one increasing subsequence attains the maximal length.

    >>> has_ulis(Permutation.from_text("34256178"))
    True
    >>> has_ulis(Permutation.from_text("32456178"))
    False
    """
    return _has_ulis(p.entries)


def _has_ulis(e: Sequence[int]) -> bool:
    """`has_ulis` on the entries of a permutation: the count of longest
    increasing subsequences, read from the sentinel of one `_fenwick_starts`
    pass, is 1."""
    return _fenwick_starts(e)[1][-1] == 1


def catalan(n: int) -> int:
    """The n-th Catalan number, binom(2n, n) // (n+1), in exact integers:
    the division leaves no remainder.  The avoider walk here and the
    rank-sequence walk in `ranks` each certify their length with it.

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if n < 0:
        raise InputError(f"catalan is defined for n >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def _walk_fault(family: str, n: int, walked: int, total: int) -> ConstructionError:
    """The error of a `family` walk of length n that yielded `walked` items,
    or any count above `total` = catalan(n) when it would go on past it."""
    told = f"catalan({n}) = {_int_text(total)}"
    tail = (f"more than {told} items" if walked > total
            else f"{_int_text(walked)} items, not {told}")
    return ConstructionError(f"walk bug: the {family} walk of length {n} yielded {tail}")


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
# blocks only values already placed.  So every visited prefix completes.
#
# The admissible values after a prefix depend only on its placed set, so the
# search below a prefix does too: prefixes with the same placed set have the
# same tails.  The walk searches the prefixes of length n - _TAIL, and the
# last _TAIL values once per placed set, the first time it comes up, into a
# table keyed by `bytes(used)`; each prefix then takes its set's tails.  At
# n = 10, 1 638 prefixes of length 5 of 132-avoiders have 252 placed sets.
# The table holds at most C(n, _TAIL) keys of at most catalan(_TAIL) tails
# each, and it is local to each walk: the walk stays pure, and separate
# walks are safe to run concurrently.
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

_TAIL = 5  # the last values of an avoider, searched once per placed set


def _admissible(sig: tuple[int, int, int], used: bytearray) -> Sequence[int]:
    """The admissible values after an incomplete prefix, increasing."""
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

    There are catalan(n) of them, whichever pattern is chosen; a walk that
    miscounts raises ConstructionError.  The default cap keeps accidental
    `n` typos from enumerating millions of objects; pass a larger `cap`
    explicitly to go further.  The search visits no dead end: every prefix
    it extends completes.  The search below a prefix depends only on its
    placed set, so the tails of its last five values are searched once per
    placed set, kept in a table local to the walk, and shared by every
    prefix with that set.

    The search itself, `_generate_avoiders`, yields plain tuples, and each
    is wrapped unvalidated (`Permutation._trusted`).  The verify suites
    other than `catalan` walk and check those tuples and wrap none.

    >>> [str(p) for p in enumerate_avoiders(3)]
    ['1 2 3', '2 1 3', '2 3 1', '3 1 2', '3 2 1']
    """
    if pattern.n != 3:
        raise InputError(f"pattern must have length 3, got length {pattern.n}")
    _check_length("avoider enumeration", n, 0, cap)
    wrap = Permutation._trusted
    return (wrap(entries) for entries in _generate_avoiders(n, pattern.entries))


def _generate_avoiders(n: int, sig: tuple[int, int, int]) -> Iterator[tuple[int, ...]]:
    """The entries of the avoiders of `sig` of length n, in lexicographic
    order, as plain tuples; the length is not checked.  The search is
    finite, so it can only miscount: it raises ConstructionError before
    yielding a chunk of tails that would pass catalan(n), and at an end
    short of catalan(n)."""
    total = catalan(n)
    walked = 0
    used = bytearray(n + 2)
    used[0] = used[n + 1] = 1  # the sentinels, counted as placed
    tails: dict[bytes, list[tuple[int, ...]]] = {}  # placed set -> its tails
    for prefix in _extend(sig, used, max(n - _TAIL, 0)):
        key = bytes(used)
        chunk = tails.get(key)
        if chunk is None:
            chunk = tails[key] = list(_extend(sig, used, n - len(prefix)))
        walked += len(chunk)
        if walked > total:
            raise _walk_fault("avoider", n, walked, total)
        yield from map(prefix.__add__, chunk)
    if walked != total:
        raise _walk_fault("avoider", n, walked, total)


def _extend(sig: tuple[int, int, int], used: bytearray,
            count: int) -> Iterator[tuple[int, ...]]:
    """Every way to place `count` more values after a prefix whose placed
    set is `used` (sentinels included), as tuples in lexicographic order.
    Each value placed is marked in `used` while its branch is searched, so
    `used` holds the whole prefix at each yield and is restored at the end."""
    if not count:
        yield ()
        return
    out: list[int] = []
    # one iterator per prefix, longest last
    offers = [iter(_admissible(sig, used))]
    while True:
        v = next(offers[-1], 0)
        if v:
            used[v] = 1
            out.append(v)
            if len(out) < count:
                offers.append(iter(_admissible(sig, used)))
                continue
            yield tuple(out)
        else:
            offers.pop()
            if not out:
                return
        used[out.pop()] = 0
