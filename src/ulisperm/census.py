"""Exact counts of 132-avoiders with and without a unique longest increasing
subsequence.

Two independent engines produce the same rows:

- `census_enumerative` walks every rank sequence of length n and classifies
  it by maximum multiplicity.  Transparent, but bounded by the Catalan
  explosion (the default cap is 12).
- `census_rows_dp` runs an exact dynamic program over the same family,
  building sequences right to left.  The state is (leftmost value, maximum
  so far, whether the maximum is currently unique); prepending x to a suffix
  whose leftmost value is w is legal for 1 <= x <= w + 1.  For each (maximum,
  uniqueness) column over w, the bulk of the next length's column is a
  re-indexing of this column's suffix sums, with no additions; only its last
  entry takes the moves that tie or raise the maximum, and the column totals
  give the row for the length from the same pass.  All counts are exact big
  integers.

Also here: the brute-force count of ALL permutations (no avoidance
restriction) with a unique longest increasing subsequence, used to
cross-check the bundled OEIS data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import ConstructionError, InputError
from .permutations import ALL_PERMUTATION_CAP, _fill_starts
from .ranks import SEQUENCE_CAP, catalan, enumerate_rank_sequences
from .ulis import max_profile

DP_CAP = 300


@dataclass(frozen=True)
class CensusRow:
    """Exact counts for one length: `u` avoiders with a unique longest
    increasing subsequence, `v` without, `total` their Catalan sum, and the
    exact ratio u/total."""

    n: int
    total: int
    u: int
    v: int
    ratio: Fraction

    def __post_init__(self):
        assert self.u + self.v == self.total
        assert self.ratio == Fraction(self.u, self.total)

    def to_json_dict(self) -> dict:
        """Big integers as decimal strings; exact, never floats."""
        return {
            "n": self.n,
            "catalan": str(self.total),
            "u": str(self.u),
            "v": str(self.v),
            "ratio_num": str(self.ratio.numerator),
            "ratio_den": str(self.ratio.denominator),
        }


CSV_COLUMNS = ("n", "catalan", "u", "v", "ratio_num", "ratio_den")


def _make_row(n: int, u: int, v: int) -> CensusRow:
    total = u + v
    if total != catalan(n):
        raise ConstructionError(
            f"census bug: u + v = {total} differs from catalan({n}) = {catalan(n)}"
        )
    return CensusRow(n, total, u, v, Fraction(u, total))


def census_enumerative(n: int, *, cap: int = SEQUENCE_CAP) -> CensusRow:
    """Count by walking all rank sequences of length n.

    >>> census_enumerative(3)
    CensusRow(n=3, total=5, u=3, v=2, ratio=Fraction(3, 5))
    """
    u = v = 0
    for t in enumerate_rank_sequences(n, cap=cap):
        if max_profile(t).unique:
            u += 1
        else:
            v += 1
    return _make_row(n, u, v)


def census_rows_dp(max_n: int, *, cap: int = DP_CAP) -> Iterator[CensusRow]:
    """Yield exact rows for n = 1..max_n in one incremental sweep.

    State after processing suffixes of length L: columns[(m, unique)] is a
    list over leftmost value w = 1..m of counts of valid suffixes with
    maximum m and the given uniqueness.  Prepending x maps
    (w, m, unique) -> (x, max(m, x), unique') for x <= w + 1, where unique'
    is True if x > m, False if x == m, else unchanged.  For fixed target x
    the sources form the tail w >= x - 1, so each column's suffix sums give
    the row total (the sum over every w) and, re-indexed, entries 1..m-1 of
    the same column at length L + 1; x == m and x == m + 1 add only to the
    last entry of (m, False) and (m + 1, True).
    """
    if max_n < 1:
        raise InputError(f"census needs n >= 1, got {max_n}")
    if max_n > cap:
        raise InputError(
            f"dynamic-program census capped at n = {cap} (requested {max_n}); "
            f"pass a higher cap to override"
        )
    columns: dict[tuple[int, bool], list[int]] = {(1, True): [1]}
    for length in range(1, max_n + 1):
        u = v = 0
        new: dict[tuple[int, bool], list[int]] = {}
        tips: dict[tuple[int, bool], int] = {}
        for (m, unique), column in columns.items():
            # acc[k] = sum of column over the top k+1 values of w, so the
            # sum over w >= y is acc[m - y] and acc[-1] is the column total.
            acc = list(itertools.accumulate(reversed(column)))
            if unique:
                u += acc[-1]
            else:
                v += acc[-1]
            # x = 1..m-1 keeps (m, unique) and takes the sum over
            # w >= max(1, x - 1): acc[-1], acc[-1], acc[-2], ..., acc[2].
            new[m, unique] = [acc[-1], *acc[-1:1:-1], 0] if m > 1 else [0]
            # x == m ties the maximum (w >= m - 1); x == m + 1 sets a fresh
            # one (w == m).  Both land on the last entry of their column.
            tips[m, False] = tips.get((m, False), 0) + sum(column[-2:])
            tips[m + 1, True] = tips.get((m + 1, True), 0) + column[-1]
        for (m, unique), tip in tips.items():
            new.setdefault((m, unique), [0] * m)[-1] += tip
        columns = {key: col for key, col in new.items() if any(col)}
        yield _make_row(length, u, v)


def ulis_count_all(n: int, *, cap: int = ALL_PERMUTATION_CAP) -> int:
    """Number of ALL permutations of length n with a unique longest
    increasing subsequence, by brute force over n! permutations.

    Permutations are built right to left by depth-first search, so those
    sharing a suffix share that suffix's start lengths and counts: each placed
    entry costs one `_fill_starts` step.  The suffix's longest length and the
    number of subsequences of that length go down the recursion, and a full
    permutation counts when that number is 1.

    >>> [ulis_count_all(n) for n in range(1, 5)]
    [1, 1, 3, 10]
    """
    if n < 0:
        raise InputError(f"length must be nonnegative, got {n}")
    if n > cap:
        raise InputError(
            f"all-permutation scan capped at n = {cap} (requested {n}); "
            f"pass a higher cap to override"
        )
    if n == 0:
        return 1
    entries = [0] * n
    lengths = [0] * n
    counts = [0] * n
    used = bytearray(n + 1)

    def place(i: int, longest: int, tally: int) -> int:
        found = 0
        for v in range(1, n + 1):
            if used[v]:
                continue
            entries[i] = v
            _fill_starts(entries, lengths, counts, i, i)
            length = lengths[i]
            if length > longest:
                top, ties = length, counts[i]
            elif length == longest:
                top, ties = longest, tally + counts[i]
            else:
                top, ties = longest, tally
            if i:
                used[v] = 1
                found += place(i - 1, top, ties)
                used[v] = 0
            elif ties == 1:
                found += 1
        return found

    return place(n - 1, 0, 0)
