"""Exact counts of 132-avoiders with and without a unique longest increasing
subsequence.

Two independent engines produce the same rows:

- `census_enumerative` walks the values of every rank sequence of length n,
  as plain tuples, and classifies each by maximum multiplicity; the walk
  certifies its length, catalan(n).  Transparent, but bounded by the
  Catalan explosion (the default cap is 12).
- `census_rows_dp` (the `dp` engine) evaluates a closed form.  Read right
  to left, a rank sequence of length n is the preorder depth sequence of a
  plane tree with n + 1 nodes, and a unique maximum is a unique deepest node.
  Trees whose unique deepest node sits at depth h have generating function
  z^h / F_{h-1}(z)^2, where F_h are the continued-fraction denominators of
  height-bounded plane trees (de Bruijn, Knuth & Rice 1972; Flajolet 1980).
  The substitution z = x/(1+x)^2 turns their sum into the divisor sums
  sigma(N), and Lagrange inversion gives

      u(n) = [x^(n+1)] (1-x)(1+x)^(2n-1) ((1-x)^2 S(x) - x),
      S(x) = sum over N >= 1 of sigma(N) x^N,

  Multiplying by (1+x)^2 moves from one length to the next, so the product
  of (1+x)^(2n-1) with the rest is carried along as a series and updated by
  two Pascal steps (additions only) per length; u(n) is read off it.  Only
  a window of the series is live: u(m) is its coefficient of x^(m+1) at
  length m, which two Pascal steps per length trace back to the coefficients
  from x^(2n-m+1) up at length n.  So past the middle lengths the low
  coefficients are dead and are dropped, which saves about a quarter of the
  additions at the default cap.  Each step reads the entry below the window
  as 0, exact at index 0 and wrong anywhere else; the wrong entries climb
  one index per step, two per length, as fast as the live bound, so they are
  always dead: no row reads them, and the next drop removes exactly them.
  All counts are exact big integers.

Also here: the exact count of ALL permutations (no avoidance restriction)
with a unique longest increasing subsequence, used to cross-check the
bundled OEIS data.  It builds permutations right to left and merges the
suffixes that have the same profile of longest start lengths above each
unplaced value, so n = 9 takes a few thousand profiles instead of n!
placements.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import DP_CAP, _check_length, _int_text
from .permutations import ALL_PERMUTATION_CAP
from .ranks import SEQUENCE_CAP, _generate_sequences, catalan
from .ulis import _unique_max


@dataclass(frozen=True)
class CensusRow:
    """Exact counts for one length: `u` avoiders with a unique longest
    increasing subsequence out of `total`, their Catalan number.  Derived
    from those two: `v` = total - u without one, and the exact ratio
    u/total."""

    n: int
    total: int
    u: int
    v: int = field(init=False)
    ratio: Fraction = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "v", self.total - self.u)
        object.__setattr__(self, "ratio", Fraction(self.u, self.total))

    def to_json_dict(self) -> dict:
        """Big integers as decimal strings; exact, never floats.  The key
        order is the csv column order."""
        return {
            "n": self.n,
            "catalan": _int_text(self.total),
            "u": _int_text(self.u),
            "v": _int_text(self.v),
            "ratio_num": _int_text(self.ratio.numerator),
            "ratio_den": _int_text(self.ratio.denominator),
        }


def census_enumerative(n: int, *, cap: int = SEQUENCE_CAP) -> CensusRow:
    """Count by walking the values of all rank sequences of length n, the
    plain tuples of `ranks._generate_sequences` (no `RankSequence` is
    built).  The walk yields exactly catalan(n) tuples, the row's total, or
    raises ConstructionError.

    >>> census_enumerative(3)
    CensusRow(n=3, total=5, u=3, v=2, ratio=Fraction(3, 5))
    """
    _check_length("enumerative census", n, 1, cap)
    return CensusRow(n, catalan(n), sum(map(_unique_max, _generate_sequences(n))))


def census_rows_dp(max_n: int, *, cap: int = DP_CAP) -> Iterator[CensusRow]:
    """Yield exact rows for n = 1..max_n from the closed form
    u(n) = [x^(n+1)] (1-x)(1+x)^(2n-1) ((1-x)^2 S(x) - x), where S(x) sums
    sigma(N) x^N over N >= 1 and sigma(N) is the sum of the divisors of N
    (de Bruijn, Knuth & Rice 1972; Flajolet 1980; derived in the module
    docstring).  The series g = (1-x)((1-x)^2 S(x) - x) is expanded once, and
    a = (1+x)^(2n-1) g is kept up to x^(max_n+1): u(n) is a[n+1], and two
    Pascal steps a[k] += a[k-1] move a to length n + 1.  Cutting a off at the
    top is exact, since each step reads only a[k] and a[k-1].  At the bottom,
    u(m) = a[m+1] at length m reads a at length n only from index
    2n - m + 1 up, so after row n the coefficients below 2n - max_n + 1 are
    read by no later row and are dropped.  Each step reads the entry below
    the window as 0, which is exact at index 0; above it, the error this puts
    in the lowest entry climbs one index per step, two per length, as fast as
    the dropping bound, so every wrong entry is dead: no row reads it, and the
    next drop removes exactly the wrong entries.  The total is carried by the
    exact recurrence catalan(n) = catalan(n-1) 2(2n-1)/(n+1).

    >>> [r.u for r in census_rows_dp(6)]
    [1, 1, 3, 8, 23, 71]
    """
    _check_length("dynamic-program census", max_n, 1, cap)
    top = max_n + 1
    sigma = [0] * (top + 1)
    for d in range(1, top + 1):
        for multiple in range(d, top + 1, d):
            sigma[multiple] += d

    def times_one_minus_x(series: list[int]) -> list[int]:
        return [a - b for a, b in zip(series, [0, *series])]

    def times_one_plus_x(series: list[int]) -> list[int]:
        return list(map(operator.add, series, [0, *series[:-1]]))

    inner = times_one_minus_x(times_one_minus_x(sigma))  # (1-x)^2 S(x)
    inner[1] -= 1
    series = times_one_plus_x(times_one_minus_x(inner))  # (1+x) g
    low = 0  # the index of series[0]
    total = 1
    for n in range(1, max_n + 1):
        total = total * 2 * (2 * n - 1) // (n + 1)
        # the recurrence is checked against catalan() by the tests, and u by
        # the test oracles, not here
        yield CensusRow(n, total, series[n + 1 - low])
        dead = 2 * n - max_n + 1 - low  # no later row reads below 2n - max_n + 1
        if dead > 0:
            del series[:dead]
            low += dead
        series = times_one_plus_x(times_one_plus_x(series))


def ulis_count_all(n: int, *, cap: int = ALL_PERMUTATION_CAP) -> int:
    """Number of ALL permutations of length n with a unique longest
    increasing subsequence, counted exactly over suffix profiles.

    Permutations are built right to left.  A suffix's profile lists, for a
    virtual value 0 and for each unplaced value u in increasing order, the
    pair (M, C): M is the longest start length among the placed values above
    u (0 if none), and C is 1 if exactly one increasing subsequence of the
    suffix starts above u with length M, 2 if more (1 when M = 0: the empty
    one).  Placing the unplaced value with pair (m, c) gives it start length
    m + 1 with c subsequences, so each smaller unplaced value (and 0) whose
    M is m becomes (m + 1, c), one whose M is m + 1 gets C = 2, and the rest
    keep their pairs; larger values are unaffected.  The profile therefore
    determines every completion's verdict, so suffixes with equal profiles
    are merged, level by level, keeping how many there are.  Counts can stop
    at 2 because only uniqueness matters.  A full permutation has a unique
    longest increasing subsequence when the virtual entry's C is 1.

    >>> [ulis_count_all(n) for n in range(1, 5)]
    [1, 1, 3, 10]
    """
    _check_length("all-permutation scan", n, 0, cap)
    level = {((0, 1),) * (n + 1): 1}
    for _ in range(n):
        merged: dict[tuple[tuple[int, int], ...], int] = {}
        for profile, ways in level.items():
            for j in range(1, len(profile)):
                m, c = profile[j]
                below = tuple((m + 1, c) if top == m else
                              (top, 2) if top == m + 1 else (top, ties)
                              for top, ties in profile[:j])
                key = below + profile[j + 1:]
                merged[key] = merged.get(key, 0) + ways
        level = merged
    return sum(ways for (((_, ties),), ways) in level.items() if ties == 1)
