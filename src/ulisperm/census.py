"""Exact counts of 132-avoiders with and without a unique longest increasing
subsequence.

Two independent engines produce the same rows:

- `census_enumerative` walks every rank sequence of length n and classifies
  it by maximum multiplicity.  Transparent, but bounded by the Catalan
  explosion (the default cap is 12).
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
  two Pascal steps (additions only) per length; u(n) is read off it.  All
  counts are exact big integers.

Also here: the exact count of ALL permutations (no avoidance restriction)
with a unique longest increasing subsequence, used to cross-check the
bundled OEIS data.  It builds permutations right to left and merges the
suffixes that have the same profile of longest start lengths above each
unplaced value, so n = 9 takes a few thousand profiles instead of n!
placements.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import ConstructionError, _check_length, _int_text
from .permutations import ALL_PERMUTATION_CAP
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
        # the cross-multiplied form of ratio == u/total: no second gcd
        assert self.ratio.numerator * self.total == self.u * self.ratio.denominator

    def to_json_dict(self) -> dict:
        """Big integers as decimal strings; exact, never floats."""
        return {
            "n": self.n,
            "catalan": _int_text(self.total),
            "u": _int_text(self.u),
            "v": _int_text(self.v),
            "ratio_num": _int_text(self.ratio.numerator),
            "ratio_den": _int_text(self.ratio.denominator),
        }


CSV_COLUMNS = ("n", "catalan", "u", "v", "ratio_num", "ratio_den")


def _make_row(n: int, u: int, v: int) -> CensusRow:
    total = u + v
    if total != catalan(n):
        raise ConstructionError(
            f"census bug: u + v = {_int_text(total)} differs from "
            f"catalan({n}) = {_int_text(catalan(n))}"
        )
    return CensusRow(n, total, u, v, Fraction(u, total))


def census_enumerative(n: int, *, cap: int = SEQUENCE_CAP) -> CensusRow:
    """Count by walking all rank sequences of length n.

    >>> census_enumerative(3)
    CensusRow(n=3, total=5, u=3, v=2, ratio=Fraction(3, 5))
    """
    _check_length("enumerative census", n, 1, cap)
    u = v = 0
    for t in enumerate_rank_sequences(n, cap=cap):
        if max_profile(t).unique:
            u += 1
        else:
            v += 1
    return _make_row(n, u, v)


def census_rows_dp(max_n: int, *, cap: int = DP_CAP) -> Iterator[CensusRow]:
    """Yield exact rows for n = 1..max_n from the closed form
    u(n) = [x^(n+1)] (1-x)(1+x)^(2n-1) ((1-x)^2 S(x) - x), where S(x) sums
    sigma(N) x^N over N >= 1 and sigma(N) is the sum of the divisors of N
    (de Bruijn, Knuth & Rice 1972; Flajolet 1980; derived in the module
    docstring).  The series g = (1-x)((1-x)^2 S(x) - x) is expanded once, and
    a = (1+x)^(2n-1) g is kept up to x^(max_n+1): u(n) is a[n+1], and two
    Pascal steps a[k] += a[k-1] move a to length n + 1.  Cutting a off at the
    top is exact, since each step reads only a[k] and a[k-1].  The total is
    carried by the exact recurrence catalan(n) = catalan(n-1) 2(2n-1)/(n+1),
    and v = catalan(n) - u.

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
    total = 1
    for n in range(1, max_n + 1):
        total = total * 2 * (2 * n - 1) // (n + 1)
        u = series[n + 1]
        # v is catalan(n) - u, so u is checked by the test oracles, not here
        yield _make_row(n, u, total - u)
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
