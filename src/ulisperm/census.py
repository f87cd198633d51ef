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

  so each length costs one binomial row and one dot product.  All counts
  are exact big integers.

Also here: the brute-force count of ALL permutations (no avoidance
restriction) with a unique longest increasing subsequence, used to
cross-check the bundled OEIS data.
"""

from __future__ import annotations

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
    """Yield exact rows for n = 1..max_n from the closed form
    u(n) = [x^(n+1)] (1-x)(1+x)^(2n-1) ((1-x)^2 S(x) - x), where S(x) sums
    sigma(N) x^N over N >= 1 and sigma(N) is the sum of the divisors of N
    (de Bruijn, Knuth & Rice 1972; Flajolet 1980; derived in the module
    docstring).  The series g = (1-x)((1-x)^2 S(x) - x) is expanded once;
    each u(n) is the dot product of the binomial row C(2n-1, j), j <= n + 1,
    with g[n+1-j], and v = catalan(n) - u.

    >>> [r.u for r in census_rows_dp(6)]
    [1, 1, 3, 8, 23, 71]
    """
    if max_n < 1:
        raise InputError(f"census needs n >= 1, got {max_n}")
    if max_n > cap:
        raise InputError(
            f"dynamic-program census capped at n = {cap} (requested {max_n}); "
            f"pass a higher cap to override"
        )
    top = max_n + 1
    sigma = [0] * (top + 1)
    for d in range(1, top + 1):
        for multiple in range(d, top + 1, d):
            sigma[multiple] += d

    def times_one_minus_x(series: list[int]) -> list[int]:
        return [a - b for a, b in zip(series, [0, *series])]

    inner = times_one_minus_x(times_one_minus_x(sigma))  # (1-x)^2 S(x)
    inner[1] -= 1
    g = times_one_minus_x(inner)
    for n in range(1, max_n + 1):
        u, binomial = 0, 1
        for j in range(n + 2):
            u += binomial * g[n + 1 - j]
            binomial = binomial * (2 * n - 1 - j) // (j + 1)
        # v is catalan(n) - u, so u is checked by the test oracles, not here
        yield _make_row(n, u, catalan(n) - u)


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
