"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: subset enumeration, full n! filters,
direct expansion of defining conditions.  None of it shares code with the
implementations under test, except `invert_by_search`, which inverts rank
sequences from the library's avoider enumeration and ranks, independently of
`ulisperm.invert`, `ulis_count_by_search`, which takes start lengths and
counts from `ulisperm.permutations._fill_starts`, independently of
`ulisperm.ulis_count_all`, and `uniquify_max_by_profile`, which reads the
maximum's positions from `ulisperm.max_profile`, independently of
`ulisperm.uniquify_max`.  `census_u_by_binomial_walk` evaluates the same
closed form as `ulisperm.census_rows_dp`, by a separate route.
`_digit_limit` reads Python's int/str digit limit for the tests that check
the package leaves it alone.
"""

from __future__ import annotations

import itertools
import math
import sys

from ulisperm import (
    SEQUENCE_CAP,
    ConstructionError,
    InputError,
    Permutation,
    RankSequence,
    enumerate_avoiders,
    max_profile,
    start_ranks,
)
from ulisperm.permutations import _fill_starts


def _digit_limit() -> int | None:
    """sys.get_int_max_str_digits(), or None on Pythons before 3.10.7, which
    have no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def triple_pattern(a: int, b: int, c: int) -> tuple[int, int, int]:
    ranks = sorted((a, b, c))
    return (ranks.index(a) + 1, ranks.index(b) + 1, ranks.index(c) + 1)


def contains_by_triples(entries: tuple[int, ...], sig: tuple[int, int, int]):
    """First (lexicographic) witness triple, or None."""
    for i, j, k in itertools.combinations(range(len(entries)), 3):
        if triple_pattern(entries[i], entries[j], entries[k]) == sig:
            return (i + 1, j + 1, k + 1)
    return None


def lis_by_subsets(entries: tuple[int, ...]) -> tuple[int, int]:
    """(length, count) of longest increasing subsequences by enumerating
    every index subset.  Exponential; keep n small."""
    n = len(entries)
    best, count = 0, 1  # the empty subsequence
    for r in range(1, n + 1):
        for idxs in itertools.combinations(range(n), r):
            vals = [entries[i] for i in idxs]
            if all(x < y for x, y in zip(vals, vals[1:])):
                if r > best:
                    best, count = r, 1
                elif r == best:
                    count += 1
    return best, count


def avoiders_by_filter(n: int, sig: tuple[int, int, int]) -> list[tuple[int, ...]]:
    """All sig-avoiding permutations of 1..n, by filtering all n! of them."""
    return [
        p for p in itertools.permutations(range(1, n + 1))
        if contains_by_triples(p, sig) is None
    ]


def rank_sequences_by_filter(n: int) -> list[tuple[int, ...]]:
    """Direct expansion of the defining conditions over all value tuples."""
    return [
        t for t in itertools.product(range(1, n + 1), repeat=n)
        if t[-1] == 1 and all(a - b <= 1 for a, b in zip(t, t[1:]))
    ]


def catalan_by_recurrence(n: int) -> int:
    """Segner's recurrence, independent of any binomial formula."""
    table = [1]
    for m in range(1, n + 1):
        table.append(sum(table[i] * table[m - 1 - i] for i in range(m)))
    return table[n]


def start_ranks_by_subsets(entries: tuple[int, ...]) -> tuple[int, ...]:
    """Rank of each position by enumerating subsequences starting there."""
    n = len(entries)
    out = []
    for s in range(n):
        best = 1
        rest = range(s + 1, n)
        for r in range(1, n - s):
            for idxs in itertools.combinations(rest, r):
                vals = [entries[s]] + [entries[i] for i in idxs]
                if all(x < y for x, y in zip(vals, vals[1:])):
                    best = max(best, r + 1)
        out.append(best)
    return tuple(out)


def invert_by_search(t: RankSequence, *, cap: int = SEQUENCE_CAP) -> Permutation:
    """Reference inverse: exhaustive search over all 132-avoiders.

    Exponentially slower than `invert` and independent of it; exists so test
    suites can check the direct construction against ground truth.
    """
    matches = [
        p for p in enumerate_avoiders(t.n, cap=cap)
        if start_ranks(p) == t.values
    ]
    if len(matches) != 1:
        raise ConstructionError(
            f"expected exactly one 132-avoiding preimage of {t}, found {len(matches)}"
        )
    return matches[0]


def census_u_by_first_passage(max_n: int) -> list[int]:
    """u(1..max_n): rank sequences of each length with a unique maximum, by
    the first-passage decomposition of height-bounded paths.

    Read right to left, a rank sequence is a path r with r_1 = 1,
    r_{j+1} <= r_j + 1 and every r >= 1.  A unique maximum b + 1 at position
    k + 1 splits it into a prefix of length k from 1 that stays in 1..b and
    ends at b, and a suffix of length n - 1 - k with any start that stays in
    1..b.  Shares no code with `census_rows_dp`.
    """

    def step(counts: list[int]) -> list[int]:
        # counts over values 1..b; value y is reachable from every x >= y - 1
        tail = [0] * (len(counts) + 1)  # tail[i] = sum(counts[i:])
        for i in range(len(counts) - 1, -1, -1):
            tail[i] = tail[i + 1] + counts[i]
        return [tail[max(0, y - 2)] for y in range(1, len(counts) + 1)]

    u = [0] * (max_n + 1)
    u[1] = 1  # the single entry 1 is its own unique maximum
    for b in range(1, max_n):
        ends_at_b = [0]  # P_b(k): paths of length k from 1 ending at b
        counts = [1] + [0] * (b - 1)
        free = [1]  # S_b(m): paths of length m from any start
        anywhere = [1] * b
        for _ in range(1, max_n):
            ends_at_b.append(counts[-1])
            free.append(sum(anywhere))
            counts, anywhere = step(counts), step(anywhere)
        for n in range(b + 1, max_n + 1):
            u[n] += sum(ends_at_b[k] * free[n - 1 - k] for k in range(b, n))
    return u[1:]


def census_u_by_dp(max_n: int) -> list[int]:
    """u(1..max_n) by the exact dynamic program over rank sequences built
    right to left, which `census_rows_dp` ran before it took the closed form.

    State after processing suffixes of length L: columns[(m, unique)] is a
    list over leftmost value w = 1..m of counts of valid suffixes with
    maximum m and the given uniqueness.  Prepending x maps
    (w, m, unique) -> (x, max(m, x), unique') for x <= w + 1, where unique'
    is True if x > m, False if x == m, else unchanged.  For fixed target x
    the sources form the tail w >= x - 1, so each column's suffix sums give
    the row total (the sum over every w) and, re-indexed, entries 1..m-1 of
    the same column at length L + 1; x == m and x == m + 1 add only to the
    last entry of (m, False) and (m + 1, True).  The counts without a unique
    maximum are summed too, and each length's u + v must be the Catalan
    number C(2L, L) - C(2L, L + 1).
    Shares no code with `census_rows_dp`.
    """
    out = []
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
        assert u + v == (math.comb(2 * length, length)
                         - math.comb(2 * length, length + 1)), length
        out.append(u)
    return out


def census_u_by_binomial_walk(max_n: int) -> list[int]:
    """u(1..max_n) from the closed form
    u(n) = [x^(n+1)] (1-x)(1+x)^(2n-1) ((1-x)^2 S(x) - x), evaluated as
    `census_rows_dp` did before it updated the series by Pascal steps: the
    binomial row C(2n-1, j), j <= n + 1, is walked term by term and dotted
    with g[n+1-j], where g = (1-x)((1-x)^2 S(x) - x) and S(x) sums the
    divisor sums sigma(N) x^N over N >= 1.
    """
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
    out = []
    for n in range(1, max_n + 1):
        u, binomial = 0, 1
        for j in range(n + 2):
            u += binomial * g[n + 1 - j]
            binomial = binomial * (2 * n - 1 - j) // (j + 1)
        out.append(u)
    return out


def ulis_count_by_search(n: int) -> int:
    """Number of all permutations of length n with a unique longest increasing
    subsequence, by depth-first search over all n! of them, which
    `ulis_count_all` ran before it merged suffixes by profile.

    Permutations are built right to left, so those sharing a suffix share that
    suffix's start lengths and counts: each placed entry costs one
    `_fill_starts` step.  The suffix's longest length and the number of
    subsequences of that length go down the recursion, and a full permutation
    counts when that number is 1.
    """
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


def uniquify_max_by_profile(t: RankSequence) -> RankSequence:
    """`uniquify_max` as it ran before it found the final two maxima itself:
    their positions, and the image check, come from `max_profile`."""
    profile = max_profile(t)
    if profile.unique:
        raise InputError(
            f"sequence already has a unique maximum: {t}"
        )
    i, j = profile.occurrences[-2], profile.occurrences[-1]
    bumped = tuple(
        v + 1 if i <= pos < j else v
        for pos, v in enumerate(t.values, start=1)
    )
    result = RankSequence(bumped)  # revalidates family membership
    check = max_profile(result)
    if not (check.unique and check.top == profile.top + 1
            and check.occurrences == (i,)):
        raise ConstructionError(
            f"image of {t} lacks the promised unique maximum: {result}"
        )
    return result
