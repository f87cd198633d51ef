"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: subset enumeration, full n! filters,
direct expansion of defining conditions, and the quadratic scans the library
ran before its linear and O(n log n) kernels (`contains_by_scan`,
`fill_starts_by_scan`).  None of it shares code with the implementations
under test, except `invert_by_search`, which inverts rank sequences from the
library's avoider enumeration and ranks, independently of `ulisperm.invert`;
`invert_by_pop` decodes them by the list pops `invert` ran before its
linked-list cursor, `validate_by_loops` checks membership by the loops
alone, as `validate_values` did before its fast path, and
`rank_sequences_by_successor` refills each successor one entry at a time, as
`enumerate_rank_sequences` did before its slice refill.
`max_positions` lists where a sequence attains its maximum, the tests'
reading of the unique-maximum rule apart from the library's `_unique_max`,
and `uniquify_max_by_profile` bumps between the final two of those
positions, independently of `ulisperm.uniquify_max`.  `ulis_count_by_search`
takes start lengths and counts from `fill_starts_by_scan`, independently of
`ulisperm.ulis_count_all`.
`census_u_by_binomial_walk` evaluates the same closed form as
`ulisperm.census_rows_dp`, by a separate route.  `census_summary_by_fractions`
is the census summary the CLI computed with `Fraction` comparisons before it
cross-multiplied integers.  `_digit_limit` reads
Python's int/str digit limit for the tests that check the package leaves it
alone.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

from ulisperm import (
    SEQUENCE_CAP,
    CensusRow,
    ConstructionError,
    InputError,
    Permutation,
    RankSequence,
    SequenceValidationError,
    enumerate_avoiders,
    start_ranks,
)
from ulisperm.errors import _int_text


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


def contains_by_scan(entries: tuple[int, ...], sig: tuple[int, int, int]):
    """First (lexicographic) witness triple, or None, by the quadratic scan
    `contains_pattern` ran before its linear sweep: for each i in turn, one
    right-to-left pass keeps the extreme value so far among later entries on
    the pattern's k side of e[i] (the minimum when the pattern puts e[j]
    above e[k], else the maximum); the last entry on the j side that beats it
    is the least j, and a forward scan from j finds the least k."""
    a, b, c = sig
    j_above_i, k_above_i, j_above_k = b > a, c > a, b > c
    e = entries
    n = len(e)
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
            return (i + 1, j + 1, k + 1)
    return None


def fill_starts_by_scan(e, lengths: list[int], counts: list[int],
                        start: int, stop: int) -> None:
    """The quadratic start-length scan `start_lengths_counts` ran before its
    Fenwick tree: set lengths[i] and counts[i] for i = start down to stop,
    reading every later, larger entry; the positions right of i must already
    be set."""
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


def start_lengths_counts_by_scan(entries: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """`start_lengths_counts` by `fill_starts_by_scan` over every position."""
    n = len(entries)
    lengths = [0] * n
    counts = [0] * n
    fill_starts_by_scan(entries, lengths, counts, n - 1, 0)
    return lengths, counts


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


def rank_sequences_by_successor(n: int) -> list[tuple[int, ...]]:
    """The rank sequences of length n by the lexicographic successor
    `enumerate_rank_sequences` ran before its slice refill: raise the
    rightmost entry below n - i, then refill the rest one entry at a time
    with max(1, previous - 1)."""
    values = [1] * n
    out = []
    while True:
        out.append(tuple(values))
        i = n - 2
        while i >= 0 and values[i] == n - i:
            i -= 1
        if i < 0:
            return out
        values[i] += 1
        for j in range(i + 1, n):
            values[j] = max(1, values[j - 1] - 1)


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


def invert_by_pop(t: RankSequence) -> Permutation:
    """`invert` as it decoded before its linked-list cursor: p_i is popped as
    the r_i-th largest of the values not yet placed, kept in a list largest
    first, so a small r_i costs a shift of the whole list."""
    free = list(range(t.n, 0, -1))
    return Permutation(tuple(free.pop(r - 1) for r in t.values))


def validate_by_loops(values: tuple[int, ...]) -> None:
    """`ranks.validate_values` without its fast path: the first violated
    condition in the order empty, positive, final-entry, adjacent-drop."""
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


def census_summary_by_fractions(rows: list[CensusRow]) -> dict:
    """The census summary by comparing the rows' `Fraction` ratios, as the
    CLI computed it before it compared integer cross-products: `min` keeps
    the first of tied minima."""
    half = Fraction(1, 2)
    min_row = min(rows, key=lambda row: row.ratio)
    start = len(rows) - 1  # of the longest non-increasing tail
    while start and rows[start - 1].ratio >= rows[start].ratio:
        start -= 1
    return {
        "max_n": rows[-1].n,
        "min_ratio_num": _int_text(min_row.ratio.numerator),
        "min_ratio_den": _int_text(min_row.ratio.denominator),
        "min_ratio_at": min_row.n,
        "all_at_least_half": all(row.ratio >= half for row in rows),
        "equality_at": [row.n for row in rows if row.ratio == half],
        "nonincreasing_from": rows[start].n,
    }


def ulis_count_by_search(n: int) -> int:
    """Number of all permutations of length n with a unique longest increasing
    subsequence, by depth-first search over all n! of them, which
    `ulis_count_all` ran before it merged suffixes by profile.

    Permutations are built right to left, so those sharing a suffix share that
    suffix's start lengths and counts: each placed entry costs one
    `fill_starts_by_scan` step.  The suffix's longest length and the number of
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
            fill_starts_by_scan(entries, lengths, counts, i, i)
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


def max_positions(values: tuple[int, ...]) -> tuple[int, ...]:
    """The ascending 1-based positions holding the maximum of `values`."""
    top = max(values)
    return tuple(pos for pos, v in enumerate(values, start=1) if v == top)


def uniquify_max_by_profile(t: RankSequence) -> RankSequence:
    """`uniquify_max` from its definition: bump every value on [i, j), where
    i < j are the final two positions of the maximum, and check that the
    image's maximum is one higher and sits at i alone.  Both sets of
    positions come from `max_positions`."""
    before = max_positions(t.values)
    if len(before) == 1:
        raise InputError(
            f"sequence already has a unique maximum: {t}"
        )
    i, j = before[-2], before[-1]
    bumped = tuple(
        v + 1 if i <= pos < j else v
        for pos, v in enumerate(t.values, start=1)
    )
    result = RankSequence(bumped)  # revalidates family membership
    if not (max(result.values) == max(t.values) + 1
            and max_positions(result.values) == (i,)):
        raise ConstructionError(
            f"image of {t} lacks the promised unique maximum: {result}"
        )
    return result
