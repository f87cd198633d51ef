"""Reference combinatorics the benchmark checks the CLI's outputs against.

Nothing here imports the library or follows its algorithms: ranks come from
a plain quadratic DP, 132-containment from the linear monotonic-stack scan,
and the avoider with given ranks from the block decomposition
pi = alpha n beta (every entry of alpha exceeds every entry of beta).
"""

from __future__ import annotations


def start_ranks(entries: list[int]) -> list[int]:
    """Length of the longest increasing subsequence starting at each position."""
    n = len(entries)
    ranks = [1] * n
    for i in range(n - 2, -1, -1):
        here = entries[i]
        best = 0
        for j in range(i + 1, n):
            if entries[j] > here and ranks[j] > best:
                best = ranks[j]
        ranks[i] = best + 1
    return ranks


def contains_132(entries: list[int]) -> bool:
    """Whether some i < j < k has entries[i] < entries[k] < entries[j].

    Right-to-left scan: the stack holds a decreasing run of candidates for
    the "3"; `two` is the largest value popped by a larger value to its left,
    i.e. the best "2" seen so far.  Any later (leftward) value below it is a "1".
    """
    two = 0
    stack: list[int] = []
    for value in reversed(entries):
        if value < two:
            return True
        while stack and stack[-1] < value:
            two = stack.pop()
        stack.append(value)
    return False


def is_132_witness(entries: list[int], witness: tuple[int, int, int]) -> bool:
    """Whether the 1-based positions `witness` carry a 132 in `entries`."""
    i, j, k = witness
    if not 1 <= i < j < k <= len(entries):
        return False
    return entries[i - 1] < entries[k - 1] < entries[j - 1]


def is_permutation(entries: list[int]) -> bool:
    return sorted(entries) == list(range(1, len(entries) + 1))


def avoider_from_ranks(ranks: list[int]) -> list[int]:
    """The 132-avoider with the given rank sequence.

    In an avoider alpha n beta, n sits at the first position of rank 1, the
    ranks of alpha are its own ranks plus one (n extends every increasing run
    of alpha), and beta keeps its own ranks.  Both blocks are avoiders again.
    """
    out: list[int] = []

    def build(rs: list[int], low: int) -> None:
        if not rs:
            return
        m = rs.index(1)
        below = len(rs) - m - 1
        build([r - 1 for r in rs[:m]], low + below)
        out.append(low + len(rs))
        build(rs[m + 1:], low)

    build(list(ranks), 0)
    return out


def bump_tied_maximum(ranks: list[int]) -> list[int]:
    """Raise by one every rank on [i, j), where i < j are the last two
    positions holding the maximum."""
    top = max(ranks)
    i, j = [pos for pos, r in enumerate(ranks) if r == top][-2:]
    return [r + 1 if i <= pos < j else r for pos, r in enumerate(ranks)]
