#!/usr/bin/env python3
"""Regenerate the bundled b-file of unique-longest-increasing-subsequence
counts (OEIS A167995) from scratch.

Every value is computed here by a numpy-vectorized exhaustive scan over all
n! permutations, and checked against the package's own counter, which merges
suffixes by profile instead of scanning.  The two must agree on every length
up to 12, or nothing is written.

Usage:
    python tools/generate_bfile_fixture.py [--max-n 12] [--out PATH]

n = 12 takes a few minutes; lengths beyond 12 are out of brute-force reach,
so the shipped fixture stops there.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ulisperm.census import ulis_count_all  # noqa: E402

CROSS_CHECK_MAX = 12  # the package's profile count takes about a second here


def ulis_count_numpy(n: int, block_tail: int = 9) -> int:
    """Count permutations of length n with a unique longest increasing
    subsequence, processing blocks that share a fixed prefix."""
    if n == 0:
        return 1
    tail = min(n, block_tail)
    tail_perms = np.array(
        list(itertools.permutations(range(tail))), dtype=np.int8
    )
    total = 0
    for prefix in itertools.permutations(range(n), n - tail):
        complement = np.array(
            sorted(set(range(n)) - set(prefix)), dtype=np.int8
        )
        block = np.empty((len(tail_perms), n), dtype=np.int8)
        block[:, : n - tail] = np.array(prefix, dtype=np.int8)
        block[:, n - tail:] = complement[tail_perms]
        total += _count_unique_in_block(block)
    return total


def _count_unique_in_block(block: np.ndarray) -> int:
    rows, n = block.shape
    lengths = np.ones((rows, n), dtype=np.int8)
    counts = np.ones((rows, n), dtype=np.int8)
    for i in range(n - 2, -1, -1):
        larger = block[:, i + 1:] > block[:, i: i + 1]
        best = np.where(larger, lengths[:, i + 1:], 0).max(axis=1)
        extending = larger & (lengths[:, i + 1:] == best[:, None])
        tally = np.where(extending, counts[:, i + 1:], 0).sum(
            axis=1, dtype=np.int32
        )
        np.minimum(tally, 2, out=tally)
        lengths[:, i] = best + 1
        counts[:, i] = np.where(best > 0, tally, 1).astype(np.int8)
    longest = lengths.max(axis=1)
    at_longest = np.where(lengths == longest[:, None], counts, 0).sum(
        axis=1, dtype=np.int32
    )
    return int((at_longest == 1).sum())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "src" / "ulisperm" / "data" / "b167995.txt",
    )
    args = parser.parse_args()

    values: dict[int, int] = {}
    for n in range(1, args.max_n + 1):
        started = time.time()
        fast = ulis_count_numpy(n)
        note = ""
        if n <= CROSS_CHECK_MAX:
            profiled = ulis_count_all(n, cap=CROSS_CHECK_MAX)
            if profiled != fast:
                print(f"ENGINE DISAGREEMENT at n={n}: {profiled} vs {fast}")
                return 1
            note = " (cross-checked)"
        values[n] = fast
        print(f"n={n}: {fast}{note}  [{time.time() - started:.1f}s]")

    lines = [
        "# Permutations of [n] with a unique longest increasing subsequence",
        "# (OEIS A167995).  All values computed exhaustively by",
        "# tools/generate_bfile_fixture.py; two independent engines agree on",
        f"# every n <= {CROSS_CHECK_MAX}.  Brute force is infeasible past n = 12,",
        "# so the bundled data ends there.",
    ]
    lines += [f"{n} {values[n]}" for n in sorted(values)]
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
