"""The commands each part of the benchmark runs, and the checks on their output.

A part is a list of `Op`s, each run through ``ulisperm.cli.main`` with stdout
and stderr captured.  Every op is checked right after it runs, outside its
timed region; an exception, an unexpected exit code or a wrong output makes
it one failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference
from inputs import KINDS, LENGTHS, long_inputs

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

WITNESS = re.compile(r"^warning: input contains 132 at positions \((\d+), (\d+), (\d+)\); "
                     r"ranks are still well-defined\n$")


@dataclass
class Result:
    code: object
    out: str
    err: str
    started: float
    seconds: float
    error: Exception | None = None


# (result, latest earlier result of each kind) -> the output is right
Check = Callable[[Result, dict[str, Result]], bool]


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Check


def call(main, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted as a failed operation
            code, error = None, exc
        seconds = time.perf_counter() - started
    return Result(code, out.getvalue(), err.getvalue(), started, seconds, error)


def run_ops(main, ops: list[Op], tracer=None) -> tuple[list[Result], int]:
    """Run `ops` in order; return their results and how many failed.

    Garbage is collected before each census and verify op, so none of them
    pays for the garbage the ops before it left."""
    results: list[Result] = []
    latest: dict[str, Result] = {}
    failed = 0
    for index, op in enumerate(ops):
        if op.kind not in KINDS:
            gc.collect()
        if tracer is not None:
            tracer.op = index
        result = call(main, op.argv)
        failed += not passes(op, result, latest)
        latest[op.kind] = result
        results.append(result)
    return results, failed


def passes(op: Op, result: Result, latest: dict[str, Result]) -> bool:
    if result.error is not None:
        return False
    try:
        return bool(op.check(result, latest))
    except (ValueError, IndexError, TypeError):  # output too malformed to parse
        return False


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _values(line: str) -> list[int]:
    return [int(token) for token in line.split()]


# --- census --------------------------------------------------------------

def _census_ops(size: str) -> list[Op]:
    (dp_command, dp_digest), (enum_command, enum_digest) = \
        EXPECTED["census_stdout_sha256"][size].items()
    enum_n = int(enum_command.split()[2])

    def check_dp(r: Result, latest: dict[str, Result]) -> bool:
        return r.code == 0 and r.err == "" and _digest(r.out) == dp_digest

    def check_enum(r: Result, latest: dict[str, Result]) -> bool:
        # rows n = 1..enum_n (lines 2..enum_n + 1) must equal the DP engine's rows
        rows = r.out.splitlines()[1:enum_n + 1]
        return (r.code == 0 and r.err == "" and _digest(r.out) == enum_digest
                and len(rows) == enum_n
                and rows == latest["census_dp"].out.splitlines()[1:enum_n + 1])

    return [Op("census_dp", dp_command.split(), check_dp),
            Op("census_enum", enum_command.split(), check_enum)]


# --- verify --------------------------------------------------------------

def _verify_ops(size: str) -> list[Op]:
    def op(command: str, line: str) -> Op:
        return Op("verify", command.split(),
                  lambda r, latest: r.code == 0 and r.out == line + "\n")
    return [op(command, line) for command, line in EXPECTED["verify_stdout"][size].items()]


# --- long_inputs ---------------------------------------------------------

def _check_rank(entries: list[int]) -> Check:
    def check(r: Result, latest: dict[str, Result]) -> bool:
        if r.code != 0 or _values(r.out) != reference.start_ranks(entries) \
                or not r.out.endswith("\n") or r.out.count("\n") != 1:
            return False
        if not reference.contains_132(entries):
            return r.err == ""
        match = WITNESS.match(r.err)
        return bool(match) and reference.is_132_witness(
            entries, tuple(int(g) for g in match.groups()))
    return check


def _check_invert(ranks: list[int]) -> Check:
    def check(r: Result, latest: dict[str, Result]) -> bool:
        image = _values(r.out)
        return (r.code == 0 and r.err == "" and reference.is_permutation(image)
                and reference.start_ranks(image) == ranks
                and not reference.contains_132(image))
    return check


def _check_map(entries: list[int]) -> Check:
    def check(r: Result, latest: dict[str, Result]) -> bool:
        image = _values(r.out)
        if r.code != 0 or r.err != "" or len(image) != len(entries) \
                or not reference.is_permutation(image) or reference.contains_132(image):
            return False
        ranks = reference.start_ranks(image)
        return (ranks.count(max(ranks)) == 1
                and ranks == reference.bump_tied_maximum(reference.start_ranks(entries)))
    return check


_CHECKS = {
    "rank_avoider": _check_rank,
    "rank_other": _check_rank,
    "invert": _check_invert,
    "map": _check_map,
}


def _long_ops(seed: int, size: str) -> list[Op]:
    sparse = set(LENGTHS[::LIGHT_LENGTH_STEP])
    return [Op(kind, argv, _CHECKS[kind](values))
            for kind, argv, values in long_inputs(seed)
            if size == "full" or kind not in CUBIC or len(values) in sparse]


# --- parts and workloads -------------------------------------------------

PARTS = ("census", "verify", "long_inputs")
SUITES = tuple(command.split()[1] for command in EXPECTED["verify_stdout"]["full"])

# The light long_inputs part keeps every fourth length (25) for the kinds
# whose cubic 132 scan makes them cost ten times more and depend on the
# length alone, and every length for the others, whose time also depends on
# the seeded contents.
LIGHT_LENGTH_STEP = 4
CUBIC = ("rank_avoider", "map")


def build_parts(seed: int, workload: str) -> dict[str, list[Op]]:
    """The three parts, the one named `workload` at full size and the other
    two light (smaller census and verify bounds, fewer long_inputs lengths;
    see expected.json).  The census DP op comes before the enumerative one,
    whose check reads its rows."""
    size = {part: "full" if part == workload else "light" for part in PARTS}
    return {
        "census": _census_ops(size["census"]),
        "verify": _verify_ops(size["verify"]),
        "long_inputs": _long_ops(seed, size["long_inputs"]),
    }
