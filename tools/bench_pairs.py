#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a change, one run at a time.

Usage:
    python3 tools/bench_pairs.py <parent-checkout> <change-checkout> <workload> <first-seed> <pairs>
with <pairs> at least 2, the fewest runs the parent's spread is defined for.
<workload> is a workload of BENCHMARK.json or a pseudo-workload: tier1,
startup, startup_bare or suites.

Pair i (0-based) runs the benchmark's command from BENCHMARK.json,

    python3 perfbench/run.py --workload <workload> --seed <first-seed + i> --seconds <run_seconds> --trace 0

in each checkout, one child process after the other: the parent first when i
is even, the change first when it is odd.  The command, `run_seconds`, the
end-to-end metrics and their bounds come from the change checkout's
BENCHMARK.json.

Each run's line is printed as it ends.  Then, for each metric: both medians,
the parent's spread (interquartile range over median, from
`statistics.quantiles(n=4)`), the pairs the change wins (better by the
metric's `better`; ties count for neither), whether a gain is shown (of at
least 10 pairs, the change wins at least 9 in 10, and its median beats the
parent's by more than the parent's spread) and whether the change's median
is worse than the parent's by more than the metric's bound, a share of the
parent's median.  The last line is a JSON object with every run's metrics.
If a larger share of the change's operations failed than of the parent's,
the change's failed/attempted line ends ", LARGER SHARE FAILED" and the
tool exits 1 once it has printed everything.  A child that exits other than 0,
or whose last stdout line is not JSON, stops the comparison.  A change
checkout without a readable BENCHMARK.json is named on one stderr line, and
the tool exits 2 before any child starts.

A pseudo-workload instead runs, in the same alternating order and without
the seeds, children of this interpreter with `src` first on PYTHONPATH:

    tier1    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors
             wall_s, passed and skipped from pytest's summary line; a failure,
             an error or no such line stops the comparison
    startup  PYTHONPATH=src python3 -m ulisperm.cli rank '2 1'
             startup_ms, the median wall time of STARTUP_RUNS such processes;
             an exit other than 0 or a stdout other than "1 1" stops it
    startup_bare  PYTHONPATH=src python3 -S -m ulisperm.cli rank '2 1'
             the same as startup, each child without the `site` module, so
             that what the site hooks load cannot hide package start-up
    suites   PYTHONPATH=src python3 -c SUITES_SCRIPT
             suite.<name>_s, each verify suite's least wall time of
             SUITES_RUNS runs at its default bound, timed around run_suite
             with time.perf_counter; a failing suite stops it

Each key of a run that ends in _s or _ms is a metric, reported, not gated:
its row has the unit of the suffix, lower is better, and no bound applies.
The last line is {"workload": w, w: {side: {"command": ..., metric: [value
per pair], ...the other keys of the side's first run}}}; for tier1 that is
the shape of the `tier1` entry of the BENCH_*.json files.
Standard library only.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
STARTUP = ["-m", "ulisperm.cli", "rank", "2 1"]
STARTUP_RUNS = 11
SUITES_RUNS = 3
GAIN_PAIRS = 10  # the fewest pairs a gain can be shown on
SUITES_SCRIPT = f"""
import json, time
from ulisperm.errors import SUITE_NAMES
from ulisperm.verify import run_suite
best = {{}}
for name in SUITE_NAMES:
    times = []
    for _ in range({SUITES_RUNS}):
        started = time.perf_counter()
        report = run_suite(name)
        times.append(time.perf_counter() - started)
        if not report.passed:
            raise SystemExit(f"verify {{name}} failed")
    best[f"suite.{{name}}_s"] = min(times)
print(json.dumps(best))
"""
# pytest's last line: "1 failed, 389 passed, 9 skipped, 2 warnings in 65.12s (0:01:05)"
_SUMMARY = re.compile(r"=*\s*(\d+ \w+(?:, \d+ \w+)*) in ([0-9.]+)s\b")


def summarise(metrics: list[dict], parent: list[dict[str, float]],
              change: list[dict[str, float]]) -> list[dict]:
    """One row per metric (an entry of BENCHMARK.json's `end_to_end` list, or
    a pseudo-workload's metric with no bound), from the runs of each side in
    pair order (`parent[i]` and `change[i]` are pair i).
    """
    rows = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        median, changed = statistics.median(before), statistics.median(after)
        q1, _, q3 = statistics.quantiles(before, n=4)
        worse = changed - median if lower else median - changed
        wins = sum(b > a if lower else b < a for b, a in zip(before, after))
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "parent_median": median,
            "change_median": changed,
            "parent_spread": (q3 - q1) / median,
            "change_wins": wins,
            "pairs": len(before),
            "gain_shown": (len(before) >= GAIN_PAIRS and 10 * wins >= 9 * len(before)
                           and -worse > q3 - q1),
            "worse_than_bound": worse > bound * abs(median),
        })
    return rows


def format_row(row: dict) -> str:
    return (f"{row['name']}: parent {row['parent_median']:.6g} {row['unit']} "
            f"(spread {row['parent_spread']:.3f}), change {row['change_median']:.6g}, "
            f"change wins {row['change_wins']}/{row['pairs']} "
            f"(gain {'shown' if row['gain_shown'] else 'not shown'})"
            + (", WORSE THAN BOUND" if row["worse_than_bound"] else ""))


def _last_json(proc: subprocess.CompletedProcess, label: str) -> dict:
    """The JSON object on a child's last stdout line; a non-zero exit, or a
    last line that is missing or not JSON, stops the comparison with `label`
    and the child's stderr."""
    if proc.returncode:
        sys.exit(f"{label} exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{label} printed no JSON last line:\n{proc.stderr}")


def run_once(command: list[str], checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced run of the benchmark in `checkout`: its last stdout line."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    return _last_json(proc, f"{checkout} seed={seed}")


def parse_tier1(output: str) -> dict | None:
    """The counts and seconds of the last pytest summary line in `output`,
    or None if there is none."""
    for line in reversed(output.splitlines()):
        match = _SUMMARY.match(line.strip())
        if match:
            counts = {noun: int(k) for k, noun in re.findall(r"(\d+) (\w+)", match[1])}
            return {"passed": counts.get("passed", 0), "skipped": counts.get("skipped", 0),
                    "failed": counts.get("failed", 0),
                    "errors": counts.get("error", 0) + counts.get("errors", 0),
                    "wall_s": float(match[2])}
    return None


def _child(checkout: Path, args: list[str]) -> subprocess.CompletedProcess:
    """This interpreter run with `args` in `checkout`, `src` first on
    PYTHONPATH, its output captured."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                          capture_output=True, text=True)


def run_tier1(checkout: Path) -> dict:
    """One run of the Tier-1 tests in `checkout`: the wall time and counts
    of its summary line."""
    proc = _child(checkout, TIER1)
    result = parse_tier1(proc.stdout)
    if result is None or result["failed"] or result["errors"]:
        tail = "\n".join(proc.stdout.splitlines()[-20:])
        sys.exit(f"{checkout} tier1 exited {proc.returncode}:\n{tail}\n{proc.stderr}")
    return {key: result[key] for key in ("passed", "skipped", "wall_s")}


def run_startup(checkout: Path, flags: tuple[str, ...] = ()) -> dict:
    """The median wall time of STARTUP_RUNS fresh `rank "2 1"` processes in
    `checkout`, started one after another, with the interpreter options
    `flags`."""
    times = []
    for _ in range(STARTUP_RUNS):
        started = time.perf_counter()
        proc = _child(checkout, [*flags, *STARTUP])
        times.append((time.perf_counter() - started) * 1000)
        if proc.returncode or proc.stdout != "1 1\n":
            sys.exit(f"{checkout} startup exited {proc.returncode}:\n"
                     f"{proc.stdout}{proc.stderr}")
    return {"startup_ms": statistics.median(times)}


def run_suites(checkout: Path) -> dict:
    """Each verify suite's best time in one fresh process in `checkout`:
    the JSON object SUITES_SCRIPT prints last."""
    return _last_json(_child(checkout, ["-c", SUITES_SCRIPT]), f"{checkout} suites")


# name: (one run in a checkout, the command text of the last line)
PSEUDO = {
    "tier1": (run_tier1, " ".join(["PYTHONPATH=src python", *TIER1])),
    "startup": (run_startup, "PYTHONPATH=src python3 -m ulisperm.cli rank '2 1'"),
    "startup_bare": (lambda checkout: run_startup(checkout, ("-S",)),
                     "PYTHONPATH=src python3 -S -m ulisperm.cli rank '2 1'"),
    "suites": (run_suites, "PYTHONPATH=src python3 -c SUITES_SCRIPT"),
}


def _usage() -> int:
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    try:
        parent_dir, change_dir, workload, first_seed, pairs = argv
        first_seed, pairs = int(first_seed), int(pairs)
    except ValueError:
        return _usage()
    if pairs < 2:
        return _usage()
    path = Path(change_dir) / "BENCHMARK.json"
    try:
        benchmark = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        print(f"cannot read {path}: {getattr(err, 'strerror', None) or err}", file=sys.stderr)
        return 2
    if workload not in PSEUDO and workload not in [w["name"] for w in benchmark["workloads"]]:
        return _usage()
    seconds = benchmark["run_seconds"]
    runner, command_text = PSEUDO.get(workload, (None, None))
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = Path(parent_dir if side == "parent" else change_dir)
            if runner is not None:
                result = runner(checkout)
                line = f"pair={i} {json.dumps(result)}"
            else:
                result = run_once(benchmark["command"], checkout, workload, seed, seconds)
                result["seed"] = seed
                values = {name: m["value"] for name, m in result["metrics"].items()}
                line = (f"seed={seed} failed/attempted={result['failed']}/"
                        f"{result['attempted']} {json.dumps(values)}")
            runs[side].append(result)
            print(f"{side} {line}", flush=True)
    if runner is not None:
        metrics = [name for name in runs["parent"][0] if name.endswith(("_s", "_ms"))]
        for row in summarise([{"name": name, "unit": name.rpartition("_")[2], "better": "lower",
                               "bound": math.inf} for name in metrics],
                             runs["parent"], runs["change"]):
            print(format_row(row))
        print(json.dumps({"workload": workload, workload: {
            side: {"command": command_text,
                   **{name: [r[name] for r in results] for name in metrics},
                   **{key: v for key, v in results[0].items() if key not in metrics}}
            for side, results in runs.items()}}))
        return 0
    totals = {side: (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))
              for side, results in runs.items()}
    (parent_failed, parent_attempted), (change_failed, change_attempted) = totals.values()
    larger_share_failed = change_failed * parent_attempted > parent_failed * change_attempted
    for side, (failed, attempted) in totals.items():
        print(f"{side}: failed/attempted = {failed}/{attempted}"
              + (", LARGER SHARE FAILED" if side == "change" and larger_share_failed else ""))
    values = {side: [{name: m["value"] for name, m in r["metrics"].items()} for r in results]
              for side, results in runs.items()}
    for row in summarise(benchmark["end_to_end"], values["parent"], values["change"]):
        print(format_row(row))
    print(json.dumps({"workload": workload, "seconds": seconds, "runs": runs}))
    return 1 if larger_share_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
