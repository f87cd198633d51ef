#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a change, one run at a time.

Usage:
    python3 tools/bench_pairs.py <parent-checkout> <change-checkout> <workload> <first-seed> <pairs>
with <pairs> at least 2, the fewest runs the parent's spread is defined for.
<workload> is a benchmark workload, tier1 for the Tier-1 tests, startup
for the start-up of one command in a fresh process, or suites for each
verify suite on its own.

Pair i (0-based) runs the benchmark's command from BENCHMARK.json,

    python3 perfbench/run.py --workload <workload> --seed <first-seed + i> --seconds <run_seconds> --trace 0

in each checkout, one child process after the other: the parent first when i
is even, the change first when it is odd.  The command, `run_seconds`, the
end-to-end metrics and their bounds come from the change checkout's
BENCHMARK.json.

Each run's line is printed as it ends.  Then, for each metric: both medians,
the parent's spread (interquartile range over median, from
`statistics.quantiles(n=4)`), the pairs the change wins (better by the
metric's `better`; ties count for neither), whether a gain is shown (the
change wins at least 9 in 10 of the pairs and its median beats the parent's
by more than the parent's spread) and whether the change's median is worse
than the parent's by more than the metric's bound, a share of the parent's
median.  The last line is a JSON object with every run's metrics.  If a
larger share of the change's operations failed than of the parent's, the
change's failed/attempted line ends ", LARGER SHARE FAILED" and the tool
exits 1 once it has printed everything.

With the workload tier1, each run is instead the Tier-1 command,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

in the same alternating order, and the seeds are not used.  Its wall time
is the seconds of pytest's summary line ("396 passed, 9 skipped in
19.71s"); a run with a failure or an error, or without that line, stops the
comparison.  The time is reported, not gated: the summary has only the
`wall_s` row, and the last line is {"workload": "tier1", "tier1": {...}}
with each side in the shape of the `tier1` entry of the BENCH_*.json files
(command, wall_s per run, passed and skipped of its first run).

With the workload startup, each run is instead the median wall time of 11
fresh processes of the interpreter running this tool,

    PYTHONPATH=src python3 -m ulisperm.cli rank "2 1"

started one at a time in the checkout, in the same alternating order; the
seeds are not used.  A process that exits other than 0 or prints other than
"1 1" stops the comparison.  Like tier1 it is reported, not gated: the
summary has only the `startup_ms` row, and the last line is
{"workload": "startup", "startup": {side: {"command": ..., "startup_ms":
[median per pair]}}}.

With the workload suites, each run is instead one fresh process,

    PYTHONPATH=src python3 -c SUITES_SCRIPT

in the checkout, in the same alternating order; the seeds are not used.  It
runs each of the seven verify suites at its default bound through
`run_suite`, SUITES_RUNS times in a row, and reports the least
`duration_ms` of each as `suite.<name>_s`.  A failing suite or a non-zero
exit stops the comparison.  It is reported, not gated: the summary has one
row per suite, and the last line is {"workload": "suites", "suites":
{side: {"command": ..., "suite.<name>_s": [seconds per pair], ...}}}.
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
TIER1_TEXT = " ".join(["PYTHONPATH=src python", *TIER1])
TIER1_METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": math.inf}]
STARTUP = ["-m", "ulisperm.cli", "rank", "2 1"]
STARTUP_TEXT = "PYTHONPATH=src python3 -m ulisperm.cli rank '2 1'"
STARTUP_RUNS = 11
STARTUP_METRICS = [{"name": "startup_ms", "unit": "ms", "better": "lower",
                    "bound": math.inf}]
SUITES_RUNS = 3
SUITES_SCRIPT = f"""
import json
from ulisperm.errors import SUITE_NAMES
from ulisperm.verify import run_suite
best = {{}}
for name in SUITE_NAMES:
    reports = [run_suite(name) for _ in range({SUITES_RUNS})]
    if not all(report.passed for report in reports):
        raise SystemExit(f"verify {{name}} failed")
    best[f"suite.{{name}}_s"] = min(report.duration_ms for report in reports) / 1000
print(json.dumps(best))
"""
SUITES_TEXT = "PYTHONPATH=src python3 -c SUITES_SCRIPT"
# pytest's last line: "1 failed, 389 passed, 9 skipped, 2 warnings in 65.12s (0:01:05)"
_SUMMARY = re.compile(r"=*\s*(\d+ \w+(?:, \d+ \w+)*) in ([0-9.]+)s\b")


def summarise(metrics: list[dict], parent: list[dict[str, float]],
              change: list[dict[str, float]]) -> list[dict]:
    """One row per metric of BENCHMARK.json's `end_to_end` list, from the
    runs of each side in pair order (`parent[i]` and `change[i]` are pair i).
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
            "gain_shown": 10 * wins >= 9 * len(before) and -worse > q3 - q1,
            "worse_than_bound": worse > bound * abs(median),
        })
    return rows


def format_row(row: dict) -> str:
    return (f"{row['name']}: parent {row['parent_median']:.6g} {row['unit']} "
            f"(spread {row['parent_spread']:.3f}), change {row['change_median']:.6g}, "
            f"change wins {row['change_wins']}/{row['pairs']} "
            f"(gain {'shown' if row['gain_shown'] else 'not shown'})"
            + (", WORSE THAN BOUND" if row["worse_than_bound"] else ""))


def run_once(command: list[str], checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced run of the benchmark in `checkout`: its last stdout line."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{checkout} seed={seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


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


def _src_env() -> dict[str, str]:
    """This process's environment with `src` first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))}


def run_tier1(checkout: Path) -> dict:
    """One run of the Tier-1 tests in `checkout`: its parsed summary line."""
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=_src_env(),
                          capture_output=True, text=True)
    result = parse_tier1(proc.stdout)
    if result is None or result["failed"] or result["errors"]:
        tail = "\n".join(proc.stdout.splitlines()[-20:])
        sys.exit(f"{checkout} tier1 exited {proc.returncode}:\n{tail}\n{proc.stderr}")
    return result


def run_startup(checkout: Path) -> dict:
    """The median wall time of STARTUP_RUNS fresh `rank "2 1"` processes in
    `checkout`, started one after another."""
    env = _src_env()
    times = []
    for _ in range(STARTUP_RUNS):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, *STARTUP], cwd=checkout, env=env,
                              capture_output=True, text=True)
        times.append((time.perf_counter() - started) * 1000)
        if proc.returncode or proc.stdout != "1 1\n":
            sys.exit(f"{checkout} startup exited {proc.returncode}:\n"
                     f"{proc.stdout}{proc.stderr}")
    return {"startup_ms": statistics.median(times)}


def run_suites(checkout: Path) -> dict:
    """Each verify suite's best time in one fresh process in `checkout`:
    the JSON object SUITES_SCRIPT prints last."""
    proc = subprocess.run([sys.executable, "-c", SUITES_SCRIPT], cwd=checkout,
                          env=_src_env(), capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{checkout} suites exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 5 or int(argv[4]) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_dir, change_dir = Path(argv[0]), Path(argv[1])
    workload, first_seed, pairs = argv[2], int(argv[3]), int(argv[4])
    benchmark = json.loads((change_dir / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    pseudo = {"tier1": run_tier1, "startup": run_startup, "suites": run_suites}.get(workload)
    for i in range(pairs):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent_dir if side == "parent" else change_dir
            if pseudo is not None:
                result = pseudo(checkout)
                runs[side].append(result)
                print(f"{side} pair={i} {json.dumps(result)}", flush=True)
                continue
            result = run_once(benchmark["command"], checkout, workload, seed, seconds)
            result["seed"] = seed
            runs[side].append(result)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"{side} seed={seed} failed/attempted={result['failed']}/"
                  f"{result['attempted']} {json.dumps(values)}", flush=True)
    if workload == "tier1":
        print(format_row(summarise(TIER1_METRICS, runs["parent"], runs["change"])[0]))
        print(json.dumps({"workload": workload, "tier1": {
            side: {"command": TIER1_TEXT, "wall_s": [r["wall_s"] for r in results],
                   "passed": results[0]["passed"], "skipped": results[0]["skipped"]}
            for side, results in runs.items()}}))
        return 0
    if workload == "startup":
        print(format_row(summarise(STARTUP_METRICS, runs["parent"], runs["change"])[0]))
        print(json.dumps({"workload": workload, "startup": {
            side: {"command": STARTUP_TEXT, "startup_ms": [r["startup_ms"] for r in results]}
            for side, results in runs.items()}}))
        return 0
    if workload == "suites":
        names = list(runs["parent"][0])
        metrics = [{"name": name, "unit": "s", "better": "lower", "bound": math.inf}
                   for name in names]
        for row in summarise(metrics, runs["parent"], runs["change"]):
            print(format_row(row))
        print(json.dumps({"workload": workload, "suites": {
            side: {"command": SUITES_TEXT, **{name: [r[name] for r in results] for name in names}}
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
