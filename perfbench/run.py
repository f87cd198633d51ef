"""Benchmark of the ulisperm CLI, driven in-process through ``ulisperm.cli.main``.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from a checkout: the library is imported from ``src/`` next to this
directory and nowhere else.  One process, one thread.

Every workload reports every end-to-end metric, so every run measures all
three parts (``census``, ``verify`` and ``long_inputs``, see parts.py): the
part named by ``--workload`` at full size for FOCUS_SHARE of ``--seconds``,
the other two light for the rest, in whole passes over a part.  The seed
picks the long_inputs contents and order.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics.  Their times are scaled to a nominal machine speed (see speed.py);
the lines before the JSON line give the unscaled wall times too.  With
``--trace 1`` the run makes one untraced and one traced pass that each run
every command of the three parts once, reports the per-layer metrics,
including the tracing overhead, and writes the spans to ``.perfbench_out/``.
The lines before the JSON line give each metric with its unit (and,
untraced, its sample count).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import KINDS
from parts import PARTS, SUITES, Op, build_parts, run_ops
from speed import Speed, calibrate
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 7
FOCUS_SHARE = 0.5

# Per-layer metrics read straight off the tracer: "<span name>.<statistic>".
TRACED = (
    "cli.main.calls", "cli.main.self_s",
    "permutations.parse_values.self_s",
    "permutations.Permutation.validate.calls", "permutations.Permutation.validate.self_s",
    "permutations.contains_pattern.calls", "permutations.contains_pattern.positive",
    "permutations.contains_pattern.self_s",
    "permutations.start_lengths_counts.calls", "permutations.start_lengths_counts.self_s",
    "permutations.has_ulis.calls",
    "permutations.enumerate_avoiders.items", "permutations.enumerate_avoiders.self_s",
    "ranks.validate_values.calls", "ranks.validate_values.self_s",
    "ranks.enumerate_rank_sequences.items", "ranks.enumerate_rank_sequences.self_s",
    "ranks.invert.calls", "ranks.invert.self_s",
    "ranks.rank_sequence.calls",
    "ulis.max_profile.calls", "ulis.max_profile.self_s",
    "ulis.uniquify_max.calls", "ulis.uniquify_max.self_s",
    "ulis.uniquify_lis.calls", "ulis.uniquify_lis.self_s",
    "census.census_rows_dp.rows", "census.census_rows_dp.self_s",
    "census.census_enumerative.calls", "census.census_enumerative.self_s",
    "census.ulis_count_all.calls", "census.ulis_count_all.self_s",
    "oeis.parse_bfile.calls", "oeis.parse_bfile.self_s",
)

END_TO_END = ("setup_s", "peak_rss_mb", "census_dp_s", "census_enum_s", "verify_s",
              *(f"{kind}_ms.{p}" for kind in KINDS for p in ("p50", "p90")))

PER_LAYER = (*TRACED, "cli.stdout_bytes",
             *(f"verify.suite.{suite}_s" for suite in SUITES),
             "verify.objects_enumerated", "verify.enumeration_reuse",
             "trace.spans", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
             "trace.self_sum_s")


def setup(seed: int, workload: str):
    """Import the library from this checkout and build every command."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ulisperm.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"ulisperm was imported from {cli.__file__}, not from {SRC}")
    return cli, build_parts(seed, workload)


def timed_setup(seed: int, workload: str):
    """Set up; return the wall seconds, that time scaled by the machine speed
    measured right after, and what `setup` returns."""
    started = time.perf_counter()
    cli, parts = setup(seed, workload)
    seconds = time.perf_counter() - started
    return seconds, seconds * calibrate(), cli, parts


def median_setup_seconds(first: tuple[float, float], seed: int,
                         workload: str) -> tuple[float, float, int]:
    """Median scaled and wall seconds over this process's set-up and
    SETUP_RUNS - 1 fresh processes."""
    samples = [first]
    for _ in range(SETUP_RUNS - 1):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--seed", str(seed), "--workload", workload],
            capture_output=True, text=True, check=True, timeout=120)
        wall, scaled = probe.stdout.split()[-2:]
        samples.append((float(wall), float(scaled)))
    return (statistics.median(scaled for _, scaled in samples),
            statistics.median(wall for wall, _ in samples), len(samples))


def p90(samples: list[float]) -> float:
    """Nearest-rank 90th percentile: with 100 samples, 10 lie beyond it."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def run_passes(main, parts, focus: str, seconds: float):
    """Whole passes over one part at a time.  Each part makes one pass first;
    after that the next pass goes to the part furthest below its share of the
    time spent (FOCUS_SHARE for the part named by the workload) among those
    whose last pass would still end within `seconds`.  Returns each kind's
    scaled and wall seconds per op, how many ops ran and how many failed."""
    share = {part: FOCUS_SHARE if part == focus else (1 - FOCUS_SHARE) / (len(parts) - 1)
             for part in parts}
    spent = dict.fromkeys(parts, 0.0)
    last: dict[str, float] = {}
    ops: list[Op] = []
    results, failed = [], 0
    started = time.perf_counter()
    with Speed() as speed:
        while True:
            left = seconds - (time.perf_counter() - started)
            fits = [p for p in parts if p not in last or last[p] <= left]
            if not fits:
                break
            part = min(fits, key=lambda p: (p in last, spent[p] / share[p]))
            pass_started = time.perf_counter()
            more, bad = run_ops(main, parts[part])
            last[part] = time.perf_counter() - pass_started
            spent[part] += last[part]
            ops += parts[part]
            results += more
            failed += bad
    scaled: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    for op, r in zip(ops, results):
        op_scaled, op_wall = speed.scaled(r.started, r.seconds)
        scaled.setdefault(op.kind, []).append(op_scaled)
        wall.setdefault(op.kind, []).append(op_wall)
    return scaled, wall, len(results), failed


def summarise(samples: dict[str, list[float]], suites: int) -> dict:
    """The timed end-to-end metrics: name -> (value, unit, sample count)."""
    metrics = {}
    for kind in ("census_dp", "census_enum"):
        metrics[f"{kind}_s"] = (statistics.median(samples[kind]), "s", len(samples[kind]))
    passes = [sum(samples["verify"][i:i + suites])
              for i in range(0, len(samples["verify"]), suites)]
    metrics["verify_s"] = (statistics.median(passes), "s", len(passes))
    for kind in KINDS:
        ms = [1000 * s for s in samples[kind]]
        metrics[f"{kind}_ms.p50"] = (statistics.median(ms), "ms", len(ms))
        metrics[f"{kind}_ms.p90"] = (p90(ms), "ms", len(ms))
    return metrics


def end_to_end(main, parts, args, setup: tuple[float, float, int]):
    """The end-to-end metrics: name -> (value, unit, sample count, wall value)."""
    scaled, wall, attempted, failed = run_passes(main, parts, args.workload, args.seconds)
    setup_s, setup_wall, setup_n = setup
    metrics = {"setup_s": (setup_s, "s", setup_n, setup_wall)}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss, "MB", 1, rss)
    suites = len(parts["verify"])
    walls = summarise(wall, suites)
    for name, (value, unit, n) in summarise(scaled, suites).items():
        metrics[name] = (value, unit, n, walls[name][0])
    return metrics, attempted, failed


def per_layer(cli, parts, args):
    ops = [op for part in PARTS for op in parts[part]]
    plain, failed_plain = run_ops(cli.main, ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced, failed_traced = run_ops(cli.main, ops, tracer)
    finally:
        tracer.uninstall()
    # tracing must not change a byte of stdout
    failed_traced += sum(a.out != b.out for a, b in zip(plain, traced))

    metrics = {}
    for name in TRACED:
        span, stat = name.rsplit(".", 1)
        if stat == "self_s":
            metrics[name] = (tracer.self_seconds(span), "s")
        elif stat in ("items", "rows"):
            metrics[name] = (tracer.items(span), "count")
        elif stat == "positive":
            metrics[name] = (tracer.positives(span), "count")
        else:
            metrics[name] = (tracer.count(span), "count")
    metrics["cli.stdout_bytes"] = (sum(len(r.out.encode()) for r in traced), "bytes")
    verify_ops = {i for i, op in enumerate(ops) if op.kind == "verify"}
    for i in sorted(verify_ops):
        metrics[f"verify.suite.{ops[i].argv[1]}_s"] = (traced[i].seconds, "s")
    enumerated = sum(tracer.items(name, verify_ops) for name in
                     ("permutations.enumerate_avoiders", "ranks.enumerate_rank_sequences"))
    distinct = tracer.distinct_items(verify_ops)
    metrics["verify.objects_enumerated"] = (enumerated, "count")
    metrics["verify.enumeration_reuse"] = (distinct / enumerated, "ratio")
    wall = sum(r.seconds for r in traced)
    untraced_wall = sum(r.seconds for r in plain)
    metrics["trace.spans"] = (len(tracer.spans["name"]), "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
    metrics["trace.self_sum_s"] = (sum(tracer.self_ns) / 1e9, "s")
    tracer.dump(TRACE_DIR, f"trace-{args.workload}", [op.argv for op in ops])
    print(f"verify.enumeration_reuse = {distinct} distinct / {enumerated} enumerated")
    return metrics, 2 * len(ops), failed_plain + failed_traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=PARTS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print the seconds and exit")
    args = parser.parse_args(argv)

    try:
        wall, scaled, cli, parts = timed_setup(args.seed, args.workload)
    except ImportError as exc:
        print(f"error: cannot import ulisperm from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(wall, scaled)
        return 0

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        metrics, attempted, failed = per_layer(cli, parts, args)
    else:
        setup = median_setup_seconds((wall, scaled), args.seed, args.workload)
        metrics, attempted, failed = end_to_end(cli.main, parts, args, setup)
    if tuple(metrics) != (PER_LAYER if args.trace else END_TO_END):
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {list(metrics)}")
    for name, (value, unit, *more) in metrics.items():
        print(f"{name} = {value:.6g} {unit}"
              + (f" (samples={more[0]}, wall {more[1]:.6g} {unit})" if more else ""))
    print(f"failed/attempted = {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
