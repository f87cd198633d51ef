import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "verify_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rows", "unit": "count", "better": "higher", "bound": 0.1},
]


def test_summary_of_made_up_pairs():
    parent = [{"verify_s": v, "rows": r} for v, r in [(3.0, 10), (3.2, 10), (3.1, 12), (3.4, 9)]]
    change = [{"verify_s": v, "rows": r} for v, r in [(2.8, 10), (3.3, 8), (2.9, 8), (4.5, 8)]]
    verify_row, rows_row = bench_pairs.summarise(METRICS, parent, change)
    # parent medians 3.15 and 10; quantiles(n=4) of 3.0, 3.1, 3.2, 3.4 are 3.025 and 3.35
    assert verify_row["parent_median"] == pytest.approx(3.15)
    assert verify_row["change_median"] == pytest.approx(3.1)
    assert verify_row["parent_spread"] == pytest.approx((3.35 - 3.025) / 3.15)
    assert (verify_row["change_wins"], verify_row["pairs"]) == (2, 4)
    assert not verify_row["worse_than_bound"]
    # higher is better: a tie wins for neither side, and a median of 8 is
    # below 10 by more than a tenth
    assert (rows_row["parent_median"], rows_row["change_median"]) == (10, 8)
    assert rows_row["change_wins"] == 0
    assert rows_row["worse_than_bound"]
    assert bench_pairs.format_row(rows_row).endswith(
        "change wins 0/4 (gain not shown), WORSE THAN BOUND")


@pytest.mark.parametrize("change, shown", [
    # wins 10/10 by 0.2 against an IQR of 0.0475 (quantiles 3.0375, 3.085)
    ([2.85] * 10, True),
    # 9/10 is enough; the median still falls by 0.2
    ([2.85] * 9 + [3.5], True),
    # 8/10 is not, however far the median falls
    ([2.0] * 8 + [3.5] * 2, False),
    # a tie counts for neither side: 9 wins and one tie is still 9/10
    ([2.85] * 9 + [3.09], True),
    # 10/10, but the median beats the parent's by less than its IQR
    ([v - 0.01 for v in (3.0, 3.05, 3.04, 3.06, 3.09, 3.03, 3.1, 3.02, 3.07, 3.08)], False),
])
def test_gain_shown_needs_nine_wins_in_ten_and_a_gain_past_the_spread(change, shown):
    parent_runs = [3.0, 3.05, 3.04, 3.06, 3.09, 3.03, 3.1, 3.02, 3.07, 3.08]
    row = bench_pairs.summarise(METRICS[:1], [{"verify_s": v} for v in parent_runs],
                                [{"verify_s": v} for v in change])[0]
    assert row["gain_shown"] is shown
    assert bench_pairs.format_row(row).endswith(
        f"/10 (gain {'shown' if shown else 'not shown'})")


def test_gain_shown_where_higher_is_better():
    parent = [{"rows": r} for r in (10, 11, 10, 12, 11, 10, 11, 12, 10, 11)]
    row = bench_pairs.summarise(METRICS[1:], parent, [{"rows": 14}] * 10)[0]
    assert (row["change_wins"], row["gain_shown"]) == (10, True)
    row = bench_pairs.summarise(METRICS[1:], parent, [{"rows": 8}] * 10)[0]
    assert (row["change_wins"], row["gain_shown"]) == (0, False)


def test_fewer_than_two_pairs_is_a_usage_error(monkeypatch, capsys):
    # the parent's spread needs two runs: refused before any run, not after;
    # so are other bad arguments
    def fake_run(*args, **kwargs):
        pytest.fail("a child was started")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    root = str(_PATH.parents[1])  # its BENCHMARK.json is read, its code not run
    for argv in (["parent", "change", "verify", "1", "1"],
                 ["parent", "change", "verify", "x", "3"],
                 ["parent", "change", "verify", "1", "2.5"],
                 ["parent", "change", "verify", "1"],
                 # neither a workload of BENCHMARK.json nor a pseudo-workload
                 [root, root, "nosuch", "1", "2"]):
        assert bench_pairs.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", bench_pairs.__doc__.split("\n\n")[1] + "\n")
    # a change checkout without BENCHMARK.json: one line, not a traceback
    assert bench_pairs.main(["/nonexist-a", "/nonexist-b", "verify", "1", "2"]) == 2
    assert capsys.readouterr() == (
        "", "cannot read /nonexist-b/BENCHMARK.json: No such file or directory\n")


def test_worse_than_bound_only_past_the_bound():
    parent = [{"verify_s": 1.0}] * 4
    metrics = METRICS[:1]
    assert not bench_pairs.summarise(metrics, parent, [{"verify_s": 1.25}] * 4)[0]["worse_than_bound"]
    assert bench_pairs.summarise(metrics, parent, [{"verify_s": 1.26}] * 4)[0]["worse_than_bound"]


@pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n"])
def test_run_stops_on_a_last_line_that_is_not_json(monkeypatch, tmp_path, stdout):
    # a made-up child that exits 0 without its result line
    def fake_run(command, **kwargs):
        return subprocess.CompletedProcess(command, 0, stdout, "error: x\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.run_once(["perfbench"], tmp_path, "verify", 7, 1.0)
    assert str(stopped.value) == f"{tmp_path} seed=7 printed no JSON last line:\nerror: x\n"


@pytest.mark.parametrize("line, expected", [
    ("396 passed, 9 skipped in 19.71s", (396, 9, 0, 0, 19.71)),
    ("1 failed, 389 passed, 9 skipped, 2 warnings in 65.12s (0:01:05)", (389, 9, 1, 0, 65.12)),
    ("========= 390 passed, 1 error in 30.00s =========", (390, 0, 0, 1, 30.0)),
    ("2 errors in 0.50s", (0, 0, 0, 2, 0.5)),
])
def test_tier1_summary_line_is_parsed(line, expected):
    # made-up pytest output: progress dots, then the summary line last
    output = f"........s.... [100%]\n{line}\n"
    result = bench_pairs.parse_tier1(output)
    assert tuple(result[key] for key in ("passed", "skipped", "failed", "errors",
                                         "wall_s")) == expected


def test_tier1_without_a_summary_line_is_none():
    assert bench_pairs.parse_tier1("ERROR: usage: pytest [options]\n") is None
    assert bench_pairs.parse_tier1("no tests ran in 0.01s\n") is None


def test_tier1_run_stops_on_a_failure(monkeypatch, tmp_path):
    summary = "2 passed in 1.00s\n"

    def fake_run(command, **kwargs):
        assert command[1:] == bench_pairs.TIER1
        assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == "src"
        return subprocess.CompletedProcess(command, 0 if summary.startswith("2") else 1,
                                           summary, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_tier1(tmp_path)["wall_s"] == 1.0
    summary = "1 failed, 2 passed in 1.00s\n"
    with pytest.raises(SystemExit, match="tier1 exited 1"):
        bench_pairs.run_tier1(tmp_path)


def test_startup_is_the_median_of_fresh_processes(monkeypatch, tmp_path):
    # made-up timings: process k takes k ms, so the median of 11 is 6 ms
    clock = iter(x / 1000 for k in range(1, 12) for x in (0, k))
    started = []

    def fake_run(command, **kwargs):
        assert command[1:] == bench_pairs.STARTUP
        assert kwargs["cwd"] == tmp_path
        assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == "src"
        started.append(command)
        return subprocess.CompletedProcess(command, 0, "1 1\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs.time, "perf_counter", lambda: next(clock))
    result = bench_pairs.run_startup(tmp_path)
    assert len(started) == bench_pairs.STARTUP_RUNS == 11
    assert result == {"startup_ms": pytest.approx(6.0)}


def test_startup_bare_runs_the_same_children_without_site(monkeypatch, tmp_path):
    # made-up children; no process is started
    started = []

    def fake_run(command, **kwargs):
        assert command[1:] == ["-S", *bench_pairs.STARTUP]
        assert kwargs["cwd"] == tmp_path
        assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == "src"
        started.append(command)
        return subprocess.CompletedProcess(command, 0, "1 1\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    runner, command_text = bench_pairs.PSEUDO["startup_bare"]
    assert set(runner(tmp_path)) == {"startup_ms"}
    assert len(started) == bench_pairs.STARTUP_RUNS
    assert command_text == "PYTHONPATH=src python3 -S -m ulisperm.cli rank '2 1'"


@pytest.mark.parametrize("code, stdout", [(2, ""), (0, "1 2\n"), (0, "")])
def test_startup_stops_on_a_wrong_exit_or_output(monkeypatch, tmp_path, code, stdout):
    def fake_run(command, **kwargs):
        return subprocess.CompletedProcess(command, code, stdout, "error: x\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit, match=f"startup exited {code}"):
        bench_pairs.run_startup(tmp_path)


def test_suites_run_parses_the_last_line(monkeypatch, tmp_path):
    # made-up output of the child; no process is started
    best = {"suite.bijection_s": 0.31, "suite.oeis_s": 0.03}

    def fake_run(command, **kwargs):
        assert command[1:] == ["-c", bench_pairs.SUITES_SCRIPT]
        assert kwargs["cwd"] == tmp_path
        assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == "src"
        return subprocess.CompletedProcess(command, 0, f"{json.dumps(best)}\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_suites(tmp_path) == best
    assert "run_suite(name)" in bench_pairs.SUITES_SCRIPT
    assert f"range({bench_pairs.SUITES_RUNS})" in bench_pairs.SUITES_SCRIPT


def test_suites_run_stops_on_a_failing_suite(monkeypatch, tmp_path):
    def fake_run(command, **kwargs):
        return subprocess.CompletedProcess(command, 1, "", "verify lemma1 failed\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit, match="suites exited 1:\nverify lemma1 failed"):
        bench_pairs.run_suites(tmp_path)


@pytest.mark.parametrize("stdout", ["", "no line of JSON\n"])
def test_suites_run_stops_on_a_last_line_that_is_not_json(monkeypatch, tmp_path, stdout):
    def fake_run(command, **kwargs):
        return subprocess.CompletedProcess(command, 0, stdout, "Killed\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit, match="suites printed no JSON last line:\nKilled"):
        bench_pairs.run_suites(tmp_path)


@pytest.mark.parametrize("workload, runs, rows, last", [
    # the change's median is 91.0 against 90.0, but no bound applies
    pytest.param(
        "startup", [{"startup_ms": v} for v in (90.0, 88.0, 91.0, 89.5, 95.0, 130.0)],
        ["startup_ms: parent 90 ms (spread 0.061), change 91, "
         "change wins 1/3 (gain not shown)"],
        '{"workload": "startup", "startup": {"parent": {"command": '
        '"PYTHONPATH=src python3 -m ulisperm.cli rank \'2 1\'", "startup_ms": [90.0, 89.5, 95.0]}, '
        '"change": {"command": "PYTHONPATH=src python3 -m ulisperm.cli rank \'2 1\'", '
        '"startup_ms": [88.0, 91.0, 130.0]}}}',
        id="startup"),
    # one row per suite; a slower suite is not flagged, since no bound
    # applies, and 3 wins in 3 pairs show no gain: that needs 10 pairs
    pytest.param(
        "suites", [{"suite.bijection_s": b, "suite.injection-f_s": f}
                   for b, f in [(0.60, 1.10), (0.35, 1.12), (0.34, 1.08), (0.63, 1.11),
                                (0.62, 1.50), (0.36, 1.20)]],
        ["suite.bijection_s: parent 0.62 s (spread 0.048), change 0.35, "
         "change wins 3/3 (gain not shown)",
         "suite.injection-f_s: parent 1.11 s (spread 0.360), change 1.12, "
         "change wins 2/3 (gain not shown)"],
        '{"workload": "suites", "suites": {"parent": {"command": '
        '"PYTHONPATH=src python3 -c SUITES_SCRIPT", "suite.bijection_s": [0.6, 0.63, 0.62], '
        '"suite.injection-f_s": [1.1, 1.11, 1.5]}, "change": {"command": '
        '"PYTHONPATH=src python3 -c SUITES_SCRIPT", "suite.bijection_s": [0.35, 0.34, 0.36], '
        '"suite.injection-f_s": [1.12, 1.08, 1.2]}}}',
        id="suites"),
    # the counts are each side's first run's, after the wall times, as in the
    # tier1 entry of the BENCH_*.json files
    pytest.param(
        "tier1", [{"passed": p, "skipped": 9, "wall_s": w}
                  for p, w in [(427, 27.1), (427, 27.5), (428, 26.2), (428, 26.4),
                               (428, 28.0), (428, 30.2)]],
        ["wall_s: parent 27.1 s (spread 0.059), change 27.5, "
         "change wins 1/3 (gain not shown)"],
        '{"workload": "tier1", "tier1": {"parent": {"command": "PYTHONPATH=src python -m pytest '
        '-q --continue-on-collection-errors", "wall_s": [27.1, 26.4, 28.0], "passed": 427, '
        '"skipped": 9}, "change": {"command": "PYTHONPATH=src python -m pytest -q '
        '--continue-on-collection-errors", "wall_s": [27.5, 26.2, 30.2], "passed": 427, '
        '"skipped": 9}}}',
        id="tier1"),
])
def test_pseudo_workload_summary_is_reported_not_gated(monkeypatch, capsys, workload, runs,
                                                       rows, last):
    # made-up runs in the order they start; no process is started
    started = iter(runs)
    monkeypatch.setitem(bench_pairs.PSEUDO, workload,
                        (lambda checkout: next(started), bench_pairs.PSEUDO[workload][1]))
    root = str(_PATH.parents[1])  # its BENCHMARK.json is read, its code not run
    assert bench_pairs.main([root, root, workload, "1", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    # pair 0 runs the parent first, pair 1 the change, pair 2 the parent
    assert out[:6] == [f"{side} pair={i} {json.dumps(run)}" for (side, i), run in zip(
        [("parent", 0), ("change", 0), ("change", 1), ("parent", 1), ("parent", 2),
         ("change", 2)], runs)]
    assert out[6:] == [*rows, last]


@pytest.mark.parametrize("change_failed, change_attempted, flagged", [
    # per run, the parent fails 2 of 1 000 operations
    (3, 1_000, True),
    (2, 1_000, False),
    # the same count out of more operations is a smaller share
    (2, 1_100, False),
    # a smaller count out of fewer operations can still be a larger share
    (1, 400, True),
    (0, 1_000, False),
])
def test_a_larger_share_failed_is_marked_and_exits_1(monkeypatch, capsys, change_failed,
                                                       change_attempted, flagged):
    # made-up runs of two pairs, every metric 1.0 on both sides; no process is
    # started
    root = _PATH.parents[1]  # its BENCHMARK.json is read, its code not run
    names = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
    sides = iter(["parent", "change", "change", "parent"])  # pair 1 runs the change first

    def fake_run_once(command, checkout, workload, seed, seconds):
        failed, attempted = (2, 1_000) if next(sides) == "parent" else (
            change_failed, change_attempted)
        return {"failed": failed, "attempted": attempted,
                "metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    assert bench_pairs.main([str(root), str(root), "verify", "1", "2"]) == int(flagged)
    out = capsys.readouterr().out.splitlines()
    totals = f"{2 * change_failed}/{2 * change_attempted}"
    # four run lines, then one total per side
    assert out[4:6] == ["parent: failed/attempted = 4/2000",
                       f"change: failed/attempted = {totals}"
                       + (", LARGER SHARE FAILED" if flagged else "")]
    assert json.loads(out[-1])["workload"] == "verify"
