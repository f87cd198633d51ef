import json
from pathlib import Path

import pytest

import reference
import run
from parts import Op, run_ops
from tracer import Tracer, load_spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small():
    """A few cheap commands covering every layer, with the benchmark's own
    checks on the long_inputs ones."""
    cli, parts = run.setup(4, "long_inputs")
    accept = lambda result, latest: result.code == 0  # noqa: E731
    ops = [
        Op("census_dp", ["census", "--max-n", "20"], accept),
        Op("census_enum", ["census", "--max-n", "6", "--engine", "enumerative"], accept),
        Op("verify", ["verify", "injection-g", "--max-n", "6"], accept),
        Op("verify", ["verify", "catalan", "--max-n", "6"], accept),
        Op("verify", ["verify", "oeis", "--max-n", "5"], accept),
    ] + parts["long_inputs"][:8]
    return cli, ops


def traced_run(cli, ops):
    tracer = Tracer()
    tracer.install()
    try:
        results, failed = run_ops(cli.main, ops, tracer)
    finally:
        tracer.uninstall()
    return tracer, results, failed


def test_exact_counts_repeat(small):
    cli, ops = small
    first, _, failed_first = traced_run(cli, ops)
    second, _, failed_second = traced_run(cli, ops)
    assert failed_first == failed_second == 0
    assert first.names == second.names
    assert first.calls == second.calls
    assert first.positive == second.positive
    assert first.generators == second.generators
    assert first.spans["name"] == second.spans["name"]
    assert first.spans["parent"] == second.spans["parent"]


def test_tracing_leaves_stdout_and_library_alone(small):
    cli, ops = small
    main = cli.main
    plain, failed_plain = run_ops(main, ops)
    tracer, traced, failed_traced = traced_run(cli, ops)
    assert cli.main is main
    assert failed_plain == failed_traced == 0
    assert [r.out for r in plain] == [r.out for r in traced]
    assert tracer.count("permutations.contains_pattern") > 0
    assert tracer.count("census.census_enumerative") == 6


def test_spans_nest_and_self_times_add_up(small, tmp_path: Path):
    cli, ops = small
    tracer, results, _ = traced_run(cli, ops)
    tracer.dump(tmp_path, "t", [op.argv for op in ops])
    index, spans = load_spans(tmp_path, "t")
    assert index["count"] == len(spans["name"]) > 0
    root_ns = 0
    for i in range(index["count"]):
        parent = spans["parent"][i]
        assert spans["start_ns"][i] <= spans["end_ns"][i]
        if parent < 0:
            assert index["names"][spans["name"][i]] == "cli.main"
            root_ns += spans["end_ns"][i] - spans["start_ns"][i]
            continue
        assert spans["op"][i] == spans["op"][parent]
        assert spans["start_ns"][parent] <= spans["start_ns"][i]
        assert spans["end_ns"][i] <= spans["end_ns"][parent]
    assert sum(tracer.self_ns) == root_ns
    assert root_ns / 1e9 <= sum(r.seconds for r in results)


def test_wrong_output_counts_as_failed(small):
    cli, _ = small
    _, parts = run.setup(4, "long_inputs")
    rank_op = next(op for op in parts["long_inputs"] if op.kind == "rank_other")
    verify_op = parts["verify"][0]

    def lying(argv):
        print("1 2 3")
        return 0

    def crashing(argv):
        raise RuntimeError("boom")

    for main in (lying, crashing):
        _, failed = run_ops(main, [rank_op, verify_op])
        assert failed == 2

    def silent(argv):  # right ranks, but no warning that the input contains 132
        print(" ".join(map(str, reference.start_ranks([int(v) for v in argv[-1].split()]))))
        return 0

    _, failed = run_ops(silent, [rank_op])
    assert failed == 1
    _, failed = run_ops(cli.main, [rank_op, verify_op])
    assert failed == 0


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
