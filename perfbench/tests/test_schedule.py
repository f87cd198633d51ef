import signal
import time

import pytest

import run
import speed
from inputs import KINDS, LENGTHS
from parts import CUBIC, LIGHT_LENGTH_STEP, PARTS, Op, build_parts


def test_scaled_drops_loop_time_and_scales_by_nearby_loops():
    s = speed.Speed()
    nominal = speed.NOMINAL_S
    s.at = [0.0, 0.5, 1.0, 1.05, 3.0]
    s.seconds = [9 * nominal, 2 * nominal, 2 * nominal, 2 * nominal, 9 * nominal]
    # a command from 0.95 s to 1.15 s: two loop timings inside it, none of the slow ones near
    scaled, wall = s.scaled(0.95, 0.2)
    assert wall == pytest.approx(0.2 - 4 * nominal)
    assert scaled == pytest.approx(wall / 2)


def test_timer_samples_and_is_stopped():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Speed() as s:
        deadline = time.perf_counter() + 10 * speed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(s.at) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_each_workload_runs_its_part_full_and_the_others_light():
    for workload in PARTS:
        parts = build_parts(4, workload)
        census = [op.argv[2] for op in parts["census"]]
        assert census == (["300", "12"] if workload == "census" else ["150", "10"])
        full_verify = all("--max-n" not in op.argv for op in parts["verify"])
        assert len(parts["verify"]) == 7 and full_verify == (workload == "verify")
        for kind in KINDS:
            count = sum(op.kind == kind for op in parts["long_inputs"])
            light = workload != "long_inputs" and kind in CUBIC
            assert count == (len(LENGTHS[::LIGHT_LENGTH_STEP]) if light else len(LENGTHS))


def test_passes_share_the_run_and_end_on_time():
    def busy(argv):
        deadline = time.perf_counter() + 0.002
        while time.perf_counter() < deadline:
            pass
        return 0

    accept = lambda result, latest: result.code == 0  # noqa: E731
    parts = {part: [Op(part, [part], accept)] * 5 for part in PARTS}
    started = time.perf_counter()
    scaled, wall, attempted, failed = run.run_passes(busy, parts, "verify", 1.0)
    assert time.perf_counter() - started < 1.0 + 0.1
    assert failed == 0 and attempted == sum(len(v) for v in wall.values())
    assert set(wall) == set(PARTS)
    # equal passes: the focus part's share is FOCUS_SHARE, the others split the rest
    others = max(len(wall["census"]), len(wall["long_inputs"]))
    expected = run.FOCUS_SHARE / ((1 - run.FOCUS_SHARE) / 2)
    assert 0.75 * expected * others <= len(wall["verify"]) <= 1.25 * expected * others
    assert all(s > 0 for samples in scaled.values() for s in samples)
