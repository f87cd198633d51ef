import contextlib
import signal

import pytest

# Wall-clock limit of each phase (setup, call, teardown) of a test not marked
# slow.  The slowest such test takes a few seconds, so a phase past the limit
# is taken to be looping (say, an enumerator that never ends) and fails
# instead of hanging the run.
TEST_TIME_LIMIT_S = 120


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="also run tests marked slow (minutes of brute force)",
    )
    parser.addoption(
        "--run-network",
        action="store_true",
        default=False,
        help="also run tests marked network (they fetch from oeis.org)",
    )


def pytest_collection_modifyitems(config, items):
    for marker, option in (("slow", "--run-slow"), ("network", "--run-network")):
        if config.getoption(option):
            continue
        skip = pytest.mark.skip(reason=f"needs {option}")
        for item in items:
            if marker in item.keywords:
                item.add_marker(skip)


@contextlib.contextmanager
def _time_limit(item):
    """Raise `TimeoutError` in a phase that runs past `TEST_TIME_LIMIT_S`, and
    again every second after, so that a hypothesis shrink of the failure
    cannot hang in its turn.  Armed per phase rather than by a fixture, so it
    also covers the module-scoped fixtures a test sets up, which pytest sets
    up before any function-scoped one."""
    if item.get_closest_marker("slow"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test phase ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with _time_limit(item):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _time_limit(item):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    with _time_limit(item):
        return (yield)
