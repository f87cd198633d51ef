import contextlib
import gc
import importlib
import os
import pkgutil
import signal
import sys
from pathlib import Path

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


@pytest.fixture
def child_env():
    """The environment of a new interpreter that imports this checkout's
    package: PYTHONPATH is the checkout's `src`, then the caller's."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def record_calls(monkeypatch):
    """`record_calls(module, name)` replaces the function `module.name` at
    every binding of it in every `ulisperm` module, found by identity under
    any name, and returns the list that each call's first argument is then
    appended to.  A caller that binds the function in a module of its own is
    counted too, so moving a binding cannot make a count read 0 unnoticed."""
    def record(module, name):
        import ulisperm

        real = getattr(module, name)
        calls = []

        def recording(first, *args, **kwargs):
            calls.append(first)
            return real(first, *args, **kwargs)

        # every module, so that none a command loads later keeps the original
        for info in pkgutil.iter_modules(ulisperm.__path__):
            importlib.import_module(f"ulisperm.{info.name}")
        for module_name, namespace in list(sys.modules.items()):
            if module_name.split(".")[0] == "ulisperm":
                for attr, obj in list(vars(namespace).items()):
                    if obj is real:
                        monkeypatch.setattr(namespace, attr, recording)
        return calls

    return record


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
    up before any function-scoped one.

    The error is raised only where pytest can report it: not with no frame
    or a frame without a line number (its traceback entry would break the
    report), and not inside a garbage-collection callback, where it would be
    unraisable.  There the timer just fires again a second later."""
    if item.get_closest_marker("slow"):
        yield
        return

    def expire(signum, frame):
        if frame is None or frame.f_lineno is None:
            return
        callbacks = {getattr(callback, "__code__", None) for callback in gc.callbacks}
        caller = frame
        while caller is not None:
            if caller.f_code in callbacks:
                return
            caller = caller.f_back
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
