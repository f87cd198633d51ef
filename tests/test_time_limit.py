import gc
import signal
import sys
from types import SimpleNamespace

import pytest


def _gc_callback(phase, info):
    pass


def test_time_limit_raises_only_where_pytest_can_report_it():
    # the handler `conftest._time_limit` armed for this test's call phase
    expire = signal.getsignal(signal.SIGALRM)
    assert callable(expire)
    in_callback = SimpleNamespace(f_lineno=1, f_code=_gc_callback.__code__, f_back=None)
    called_from_callback = SimpleNamespace(
        f_lineno=1, f_code=test_time_limit_raises_only_where_pytest_can_report_it.__code__,
        f_back=in_callback)
    gc.callbacks.append(_gc_callback)
    try:
        for frame in (None, SimpleNamespace(f_lineno=None, f_code=None, f_back=None),
                      in_callback, called_from_callback):
            assert expire(signal.SIGALRM, frame) is None
        with pytest.raises(TimeoutError):
            expire(signal.SIGALRM, sys._getframe())
    finally:
        gc.callbacks.remove(_gc_callback)
