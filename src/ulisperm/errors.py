"""Exception types shared across the package, the one length check that
raises them, and the one switch for Python's integer digit limit."""

from __future__ import annotations

import contextlib
import sys
import threading
from typing import Iterator


class InputError(ValueError):
    """Rejected input: bad arguments, malformed text, or a cap exceeded."""


def _check_length(what: str, n: int, low: int, cap: int) -> None:
    """Reject n outside low..cap before any work; a cap is a default that a
    higher one overrides, and the message says so."""
    if n < low:
        raise InputError(f"{what} needs n >= {low}, got {n}")
    if n > cap:
        raise InputError(
            f"{what} capped at n = {cap} (requested {n}); pass a higher cap to override"
        )


# Python 3.10.7+ caps int/str conversion at 4300 digits for the whole
# process, so lifting it is shared state: the first block to enter saves the
# limit and the last to leave restores it, under one lock.
_digit_lock = threading.Lock()
_digit_holders = 0
_digit_saved = 0


@contextlib.contextmanager
def _whole_integers() -> Iterator[None]:
    """Let int() and str() convert integers of any size while the package
    reads or writes values whose size it does not choose, such as a b-file
    term or catalan(7153) with 4301 digits.  The limit is restored when the
    last such block, in any thread, exits, so parsing command-line input
    stays limited; on Pythons without the limit this does nothing."""
    global _digit_holders, _digit_saved
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    with _digit_lock:
        if not _digit_holders:
            _digit_saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        _digit_holders += 1
    try:
        yield
    finally:
        with _digit_lock:
            _digit_holders -= 1
            if not _digit_holders:
                sys.set_int_max_str_digits(_digit_saved)


class SequenceValidationError(InputError):
    """A candidate rank sequence violates one of the membership conditions.

    Machine-readable: `condition` is a short identifier and `position` is the
    1-based index at which the violation was detected.
    """

    def __init__(self, condition: str, position: int, message: str):
        super().__init__(message)
        self.condition = condition
        self.position = position


class ConstructionError(RuntimeError):
    """An internal construction reached a state that valid input cannot produce.

    Raised instead of silently returning garbage; seeing this exception on
    validated input means a bug in the construction itself.
    """
