"""Exception types shared across the package, the one length check that
raises them, and exact conversions between integers and decimal text for
values whose size the package does not choose.  Python 3.10.7+ limits int()
and str() to 4300 digits by default; these conversions never read or set
that limit."""

from __future__ import annotations

from decimal import Decimal


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


def _int_text(value: int) -> str:
    """str(value) for an integer of any size, such as catalan(7153) with 4301
    digits: Decimal's conversion is exact and not under the digit limit."""
    return str(Decimal(value))


def _text_int(token: str) -> int:
    """int(token) for a run of ASCII digits of any length.  A longer run is
    read in halves until each piece has at most 640 digits, the least limit
    Python allows (sys.int_info.str_digits_check_threshold); any other token
    goes to int() whole, with its grammar and its limit."""
    if len(token) <= 640 or not (token.isascii() and token.isdigit()):
        return int(token)
    half = len(token) // 2
    low = token[half:]
    return _text_int(token[:half]) * 10 ** len(low) + _text_int(low)


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
