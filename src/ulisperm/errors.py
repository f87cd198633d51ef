"""Exception types shared across the package, the one length check that
raises them, the caps and names the command line shows before a command
runs, and exact conversions between integers and decimal text for values
whose size the package does not choose.  Python 3.10.7+ limits int() and
str() to 4300 digits by default; these conversions never read or set that
limit."""

from __future__ import annotations


# Defined here, not in the modules that use them (each re-exports its own),
# so that building the command line's parser loads none of those modules.
SEQUENCE_CAP = 12  # of rank-sequence walks: catalan(12) = 208012 sequences
DP_CAP = 300  # of the dp census engine
SUITE_NAMES = ("bijection", "lemma1", "injection-f", "injection-g",
               "characterization", "catalan", "oeis")  # verify's suites, in order
FIXTURE_ID = "A167995"  # the one OEIS b-file bundled with the package
CACHE_ENV_VAR = "ULISPERM_OEIS_CACHE_DIR"


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
    return str(_Decimal(value))


def _Decimal(value: int):
    """`decimal.Decimal(value)`.  The first call imports decimal and rebinds
    this name to `Decimal`, so a command that prints no such integer (rank,
    map, a listing) never loads it, and later calls pay no import."""
    global _Decimal
    from decimal import Decimal as _Decimal

    return _Decimal(value)


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
