"""Exception types shared across the package, and the one length check that
raises them."""

from __future__ import annotations


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
