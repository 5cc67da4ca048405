"""Exception hierarchy shared by all sclflow modules, and the integer check
on input values.

The CLI maps these onto exit codes: InputError -> 2, LimitExceeded -> 3,
InternalCheckError -> 4.
"""

from fractions import Fraction


class SclflowError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SclflowError):
    """Malformed or invalid input (bad word syntax, dimension mismatch, ...)."""


class ParseError(InputError):
    """Word text does not match the grammar; message names the offending token."""


class PromiseViolation(InputError):
    """A promise-problem input does not satisfy its promise."""


class LimitExceeded(SclflowError):
    """Requested computation exceeds a configured size cap; refused, not attempted."""


class InternalCheckError(SclflowError):
    """An internal invariant that should hold by theorem failed; indicates a bug."""


def as_int(v) -> int:
    """v as an int, for an int (not a bool) or a Fraction with denominator
    one; anything else, a float among them, is refused, not truncated."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    raise InputError(f"expected an integer, got {v!r}")
