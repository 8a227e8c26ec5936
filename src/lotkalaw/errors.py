"""Exception hierarchy shared by the library and the command line tool."""

from numbers import Integral


class LotkaLawError(Exception):
    """Base class for every error this package raises on purpose."""


class DataError(LotkaLawError):
    """Malformed or out-of-domain input: bad records, bad tables, bad values."""


class NumericError(LotkaLawError):
    """A computation cannot proceed: degenerate regression, divergent series."""


def _require_int(name: str, value: object, minimum: int | None = None) -> None:
    """Raise DataError unless ``value`` is an int or numpy integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DataError(f"{name} must be >= {minimum}, got {value}")
