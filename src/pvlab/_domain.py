"""The one domain rule for each kind of input: sizes, counts and seeds are
integers (numpy integers pass, a bool or a float is refused, not counted or
truncated), and a sparsity rho is a real number in (0, 1].  Each check
raises ValueError naming the argument.  `_check_integer` returns the value
as a Python int, which each door keeps: arithmetic on a numpy fixed-width
integer wraps (`np.uint8(255) + 1` is 0)."""

from __future__ import annotations

import numbers


def _check_integer(name: str, value, low: int | None = None) -> int:
    """int(value), for an integer that is not a bool, and at least `low` if
    given."""
    if (
        not isinstance(value, numbers.Integral)
        or isinstance(value, bool)
        or (low is not None and value < low)
    ):
        kind = {None: "an integer", 0: "a non-negative integer"}.get(low, f"an integer >= {low}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _check_rho(rho, name: str = "rho") -> None:
    """rho is a real number that is not a bool, in (0, 1]; NaN is refused."""
    if not isinstance(rho, numbers.Real) or isinstance(rho, bool) or not 0 < rho <= 1:
        raise ValueError(f"{name} must be in (0, 1], got {rho!r}")
