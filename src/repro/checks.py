"""Range checks shared by every layer: one home, one wording.

Each check refuses a value outside its range with a ``ValueError`` that
names the field.  A float or a bool is refused where an int is meant —
``2.7`` devices or layers would otherwise run as 2 or 3 — and NaN
fails every real-valued range.
"""

from __future__ import annotations

import numbers


def check_count(name: str, value: object, least: int) -> None:
    """Refuse a ``value`` that is not an int ``>= least``.

    ``int`` and ``np.integer`` (a wire-decoded count) pass.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < least
    ):
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def check_depth(depth: object, limit: int, name: str = "depth") -> None:
    """Refuse a ``depth`` — or another count of kept parts — that is not
    an int in ``[1, limit]``."""
    check_count(name, depth, 1)
    if depth > limit:
        raise ValueError(f"{name} must be in [1, {limit}], got {depth}")


def check_width(width: object, name: str = "width") -> None:
    """Refuse a width factor ``w`` that is not a real number in ``(0, 1]``."""
    if isinstance(width, bool) or not isinstance(width, numbers.Real) or not 0.0 < width <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {width}")


def check_unit_interval(name: str, value: object) -> None:
    """Refuse a ``value`` that is not a real number in ``[0, 1]``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
