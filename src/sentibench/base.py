"""Checks and file plumbing shared across the toolkit: the fitted-state,
hyperparameter and artifact-count checks, and the one JSON file writer
and reader behind every artifact and report.
"""

from __future__ import annotations

import json
import sys
from numbers import Integral, Real

from .errors import SentibenchError


def check_fitted(obj, attribute: str) -> None:
    """Raise if ``fit`` has not populated the given attribute yet."""
    if getattr(obj, attribute, None) is None:
        raise RuntimeError(
            f"{type(obj).__name__} is not fitted yet; call fit() before use"
        )


def check_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``minimum``."""
    # type() first: a tree artifact checks tens of thousands of counts, and the
    # Integral check (an ABC) costs about 1 us a call
    if (
        type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral))
    ) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_float(name: str, value, minimum: float, *, inclusive: bool = False) -> None:
    """Raise ValueError unless ``value`` is a finite real number (not a bool)
    above ``minimum``, or equal to it when ``inclusive``. NaN fails every
    comparison, so a bare ``value <= minimum`` test would let it through;
    the bound test also fails an int too large for a float, where
    ``math.isfinite`` would raise OverflowError."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not abs(value) <= sys.float_info.max
        or value < minimum
        or (value == minimum and not inclusive)
    ):
        bound = ">=" if inclusive else ">"
        raise ValueError(f"{name} must be a finite number {bound} {minimum}, got {value!r}")


def write_json(path, payload) -> None:
    """Deterministic JSON file: sorted keys, indent 1, trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def read_json(path, what: str, error: type[SentibenchError]):
    """Parse a JSON file; an unreadable file, text that is not UTF-8, invalid
    JSON or nesting too deep to decode raises ``error``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {what} {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError: JSON or UTF-8 decoding
        raise error(f"{path}: invalid JSON: {exc}") from exc
