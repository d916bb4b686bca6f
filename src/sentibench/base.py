"""Checks and file plumbing shared across the toolkit: the fitted-state,
hyperparameter and artifact-count checks, and the one JSON file writer
and reader behind every artifact and report.
"""

from __future__ import annotations

import json
import sys
from numbers import Integral, Real

import numpy as np

from .errors import SentibenchError


def check_fitted(obj, attribute: str) -> None:
    """Raise if ``fit`` has not populated the given attribute yet."""
    if getattr(obj, attribute, None) is None:
        raise RuntimeError(
            f"{type(obj).__name__} is not fitted yet; call fit() before use"
        )


def check_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_ints(name: str, values, minimum: int) -> np.ndarray:
    """A JSON list of integers (not bools) >= ``minimum`` as int64, else ValueError."""
    if type(values) is not list or not set(map(type, values)) <= {int}:
        raise ValueError(f"{name} must be a list of integers")
    array = np.array(values, dtype=np.int64)
    if array.size and array.min() < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {array.min()}")
    return array


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


def write_json(path, payload, compact: bool = False) -> None:
    """Deterministic JSON file: sorted keys, trailing newline, and indent 1,
    or compact for artifacts (json encodes only that form in C)."""
    text = json.dumps(payload, sort_keys=True, indent=None if compact else 1,
                      separators=(",", ":") if compact else None)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


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
