"""Checks and file plumbing shared across the toolkit: the fitted-state
and hyperparameter checks, the one decoder of an artifact's number lists,
and the one JSON file writer and reader behind every artifact and report.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
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


def decode_array(name: str, values, shape: tuple[int, ...], *, integer: bool = False,
                 minimum: int | None = None) -> np.ndarray:
    """Artifact JSON lists nested to exactly ``shape`` as a float64 array, or
    int64 if ``integer``; a leaf that is not a finite JSON number (an integer
    if ``integer``; never a bool) or is below ``minimum`` raises ValueError.
    Each level is checked, then flattened: numpy converts one flat list."""
    flat = [values]
    for size in shape:
        if not (set(map(type, flat)) <= {list} and set(map(len, flat)) <= {size}):
            raise ValueError(f"{name} must be lists nested to shape {shape}")
        flat = flat[0] if len(flat) == 1 else list(chain.from_iterable(flat))
    if not set(map(type, flat)) <= ({int} if integer else {int, float}):
        raise ValueError(f"{name} must hold {'integers' if integer else 'finite numbers'} only")
    array = np.array(flat, dtype=np.int64 if integer else np.float64).reshape(shape)
    if not (integer or np.isfinite(array).all()):
        raise ValueError(f"{name} holds a value that is not finite")
    if minimum is not None and array.size and array.min() < minimum:
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'} "
                         f">= {minimum}, got {array.min()}")
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
