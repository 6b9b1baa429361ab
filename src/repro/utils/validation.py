"""Small argument-validation helpers shared across the package.

These keep public constructors terse while producing consistent error
messages — important for a library surface with many numeric knobs.
"""

from __future__ import annotations

import math

__all__ = [
    "check_positive",
    "check_finite_positive",
    "check_non_negative",
    "check_probability",
    "check_fraction",
]


def check_positive(name: str, value) -> float:
    """Return ``value`` as float, requiring it to be > 0."""
    v = float(value)
    if not v > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return v


def check_finite_positive(name: str, value) -> float:
    """Return ``value`` as float, requiring 0 < value < inf (nan fails)."""
    v = float(value)
    if not 0 < v < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return v


def check_non_negative(name: str, value) -> float:
    """Return ``value`` as float, requiring it to be >= 0."""
    v = float(value)
    if v < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return v


def check_probability(name: str, value) -> float:
    """Return ``value`` as float, requiring 0 <= value <= 1."""
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return v


def check_fraction(name: str, value) -> float:
    """Return ``value`` as float, requiring 0 < value < 1."""
    v = float(value)
    if not 0.0 < v < 1.0:
        raise ValueError(f"{name} must be a fraction in (0, 1), got {value!r}")
    return v
