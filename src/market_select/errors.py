"""Exception types shared across the package, and the finite-number
check that the config dataclasses share.

The CLI maps these onto exit codes: ValidationError -> 1 (data or
invariant violations), ConfigError -> 2 (unusable configuration or I/O).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np


class MarketSelectError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MarketSelectError):
    """Input data or a domain invariant is violated (exit code 1)."""


class ConfigError(MarketSelectError):
    """Configuration, file format, or I/O problem (exit code 2)."""


def require_finite(name: str, value: Any) -> None:
    """Reject a numeric config value that is not a finite number; NaN or
    inf would defeat the clipping and ranking downstream and could not be
    written to an artifact."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
