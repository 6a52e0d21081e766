"""Tolerant environment-variable parsing shared across the runtime.

Configuration knobs (`REPRO_SMOKE_TIMEOUT`, `REPRO_COMPILE_RETRIES`,
the disk-cache bound, ...) are read at call sites deep in the compile
path, where a malformed value must never abort a kernel build.  These
helpers warn once per lookup and fall back to the documented default
instead of raising.
"""

from __future__ import annotations

import os
import warnings

__all__ = ["env_float", "env_int"]


def _clamp(value, minimum):
    if minimum is not None and value < minimum:
        return minimum
    return value


def env_float(name: str, default: float,
              minimum: float | None = None) -> float:
    """``float(os.environ[name])`` with a warn-and-default fallback."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return _clamp(float(raw), minimum)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={raw!r}; using default {default}",
            RuntimeWarning, stacklevel=2)
        return default


def env_int(name: str, default: int, minimum: int | None = None) -> int:
    """``int(os.environ[name])`` with a warn-and-default fallback."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return _clamp(int(raw), minimum)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={raw!r}; using default {default}",
            RuntimeWarning, stacklevel=2)
        return default
