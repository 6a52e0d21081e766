"""Percentiles, geometric means and host-state selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# A spin faster than this multiple of the run's 1st-percentile spin reads
# the fast state.  The two states are ~1.65x apart, so the cut sits
# between them; on a host with one state every spin reads "fast".
FAST_CUT = 1.3
# The warm and simulator phases run on until every probe has at least
# this many fast-state samples.
MIN_SELECTED = 20


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class Series:
    """Timed samples of one probe, each with the spins that bracket it."""

    values: list = field(default_factory=list)
    before: list = field(default_factory=list)
    after: list = field(default_factory=list)

    def add(self, value: float, before: int = 0, after: int = 0) -> None:
        """One sample; without its spins it always counts as fast."""
        self.values.append(value)
        self.before.append(before)
        self.after.append(after)

    def __len__(self) -> int:
        return len(self.values)

    def _bracket(self) -> np.ndarray:
        """Per sample, the slower of its two bracketing spins."""
        return np.maximum(np.asarray(self.before, dtype=np.int64),
                          np.asarray(self.after, dtype=np.int64))

    def fast(self, cut: float) -> int:
        """How many samples have both bracketing spins in the fast state."""
        return int(np.count_nonzero(self._bracket() <= cut))

    def selected(self, cut: float) -> np.ndarray:
        """The samples whose two bracketing spins both read the fast
        host state, and never fewer than ``MIN_SELECTED``: if the host
        spent nearly all of a run in its slow state, the ``MIN_SELECTED``
        samples with the fastest brackets, so that every probe reports."""
        values = np.asarray(self.values, dtype=np.float64)
        order = np.argsort(self._bracket(), kind="stable")
        return values[order[:max(self.fast(cut), MIN_SELECTED)]]


def fast_cut(spins) -> float:
    return FAST_CUT * float(np.percentile(np.asarray(spins,
                                                     dtype=np.float64), 1))
