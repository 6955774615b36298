"""Empirical cumulative distribution functions."""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import ReproError


class CDF:
    """An empirical CDF over a sample of numbers."""

    def __init__(self, values: Iterable[float]) -> None:
        self._values: List[float] = sorted(float(v) for v in values)
        if not self._values:
            raise ReproError("CDF needs a non-empty sample")

    def __len__(self) -> int:
        return len(self._values)

    def at(self, x: float) -> float:
        """P(X <= x)."""
        # Binary search for the rightmost value <= x.
        lo, hi = 0, len(self._values)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._values[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(self._values)

    def percentile(self, fraction: float) -> float:
        """Inverse CDF with linear interpolation, fraction in [0, 1]."""
        if not 0.0 <= fraction <= 1.0:
            raise ReproError(f"fraction {fraction} outside [0, 1]")
        if len(self._values) == 1:
            return self._values[0]
        index = fraction * (len(self._values) - 1)
        low = int(index)
        high = min(low + 1, len(self._values) - 1)
        weight = index - low
        return self._values[low] * (1 - weight) + self._values[high] * weight

    @property
    def median(self) -> float:
        return self.percentile(0.5)

    @property
    def mean(self) -> float:
        return sum(self._values) / len(self._values)

    @property
    def min(self) -> float:
        return self._values[0]

    @property
    def max(self) -> float:
        return self._values[-1]
