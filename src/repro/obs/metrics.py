"""Metrics registry: named counters, gauges and histograms.

The registry is the numeric side of `repro.obs`: where the event bus
records *what happened*, the registry accumulates *how much and how
long*.  Snapshots are deterministic — every mapping is emitted with
sorted keys and histogram buckets in ascending bound order — so two runs
of the same seed produce byte-identical JSON, and metrics files diff as
cleanly as event logs.

:class:`~repro.runner.stats.RunStats` (the accounting object every
experiment driver already threads through) is now a thin bridge over a
registry: its counters are registry counters and its phase timers are
registry histograms, so one snapshot captures both the driver's phase
timers and anything the event bus recorded.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Tuple

#: Default histogram bounds, in simulation seconds: spans probe-scale
#: latencies through BGP convergence through repair-lifecycle phases.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.5, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0
)


class Counter:
    """Monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount


class Gauge:
    """Last-write-wins named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus-style ``le`` semantics)."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total")

    def __init__(
        self, name: str, buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        #: per-bound non-cumulative counts plus the +Inf overflow slot.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


class MetricsRegistry:
    """Get-or-create home for every named metric in one run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Get-or-create + convenience recorders
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, buckets: Optional[Tuple[float, ...]] = None
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return histogram

    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_values(self) -> Dict[str, float]:
        """Name -> value, sorted by name."""
        return {
            name: self._counters[name].value
            for name in sorted(self._counters)
        }

    def gauge_values(self) -> Dict[str, float]:
        return {
            name: self._gauges[name].value for name in sorted(self._gauges)
        }

    def histogram_totals(self) -> Dict[str, float]:
        """Name -> cumulative observed total (the timer-sum view)."""
        return {
            name: self._histograms[name].total
            for name in sorted(self._histograms)
        }

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic, JSON-ready view of every metric.

        All keys sorted; histogram buckets ascending with ``"+Inf"`` last
        — byte-identical across runs of the same seed.
        """
        histograms: Dict[str, Any] = {}
        for name in sorted(self._histograms):
            hist = self._histograms[name]
            histograms[name] = {
                "buckets": [
                    ["+Inf" if bound == float("inf") else bound, n]
                    for bound, n in hist.cumulative()
                ],
                "count": hist.count,
                "sum": round(hist.total, 9),
            }
        return {
            "counters": self.counter_values(),
            "gauges": self.gauge_values(),
            "histograms": histograms,
        }

    # ------------------------------------------------------------------
    # Merging (cross-process aggregation)
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s metrics into this registry.

        Counters add; gauges take the other's value (last write wins);
        histograms add bucket-by-bucket when the bounds agree and
        otherwise re-observe the other's total as one sample (sums stay
        exact, distributions coarsen — the same contract worker-merged
        ``RunStats`` always had).
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).set(gauge.value)
        for name, theirs in other._histograms.items():
            mine = self.histogram(name, theirs.bounds)
            if mine.bounds == theirs.bounds:
                for i, n in enumerate(theirs.bucket_counts):
                    mine.bucket_counts[i] += n
                mine.count += theirs.count
                mine.total += theirs.total
            elif theirs.count:
                mine.observe(theirs.total)
