"""Timing and counter accounting for experiment runs.

A :class:`RunStats` travels through a driver (and, merged, back from
worker processes) so every run can report where its wall-clock time went:
topology generation, BGP convergence, trial execution.
``--metrics-out`` snapshots them, and worker processes ship theirs home
in the :meth:`RunStats.as_dict` form.

Since the observability subsystem landed, RunStats is a thin bridge over
a :class:`~repro.obs.metrics.MetricsRegistry`: counters are registry
counters and phase timers are registry histograms (the timer value is the
histogram's running total, so the ``as_dict`` shape holds plain seconds
while full latency distributions come along for free).  Pass an existing
registry to share one metrics namespace between a stats object and an
event bus; omit it and RunStats owns a private one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

from repro.obs.metrics import MetricsRegistry


class RunStats:
    """Named counters plus cumulative phase timers (seconds)."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.registry.counter(name).inc(amount)

    def add_time(self, name: str, seconds: float) -> None:
        self.registry.histogram(name).observe(seconds)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def merge(self, other: "RunStats") -> None:
        self.registry.merge(other.registry)

    def merge_dict(self, payload: Mapping[str, Mapping[str, float]]) -> None:
        """Merge the :meth:`as_dict` form (as returned by workers)."""
        for name, amount in payload.get("counters", {}).items():
            self.count(name, amount)
        for name, seconds in payload.get("timers", {}).items():
            self.add_time(name, seconds)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def counters(self) -> Dict[str, float]:
        """Name -> value, sorted by name (read-only view)."""
        return self.registry.counter_values()

    @property
    def timers(self) -> Dict[str, float]:
        """Name -> cumulative seconds, sorted by name (read-only view)."""
        return self.registry.histogram_totals()

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Counters and rounded timers as plain dicts, keys sorted at every
        level (what a worker process returns)."""
        return {
            "counters": self.counters,
            "timers": {
                name: round(seconds, 6)
                for name, seconds in self.timers.items()
            },
        }
