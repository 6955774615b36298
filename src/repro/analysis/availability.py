"""Avoidable unavailability under a repair latency budget (§4.2).

The paper argues that even with ~5 minutes to detect and locate a failure
plus ~2 minutes of post-poisoning convergence, LIFEGUARD could avoid
about 80% of the total unavailability in the EC2 study — because the
long tail dominates downtime.  Given a trace of outage durations and a
repair latency, this module computes exactly that number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ReproError

#: The paper's budget: detection+isolation ~5 min, convergence ~2 min.
DEFAULT_REPAIR_LATENCY = 7 * 60.0


@dataclass(frozen=True)
class AvoidableUnavailability:
    """Result of the repair-budget analysis."""

    repair_latency: float
    total_unavailability: float
    avoided_unavailability: float
    outages_repaired: int
    outages_total: int

    @property
    def avoided_fraction(self) -> float:
        if self.total_unavailability <= 0:
            return 0.0
        return self.avoided_unavailability / self.total_unavailability


def avoidable_unavailability(
    durations: Sequence[float],
    repair_latency: float = DEFAULT_REPAIR_LATENCY,
) -> AvoidableUnavailability:
    """How much downtime a repair completing after *repair_latency* saves.

    An outage of duration d contributes max(0, d - repair_latency) of
    avoided downtime: everything after the repair lands is saved, the
    ramp-up is not.
    """
    if not durations:
        raise ReproError("need a non-empty duration trace")
    if repair_latency < 0:
        raise ReproError("repair latency cannot be negative")
    total = float(sum(durations))
    avoided = sum(max(0.0, d - repair_latency) for d in durations)
    repaired = sum(1 for d in durations if d > repair_latency)
    return AvoidableUnavailability(
        repair_latency=repair_latency,
        total_unavailability=total,
        avoided_unavailability=avoided,
        outages_repaired=repaired,
        outages_total=len(durations),
    )


def latency_sweep(
    durations: Sequence[float],
    latencies: Sequence[float] = (60.0, 180.0, 420.0, 900.0, 1800.0),
) -> List[AvoidableUnavailability]:
    """The avoided-downtime curve across repair-latency budgets."""
    return [
        avoidable_unavailability(durations, latency)
        for latency in latencies
    ]
