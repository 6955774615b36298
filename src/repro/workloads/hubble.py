"""The Table 2 update-load model (§5.4), with P(d) in closed form.

Table 2 estimates the Internet-wide update load poisoning would add:

    daily path changes per router = I x T x P(d) x U

where I is the fraction of ISPs running LIFEGUARD, T the fraction of
networks each monitors, P(d) the aggregate number of daily outages that
lasted at least d minutes and are poisoning candidates, and U ~= 1 the
extra updates each poison costs a router.  The paper derives P(d) from the
Hubble dataset (filtered to partial, non-destination-AS outages, scaled by
Hubble's coverage Ih = 0.92 and Th = 0.01, extrapolating d = 5 from the
EC2 duration distribution).

Back-solving the published table gives the anchor values

    P(5) ~= 78,600   P(15) ~= 27,400   P(60) ~= 11,500  outages/day.

Like the paper, we extrapolate with the EC2 duration distribution: P(5)
is the anchor, and every other P(d) scales it by the calibrated outage
mixture's survival function (:func:`~repro.workloads.outages
.duration_survival`), P(d) = P(5) * S(60 d) / S(300) — evaluated, not
estimated from a sampled event population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.workloads.outages import duration_survival

#: Anchor: aggregate poisonable outages per day lasting >= 5 minutes,
#: back-solved from the published table (P(5) = 393 / (0.01 * 0.5)).
P5_PER_DAY = 78_600.0


def outages_per_day_at_least(minutes: float) -> float:
    """P(d): daily rate of poisonable outages lasting at least *minutes*
    (60 d a whole number of 30 s rounds in [220 s, 2 days], else
    :class:`~repro.errors.ReproError`)."""
    return (
        P5_PER_DAY
        * duration_survival(minutes * 60.0)
        / duration_survival(300.0)
    )


@dataclass
class LoadEstimate:
    """One cell of Table 2."""

    deploying_fraction: float  # I
    monitored_fraction: float  # T
    wait_minutes: float        # d
    daily_path_changes: float


def estimate_update_load(
    deploying_fractions: Sequence[float] = (0.01, 0.1, 0.5),
    monitored_fractions: Sequence[float] = (0.5, 1.0),
    wait_minutes: Sequence[float] = (5.0, 15.0, 60.0),
    updates_per_poison: float = 1.0,
) -> List[LoadEstimate]:
    """The Table 2 grid: I x T x P(d) x U per cell."""
    out: List[LoadEstimate] = []
    for i in deploying_fractions:
        for t in monitored_fractions:
            for d in wait_minutes:
                p = outages_per_day_at_least(d)
                out.append(
                    LoadEstimate(
                        deploying_fraction=i,
                        monitored_fraction=t,
                        wait_minutes=d,
                        daily_path_changes=i * t * p * updates_per_poison,
                    )
                )
    return out


#: Reference router update volumes for context (§5.4).
EDGE_ROUTER_DAILY_UPDATES = 110_000
TIER1_ROUTER_DAILY_UPDATES = (255_000, 315_000)
