"""EC2-study-like outage traces (§2.1, Fig. 1, Fig. 5).

The paper monitored 250 router targets from four EC2 regions for six weeks
and recorded 10,308 partial outages of >= 90 s.  Its two headline numbers:

* more than 90% of outages lasted at most 10 minutes, but
* outages longer than 10 minutes contributed 84% of total unavailability.

We reproduce that shape with a two-component mixture: a light-tailed bulk
(shifted exponential above the 90 s detection floor) and a Pareto tail.
With the default parameters the generated trace lands on the paper's
anchor points to within a couple of percentage points; the Fig. 1/Fig. 5
benches report generated-vs-paper side by side.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import ReproError

MIN_OUTAGE_SECONDS = 90.0


@dataclass
class OutageTraceConfig:
    """Mixture parameters for the synthetic outage-duration distribution."""

    num_outages: int = 10308
    #: probability an outage belongs to the short-lived bulk.
    short_fraction: float = 0.86
    #: mean of the exponential bulk above the 90 s floor.
    short_mean_excess: float = 30.0
    #: Pareto scale (tail starts here) and shape for the long component.
    tail_scale: float = 220.0
    tail_alpha: float = 0.7
    #: cap so a single sample cannot dominate the trace (2 days).
    max_duration: float = 172800.0
    #: fraction of outages that are partial (§2.1 found 79%).
    partial_fraction: float = 0.79
    #: durations are quantized to the 30 s monitoring round.
    round_seconds: float = 30.0


@dataclass
class OutageTrace:
    """A generated set of outages."""

    durations: List[float]
    partial: List[bool]
    config: OutageTraceConfig = field(default_factory=OutageTraceConfig)

    def __len__(self) -> int:
        return len(self.durations)

    @property
    def total_unavailability(self) -> float:
        return sum(self.durations)

    def fraction_shorter_than(self, seconds: float) -> float:
        """Share of outages with duration <= *seconds*."""
        if not self.durations:
            raise ReproError("empty trace")
        return sum(1 for d in self.durations if d <= seconds) / len(
            self.durations
        )

    def unavailability_share_longer_than(self, seconds: float) -> float:
        """Share of total downtime contributed by outages > *seconds*."""
        total = self.total_unavailability
        if total <= 0:
            raise ReproError("trace has no downtime")
        return sum(d for d in self.durations if d > seconds) / total

    def duration_cdf(
        self, points: Sequence[float]
    ) -> "List[tuple[float, float, float]]":
        """(duration, CDF of outages, CDF of unavailability) per point.

        Exactly the two curves of Fig. 1.
        """
        total = self.total_unavailability
        count = len(self.durations)
        out = []
        for point in points:
            events = sum(1 for d in self.durations if d <= point) / count
            downtime = (
                sum(d for d in self.durations if d <= point) / total
            )
            out.append((point, events, downtime))
        return out


def _sample_duration(rng: random.Random, config: OutageTraceConfig) -> float:
    if rng.random() < config.short_fraction:
        excess = rng.expovariate(1.0 / config.short_mean_excess)
        duration = MIN_OUTAGE_SECONDS + excess
    else:
        # Pareto tail: scale * U^(-1/alpha), floored at the detection
        # minimum and capped so one sample cannot dominate.
        u = 1.0 - rng.random()  # in (0, 1]
        duration = config.tail_scale * (u ** (-1.0 / config.tail_alpha))
        duration = max(duration, MIN_OUTAGE_SECONDS)
    duration = min(duration, config.max_duration)
    # The monitor only observes whole rounds, so the real study's
    # durations are multiples of 30 s (median exactly 90 s).
    rounds = int(duration // config.round_seconds)
    return rounds * config.round_seconds


def duration_survival(seconds: float) -> float:
    """S(T) = 0.86 e^(-(T-90)/30) + 0.14 (220/T)^0.7: the share of
    outages drawn from the default mixture lasting at least *seconds*.

    Exact for T a whole number of 30 s rounds in [220, 172800] s: there a
    quantised duration reaches T exactly when its raw draw does, and
    neither the 90 s floor nor the 2-day cap moves a draw across T.
    Any other T is refused.
    """
    config = OutageTraceConfig()
    in_range = config.tail_scale <= seconds <= config.max_duration
    if not in_range or seconds % config.round_seconds:
        raise ReproError(
            f"S({seconds:g}) is exact only for multiples of "
            f"{config.round_seconds:g} s in "
            f"[{config.tail_scale:g}, {config.max_duration:g}]"
        )
    bulk = math.exp((MIN_OUTAGE_SECONDS - seconds) / config.short_mean_excess)
    tail = (config.tail_scale / seconds) ** config.tail_alpha
    share = config.short_fraction
    return share * bulk + (1.0 - share) * tail


def generate_outage_trace(
    config: OutageTraceConfig = None, seed: int = 0
) -> OutageTrace:
    """Generate a synthetic outage trace with the paper's Fig. 1 shape."""
    config = config or OutageTraceConfig()
    rng = random.Random(seed)
    durations = [
        _sample_duration(rng, config) for _ in range(config.num_outages)
    ]
    partial = [
        rng.random() < config.partial_fraction
        for _ in range(config.num_outages)
    ]
    return OutageTrace(durations=durations, partial=partial, config=config)


# ----------------------------------------------------------------------
# Streaming arrival process (service + robustness workloads)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduledOutage:
    """One ground-truth failure the workload will inject."""

    index: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class OutageArrivalConfig:
    """How ground-truth outages arrive over a run.

    Exactly one of *spacing* (deterministic fixed-interval arrivals, the
    robustness study's schedule) or *rate* (a Poisson process, the
    service's streaming workload) must be set.  Durations come from
    *duration* when fixed, otherwise they are sampled from the paper's
    Fig. 1 mixture (:class:`OutageTraceConfig`) — the calibration the
    EC2 study measured, so a long service run sees the same bulk-vs-tail
    shape the deployment did.
    """

    first_arrival: float = 1000.0
    #: fixed seconds between arrivals (deterministic mode).
    spacing: Optional[float] = None
    #: mean arrivals per second (Poisson mode); inter-arrival gaps are
    #: quantized to *round_seconds* so arrivals align with monitor rounds.
    rate: Optional[float] = None
    #: fixed outage duration; None samples the Fig. 1 mixture per outage.
    duration: Optional[float] = None
    trace: OutageTraceConfig = field(default_factory=OutageTraceConfig)
    round_seconds: float = 30.0


def generate_outage_schedule(
    num_outages: int,
    config: Optional[OutageArrivalConfig] = None,
    seed: int = 0,
) -> List[ScheduledOutage]:
    """The arrival schedule both the service daemon and the robustness
    study inject: *num_outages* ground-truth failures with calibrated
    start times and durations.

    Deterministic for a given (config, seed); the fixed-spacing +
    fixed-duration configuration draws no randomness at all, so it is
    byte-identical to the hardcoded schedule it replaced.
    """
    config = config or OutageArrivalConfig()
    if (config.spacing is None) == (config.rate is None):
        raise ReproError(
            "set exactly one of OutageArrivalConfig.spacing (fixed) or "
            ".rate (Poisson)"
        )
    rng = random.Random(seed)
    schedule: List[ScheduledOutage] = []
    start = config.first_arrival
    for index in range(num_outages):
        if index:
            if config.spacing is not None:
                gap = config.spacing
            else:
                gap = rng.expovariate(config.rate)
                rounds = max(1, round(gap / config.round_seconds))
                gap = rounds * config.round_seconds
            start += gap
        if config.duration is not None:
            duration = config.duration
        else:
            duration = _sample_duration(rng, config.trace)
        schedule.append(
            ScheduledOutage(index=index, start=start, duration=duration)
        )
    return schedule
