"""Admission control and tiered graceful degradation for the daemon.

The service watches three overload signals every round:

* **in-flight poisons** — records in VERIFYING/POISONED; each one holds
  announced state in other networks' tables, so runaway concurrency is a
  safety problem, not just a load problem;
* **probe utilisation** — probes the repair stages sent last round
  against the per-round probe budget (the paper's measurement costs,
  §5.3, are the scarce resource a real deployment rations; the monitor's
  own pings are fixed by the pair count, so they are no load signal);
* **queue occupancy** — the deepest stage's waiting items over the
  backlog capacity.

Breaches map onto a four-tier ladder::

    NORMAL ──> THROTTLED ──> SHED ──> PAUSED
      ^            |           |        |
      └────────────┴───────────┴────────┘   (one tier per calm round)

Escalation is immediate (as many tiers as breaches, this round); recovery
descends one tier per round in which *no* signal is above its low
watermark — classic hysteresis so a load spike cannot make the tier flap
round-to-round.  The tier scales stage budgets and gates admissions; see
:class:`~repro.service.daemon.LifeguardService` for what each tier does.
Every transition is journaled, so a crashed service recovers into the
tier it was in, byte-identically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ServiceTier(enum.IntEnum):
    """Degradation ladder, least to most defensive."""

    #: full budgets, admit everything.
    NORMAL = 0
    #: halved isolate budget; admissions still accepted.
    THROTTLED = 1
    #: new repairs are refused (journaled, retried later); in-flight
    #: repairs keep full drain budgets.
    SHED = 2
    #: no admissions and no new isolations; only in-flight poisons are
    #: verified, checked and (if needed) rolled back — the service never
    #: pauses the safety half of the pipeline.
    PAUSED = 3


@dataclass(frozen=True)
class OverloadSignals:
    """One round's view of the three watermarked quantities."""

    inflight: int
    #: probes the stages sent last round / probe budget per round.
    probe_utilisation: float
    #: deepest stage's waiting items / backlog capacity.
    queue_occupancy: float


@dataclass
class Watermarks:
    """Thresholds driving tier transitions.

    Each signal has a high watermark (breach => escalate) and an implied
    low watermark (``low_fraction`` of high; all signals below => one
    step of recovery).
    """

    max_inflight: int = 48
    probe_budget_per_round: int = 4096
    queue_high: float = 0.75
    low_fraction: float = 0.5

    def breaches(self, signals: OverloadSignals) -> int:
        return sum(
            (
                signals.inflight > self.max_inflight,
                signals.probe_utilisation > 1.0,
                signals.queue_occupancy > self.queue_high,
            )
        )

    def calm(self, signals: OverloadSignals) -> bool:
        """All signals below their low watermarks (safe to recover)."""
        return (
            signals.inflight <= self.max_inflight * self.low_fraction
            and signals.probe_utilisation <= self.low_fraction
            and signals.queue_occupancy
            <= self.queue_high * self.low_fraction
        )


class AdmissionController:
    """Hysteretic tier state machine over the overload signals."""

    def __init__(self, watermarks: Watermarks) -> None:
        self.watermarks = watermarks
        self.tier = ServiceTier.NORMAL
        self.transitions = 0

    def evaluate(self, signals: OverloadSignals) -> ServiceTier:
        """Advance the tier for one round; returns the (new) tier."""
        breaches = self.watermarks.breaches(signals)
        if breaches:
            target = ServiceTier(
                min(int(ServiceTier.PAUSED), int(self.tier) + breaches)
            )
        elif self.watermarks.calm(signals):
            target = ServiceTier(max(0, int(self.tier) - 1))
        else:
            target = self.tier
        if target is not self.tier:
            self.transitions += 1
            self.tier = target
        return self.tier

    def restore(self, tier: ServiceTier) -> None:
        """Reinstate a journaled tier during crash recovery."""
        self.tier = tier

    def budget_scale(self) -> float:
        """Multiplier applied to the forward (isolate) stage budget."""
        if self.tier is ServiceTier.NORMAL:
            return 1.0
        if self.tier is ServiceTier.THROTTLED:
            return 0.5
        if self.tier is ServiceTier.SHED:
            return 0.25
        return 0.0

    @property
    def admitting(self) -> bool:
        """May brand-new repairs enter the pipeline this round?"""
        return self.tier in (ServiceTier.NORMAL, ServiceTier.THROTTLED)
