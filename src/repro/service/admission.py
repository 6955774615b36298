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

#: High watermarks: above any one, the tier escalates.  Each signal's
#: low watermark is LOW_FRACTION of its high one; with every signal at
#: or below its low watermark, the tier recovers one step.
MAX_INFLIGHT = 48
PROBE_BUDGET_PER_ROUND = 4096
QUEUE_HIGH = 0.75
LOW_FRACTION = 0.5


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


class AdmissionController:
    """Hysteretic tier state machine over the overload signals."""

    def __init__(self) -> None:
        self.tier = ServiceTier.NORMAL
        self.transitions = 0

    def evaluate(self, signals: OverloadSignals) -> ServiceTier:
        """Advance the tier for one round; returns the (new) tier."""
        breaches = sum(
            (
                signals.inflight > MAX_INFLIGHT,
                signals.probe_utilisation > 1.0,
                signals.queue_occupancy > QUEUE_HIGH,
            )
        )
        if breaches:
            target = ServiceTier(
                min(int(ServiceTier.PAUSED), int(self.tier) + breaches)
            )
        elif (
            signals.inflight <= MAX_INFLIGHT * LOW_FRACTION
            and signals.probe_utilisation <= LOW_FRACTION
            and signals.queue_occupancy <= QUEUE_HIGH * LOW_FRACTION
        ):
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
