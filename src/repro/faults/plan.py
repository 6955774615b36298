"""Declarative fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming a
fault kind, an activation window, and either a stochastic rate (per-event
faults like probe loss) or a concrete subject (a vantage point to crash, a
BGP session to reset).  Plans are pure data: nothing happens until a
:class:`~repro.faults.injector.FaultInjector` is attached to a deployment.
Every kind breaks LIFEGUARD's plumbing, never the controller process:
its crashes are scheduled by the harness that owns its lifecycle.

:meth:`FaultPlan.standard` scales every stochastic rate off a single
``intensity`` knob so experiments can sweep one axis; at intensity 0 it
produces an *empty* plan, which is the anchor for the reproducibility
property (attaching a null plan changes nothing, bit-for-bit).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ControlError


class FaultKind(enum.Enum):
    """What kind of infrastructure fault a spec injects."""

    #: a probe (request or reply) vanishes before any forwarding happens.
    PROBE_LOSS = "probe-loss"
    #: a probe is delayed past its timeout — observably identical to loss
    #: but accounted separately (ICMP rate-limit pacing vs. real loss).
    PROBE_LATENCY = "probe-latency"
    #: a vantage point is down for the spec's whole [start, end) window.
    VP_CRASH = "vp-crash"
    #: the BGP session between two ASes resets at ``start``: both sides
    #: drop everything learned from the other (implicit withdrawals) and
    #: re-advertise from scratch (the re-advertisement burst).
    BGP_SESSION_RESET = "bgp-session-reset"
    #: an in-flight BGP update is silently lost.
    BGP_MESSAGE_DROP = "bgp-message-drop"
    #: an in-flight BGP update is delivered twice.
    BGP_MESSAGE_DUPLICATE = "bgp-message-duplicate"
    #: the newest atlas entry for a pair disappears (stale atlas: isolation
    #: falls back to older history).
    ATLAS_STALE = "atlas-stale"
    #: the newest atlas entry for a pair loses its tail hops (partial
    #: measurement recorded as if complete).
    ATLAS_PARTIAL = "atlas-partial"
    #: a successful sentinel repair-probe reply is lost, so a repaired
    #: failure looks unrepaired for another check interval.
    SENTINEL_FALSE_NEGATIVE = "sentinel-false-negative"


#: Kinds driven by a per-event probability (``rate``).
STOCHASTIC_KINDS = frozenset(
    {
        FaultKind.PROBE_LOSS,
        FaultKind.PROBE_LATENCY,
        FaultKind.BGP_MESSAGE_DROP,
        FaultKind.BGP_MESSAGE_DUPLICATE,
        FaultKind.ATLAS_STALE,
        FaultKind.ATLAS_PARTIAL,
        FaultKind.SENTINEL_FALSE_NEGATIVE,
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault."""

    kind: FaultKind
    #: activation window [start, end) in simulation seconds.  For one-shot
    #: kinds (session resets) the fault fires once at ``start``.
    start: float = float("-inf")
    end: float = float("inf")
    #: per-event probability for stochastic kinds.
    rate: float = 0.0
    #: vantage point name (VP_CRASH).
    vp: Optional[str] = None
    #: AS pair (BGP_SESSION_RESET).
    session: Optional[Tuple[int, int]] = None
    #: injected delay in seconds (PROBE_LATENCY accounting).
    latency: float = 5.0

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def validate(self) -> None:
        if self.kind in STOCHASTIC_KINDS:
            if not 0.0 <= self.rate <= 1.0:
                raise ControlError(
                    f"{self.kind.value} rate {self.rate} outside [0, 1]"
                )
        if self.kind is FaultKind.VP_CRASH and not self.vp:
            raise ControlError("VP_CRASH spec needs a vantage point name")
        if self.kind is FaultKind.BGP_SESSION_RESET:
            if self.session is None:
                raise ControlError("BGP_SESSION_RESET spec needs an AS pair")
            if not math.isfinite(self.start):
                raise ControlError(
                    "BGP_SESSION_RESET needs a finite start time"
                )


@dataclass
class FaultPlan:
    """A complete, seeded fault schedule."""

    specs: List[FaultSpec] = field(default_factory=list)
    #: seeds the injector's private RNG; independent of every other RNG in
    #: the simulation so attaching a plan never perturbs baseline draws.
    seed: int = 0

    def __post_init__(self) -> None:
        for spec in self.specs:
            spec.validate()

    def add(self, spec: FaultSpec) -> FaultSpec:
        spec.validate()
        self.specs.append(spec)
        return spec

    def of_kind(self, kind: FaultKind) -> List[FaultSpec]:
        return [s for s in self.specs if s.kind is kind]

    def rate(self, kind: FaultKind, now: float) -> float:
        """Effective probability of *kind* at *now* (max of active specs)."""
        best = 0.0
        for spec in self.specs:
            if spec.kind is kind and spec.active(now):
                best = max(best, spec.rate)
        return best

    def latency(self, now: float) -> float:
        """Injected delay of the active latency-spike spec (seconds)."""
        worst = 0.0
        for spec in self.specs:
            if spec.kind is FaultKind.PROBE_LATENCY and spec.active(now):
                worst = max(worst, spec.latency)
        return worst

    @property
    def is_null(self) -> bool:
        """True if attaching this plan can never inject anything."""
        for spec in self.specs:
            if spec.kind in STOCHASTIC_KINDS:
                if spec.rate > 0:
                    return False
            else:
                return False
        return True

    # ------------------------------------------------------------------
    # Canonical schedules
    # ------------------------------------------------------------------
    @classmethod
    def standard(
        cls,
        intensity: float,
        seed: int = 0,
        start: float = float("-inf"),
        crashes: Sequence[Tuple[str, float, float]] = (),
        resets: Sequence[Tuple[int, int, float]] = (),
    ) -> "FaultPlan":
        """The one-knob chaos schedule used by the robustness bench.

        *intensity* in [0, 1] scales every stochastic rate: probe loss at
        ``intensity``, latency spikes and BGP message drops at half of it,
        duplication and atlas corruption at a quarter, sentinel false
        negatives at ``intensity``, all from *start* on.  *crashes* lists
        ``(vp_name, t_down, t_up)`` windows and *resets* lists
        ``(as_a, as_b, t)`` session resets; both are dropped entirely at
        intensity 0 so a zero-intensity plan is empty.  The controller
        process is no fault kind: the harness that owns its lifecycle
        schedules its crashes.
        """
        if not 0.0 <= intensity <= 1.0:
            raise ControlError(f"intensity {intensity} outside [0, 1]")
        plan = cls(seed=seed)
        if intensity == 0.0:
            return plan
        plan.add(FaultSpec(FaultKind.PROBE_LOSS, rate=intensity, start=start))
        plan.add(
            FaultSpec(FaultKind.PROBE_LATENCY, rate=intensity / 2, start=start)
        )
        plan.add(
            FaultSpec(FaultKind.BGP_MESSAGE_DROP, rate=intensity / 2,
                      start=start)
        )
        plan.add(
            FaultSpec(FaultKind.BGP_MESSAGE_DUPLICATE, rate=intensity / 4,
                      start=start)
        )
        plan.add(
            FaultSpec(FaultKind.ATLAS_STALE, rate=intensity / 4, start=start)
        )
        plan.add(
            FaultSpec(FaultKind.ATLAS_PARTIAL, rate=intensity / 4, start=start)
        )
        plan.add(
            FaultSpec(
                FaultKind.SENTINEL_FALSE_NEGATIVE, rate=intensity, start=start
            )
        )
        for name, t_down, t_up in crashes:
            plan.add(
                FaultSpec(
                    FaultKind.VP_CRASH, vp=name, start=t_down, end=t_up
                )
            )
        for as_a, as_b, when in resets:
            plan.add(
                FaultSpec(
                    FaultKind.BGP_SESSION_RESET,
                    session=(as_a, as_b),
                    start=when,
                    end=when,
                )
            )
        return plan
