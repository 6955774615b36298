"""The seeded fault injector and its hooks into the deployment.

One :class:`FaultInjector` owns a private ``random.Random`` (seeded from
the plan) and is consulted by every subsystem it is attached to:

* :class:`~repro.dataplane.probes.Prober` asks :meth:`probe_fault` before
  each measurement (per-probe loss and latency spikes, crashed sources);
* :class:`~repro.bgp.engine.BGPEngine` asks :meth:`bgp_message_action`
  for each in-flight update (drop / duplicate);
* :class:`~repro.control.sentinel.SentinelManager` asks
  :meth:`sentinel_false_negative` per successful repair probe;
* :meth:`apply`, called from ``Lifeguard.tick``, fires the scheduled
  discrete events: vantage-point crash/restore windows, BGP session
  resets, and atlas staleness/truncation passes.

The controller process is not one of them: it cannot be killed by the
injector it is calling.  A harness that crashes it — the service
daemon's loop, or :func:`~repro.experiments.outage_stream.run_outage_stream`
— does so at its own ``crash_at``.

Every stochastic decision guards ``rate <= 0`` *before* drawing, so a
zero-intensity plan consumes no randomness and an attached injector is
observationally absent — the property the reproducibility test pins down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.errors import RetryExhausted
from repro.faults.plan import FaultKind, FaultPlan

#: Seconds between atlas corruption passes (one per refresh-ish cycle, not
#: one per monitoring round, so chaos degrades the atlas without erasing it).
ATLAS_FAULT_INTERVAL = 600.0


@dataclass
class FaultStats:
    """Everything the injector did, for the robustness bench's accounting."""

    probes_lost: int = 0
    probes_timed_out: int = 0
    injected_latency_seconds: float = 0.0
    vp_crashes: int = 0
    vp_restores: int = 0
    session_resets: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    atlas_entries_dropped: int = 0
    atlas_entries_truncated: int = 0
    sentinel_suppressed: int = 0

    @property
    def total_events(self) -> int:
        return (
            self.probes_lost
            + self.probes_timed_out
            + self.vp_crashes
            + self.session_resets
            + self.messages_dropped
            + self.messages_duplicated
            + self.atlas_entries_dropped
            + self.atlas_entries_truncated
            + self.sentinel_suppressed
        )


@dataclass
class RetryBudget:
    """A bounded retry allowance that raises when it runs dry."""

    limit: int
    used: int = 0

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.used)

    def spend(
        self,
        what: str = "operation",
        vp: Optional[str] = None,
        target: Optional[str] = None,
    ) -> None:
        if self.used >= self.limit:
            raise RetryExhausted(
                f"{what}: retry budget ({self.limit}) exhausted",
                vp=vp,
                target=target,
                component="faults.retry-budget",
            )
        self.used += 1


@dataclass
class ApplyResult:
    """What one scheduled-fault pass did."""

    events: List[str] = field(default_factory=list)
    #: True if the control plane changed (caller must re-run the engine
    #: and re-snapshot FIBs).
    bgp_changed: bool = False


class FaultInjector:
    """Applies a :class:`FaultPlan` to a deployment, deterministically."""

    def __init__(self, plan: FaultPlan, seed: Optional[int] = None) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed if seed is None else seed)
        self.stats = FaultStats()
        self._crashed_names: Set[str] = set()
        self._crashed_rids: Set[str] = set()
        self._fired: Set[int] = set()
        self._last_atlas_pass: float = float("-inf")
        self._vantage = None
        self._engine = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, lifeguard) -> "FaultInjector":
        """Wire this injector into every subsystem of *lifeguard*."""
        self._vantage = lifeguard.vantage_points
        self._engine = lifeguard.engine
        lifeguard.injector = self
        lifeguard.prober.injector = self
        lifeguard.sentinel_manager.injector = self
        lifeguard.engine.fault_hook = self.bgp_message_action
        return self

    def attach_engine(self, engine) -> "FaultInjector":
        """Wire only the BGP message hook into a bare *engine*.

        Differential fuzzing uses this to apply one message-fault plan
        to two engines through identically-seeded injectors, without a
        full deployment around them.
        """
        self._engine = engine
        engine.fault_hook = self.bgp_message_action
        return self

    def _draw(self, rate: float) -> bool:
        """One biased coin; never touches the RNG when the rate is zero."""
        if rate <= 0.0:
            return False
        return self._rng.random() < rate

    # ------------------------------------------------------------------
    # Per-probe hooks (Prober)
    # ------------------------------------------------------------------
    def probe_fault(self, source_rid: str, now: float) -> Optional[str]:
        """Fate of one probe from *source_rid*: None, 'lost' or 'timeout'.

        A crashed source loses every probe (its measurement daemon is
        gone); otherwise loss and latency-spike rates apply per probe.  A
        latency spike beyond the probe timeout is observationally a loss
        but is accounted separately.
        """
        if source_rid in self._crashed_rids:
            self.stats.probes_lost += 1
            return "lost"
        if self._draw(self.plan.rate(FaultKind.PROBE_LOSS, now)):
            self.stats.probes_lost += 1
            return "lost"
        if self._draw(self.plan.rate(FaultKind.PROBE_LATENCY, now)):
            self.stats.probes_timed_out += 1
            self.stats.injected_latency_seconds += self.plan.latency(now)
            return "timeout"
        return None

    def receiver_down(self, rid: str) -> bool:
        """Is the spoof-receiving vantage point at *rid* crashed?"""
        return rid in self._crashed_rids

    # ------------------------------------------------------------------
    # Sentinel hook
    # ------------------------------------------------------------------
    def sentinel_false_negative(self, now: float) -> bool:
        """Suppress one successful sentinel reply (probe loss on the
        repair-detection channel)."""
        if self._draw(
            self.plan.rate(FaultKind.SENTINEL_FALSE_NEGATIVE, now)
        ):
            self.stats.sentinel_suppressed += 1
            return True
        return False

    # ------------------------------------------------------------------
    # BGP engine hook
    # ------------------------------------------------------------------
    def bgp_message_action(
        self, src: int, dst: int, update
    ) -> Optional[str]:
        """Fate of one in-flight update: None, 'drop' or 'duplicate'."""
        now = self._engine.now if self._engine is not None else 0.0
        if self._draw(self.plan.rate(FaultKind.BGP_MESSAGE_DROP, now)):
            self.stats.messages_dropped += 1
            return "drop"
        if self._draw(
            self.plan.rate(FaultKind.BGP_MESSAGE_DUPLICATE, now)
        ):
            self.stats.messages_duplicated += 1
            return "duplicate"
        return None

    # ------------------------------------------------------------------
    # Scheduled events (driven from Lifeguard.tick)
    # ------------------------------------------------------------------
    def apply(self, lifeguard, now: float) -> ApplyResult:
        """Fire every scheduled fault due at *now*."""
        result = ApplyResult()
        self._apply_vp_crashes(now, result)
        self._apply_session_resets(now, result)
        self._apply_atlas_faults(lifeguard.atlas, now, result)
        return result

    def _apply_vp_crashes(self, now: float, result: ApplyResult) -> None:
        if self._vantage is None:
            return
        for spec in self.plan.of_kind(FaultKind.VP_CRASH):
            name = spec.vp
            if name not in self._vantage:
                continue
            rid = self._vantage.get(name).rid
            if spec.active(now) and name not in self._crashed_names:
                self._crashed_names.add(name)
                self._crashed_rids.add(rid)
                self._vantage.mark_down(name)
                self.stats.vp_crashes += 1
                result.events.append(f"vp {name} crashed at t={now:.0f}")
            elif name in self._crashed_names and now >= spec.end:
                self._crashed_names.discard(name)
                self._crashed_rids.discard(rid)
                self._vantage.mark_up(name)
                self.stats.vp_restores += 1
                result.events.append(f"vp {name} restored at t={now:.0f}")

    def _apply_session_resets(self, now: float, result: ApplyResult) -> None:
        if self._engine is None:
            return
        for index, spec in enumerate(self.plan.specs):
            if spec.kind is not FaultKind.BGP_SESSION_RESET:
                continue
            if index in self._fired or now < spec.start:
                continue
            self._fired.add(index)
            as_a, as_b = spec.session
            if self._engine.reset_session(as_a, as_b):
                self.stats.session_resets += 1
                result.bgp_changed = True
                result.events.append(
                    f"BGP session AS{as_a}<->AS{as_b} reset at t={now:.0f}"
                )

    def _apply_atlas_faults(
        self, atlas, now: float, result: ApplyResult
    ) -> None:
        stale = self.plan.rate(FaultKind.ATLAS_STALE, now)
        partial = self.plan.rate(FaultKind.ATLAS_PARTIAL, now)
        if stale <= 0 and partial <= 0:
            return
        if now - self._last_atlas_pass < ATLAS_FAULT_INTERVAL:
            return
        self._last_atlas_pass = now
        for reverse in (False, True):
            for vp_name, destination in atlas.pairs(reverse=reverse):
                if self._draw(stale):
                    if atlas.drop_latest(
                        vp_name, destination, reverse=reverse
                    ):
                        self.stats.atlas_entries_dropped += 1
                elif self._draw(partial):
                    if atlas.truncate_latest(
                        vp_name, destination, reverse=reverse
                    ):
                        self.stats.atlas_entries_truncated += 1
        if self.stats.atlas_entries_dropped or (
            self.stats.atlas_entries_truncated
        ):
            result.events.append(
                f"atlas corruption pass at t={now:.0f} "
                f"(dropped={self.stats.atlas_entries_dropped} "
                f"truncated={self.stats.atlas_entries_truncated} total)"
            )
