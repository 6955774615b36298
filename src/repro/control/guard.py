"""Repair safety supervisor: verified poisons and a rollback circuit breaker.

Poisoning is unilateral surgery on other networks' routing tables, and §4–5
of the paper are blunt about the two ways it goes wrong: poisoning the
*wrong* AS breaks paths that were working, and re-announcing a flapping
prefix walks it into route-flap-damping suppression.  The
:class:`RepairGuard` closes the loop that the bare controller leaves open:

* **post-poison verification** — after a poison converges, the guard probes
  the outage's destination (did reachability actually improve?) *and* a
  control set of destinations that were reachable immediately before the
  poison (did we break anything that was working?).  A poison that fails
  either check is rolled back automatically.
* **circuit breaker** — every rollback charges a per-(outage, ASN) failure
  counter with exponential backoff between retries; once the counter hits
  its limit the breaker opens and the controller stops touching that AS for
  that outage, landing the record in ``NOT_POISONED`` with the reason.

The guard is deliberately probe-based: it trusts the data plane, not the
isolation verdict that justified the poison — the whole point is to catch
the isolation being wrong.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control.journal import OutageKey
from repro.dataplane.probes import Prober
from repro.measure.vantage import VantageSet
from repro.net.addr import Address


class BreakerState(enum.Enum):
    """Lifecycle of one (outage, poisoned-ASN) pair under the breaker."""

    #: no recorded failures (or backoff elapsed): poisoning is allowed.
    CLOSED = "closed"
    #: a recent rollback: retries wait out the exponential backoff.
    BACKOFF = "backoff"
    #: too many ineffective poisons: this AS is off-limits for this outage.
    OPEN = "open"


#: rollbacks of the same (outage, ASN) before the breaker opens, unless
#: :class:`~repro.control.plan.LifeguardConfig` says otherwise.
BREAKER_MAX_FAILURES = 3
#: wait after a first rollback; it doubles with every further one.
BREAKER_BACKOFF = 600.0


@dataclass
class _BreakerEntry:
    failures: int = 0
    last_failure: float = float("-inf")


class PoisonBreaker:
    """Failure counting + exponential backoff per (outage, poisoned ASN)."""

    def __init__(self, max_failures: int = BREAKER_MAX_FAILURES) -> None:
        self.max_failures = max_failures
        self._entries: Dict[Tuple[OutageKey, int], _BreakerEntry] = {}
        #: optional observability bus (duck-typed; see repro.obs.events).
        self.obs = None
        self._emitted: Dict[Tuple[OutageKey, int], BreakerState] = {}

    def _entry(self, key: OutageKey, asn: int) -> _BreakerEntry:
        return self._entries.setdefault((key, asn), _BreakerEntry())

    def failures(self, key: OutageKey, asn: int) -> int:
        entry = self._entries.get((key, asn))
        return entry.failures if entry else 0

    def retry_at(self, key: OutageKey, asn: int) -> float:
        """Earliest time a retry of this poison is allowed."""
        entry = self._entries.get((key, asn))
        if entry is None or entry.failures == 0:
            return float("-inf")
        # 1st rollback waits BREAKER_BACKOFF, the 2nd twice it, the 3rd
        # four times...
        return entry.last_failure + BREAKER_BACKOFF * (
            2 ** (entry.failures - 1)
        )

    def state(self, key: OutageKey, asn: int, now: float) -> BreakerState:
        entry = self._entries.get((key, asn))
        if entry is None or entry.failures == 0:
            return BreakerState.CLOSED
        if entry.failures >= self.max_failures:
            return BreakerState.OPEN
        if now < self.retry_at(key, asn):
            return BreakerState.BACKOFF
        # Backoff elapsed: the breaker half-opens back to CLOSED and the
        # next poison attempt is the trial that either succeeds or charges
        # the counter again.  Observing the transition closes the loop for
        # dashboards (why did this repair resume?).
        self._emit(key, asn, BreakerState.CLOSED, now, entry.failures)
        return BreakerState.CLOSED

    def record_failure(self, key: OutageKey, asn: int, now: float) -> int:
        """Charge one ineffective poison; returns the new failure count."""
        entry = self._entry(key, asn)
        entry.failures += 1
        entry.last_failure = now
        self._emit(
            key,
            asn,
            BreakerState.OPEN
            if entry.failures >= self.max_failures
            else BreakerState.BACKOFF,
            now,
            entry.failures,
        )
        return entry.failures

    def _emit(
        self,
        key: OutageKey,
        asn: int,
        state: BreakerState,
        now: float,
        failures: int,
    ) -> None:
        """Emit breaker transitions (deduplicated) on the obs bus."""
        if self.obs is None or self._emitted.get((key, asn)) is state:
            return
        self._emitted[(key, asn)] = state
        subject = "|".join(str(part) for part in key) + f"|{asn}"
        self.obs.emit(
            "guard.breaker",
            now,
            "control.guard",
            subject=subject,
            state=state.value,
            failures=failures,
            retry_at=self.retry_at(key, asn),
        )

    def restore(
        self, key: OutageKey, asn: int, failures: int, last_failure: float
    ) -> None:
        """Reinstate replayed state during crash recovery."""
        entry = self._entry(key, asn)
        entry.failures = max(entry.failures, failures)
        entry.last_failure = max(entry.last_failure, last_failure)


class VerifyVerdict(enum.Enum):
    """Outcome of one post-poison verification round."""

    #: reachability improved and no collateral destination went dark.
    EFFECTIVE = "effective"
    #: the outage destination is still unreachable: the poison missed.
    INEFFECTIVE = "ineffective"
    #: previously-reachable destinations went dark: the poison did harm.
    HARMFUL = "harmful"
    #: the observing vantage point is down; verify again next tick.
    DEFERRED = "deferred"


@dataclass
class VerifyOutcome:
    """Everything one verification round measured."""

    verdict: VerifyVerdict
    #: did the outage's own destination answer through the poisoned path?
    target_reachable: bool = False
    #: control-set destinations that were reachable pre-poison but dark now.
    collateral_dark: List[str] = field(default_factory=list)
    probes_used: int = 0

    @property
    def rollback_needed(self) -> bool:
        return self.verdict in (
            VerifyVerdict.INEFFECTIVE, VerifyVerdict.HARMFUL
        )

    def describe(self) -> str:
        if self.verdict is VerifyVerdict.HARMFUL:
            dark = ", ".join(self.collateral_dark)
            return f"collateral damage: {dark} went dark"
        if self.verdict is VerifyVerdict.INEFFECTIVE:
            return "destination still unreachable through the poisoned path"
        return self.verdict.value


class RepairGuard:
    """Probe-based safety checks wrapped around the poison lifecycle."""

    def __init__(
        self,
        prober: Prober,
        vantage_points: VantageSet,
        breaker: Optional[PoisonBreaker] = None,
    ) -> None:
        self.prober = prober
        self.vantage_points = vantage_points
        self.breaker = breaker if breaker is not None else PoisonBreaker()
        #: optional observability bus (duck-typed; see repro.obs.events).
        self.obs = None

    # ------------------------------------------------------------------
    # Pre-poison: capture what currently works
    # ------------------------------------------------------------------
    def snapshot_control(
        self,
        vp_name: str,
        destinations: Sequence[Address],
        exclude: Address,
        now: float,
    ) -> Tuple[str, ...]:
        """Destinations (other than the outage's own) reachable right now.

        Taken immediately before the poison is announced; the post-poison
        check re-probes exactly this set, so "collateral" means *we* broke
        it, not that it was already down.
        """
        if not self.vantage_points.is_up(vp_name):
            return ()
        vp = self.vantage_points.get(vp_name)
        probed = self.prober.reachability(
            vp.rid,
            [d for d in destinations if d != exclude],
            now=now,
        )
        return tuple(dst for dst, ok in probed.items() if ok)

    # ------------------------------------------------------------------
    # Post-poison verification
    # ------------------------------------------------------------------
    def verify(
        self,
        vp_name: str,
        destination: Address,
        control: Sequence[str],
        now: float,
    ) -> VerifyOutcome:
        """One verification round from *vp_name* through the poisoned path."""
        if not self.vantage_points.is_up(vp_name):
            outcome = VerifyOutcome(verdict=VerifyVerdict.DEFERRED)
            self._emit_verify(vp_name, destination, now, outcome)
            return outcome
        vp = self.vantage_points.get(vp_name)
        self.prober.dataplane.now = now
        before = self.prober.probes_sent
        target_ok = self.prober.ping(vp.rid, destination).success
        probed = self.prober.reachability(
            vp.rid, [Address(dst) for dst in control]
        )
        dark = [dst for dst, ok in probed.items() if not ok]
        probes = self.prober.probes_sent - before
        if dark:
            verdict = VerifyVerdict.HARMFUL
        elif not target_ok:
            verdict = VerifyVerdict.INEFFECTIVE
        else:
            verdict = VerifyVerdict.EFFECTIVE
        outcome = VerifyOutcome(
            verdict=verdict,
            target_reachable=target_ok,
            collateral_dark=dark,
            probes_used=probes,
        )
        self._emit_verify(vp_name, destination, now, outcome)
        return outcome

    def _emit_verify(
        self,
        vp_name: str,
        destination: Address,
        now: float,
        outcome: VerifyOutcome,
    ) -> None:
        if self.obs is not None:
            self.obs.emit(
                "guard.verify", now, "control.guard",
                subject=f"{vp_name}|{destination}",
                verdict=outcome.verdict.value,
                target_reachable=outcome.target_reachable,
                collateral_dark=len(outcome.collateral_dark),
                probes=outcome.probes_used,
            )

    # ------------------------------------------------------------------
    # Fallback escalation (see repro.control.record.LADDER_STRATEGIES)
    # ------------------------------------------------------------------
    def note_fallback(
        self,
        subject: str,
        step: int,
        strategy: str,
        asn: Optional[int],
        now: float,
    ) -> None:
        """Surface one ladder escalation on the obs bus.

        Emits a ``guard.fallback`` event (so ``repro trace`` timelines
        show *which* rung a repair climbed to, not just another poison)
        and bumps the ``lifeguard.fallback.<strategy>`` counter.
        """
        if self.obs is None:
            return
        self.obs.emit(
            "guard.fallback", now, "control.guard",
            subject=subject,
            step=step,
            strategy=strategy,
            asn=asn,
        )
        metrics = getattr(self.obs, "metrics", None)
        if metrics is not None:
            metrics.counter(f"lifeguard.fallback.{strategy}").inc()
