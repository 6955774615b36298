"""Ping monitoring and outage detection.

Follows the paper's EC2 methodology (§2.1): each vantage point sends a pair
of pings to every monitored target each round (30 s); an outage begins
after four consecutive dropped pairs — so the minimum detectable outage is
90 seconds — and ends at the first answered pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.dataplane.probes import Prober
from repro.measure.vantage import VantagePoint, VantageSet
from repro.net.addr import Address

PINGS_PER_ROUND = 2
CONSECUTIVE_FAILURES_FOR_OUTAGE = 4


class MonitorEvent(enum.Enum):
    """What a monitoring round concluded for one pair."""

    OK = "ok"
    FAILING = "failing"            # dropped pairs, below threshold
    OUTAGE_STARTED = "outage-started"
    OUTAGE_ONGOING = "outage-ongoing"
    OUTAGE_ENDED = "outage-ended"
    #: the vantage point itself is down: the pair was not probed and its
    #: failure streak is frozen — a dead VP says nothing about the target.
    VP_DOWN = "vp-down"


@dataclass
class OutageRecord:
    """One detected outage on a monitored pair."""

    vp_name: str
    destination: Address
    #: time of the first dropped round.
    start: float
    #: time detection fired (threshold crossed).
    detected: float
    #: time of the first successful round afterwards (None while ongoing).
    end: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start


@dataclass
class _PairState:
    consecutive_failures: int = 0
    first_failure_time: Optional[float] = None
    current_outage: Optional[OutageRecord] = None


class PingMonitor:
    """Drives rounds of pings and detects outages."""

    def __init__(
        self,
        prober: Prober,
        vantage_points: VantageSet,
        targets: Iterable[Union[str, Address]],
    ) -> None:
        self.prober = prober
        self.vantage_points = vantage_points
        self.targets = [Address(t) for t in targets]
        self._state: Dict[Tuple[str, int], _PairState] = {}
        self.outages: List[OutageRecord] = []
        #: optional observability bus (duck-typed; see repro.obs.events).
        self.obs = None

    def _pair_state(self, vp: VantagePoint, target: Address) -> _PairState:
        key = (vp.name, target.value)
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = _PairState()
        return state

    def run_round(self, now: float) -> Dict[Tuple[str, int], MonitorEvent]:
        """Ping every (vp, target) pair once; returns per-pair events."""
        events: Dict[Tuple[str, int], MonitorEvent] = {}
        self.prober.dataplane.now = now
        for vp in self.vantage_points:
            for target in self.targets:
                event = self._probe_pair(vp, target, now)
                events[(vp.name, target.value)] = event
                if self.obs is None:
                    continue
                if event is MonitorEvent.OUTAGE_STARTED:
                    outage = self._pair_state(vp, target).current_outage
                    self.obs.emit(
                        "monitor.outage-started", now, "measure.monitor",
                        subject=f"{vp.name}|{target}",
                        start=outage.start if outage else now,
                        detected=now,
                    )
                elif event is MonitorEvent.OUTAGE_ENDED:
                    self.obs.emit(
                        "monitor.outage-ended", now, "measure.monitor",
                        subject=f"{vp.name}|{target}", end=now,
                    )
        if self.obs is not None:
            tally: Dict[str, int] = {}
            for event in events.values():
                tally[event.value] = tally.get(event.value, 0) + 1
            self.obs.emit(
                "monitor.round", now, "measure.monitor",
                pairs=len(events), **{
                    key.replace("-", "_"): tally[key]
                    for key in sorted(tally)
                },
            )
        return events

    def _probe_pair(
        self, vp: VantagePoint, target: Address, now: float
    ) -> MonitorEvent:
        state = self._pair_state(vp, target)
        if not self.vantage_points.is_up(vp.name):
            # Known-dead vantage point: probing it would only manufacture
            # spurious outages.  Freeze the pair's streak — an outage that
            # was already open stays open until a *live* round answers.
            return MonitorEvent.VP_DOWN
        for _ in range(PINGS_PER_ROUND):
            if self.prober.ping(vp.rid, target).success:
                return self._handle_success(state, now)
        return self._handle_failure(state, vp, target, now)

    def _handle_success(
        self, state: _PairState, now: float
    ) -> MonitorEvent:
        state.consecutive_failures = 0
        state.first_failure_time = None
        if state.current_outage is not None:
            state.current_outage.end = now
            state.current_outage = None
            return MonitorEvent.OUTAGE_ENDED
        return MonitorEvent.OK

    def _handle_failure(
        self,
        state: _PairState,
        vp: VantagePoint,
        target: Address,
        now: float,
    ) -> MonitorEvent:
        if state.consecutive_failures == 0:
            state.first_failure_time = now
        state.consecutive_failures += 1
        if state.current_outage is not None:
            return MonitorEvent.OUTAGE_ONGOING
        if state.consecutive_failures >= CONSECUTIVE_FAILURES_FOR_OUTAGE:
            outage = OutageRecord(
                vp_name=vp.name,
                destination=target,
                start=state.first_failure_time or now,
                detected=now,
            )
            state.current_outage = outage
            self.outages.append(outage)
            return MonitorEvent.OUTAGE_STARTED
        return MonitorEvent.FAILING

    def adopt_outage(self, outage: OutageRecord) -> None:
        """Take ownership of an outage reconstructed from a journal.

        Crash recovery hands still-open outages back to a fresh monitor so
        detection state resumes: the pair is marked mid-outage (a later
        successful round ends *this* record instead of silently resetting)
        and the record shows up in :meth:`ongoing_outages` immediately,
        rather than being re-detected minutes later as a brand-new outage.
        """
        state = self._state.setdefault(
            (outage.vp_name, outage.destination.value), _PairState()
        )
        state.current_outage = outage
        state.consecutive_failures = CONSECUTIVE_FAILURES_FOR_OUTAGE
        state.first_failure_time = outage.start
        if outage not in self.outages:
            self.outages.append(outage)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def ongoing_outages(self) -> List[OutageRecord]:
        """Outages that have not yet ended."""
        return [o for o in self.outages if o.end is None]
