"""The one harness that pushes ground-truth outages through the loop.

The robustness sweep and the defense sweep ask different questions of
the same experiment: stream scheduled failures of avoidable transit ASes
into a deployment, tick the controller through them — killing and
recovering it when the study asks — and attribute the resulting
repair records back to the failures at the AS level.  That experiment
lives here once; a study keeps its deployment, its point type and its
own counters over what :func:`run_outage_stream` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.control.record import RepairRecord
from repro.faults.injector import FaultInjector
from repro.net.addr import Address
from repro.traffic.impact import ImpactLedger
from repro.traffic.matrix import build_traffic_matrix
from repro.workloads.outages import (
    OutageArrivalConfig,
    ScheduledOutage,
    generate_outage_schedule,
)
from repro.workloads.scenarios import CRASH_DOWNTIME, DeploymentScenario

#: Ground-truth failure schedule: the same calibrated arrival generator
#: the service daemon streams from (:func:`generate_outage_schedule`), in
#: its deterministic fixed-spacing mode — outage *k* starts at
#: ``1000 + k * 9000`` and lasts 7200 s, leaving room for detection,
#: poisoning, repair detection and unpoisoning before the next begins.
#: Shared by every study, so their sweeps compare point for point.
STREAM_ARRIVALS = OutageArrivalConfig(
    first_arrival=1000.0,
    spacing=9000.0,
    duration=7200.0,
)


def stream_schedule(
    num_outages: int, seed: int
) -> Tuple[List[ScheduledOutage], float]:
    """The standard schedule and the sim time its run ends at."""
    schedule = generate_outage_schedule(
        num_outages, STREAM_ARRIVALS, seed=seed
    )
    end = (
        STREAM_ARRIVALS.first_arrival
        + num_outages * STREAM_ARRIVALS.spacing
        + 2400.0
    )
    return schedule, end


def primed_ledger(scenario: DeploymentScenario, seed: int) -> ImpactLedger:
    """User-impact accounting for one run: a gravity-model matrix over
    the deployment's stub ASes, its baseline fixed against the pristine
    FIBs, to be integrated against the live ones at every tick."""
    ledger = ImpactLedger(build_traffic_matrix(scenario.graph, seed=seed))
    ledger.prime(scenario.lifeguard.dataplane.fibs)
    return ledger


@dataclass
class InjectedOutage:
    """One ground-truth failure and what LIFEGUARD did about it."""

    target: Address
    target_asn: int
    #: the AS that actually dropped traffic.
    true_asn: int
    start: float
    end: float
    detected: bool = False
    #: LIFEGUARD poisoned exactly the failed AS.
    poisoned_true: bool = False
    #: ... and later detected the repair and withdrew the poison.
    unpoisoned: bool = False


@dataclass
class OutageStream:
    """What one run of the harness produced."""

    outages: List[InjectedOutage] = field(default_factory=list)
    #: the last controller incarnation's records (journal-recovered if
    #: the controller was ever killed).
    records: List[RepairRecord] = field(default_factory=list)
    #: controller kills the harness executed (one at ``crash_at``).
    controller_crashes: int = 0
    #: repair records carried across the journal-replay recovery.
    recovered_records: int = 0

    def detections_of(self, outage: InjectedOutage) -> List[RepairRecord]:
        """Records of *outage*: a record counts for the outage whose
        window its detection falls in."""
        return [
            record
            for record in self.records
            if outage.start <= record.outage.start <= outage.end
        ]

    def repairs_of(self, outage: InjectedOutage) -> List[RepairRecord]:
        """Records that poisoned *outage*'s failed AS.

        Scored at the AS level: one ground-truth failure can break
        several monitored pairs, and whichever pair's record drives the
        poison repairs them all.
        """
        return [
            record
            for record in self.detections_of(outage)
            if record.poisoned_asn == outage.true_asn
        ]


def run_outage_stream(
    scenario: DeploymentScenario,
    schedule: Sequence[ScheduledOutage],
    injector: FaultInjector,
    ledger: ImpactLedger,
    end: float,
    crash_at: Optional[float] = None,
) -> OutageStream:
    """Inject *schedule* as ground truth and tick the loop to *end*.

    Scheduled outage *k* fails an avoidable transit AS behind target
    ``k mod len(targets)`` (skipped when the path offers none).  With
    *crash_at*, the controller dies before the first tick at or after
    that time and comes back :data:`CRASH_DOWNTIME` later through
    :meth:`DeploymentScenario.recover`.  *ledger* (primed
    by the caller against the pristine FIBs) lives outside the
    controller, so it keeps counting stranded users while nobody
    repairs: routers forward on their last-installed FIBs.
    """
    lifeguard = scenario.lifeguard
    lifeguard.prime_atlas(now=0.0)
    stream = OutageStream()
    for scheduled in schedule:
        target = scenario.targets[scheduled.index % len(scenario.targets)]
        true_asn = scenario.avoidable_transit(target)
        if true_asn is None:
            continue
        scenario.fail_transit(true_asn, scheduled.start, scheduled.end)
        stream.outages.append(
            InjectedOutage(
                target=target,
                target_asn=scenario.topo.router_by_address(target).asn,
                true_asn=true_asn,
                start=scheduled.start,
                end=scheduled.end,
            )
        )

    interval = lifeguard.config.monitor_interval
    fibs = lifeguard.dataplane.fibs
    failures = lifeguard.dataplane.failures
    now = 30.0
    down_until = None
    while now <= end:
        if down_until is not None:
            # Controller dead: the network keeps evolving, repairs stay
            # announced, outages keep aging — nobody is watching.
            if now < down_until:
                scenario.engine.advance_to(now)
                ledger.observe(now, fibs, failures)
                now += interval
                continue
            lifeguard = scenario.recover(now, injector=injector)
            stream.recovered_records = len(lifeguard.records)
            down_until = None
        if crash_at is not None and now >= crash_at:
            # The process dies before this round runs.
            crash_at = None
            scenario.crash()
            down_until = now + CRASH_DOWNTIME
            stream.controller_crashes += 1
            continue
        lifeguard.tick(now)
        fibs = lifeguard.dataplane.fibs
        ledger.observe(now, fibs, failures)
        now += interval
    if down_until is not None:
        # The run ended inside the outage window: restart anyway so the
        # scoreboard reads the journal-recovered records, not nothing.
        lifeguard = scenario.recover(end, injector=injector)
        stream.recovered_records = len(lifeguard.records)

    stream.records = lifeguard.records
    for outage in stream.outages:
        outage.detected = bool(stream.detections_of(outage))
    return stream
