"""The one harness that pushes ground-truth outages through the loop.

The robustness sweep and the defense sweep ask different questions of
the same experiment: stream scheduled failures of avoidable transit ASes
into a deployment, run the study loop through them
(:meth:`~repro.workloads.scenarios.DeploymentScenario.run`, killing and
recovering the controller when the study asks) and attribute the
resulting repair records back to the failures at the AS level.  That
experiment and the scoreboard both studies keep live here once; a study
keeps its deployment, its point type and its own counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.control.record import RepairRecord
from repro.net.addr import Address
from repro.traffic.impact import ImpactLedger
from repro.traffic.matrix import build_traffic_matrix
from repro.workloads.outages import (
    OutageArrivalConfig,
    generate_outage_schedule,
)
from repro.workloads.scenarios import DeploymentScenario, LoopRun

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

    outages: List[InjectedOutage]
    #: the last controller incarnation's records (journal-recovered if
    #: the controller was ever killed).
    records: List[RepairRecord]
    ledger: ImpactLedger
    loop: LoopRun

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
    num_outages: int,
    seed: int,
    crash_at: Optional[float] = None,
) -> OutageStream:
    """Inject *num_outages* of :data:`STREAM_ARRIVALS` as ground truth
    and run the study loop to 2400 s past the last arrival slot.

    Scheduled outage *k* fails an avoidable transit AS behind target
    ``k mod len(targets)`` (skipped when the path offers none).
    *crash_at* is :meth:`DeploymentScenario.run`'s.  User impact is a
    gravity-model matrix over the deployment's stub ASes, its baseline
    fixed against the pristine FIBs before anything fails.
    """
    ledger = ImpactLedger(build_traffic_matrix(scenario.graph, seed=seed))
    ledger.prime(scenario.lifeguard.dataplane.fibs)
    schedule = generate_outage_schedule(
        num_outages, STREAM_ARRIVALS, seed=seed
    )
    end = (
        STREAM_ARRIVALS.first_arrival
        + num_outages * STREAM_ARRIVALS.spacing
        + 2400.0
    )
    scenario.lifeguard.prime_atlas(now=0.0)
    outages = []
    for scheduled in schedule:
        target = scenario.targets[scheduled.index % len(scenario.targets)]
        true_asn = scenario.avoidable_transit(target)
        if true_asn is None:
            continue
        scenario.fail_transit(true_asn, scheduled.start, scheduled.end)
        outages.append(
            InjectedOutage(
                target=target,
                target_asn=scenario.topo.router_by_address(target).asn,
                true_asn=true_asn,
                start=scheduled.start,
                end=scheduled.end,
            )
        )
    loop = scenario.run(end, ledger=ledger, crash_at=crash_at)
    stream = OutageStream(
        outages, scenario.lifeguard.records, ledger, loop
    )
    for outage in outages:
        outage.detected = bool(stream.detections_of(outage))
    return stream


@dataclass(kw_only=True)
class StreamScore:
    """The scoreboard every outage-stream study keeps; :meth:`tally`
    fills it from one :class:`OutageStream`."""

    outages: List[InjectedOutage] = field(default_factory=list)
    #: poisons the repair guard verified as ineffective/harmful and undid.
    rollbacks: int = 0
    #: (pair, ASN) combinations the circuit breaker gave up on.
    breaker_opens: int = 0
    #: scheduled controller kills the harness executed.
    controller_crashes: int = 0
    #: repair records carried across the journal-replay recovery.
    recovered_records: int = 0
    #: gravity-model users behind the deployment's stub ASes.
    users_total: int = 0
    #: most users simultaneously stranded at any sample.
    peak_users_affected: int = 0
    #: integrated user impact across the whole run (minutes).
    affected_user_minutes: float = 0.0

    @property
    def injected(self) -> int:
        return len(self.outages)

    @property
    def detected(self) -> int:
        return sum(o.detected for o in self.outages)

    @property
    def repaired(self) -> int:
        return sum(o.poisoned_true for o in self.outages)

    @property
    def repair_fraction(self) -> float:
        if not self.outages:
            return 0.0
        return self.repaired / len(self.outages)

    def tally(self, stream: OutageStream) -> None:
        """Take the stream's outages, crash and ledger numbers, and count
        rollbacks and breaker opens over its records."""
        self.outages = stream.outages
        self.controller_crashes = stream.loop.controller_crashes
        self.recovered_records = stream.loop.recovered_records
        self.users_total = stream.ledger.matrix.total_users
        self.peak_users_affected = stream.ledger.peak_affected
        self.affected_user_minutes = stream.ledger.user_minutes
        for record in stream.records:
            self.rollbacks += len(record.rollbacks)
            self.breaker_opens += sum(
                "circuit breaker open" in note for note in record.notes
            )
