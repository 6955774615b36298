"""Robustness study: repair under faults in LIFEGUARD's own plumbing.

The paper's deployment ran on infrastructure that failed constantly —
PlanetLab vantage points crashed, probes were rate-limited or lost, BGP
sessions to the Mux flapped, and the background atlas was always somewhat
stale (§5.2).  This study quantifies how the control loop holds up: it
injects *ground-truth* data-plane failures (the thing LIFEGUARD should
repair) while a :class:`~repro.faults.FaultInjector` simultaneously breaks
the measurement and control machinery at a swept intensity, then scores

* repair rate — injected outages where LIFEGUARD poisoned the truly
  failed AS (and later detected repair and unpoisoned);
* false poisons — poisoning an AS that was never broken, the failure
  mode graceful degradation exists to prevent;
* deferrals — rounds where the DEGRADED path held fire on thin evidence;
* rollbacks / breaker opens — poisons the repair guard withdrew and
  (pair, ASN) combinations it gave up on;
* crash recovery — with ``crash_controller`` the harness kills the
  controller at :data:`CRASH_AT` (at nonzero intensity: intensity 0
  stays the null run) and rebuilds it from its write-ahead journal, so
  the sweep also measures whether in-flight repairs survive a restart.

Intensity 0 doubles as the reproducibility anchor: an attached injector
with an empty plan must leave the run byte-identical to no injector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.control.record import RepairState
from repro.experiments.outage_stream import (
    InjectedOutage,
    primed_ledger,
    run_outage_stream,
    stream_schedule,
)
from repro.faults.injector import FaultStats
from repro.runner.core import run_trials
from repro.runner.stats import RunStats
from repro.workloads.scenarios import build_chaos_deployment

#: Controller kill time with ``crash_controller``: 4000 s into the chaos
#: window, during the first injected outage.
CRASH_AT = 4900.0


@dataclass
class RobustnessPoint:
    """One intensity level of the sweep."""

    intensity: float
    outages: List[InjectedOutage] = field(default_factory=list)
    #: poisons of ASes that were never broken (must stay zero).
    false_poisons: int = 0
    #: degraded-path holds: low confidence or dead-VP deferrals.
    deferrals: int = 0
    #: outages abandoned after the isolation retry budget ran dry.
    retry_exhausted: int = 0
    #: poisons the repair guard verified as ineffective/harmful and undid.
    rollbacks: int = 0
    #: (pair, ASN) combinations the circuit breaker gave up on.
    breaker_opens: int = 0
    #: scheduled controller kills the harness executed.
    controller_crashes: int = 0
    #: repair records carried across the journal-replay recovery.
    recovered_records: int = 0
    #: what the injector actually did during the run.
    stats: Optional[FaultStats] = None
    #: gravity-model users behind the deployment's stub ASes.
    users_total: int = 0
    #: most users simultaneously stranded at any sample.
    peak_users_affected: int = 0
    #: integrated user impact across the whole point (minutes).
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
    def completed(self) -> int:
        return sum(o.unpoisoned for o in self.outages)

    @property
    def repair_fraction(self) -> float:
        if not self.outages:
            return 0.0
        return self.repaired / len(self.outages)


@dataclass
class RobustnessStudy:
    """The full intensity sweep."""

    points: List[RobustnessPoint] = field(default_factory=list)

    @property
    def max_false_poisons(self) -> int:
        return max((p.false_poisons for p in self.points), default=0)


def _run_point(
    scale: str,
    seed: int,
    intensity: float,
    num_outages: int,
    crash_controller: bool = False,
) -> RobustnessPoint:
    scenario, injector = build_chaos_deployment(
        scale=scale, seed=seed, intensity=intensity
    )
    ledger = primed_ledger(scenario, seed)
    schedule, end = stream_schedule(num_outages, seed)
    crash_at = CRASH_AT if crash_controller and intensity > 0 else None
    stream = run_outage_stream(
        scenario, schedule, injector, ledger, end, crash_at=crash_at
    )

    point = RobustnessPoint(
        intensity=intensity,
        outages=stream.outages,
        controller_crashes=stream.controller_crashes,
        recovered_records=stream.recovered_records,
        stats=injector.stats,
        users_total=ledger.matrix.total_users,
        peak_users_affected=ledger.peak_affected,
        affected_user_minutes=ledger.user_minutes,
    )
    for outage in point.outages:
        repairs = stream.repairs_of(outage)
        outage.poisoned_true = bool(repairs)
        outage.unpoisoned = any(
            r.state is RepairState.UNPOISONED for r in repairs
        )
    true_asns = {outage.true_asn for outage in point.outages}
    for record in stream.records:
        if (
            record.poisoned_asn is not None
            and record.poisoned_asn not in true_asns
        ):
            point.false_poisons += 1
        point.rollbacks += record.rollbacks
        for note in record.notes:
            if "deferr" in note or "deferred" in note:
                point.deferrals += 1
            if "retry budget" in note:
                point.retry_exhausted += 1
            if "circuit breaker open" in note:
                point.breaker_opens += 1
    return point


def _point_worker(context, intensity: float) -> RobustnessPoint:
    """One intensity level on its own deployment (trivially independent)."""
    scale, seed, num_outages, crash_controller = context
    return _run_point(
        scale,
        seed,
        intensity,
        num_outages,
        crash_controller=crash_controller,
    )


def run_robustness_study(
    scale: str = "tiny",
    seed: int = 0,
    intensities: Sequence[float] = (0.0, 0.1, 0.3),
    num_outages: int = 3,
    workers: int = 1,
    stats: Optional[RunStats] = None,
    crash_controller: bool = False,
) -> RobustnessStudy:
    """Sweep fault intensity; each point is an independent deployment.

    With *crash_controller*, every point above intensity 0 also kills
    the controller mid-run and recovers it from its journal, so the
    sweep doubles as a crash-recovery measurement.
    """
    stats = stats if stats is not None else RunStats()
    context = (scale, seed, num_outages, crash_controller)
    points = run_trials(
        _point_worker,
        list(intensities),
        context=context,
        workers=workers,
        stats=stats,
        label="robustness",
        chunks_per_worker=1,
    )
    return RobustnessStudy(points=points)
