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
* deferrals — distinct deferral notes per outage record: any note
  whose text contains "deferr", so low-confidence isolations and dead-VP
  isolations, but also pacing (announcement budget exhausted), rollback
  backoff and deferred verification.  A repeated text counts once per
  record; low-confidence notes differ by their confidence value;
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
from typing import Iterable, List, Optional, Sequence

from repro.control.record import RepairState
from repro.experiments.outage_stream import StreamScore, run_outage_stream
from repro.faults.injector import FaultStats
from repro.runner.core import run_trials
from repro.runner.stats import RunStats
from repro.workloads.scenarios import build_chaos_deployment

#: Controller kill time with ``crash_controller``: 4000 s into the chaos
#: window, during the first injected outage.
CRASH_AT = 4900.0


@dataclass
class RobustnessPoint(StreamScore):
    """One intensity level of the sweep."""

    intensity: float
    #: poisons of ASes that were never broken (must stay zero).
    false_poisons: int = 0
    #: distinct note texts containing "deferr", per record, summed:
    #: low-confidence and dead-VP isolation deferrals, pacing and
    #: rollback-backoff poisoning deferrals and deferred verifications.
    deferrals: int = 0
    #: outages abandoned after the isolation retry budget ran dry.
    retry_exhausted: int = 0
    #: what the injector actually did during the run.
    stats: Optional[FaultStats] = None

    @property
    def completed(self) -> int:
        return sum(o.unpoisoned for o in self.outages)

    def count_notes(self, notes: Iterable[str]) -> None:
        """Count one record's deferral and retry-exhaustion notes (its
        notes are distinct texts: a repeated one is noted once)."""
        for note in notes:
            if "deferr" in note:
                self.deferrals += 1
            if "retry budget" in note:
                self.retry_exhausted += 1


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
    crash_at = CRASH_AT if crash_controller and intensity > 0 else None
    stream = run_outage_stream(scenario, num_outages, seed, crash_at)

    point = RobustnessPoint(intensity=intensity, stats=injector.stats)
    point.tally(stream)
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
        point.count_notes(record.notes)
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
