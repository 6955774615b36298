"""Defense study: repair efficacy against deployed anti-poisoning filters.

LIFEGUARD's repair primitive — announcing a path that contains the failed
AS — looks exactly like the path-poisoning attacks that measurement
studies later found networks filtering: poisoned-path (sandwich) filters,
reserved-ASN rejection, AS-path-length caps, and Peerlock-style peer
protection, plus stub networks that default-route to a provider and so
keep delivering traffic regardless of what BGP says.  This study deploys
those defenses (:func:`~repro.topology.generate.assign_defense_configs`)
on a swept fraction of ASes and measures what happens to repairs:

* with the **fallback ladder off**, a filtered poison verifies
  INEFFECTIVE, rolls back, and retries the same poison until the breaker
  opens — the repair is lost;
* with the **ladder on** (``LifeguardConfig.fallback_ladder``), each
  rollback escalates one rung of
  :data:`~repro.control.record.LADDER_STRATEGIES` toward mechanisms
  filters cannot drop (prepend-only steering, selective advertisement).

Every point is scored like the robustness study — injected ground-truth
failures, AS-level repair attribution — plus ladder bookkeeping
(escalations, which rung repaired) and an **abandoned** count: records
still mid-flight (ISOLATED / VERIFYING / ROLLED_BACK) at run end, which
the CI smoke job treats as a liveness failure.  With *crash_controller*
the controller is killed mid-sweep and recovered from its journal, so
ladder state itself is exercised across a restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.control.lifeguard import (
    LifeguardConfig,
    RepairState,
    stage_of,
)
from repro.experiments.outage_stream import (
    InjectedOutage,
    primed_ledger,
    run_outage_stream,
    stream_schedule,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.runner.core import run_trials
from repro.runner.stats import RunStats
from repro.workloads.scenarios import build_deployment

#: Breaker budget used by both arms: four failures leave room for every
#: ladder rung (poison -> multi-poison -> prepend -> selective
#: advertisement) before the breaker opens, and the ladder-off arm gets
#: the same number of plain retries so the comparison is fair.
BREAKER_BUDGET = 4

#: Mid-sweep controller kill time with ``crash_controller``, during the
#: second injected outage.
CRASH_AT = 14500.0


def is_abandoned(record) -> bool:
    """A record the state machine left mid-flight at run end.

    Every injected outage ends well before the run does, so ISOLATED or
    VERIFYING at the end is a stuck state machine, and ROLLED_BACK with
    the outage still *ongoing* means retries silently stopped.
    ROLLED_BACK after the outage ended is the designed terminal (the
    pair recovered, retrying is pointless), and NOT_POISONED is a
    deliberate disposition — neither is abandonment.
    """
    if record.state is RepairState.ISOLATED:
        return True
    return stage_of(record) in ("verify", "retry")


@dataclass
class DefensePoint:
    """One (deployment rate, ladder arm) cell of the sweep."""

    rate: float
    ladder: bool
    outages: List[InjectedOutage] = field(default_factory=list)
    #: ladder escalations across all records.
    escalations: int = 0
    #: repairs completed by an escalated rung (ladder_step > 0).
    ladder_repairs: int = 0
    rollbacks: int = 0
    breaker_opens: int = 0
    #: records still mid-flight at run end (liveness gate).
    abandoned: int = 0
    controller_crashes: int = 0
    recovered_records: int = 0
    #: verified_time - outage start, per verified repair of a true AS.
    repair_times: List[float] = field(default_factory=list)
    #: gravity-model users behind the deployment's stub ASes.
    users_total: int = 0
    #: most users simultaneously stranded at any sample.
    peak_users_affected: int = 0
    #: integrated user impact across the whole cell (minutes) — the
    #: user-facing cost of repairs the defenses filtered away.
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

    @property
    def mean_time_to_repair(self) -> Optional[float]:
        if not self.repair_times:
            return None
        return sum(self.repair_times) / len(self.repair_times)


@dataclass
class DefenseStudy:
    """The full (rate x ladder) sweep."""

    points: List[DefensePoint] = field(default_factory=list)

    def point(self, rate: float, ladder: bool) -> Optional[DefensePoint]:
        for candidate in self.points:
            if candidate.rate == rate and candidate.ladder is ladder:
                return candidate
        return None

    @property
    def abandoned_total(self) -> int:
        return sum(p.abandoned for p in self.points)

    def ladder_recovery(self, rate: float) -> Optional[Tuple[int, int]]:
        """``(lost, recovered)`` at *rate*: repairs the defenses cost the
        ladder-off arm relative to rate 0, and how many of those the
        ladder arm won back.  None when the sweep lacks the needed
        points."""
        baseline = self.point(0.0, False) or self.point(0.0, True)
        off = self.point(rate, False)
        on = self.point(rate, True)
        if baseline is None or off is None or on is None:
            return None
        lost = max(0, baseline.repaired - off.repaired)
        recovered = max(0, on.repaired - off.repaired)
        return lost, recovered


def _run_point(
    scale: str,
    seed: int,
    rate: float,
    ladder: bool,
    num_outages: int,
    crash_controller: bool = False,
) -> DefensePoint:
    config = LifeguardConfig(
        fallback_ladder=ladder,
        breaker_max_failures=BREAKER_BUDGET,
    )
    scenario = build_deployment(
        scale=scale,
        seed=seed,
        defense_rate=rate,
        lifeguard_config=config,
    )
    injector = FaultInjector(FaultPlan(seed=seed + 1))
    injector.attach(scenario.lifeguard)
    # Defended cells that lose repairs show up in the ledger as extra
    # affected-user-minutes, not just missing repair counts.
    ledger = primed_ledger(scenario, seed)
    schedule, end = stream_schedule(num_outages, seed)
    stream = run_outage_stream(
        scenario, schedule, injector, ledger, end,
        crash_at=CRASH_AT if crash_controller else None,
    )

    point = DefensePoint(
        rate=rate,
        ladder=ladder,
        outages=stream.outages,
        controller_crashes=stream.controller_crashes,
        recovered_records=stream.recovered_records,
        users_total=ledger.matrix.total_users,
        peak_users_affected=ledger.peak_affected,
        affected_user_minutes=ledger.user_minutes,
    )
    # A repair counts only once verification promoted it — a poison the
    # defenses filtered never verifies, so it never scores.
    verified_states = (RepairState.POISONED, RepairState.UNPOISONED)
    for outage in point.outages:
        verified = [
            r for r in stream.repairs_of(outage) if r.state in verified_states
        ]
        if not verified:
            continue
        outage.poisoned_true = True
        outage.unpoisoned = any(
            r.state is RepairState.UNPOISONED for r in verified
        )
        first = verified[0]
        if first.ladder_step > 0:
            point.ladder_repairs += 1
        if first.verified_time is not None:
            point.repair_times.append(
                first.verified_time - first.outage.start
            )
    for record in stream.records:
        point.rollbacks += record.rollbacks
        point.escalations += record.escalations
        if is_abandoned(record):
            point.abandoned += 1
        for note in record.notes:
            if "circuit breaker open" in note:
                point.breaker_opens += 1
    return point


def _point_worker(context, cell: Tuple[float, bool]) -> DefensePoint:
    """One (rate, ladder) cell on its own deployment."""
    scale, seed, num_outages, crash_controller = context
    rate, ladder = cell
    return _run_point(
        scale,
        seed,
        rate,
        ladder,
        num_outages,
        crash_controller=crash_controller,
    )


def run_defense_study(
    scale: str = "tiny",
    seed: int = 0,
    rates: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    num_outages: int = 3,
    workers: int = 1,
    stats: Optional[RunStats] = None,
    crash_controller: bool = False,
    ladder_arms: Sequence[bool] = (False, True),
) -> DefenseStudy:
    """Sweep defense deployment rate, ladder off vs on at every rate.

    Each cell is an independent deployment (same seed, same injected
    failures), so rate and ladder are the only moving parts.  With
    *crash_controller*, every cell's controller is killed mid-sweep and
    recovered from its journal.
    """
    stats = stats if stats is not None else RunStats()
    context = (scale, seed, num_outages, crash_controller)
    cells = [
        (float(rate), bool(ladder))
        for rate in rates
        for ladder in ladder_arms
    ]
    points = run_trials(
        _point_worker,
        cells,
        context=context,
        workers=workers,
        stats=stats,
        label="defenses",
        chunks_per_worker=1,
    )
    return DefenseStudy(points=points)
