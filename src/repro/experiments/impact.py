"""User-impact study: how many user-minutes does one repair save?

Replays the quickstart repair story (one transit AS silently blackholes
traffic toward the origin's sentinel; LIFEGUARD isolates and poisons it)
with a gravity-model traffic matrix attached, and integrates
affected-user-minutes through the outage and the repair.  This is the
measurement the paper could only estimate: the ledger watches every
flow's AS-level path before, during and after the failure.

The study doubles as the CI smoke assertion (``repro impact --check``):
affected-user-minutes must be nonzero before the repair lands, and the
affected-user count must decrease monotonically once it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.runner.stats import RunStats
from repro.traffic.impact import ImpactLedger, ImpactSample
from repro.traffic.matrix import (
    TrafficConfig,
    TrafficMatrix,
    build_traffic_matrix,
)
from repro.workloads.scenarios import build_demo_scenario


@dataclass
class ImpactStudy:
    """Timeline of user impact through one outage-and-repair cycle."""

    scale: str
    seed: int
    bad_asn: int
    fail_start: float
    fail_end: float
    users_total: int
    flows: int
    baseline_unroutable: int
    repair_time: Optional[float]
    samples: List[ImpactSample] = field(default_factory=list)
    affected_user_minutes: float = 0.0
    user_minutes_before_repair: float = 0.0
    peak_users_affected: int = 0
    lpm_entries: int = 0

    @property
    def final_affected_users(self) -> int:
        return self.samples[-1].affected_users if self.samples else 0

    def nonzero_before_repair(self) -> bool:
        """Did the outage strand users before the repair landed?"""
        return self.user_minutes_before_repair > 0.0

    def monotone_after_repair(self) -> bool:
        """Affected users never increase once the repair is announced."""
        if self.repair_time is None:
            return False
        series = [
            s.affected_users
            for s in self.samples
            if s.t >= self.repair_time
        ]
        return all(b <= a for a, b in zip(series, series[1:]))


def run_impact_study(
    scale: str = "tiny",
    seed: int = 0,
    traffic: Optional[TrafficConfig] = None,
    fail_start: float = 1000.0,
    fail_end: float = 8200.0,
    end: float = 9600.0,
    stats: Optional[RunStats] = None,
    obs=None,
) -> Tuple[ImpactStudy, TrafficMatrix]:
    """Run the demo repair story with the impact ledger attached."""
    stats = stats or RunStats()
    scenario, bad_asn = build_demo_scenario(
        seed, scale, obs, fail_start, fail_end, stats=stats
    )
    lifeguard = scenario.lifeguard

    with stats.timer("impact.matrix"):
        matrix = build_traffic_matrix(
            scenario.graph, seed=seed, config=traffic, stats=stats
        )
    ledger = ImpactLedger(matrix)
    # Failures live in the data plane, so the FIBs are still pristine.
    baseline_unroutable = ledger.prime(lifeguard.dataplane.fibs)
    with stats.timer("impact.wall"):
        samples = scenario.run(end, ledger=ledger).samples

    # A re-poison overwrites a record's poison time, so the repair is
    # the first poison the journal holds, and the minutes before it are
    # those integrated up to the sample of the tick that poisoned.
    repair_time = next(
        (e["poison_time"] for e in lifeguard.journal if "poison_time" in e),
        None,
    )
    minutes_before_repair = next(
        (s.user_minutes for s in samples if s.t == repair_time), 0.0
    )

    lpm_entries = sum(
        len(t) for t in lifeguard.dataplane.fibs.tables.values()
    )
    study = ImpactStudy(
        scale=scale,
        seed=seed,
        bad_asn=bad_asn,
        fail_start=fail_start,
        fail_end=fail_end,
        users_total=matrix.total_users,
        flows=len(matrix.flows),
        baseline_unroutable=baseline_unroutable,
        repair_time=repair_time,
        samples=samples,
        affected_user_minutes=ledger.user_minutes,
        user_minutes_before_repair=minutes_before_repair,
        peak_users_affected=ledger.peak_affected,
        lpm_entries=lpm_entries,
    )
    stats.count("impact.samples", len(samples))
    return study, matrix
