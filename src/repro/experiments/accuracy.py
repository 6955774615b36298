"""Isolation accuracy study (§5.3) and its probe/time accounting (§5.4).

Injects a labelled mix of unidirectional and bidirectional silent failures
into a monitored deployment and runs LIFEGUARD's isolation on each,
scoring three things:

* correctness — did LIFEGUARD blame the AS that was actually broken?
* consistency — is the verdict consistent with what traceroutes from
  *both* ends would show (the paper's ground-truth proxy, 169/182)?
* traceroute delta — would an operator using only a forward traceroute
  have blamed a different AS (the paper's 40%)?

Probe counts and the modelled isolation latency come along for free and
feed the §5.4 scalability results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.dataplane.failures import ASForwardingFailure
from repro.isolation.direction import FailureDirection
from repro.isolation.isolator import IsolationResult
from repro.runner.baseline import pack_snapshot, unpack_snapshot
from repro.runner.cache import resolve_cache
from repro.runner.core import derive_seed, run_trials
from repro.runner.stats import RunStats
from repro.topology.generate import prefix_for_asn
from repro.workloads.scenarios import DeploymentScenario, build_deployment


@dataclass
class FailureCase:
    """One injected failure and LIFEGUARD's verdict on it."""

    vp_name: str
    target_asn: int
    true_asn: int
    true_direction: FailureDirection
    result: Optional[IsolationResult] = None

    @property
    def isolated_correctly(self) -> bool:
        return (
            self.result is not None
            and self.result.blamed_asn == self.true_asn
        )

    @property
    def traceroute_differs(self) -> bool:
        return self.result is not None and self.result.differs_from_traceroute


@dataclass
class AccuracyStudy:
    """All cases plus aggregate metrics."""

    cases: List[FailureCase] = field(default_factory=list)

    def _done(self) -> List[FailureCase]:
        return [c for c in self.cases if c.result is not None]

    @property
    def accuracy(self) -> float:
        done = self._done()
        if not done:
            return 0.0
        return sum(c.isolated_correctly for c in done) / len(done)

    @property
    def consistency(self) -> float:
        """LIFEGUARD verdicts consistent with both-end traceroutes.

        A verdict is consistent if the failing-direction measurement
        terminates in (or adjacent to) the blamed AS; correctness implies
        consistency here because the injected ground truth defines where
        measurements die.  Incorrect-but-unisolated cases count against.
        """
        done = self._done()
        if not done:
            return 0.0
        consistent = sum(
            1
            for c in done
            if c.result.blamed_asn is not None
            and (
                c.isolated_correctly
                or c.result.blamed_link is not None
                and c.true_asn in c.result.blamed_link
            )
        )
        return consistent / len(done)

    @property
    def traceroute_difference_fraction(self) -> float:
        done = self._done()
        if not done:
            return 0.0
        return sum(c.traceroute_differs for c in done) / len(done)

    @property
    def mean_probes(self) -> float:
        done = self._done()
        if not done:
            return 0.0
        return sum(c.result.probes_used for c in done) / len(done)

    def mean_isolation_seconds(
        self, directions: Sequence[FailureDirection] = (
            FailureDirection.REVERSE,
            FailureDirection.BIDIRECTIONAL,
        )
    ) -> float:
        chosen = [
            c
            for c in self._done()
            if c.result.direction in directions
        ]
        if not chosen:
            return 0.0
        return sum(c.result.elapsed_seconds for c in chosen) / len(chosen)


def run_isolation_accuracy_study(
    scale: str = "medium",
    seed: int = 0,
    num_cases: int = 60,
    direction_mix: Tuple[float, float] = (0.35, 0.90),
    reply_loss_rate: float = 0.0,
    workers: int = 1,
    cache=None,
    stats: Optional[RunStats] = None,
) -> Tuple[AccuracyStudy, DeploymentScenario]:
    """Inject failures and isolate each one.

    *direction_mix* gives cumulative probabilities (reverse, forward);
    the remainder is bidirectional — the default mix mirrors the paper's
    population of isolated outages.  *reply_loss_rate* injects random
    probe-reply loss (ICMP rate limiting), the measurement noise that
    kept the paper's consistency below 100%.

    Every injection attempt *k* runs on its own copy of the primed
    deployment with RNGs derived from ``(seed, k)`` and a fixed clock
    slot, so attempt outcomes are independent of each other and of the
    worker count.  Attempts are issued in rounds (first round twice the
    requested case count, then one count per round up to the classic
    ``5 * num_cases`` cap) and the study keeps the first *num_cases*
    successful injections in attempt order — the same cases whether the
    rounds ran serially or across processes.
    """
    stats = stats if stats is not None else RunStats()
    cache = resolve_cache(cache, stats)
    scenario = build_deployment(
        scale=scale, seed=seed, num_providers=2,
        num_helper_vps=6, num_targets=6, cache=cache, stats=stats,
    )
    scenario.lifeguard.prime_atlas(now=0.0)
    scenario.lifeguard.prober.reply_loss_rate = reply_loss_rate
    with stats.timer("accuracy.snapshot"):
        snapshot = pack_snapshot(scenario)
    # One timed restore sample: every attempt pays this in its worker
    # (where per-attempt stats are not collected), so bench JSON gets the
    # per-fan-out restore cost right next to the snapshot cost.
    with stats.timer("accuracy.snapshot_restore"):
        unpack_snapshot(snapshot)
    context = (snapshot, seed, direction_mix)

    study = AccuracyStudy()
    max_attempts = num_cases * 5
    next_attempt = 0
    round_size = num_cases * 2
    while len(study.cases) < num_cases and next_attempt < max_attempts:
        batch = list(
            range(next_attempt, min(next_attempt + round_size, max_attempts))
        )
        next_attempt = batch[-1] + 1
        round_size = num_cases
        results = run_trials(
            _attempt_worker,
            batch,
            context=context,
            workers=workers,
            stats=stats,
            label="accuracy",
            chunks_per_worker=1,
        )
        study.cases.extend(case for case in results if case is not None)
    del study.cases[num_cases:]
    stats.count("accuracy.attempts", next_attempt)
    return study, scenario


def _attempt_worker(context, attempt: int) -> Optional[FailureCase]:
    """One injection attempt on a private copy of the deployment."""
    snapshot, master_seed, direction_mix = context
    scenario = unpack_snapshot(snapshot)
    lifeguard = scenario.lifeguard
    topo = scenario.topo
    rng = random.Random(derive_seed(master_seed, "accuracy", attempt))
    lifeguard.prober.reseed(
        derive_seed(master_seed, "accuracy-probe", attempt)
    )
    origin_rid = topo.routers_of(scenario.origin_asn)[0]
    now = 1000.0 + attempt * 4000.0

    target = rng.choice(scenario.targets)
    target_asn = topo.router_by_address(target).asn
    draw = rng.random()
    if draw < direction_mix[0]:
        direction = FailureDirection.REVERSE
    elif draw < direction_mix[1]:
        direction = FailureDirection.FORWARD
    else:
        direction = FailureDirection.BIDIRECTIONAL

    if direction is FailureDirection.REVERSE:
        transits = scenario.reverse_transits(target)
    else:
        transits = scenario.forward_transits(target)
    if not transits:
        return None
    bad_asn = rng.choice(transits)
    toward = (
        None
        if direction is FailureDirection.BIDIRECTIONAL
        else prefix_for_asn(scenario.origin_asn)
        if direction is FailureDirection.REVERSE
        else prefix_for_asn(target_asn)
    )
    failure = ASForwardingFailure(
        asn=bad_asn, toward=toward, start=now, end=now + 3600.0
    )
    lifeguard.dataplane.failures.add(failure)
    lifeguard.dataplane.now = now + 120.0

    # Only isolate if the failure actually broke this vp->target pair.
    if lifeguard.prober.ping(origin_rid, target).success:
        return None
    case = FailureCase(
        vp_name="origin",
        target_asn=target_asn,
        true_asn=bad_asn,
        true_direction=direction,
    )
    case.result = lifeguard.isolator.isolate("origin", target, now + 120.0)
    return case
