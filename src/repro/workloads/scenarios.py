"""Ready-made simulation scenarios shared by tests, examples and benches.

A :class:`DeploymentScenario` is a fully wired world: a synthetic Internet,
its router expansion, a converged BGP control plane, an origin AS with
multiple providers (the BGP-Mux role), vantage points, monitored targets,
and a :class:`~repro.control.lifeguard.Lifeguard` instance on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.bgp.engine import BGPEngine, EngineConfig
from repro.control.lifeguard import Lifeguard, LifeguardConfig
from repro.dataplane.failures import ASForwardingFailure
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.measure.vantage import VantageSet
from repro.net.addr import Address, Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.generate import InternetShape, generate_internet
from repro.splice.reachability import reachable_set_avoiding
from repro.topology.routers import RouterTopology
from repro.workloads.outages import generate_outage_trace

if TYPE_CHECKING:
    from repro.traffic.impact import ImpactLedger, ImpactSample

#: Sim seconds a crashed controller stays down before the harness
#: recovers it (the service daemon's loop and the study loop alike).
CRASH_DOWNTIME = 300.0

#: Named topology scales.
SCALES: Dict[str, InternetShape] = {
    "tiny": InternetShape(num_tier1=3, num_tier2=8, num_stubs=20),
    "small": InternetShape(num_tier1=4, num_tier2=16, num_stubs=60),
    "medium": InternetShape(num_tier1=6, num_tier2=40, num_stubs=200),
    "large": InternetShape(num_tier1=8, num_tier2=80, num_stubs=600),
}


def build_internet(
    scale: str = "small", seed: int = 0
) -> Tuple[ASGraph, InternetShape]:
    """A synthetic Internet at one of the named scales."""
    try:
        shape = SCALES[scale]
    except KeyError:
        raise ReproError(
            f"unknown scale {scale!r}; pick from {sorted(SCALES)}"
        )
    return generate_internet(shape, seed=seed), shape


@dataclass
class DeploymentScenario:
    """A wired-up LIFEGUARD deployment over a synthetic Internet."""

    graph: ASGraph
    topo: RouterTopology
    engine: BGPEngine
    origin_asn: int
    production_prefix: Prefix
    lifeguard: Lifeguard
    vantage_points: VantageSet
    targets: List[Address]
    #: ASNs hosting each vantage point, origin first.
    vp_asns: List[int] = field(default_factory=list)
    #: the outage-duration sample the controller's decision rule is fit
    #: from — deployment configuration, so it outlives a controller.
    duration_history: Sequence[float] = ()
    #: what a crashed controller left behind: (journal, config, failures).
    _survivors: Optional[tuple] = field(default=None, init=False, repr=False)

    # ------------------------------------------------------------------
    # Ground truth: which AS to break, and breaking it
    # ------------------------------------------------------------------
    def _transits(self, from_rid: str, to_addr, target) -> List[int]:
        walk = self.lifeguard.dataplane.forward(from_rid, to_addr)
        if not walk.delivered:
            return []
        edges = (self.origin_asn, self.topo.router_by_address(target).asn)
        return [
            asn
            for asn in walk.as_level_hops(self.topo)[1:-1]
            if asn not in edges
        ]

    def _origin_rid(self) -> str:
        return self.topo.routers_of(self.origin_asn)[0]

    def forward_transits(self, target) -> List[int]:
        """Transit ASes the origin's traffic crosses toward *target*, in
        path order (neither edge AS); empty if it is not delivered."""
        return self._transits(self._origin_rid(), target, target)

    def reverse_transits(self, target) -> List[int]:
        """Transit ASes on the data-plane path *target* -> origin, in
        path order (neither edge AS); empty if it is not delivered."""
        return self._transits(
            self.lifeguard.dataplane.host_router(target),
            self.topo.router(self._origin_rid()).address,
            target,
        )

    def avoidable_transit(
        self, target, prefer: Optional[Callable[[int], object]] = None
    ) -> Optional[int]:
        """A transit AS on *target* -> origin whose loss poisoning can
        route around: the target stays reachable from the origin over
        policy-compliant paths that avoid it.

        Restricting ground truth to avoidable ASes makes every injected
        failure repairable in principle, so a miss is chargeable to
        whatever the study perturbs.  The first such AS on the path,
        or with a *prefer* sort key the lowest-ranked of them all.
        """
        target_asn = self.topo.router_by_address(target).asn
        avoidable = (
            asn
            for asn in self.reverse_transits(target)
            if target_asn in reachable_set_avoiding(
                self.graph, self.origin_asn, avoid=[asn]
            )
        )
        if prefer is None:
            return next(avoidable, None)
        return min(avoidable, key=prefer, default=None)

    def fail_transit(self, asn: int, start: float, end: float) -> None:
        """Make *asn* silently drop traffic during ``[start, end)``.

        Scoped toward the sentinel super-prefix, so both the production
        path and the repair-detection channel break — the reverse-failure
        shape the sentinel exists for (§4.2).
        """
        self.lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=asn,
                toward=self.lifeguard.sentinel_manager.sentinel,
                start=start,
                end=end,
            )
        )

    # ------------------------------------------------------------------
    # A dead controller and its successor
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the controller.

        The journal is closed (the write-ahead contract: every entry was
        flushed as it was appended, so anything journaled survives).  The
        network, the failure set, the config, the rotated journal
        segments and the harness's attached injector and observer
        outlive the process; nobody watches until :meth:`recover`.
        """
        lifeguard = self.lifeguard
        lifeguard.journal.close()
        self._survivors = (
            lifeguard.journal,
            lifeguard.config,
            lifeguard.dataplane.failures,
            lifeguard.injector,
            lifeguard.obs,
        )
        self.lifeguard = None

    def recover(self, now: float) -> Lifeguard:
        """Rebuild the controller from what outlived :meth:`crash`.

        The dead controller's observer and fault injector are wired back
        in *before* the atlas is re-primed, so the restarted controller's
        background measurements are observed, and suffer faults, like
        live ones.
        """
        journal, config, failures, injector, obs = self._survivors
        self._survivors = None
        lifeguard = Lifeguard.recover(
            journal.reopened(),
            engine=self.engine,
            topo=self.topo,
            origin_asn=self.origin_asn,
            vantage_points=self.vantage_points,
            targets=self.targets,
            duration_history=self.duration_history,
            config=config,
            now=now,
            failures=failures,
            reprime_atlas=False,
        )
        if obs is not None:
            lifeguard.attach_observer(obs)
        if injector is not None:
            injector.attach(lifeguard)
        lifeguard.prime_atlas(now)
        self.lifeguard = lifeguard
        return lifeguard

    # ------------------------------------------------------------------
    # The study loop
    # ------------------------------------------------------------------
    def run(
        self,
        end: float,
        start: float = 30.0,
        ledger: Optional[ImpactLedger] = None,
        crash_at: Optional[float] = None,
    ) -> LoopRun:
        """Tick the controller from *start* to *end* at the monitor
        interval.

        With *crash_at*, the controller dies before the first tick at or
        after that time and comes back :data:`CRASH_DOWNTIME` later
        through :meth:`recover` (at *end* if the run ends first, so the
        caller reads the journal-recovered records, not nothing).
        *ledger* (primed by the caller against the pristine FIBs) lives
        outside the controller and samples after every tick, so it keeps
        counting stranded users while nobody repairs: routers forward on
        their last-installed FIBs.
        """
        loop = LoopRun()
        lifeguard = self.lifeguard
        interval = lifeguard.config.monitor_interval
        fibs = lifeguard.dataplane.fibs
        failures = lifeguard.dataplane.failures
        now = start
        down_until = None
        while now <= end:
            if down_until is not None:
                # Controller dead: the network keeps evolving, repairs
                # stay announced, outages keep aging — nobody watches.
                if now < down_until:
                    self.engine.advance_to(now)
                    if ledger is not None:
                        loop.samples.append(
                            ledger.observe(now, fibs, failures)
                        )
                    now += interval
                    continue
                lifeguard = self.recover(now)
                loop.recovered_records = len(lifeguard.records)
                down_until = None
            if crash_at is not None and now >= crash_at:
                # The process dies before this round runs.
                crash_at = None
                self.crash()
                down_until = now + CRASH_DOWNTIME
                loop.controller_crashes += 1
                continue
            lifeguard.tick(now)
            fibs = lifeguard.dataplane.fibs
            if ledger is not None:
                loop.samples.append(ledger.observe(now, fibs, failures))
            now += interval
        if down_until is not None:
            lifeguard = self.recover(end)
            loop.recovered_records = len(lifeguard.records)
        return loop


@dataclass
class LoopRun:
    """What one :meth:`DeploymentScenario.run` saw besides the records."""

    #: the ledger's sample after every tick and every dead round.
    samples: List[ImpactSample] = field(default_factory=list)
    #: controller kills executed (one at ``crash_at``).
    controller_crashes: int = 0
    #: repair records carried across the journal-replay recovery.
    recovered_records: int = 0


def build_deployment(
    scale: str = "small",
    seed: int = 0,
    num_providers: int = 2,
    num_helper_vps: int = 5,
    num_targets: int = 4,
    engine_config: Optional[EngineConfig] = None,
    lifeguard_config: Optional[LifeguardConfig] = None,
    defense_rate: float = 0.0,
    stats=None,
    obs=None,
    journal=None,
    *,
    cache: None = None,
) -> DeploymentScenario:
    """Build the standard scenario.

    The origin AS (LIFEGUARD's deployer) is attached to *num_providers*
    tier-2 providers.  One vantage point sits at the origin; helper
    vantage points sit at other stubs; monitored targets are routers in
    transit ASes, echoing the EC2 study's choice of high-degree networks.

    The converged control plane comes from
    :func:`repro.runner.baseline.converged_internet` in ``auto`` mode.

    *obs* is an optional :class:`~repro.obs.events.EventBus`, attached
    via :meth:`~repro.control.lifeguard.Lifeguard.attach_observer`
    before the baseline announcement so the event log covers the
    deployment's whole observable life.  *journal* is an optional
    :class:`~repro.control.journal.RepairJournal` (e.g. file-backed for
    the service daemon), installed before the baseline announcement so
    the write-ahead log is complete from the first entry.

    *defense_rate* deploys the measured anti-poisoning defenses on that
    fraction of ASes (tier-biased, seed-derived; see
    :func:`~repro.topology.generate.assign_defense_configs`).
    """
    # Deferred: runner.baseline reaches back into this module.
    from repro.runner.baseline import ORIGIN_ASN_EVEN, converged_internet

    # Only ``cache=None`` is accepted: bench/workloads.py still passes it.
    if cache is not None:
        raise TypeError("build_deployment() has no disk cache; omit cache=")
    base = converged_internet(
        scale,
        seed,
        engine_config=engine_config or EngineConfig(seed=seed),
        origin_providers=num_providers,
        origin_asn_policy=ORIGIN_ASN_EVEN,
        defense_rate=defense_rate,
        stats=stats,
    )
    graph, engine, origin_asn = base.graph, base.engine, base.origin_asn
    topo = RouterTopology.build(graph, seed=seed)

    vps = VantageSet(topo)
    vps.add("origin", topo.routers_of(origin_asn)[0])
    stubs = [
        n.asn
        for n in graph.nodes()
        if n.tier == 3 and n.asn != origin_asn
    ]
    vp_asns = [origin_asn]
    for index, asn in enumerate(stubs[:num_helper_vps]):
        vps.add(f"helper{index}", topo.routers_of(asn)[0])
        vp_asns.append(asn)

    # Targets: routers in well-connected transit ASes, one per AS,
    # skipping the origin's own providers (their failure would be a
    # single-provider situation handled separately).
    providers = set(graph.providers(origin_asn))
    transit = sorted(
        (asn for asn in graph.transit_ases() if asn not in providers),
        key=lambda a: -graph.degree(a),
    )
    targets = []
    for asn in transit:
        rid = topo.routers_of(asn)[0]
        if topo.router(rid).responds_to_ping:
            targets.append(topo.router(rid).address)
        if len(targets) >= num_targets:
            break
    if len(targets) < num_targets:
        # Service-scale deployments monitor more prefixes than there are
        # transit ASes; widen deterministically to the remaining transit
        # routers, then to stub routers (still skipping the origin's
        # providers and the VP hosts).
        vp_hosts = set(vp_asns)
        pool = [
            rid
            for asn in transit
            for rid in topo.routers_of(asn)[1:]
        ]
        pool += [
            rid
            for asn in stubs
            if asn not in vp_hosts
            for rid in topo.routers_of(asn)
        ]
        seen = set(targets)
        for rid in pool:
            if len(targets) >= num_targets:
                break
            router = topo.router(rid)
            if router.responds_to_ping and router.address not in seen:
                targets.append(router.address)
                seen.add(router.address)

    history = generate_outage_trace(seed=seed).durations
    lifeguard = Lifeguard(
        engine=engine,
        topo=topo,
        origin_asn=origin_asn,
        vantage_points=vps,
        targets=targets,
        duration_history=history,
        config=lifeguard_config,
        journal=journal,
    )
    if obs is not None:
        lifeguard.attach_observer(obs)
    lifeguard.announce()
    production = lifeguard.production_prefix
    return DeploymentScenario(
        graph=graph,
        topo=topo,
        engine=engine,
        origin_asn=origin_asn,
        production_prefix=production,
        lifeguard=lifeguard,
        vantage_points=vps,
        targets=targets,
        vp_asns=vp_asns,
        duration_history=history,
    )


def build_demo_scenario(
    seed: int = 0,
    scale: str = "tiny",
    obs=None,
    fail_start: float = 1000.0,
    fail_end: float = 8200.0,
    stats=None,
) -> Tuple[DeploymentScenario, int]:
    """The quickstart repair story, set up and about to start.

    Builds the tiny deployment, picks the first transit AS on the reverse
    path from the primary target back to the origin, primes the atlas
    and breaks that AS's forwarding toward the sentinel for
    ``[fail_start, fail_end)``.  Returns the scenario and the failed ASN.
    """
    scenario = build_deployment(
        scale=scale, seed=seed, num_providers=2, obs=obs, stats=stats,
    )
    bad_asn = scenario.reverse_transits(scenario.targets[0])[0]
    scenario.lifeguard.prime_atlas(now=0.0)
    scenario.fail_transit(bad_asn, fail_start, fail_end)
    return scenario, bad_asn


def run_demo_scenario(
    seed: int = 0,
    scale: str = "tiny",
    obs=None,
    fail_start: float = 1000.0,
    fail_end: float = 8200.0,
    end: float = 9600.0,
) -> Tuple[DeploymentScenario, int]:
    """One AS fails, LIFEGUARD repairs it: :func:`build_demo_scenario`
    with the control loop run to *end*.  This is the scenario behind
    ``repro demo`` and ``repro trace`` — and, with an *obs* bus attached,
    the workload the cross-worker event-log determinism check replays.
    """
    scenario, bad_asn = build_demo_scenario(
        seed, scale, obs, fail_start, fail_end
    )
    scenario.run(end)
    return scenario, bad_asn


def _transit_session(graph: ASGraph, origin_asn: int) -> Tuple[int, int]:
    """A BGP session one hop away from the origin's edge.

    Resetting the first provider's session to its own upstream exercises
    the chaos path without disconnecting the origin.  Falls back to the
    origin-provider session itself in degenerate topologies.
    """
    providers = sorted(graph.providers(origin_asn))
    provider = providers[0]
    upstream = sorted(graph.providers(provider))
    if upstream:
        return provider, upstream[0]
    return origin_asn, provider


def build_chaos_deployment(
    scale: str = "tiny",
    seed: int = 0,
    intensity: float = 0.1,
    chaos_start: float = 900.0,
    crash_helper: bool = True,
    reset_session: bool = True,
    **deployment_kwargs,
) -> Tuple[DeploymentScenario, FaultInjector]:
    """The standard deployment with a fault injector attached.

    The injector runs :meth:`FaultPlan.standard` at *intensity* from
    *chaos_start* on: stochastic probe loss / latency spikes / BGP
    message faults / atlas corruption / sentinel false negatives, plus
    (at nonzero intensity) one helper vantage-point crash window and one
    transit BGP session reset.  The injector never touches the controller
    process itself: a harness that kills it does so on its own schedule
    (``crash_at``).  At intensity 0 the plan is empty, so the attached
    injector must be observationally absent — the reproducibility
    property the test suite pins.
    """
    scenario = build_deployment(scale=scale, seed=seed, **deployment_kwargs)
    crashes = []
    if crash_helper and "helper0" in scenario.vantage_points:
        crashes.append(
            ("helper0", chaos_start + 1100.0, chaos_start + 3100.0)
        )
    resets = []
    if reset_session:
        as_a, as_b = _transit_session(scenario.graph, scenario.origin_asn)
        resets.append((as_a, as_b, chaos_start + 2100.0))
    plan = FaultPlan.standard(
        intensity,
        seed=seed + 1,
        start=chaos_start,
        crashes=crashes,
        resets=resets,
    )
    injector = FaultInjector(plan)
    injector.attach(scenario.lifeguard)
    return scenario, injector
