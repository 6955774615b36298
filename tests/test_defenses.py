"""Anti-poisoning defenses and the fallback escalation ladder.

Three layers under test:

* the measured defenses themselves — poisoned-path filters, path-length
  caps, Peerlock, reserved-ASN rejection (control plane) and
  default-route-via-provider (data plane) — on hand-built topologies;
* the tier-biased deployment assignment and its monotonicity (the sweep
  compares rates on nested populations);
* the ladder: origin-level fallback mechanisms, ledger-key step
  independence, the end-to-end defense study, and the crash/recovery
  property with ladder state in flight (seeds from ``REPRO_CHAOS_SEEDS``).
"""

import json
import os

import pytest

from repro.bgp.engine import BGPEngine
from repro.bgp.messages import make_path
from repro.bgp.origin import OriginController
from repro.bgp.policy import SpeakerConfig, looks_poisoned
from repro.bgp.solver import (
    Origination,
    Refusal,
    solver_unsupported_reason,
)
from repro.control.journal import RepairJournal
from repro.control.lifeguard import Lifeguard, LifeguardConfig, RepairState
from repro.control.record import LADDER_STRATEGIES, ledger_key
from repro.dataplane.failures import ASForwardingFailure, FailureSet
from repro.dataplane.fib import build_fibs
from repro.dataplane.forwarding import DataPlane
from repro.errors import ControlError, TopologyError
from repro.experiments.defenses import run_defense_study
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.generate import assign_defense_configs, generate_internet
from repro.topology.generate import InternetShape
from repro.topology.relationships import Relationship
from repro.topology.routers import RouterTopology
from repro.workloads.outages import generate_outage_trace
from repro.workloads.scenarios import build_deployment

P = Prefix("10.100.0.0/16")

SEEDS = tuple(
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "3,5,7").split(",")
)


def _line_graph():
    """O(1) -- B(2) -- A(3) -- E(4), customer->provider going right."""
    g = ASGraph()
    for asn in (1, 2, 3, 4):
        g.add_as(asn)
    g.assign_prefix(1, P)
    g.add_link(1, 2, Relationship.PROVIDER)
    g.add_link(2, 3, Relationship.PROVIDER)
    g.add_link(3, 4, Relationship.PROVIDER)
    return g


class TestPathLengthCap:
    """A cap on a mid-path AS drops a deep poison in flight."""

    def test_cap_drops_poison_mid_propagation(self):
        g = _line_graph()
        engine = BGPEngine(
            g, speaker_configs={3: SpeakerConfig(as_path_max_length=4)}
        )
        # Short baseline clears the cap everywhere.
        engine.originate(1, P, path=make_path(1, prepend=2))
        engine.run()
        assert engine.as_path(4, P) == (3, 2, 1, 1)

        # A two-ASN sandwich (O-O-97-98-O, length 5) survives the
        # uncapped first hop but exceeds AS3's cap once AS2 prepends
        # itself — the poison dies mid-propagation, not at the origin.
        engine.originate(1, P, path=make_path(1, prepend=3, poison=[97, 98]))
        engine.run()
        assert engine.as_path(2, P) == (1, 1, 97, 98, 1)
        assert engine.as_path(3, P) is None
        assert engine.as_path(4, P) is None

    def test_cap_never_trips_on_the_paper_baseline(self):
        # The measured caps (10/12) sit far above the O-O-O baseline.
        g = _line_graph()
        engine = BGPEngine(
            g, speaker_configs={3: SpeakerConfig(as_path_max_length=10)}
        )
        engine.originate(1, P, path=make_path(1, prepend=3))
        engine.run()
        assert engine.as_path(4, P) == (3, 2, 1, 1, 1)


class TestPeerlock:
    """Protected tier-1 ASNs must never arrive in customer-learned paths."""

    def _graph(self):
        # O(1, stub) <- 2 <- 3 (defended transit) <- 10 (tier-1).
        g = ASGraph()
        g.add_as(1, tier=3)
        g.add_as(2, tier=2)
        g.add_as(3, tier=2)
        g.add_as(10, tier=1)
        g.assign_prefix(1, P)
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(2, 3, Relationship.PROVIDER)
        g.add_link(3, 10, Relationship.PROVIDER)
        return g

    def test_peerlock_blocks_tier1_poison(self):
        engine = BGPEngine(
            self._graph(),
            speaker_configs={3: SpeakerConfig(peerlock_protected=(10,))},
        )
        engine.originate(1, P, path=make_path(1, prepend=2, poison=[10]))
        engine.run()
        # AS2 (undefended) carries the poison; AS3 hears it from a
        # customer with its protected tier-1 in the path and drops it.
        assert 10 in engine.as_path(2, P)
        assert engine.as_path(3, P) is None

    def test_valley_free_paths_never_false_positive(self):
        # The same protected set accepts every legitimate route: a
        # customer route without the tier-1, and the tier-1's own prefix
        # learned from the provider side (Peerlock is customer-only).
        p10 = Prefix("10.110.0.0/16")
        g = self._graph()
        g.assign_prefix(10, p10)
        engine = BGPEngine(
            g, speaker_configs={3: SpeakerConfig(peerlock_protected=(10,))}
        )
        engine.originate(1, P)
        engine.originate(10, p10)
        engine.run()
        assert engine.as_path(3, P) == (2, 1)
        assert engine.as_path(3, p10) == (10,)
        assert engine.as_path(10, P) == (3, 2, 1)


class TestDefaultRouteStub:
    """A default-routed stub keeps delivering despite a "successful" poison."""

    def _build(self, defended: bool):
        # O(1) and S(3) both buy transit from 2; S default-routes.
        g = ASGraph()
        g.add_as(1, tier=3)
        g.add_as(2, tier=2)
        g.add_as(3, tier=3)
        g.assign_prefix(1, P)
        g.assign_prefix(2, Prefix("10.102.0.0/16"))
        g.assign_prefix(3, Prefix("10.103.0.0/16"))
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(3, 2, Relationship.PROVIDER)
        configs = (
            {3: SpeakerConfig(default_route_via_provider=True)}
            if defended
            else {}
        )
        engine = BGPEngine(g, speaker_configs=configs)
        # Poison S itself: loop detection makes S drop the route, the
        # control-plane definition of the poison having "worked".
        engine.originate(1, P, path=make_path(1, prepend=2, poison=[3]))
        engine.run()
        return g, engine

    def test_poison_succeeds_at_the_control_plane(self):
        _g, engine = self._build(defended=True)
        assert engine.as_path(3, P) is None

    def test_default_route_keeps_forwarding(self):
        g, engine = self._build(defended=True)
        fibs = build_fibs(engine)
        # The FIB falls through to the provider default...
        assert fibs.next_hop_as(3, P.address(1)) == 2
        # ...and packets actually arrive at the origin.
        topo = RouterTopology.build(g, seed=1, unresponsive_fraction=0.0)
        dataplane = DataPlane(topo, fibs, FailureSet())
        src = topo.routers_of(3)[0]
        walk = dataplane.forward(src, P.address(1))
        assert walk.delivered
        assert walk.as_level_hops(topo) == [3, 2, 1]

    def test_without_default_route_the_stub_goes_dark(self):
        _g, engine = self._build(defended=False)
        assert build_fibs(engine).next_hop_as(3, P.address(1)) is None


class TestAssignDefenseConfigs:
    def _graph(self):
        return generate_internet(
            InternetShape(num_tier1=3, num_tier2=10, num_stubs=25), seed=11
        )

    def test_deterministic(self):
        g = self._graph()
        a = assign_defense_configs(g, rate=0.5, seed=4)
        b = assign_defense_configs(g, rate=0.5, seed=4)
        assert a == b

    def test_deployment_grows_monotonically_with_rate(self):
        g = self._graph()
        deployed = [
            set(assign_defense_configs(g, rate=r, seed=4))
            for r in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert deployed[0] == set()
        for thinner, denser in zip(deployed, deployed[1:]):
            assert thinner <= denser
        assert deployed[-1] == set(n.asn for n in g.nodes())

    def test_skip_set_never_defends(self):
        g = self._graph()
        skipped = sorted(g.ases())[:3]
        configs = assign_defense_configs(g, rate=1.0, seed=4, skip=skipped)
        assert not set(skipped) & set(configs)

    def test_tier_bias(self):
        g = self._graph()
        configs = assign_defense_configs(g, rate=1.0, seed=4)
        tiers = {n.asn: n.tier for n in g.nodes()}
        for asn, config in configs.items():
            if tiers[asn] == 1:
                # Tier-1s run the full stack: Peerlock + a cap.
                assert config.peerlock_protected
                assert config.as_path_max_length in (10, 12)
                assert asn not in config.peerlock_protected
            elif tiers[asn] == 3:
                # Stubs either default-route or filter; never Peerlock.
                assert not config.peerlock_protected
                assert not config.as_path_max_length
        stub_defaults = [
            asn
            for asn, c in configs.items()
            if tiers[asn] == 3 and c.default_route_via_provider
        ]
        assert stub_defaults, "some stubs must default-route"
        assert all(
            not configs[asn].default_route_via_provider
            for asn in configs
            if tiers[asn] != 3
        )

    def test_rate_out_of_range_rejected(self):
        g = self._graph()
        with pytest.raises(TopologyError):
            assign_defense_configs(g, rate=1.5)


class TestLooksPoisoned:
    def test_sandwich_detected_and_prepends_ignored(self):
        assert looks_poisoned((1, 6, 1))
        assert looks_poisoned((2, 1, 1, 97, 1))
        assert not looks_poisoned((1,))
        assert not looks_poisoned((3, 2, 1, 1, 1))


#: Each speaker-config refusal of the solver gate: (config on AS3,
#: slug, reason).
SPEAKER_CONFIG_REFUSALS = [
    (SpeakerConfig(loop_max_occurrences=2), "loop_max_occurrences",
     "AS3: loop_max_occurrences != 1"),
    (SpeakerConfig(reject_peer_paths_from_customers=True),
     "reject_peer_paths_from_customers",
     "AS3: reject_peer_paths_from_customers"),
    (SpeakerConfig(honours_communities=True), "honours_communities",
     "AS3: honours_communities"),
    (SpeakerConfig(local_pref_overrides={2: 150}),
     "local_pref_overrides", "AS3: local_pref_overrides"),
    (SpeakerConfig(flap_damping=True), "flap_damping",
     "AS3: flap_damping"),
    (SpeakerConfig(filter_poisoned_paths=True),
     "filter_poisoned_paths", "AS3: filter_poisoned_paths"),
    (SpeakerConfig(reject_reserved_asns=True),
     "reject_reserved_asns", "AS3: reject_reserved_asns"),
    (SpeakerConfig(as_path_max_length=10), "as_path_max_length",
     "AS3: as_path_max_length"),
    (SpeakerConfig(peerlock_protected=(10,)), "peerlock_protected",
     "AS3: peerlock_protected"),
]


class TestSolverGateDefenses:
    """Every control-plane defense knob forces the event engine, and
    every refusal of the solver gate names its slug and its reason."""

    @pytest.mark.parametrize(
        "config, slug, reason", SPEAKER_CONFIG_REFUSALS,
        ids=[slug for _, slug, _ in SPEAKER_CONFIG_REFUSALS],
    )
    def test_defense_knobs_are_gate_rejected(self, config, slug, reason):
        engine = BGPEngine(_line_graph(), speaker_configs={3: config})
        refusal = solver_unsupported_reason(engine, [])
        assert refusal == Refusal(slug, reason)
        assert str(refusal) == reason

    def test_sibling_link_refusal(self):
        graph = _line_graph()
        graph.add_as(5)
        graph.add_link(5, 3, Relationship.SIBLING)
        refusal = solver_unsupported_reason(BGPEngine(graph), [])
        assert refusal == Refusal("sibling_link", "AS3: sibling link")

    def test_origination_refusals(self):
        engine = BGPEngine(_line_graph())
        stranger = Origination.make(99, P)
        assert solver_unsupported_reason(engine, [stranger]) == Refusal(
            "unknown_origin", "origination from unknown AS99"
        )
        twice = [Origination.make(1, P), Origination.make(1, P)]
        assert solver_unsupported_reason(engine, twice) == Refusal(
            "duplicate_prefix",
            f"multiple originations of {P} "
            "(anycast/MOAS needs the event engine)",
        )
        engine.originate(1, P)
        assert solver_unsupported_reason(engine, []) == Refusal(
            "prior_activity",
            "engine has prior activity (warm_start needs a fresh one)",
        )

    def test_default_route_is_solver_supported(self):
        # Data-plane only: the solver's control-plane answer is right.
        engine = BGPEngine(
            _line_graph(),
            speaker_configs={
                3: SpeakerConfig(default_route_via_provider=True)
            },
        )
        orig = [Origination.make(1, P)]
        assert solver_unsupported_reason(engine, orig) is None


class TestOriginFallbackModes:
    """The ladder's origin-level mechanisms: prepend steering and
    selective advertisement, ledgered alongside ordinary poisons."""

    def _world(self):
        # Origin 1 dual-homed to 2 and 3; both buy from 4; observer 5.
        g = ASGraph()
        for asn in (1, 2, 3, 4, 5):
            g.add_as(asn)
        g.assign_prefix(1, P)
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(1, 3, Relationship.PROVIDER)
        g.add_link(2, 4, Relationship.PROVIDER)
        g.add_link(3, 4, Relationship.PROVIDER)
        g.add_link(5, 4, Relationship.PROVIDER)
        engine = BGPEngine(g)
        controller = OriginController(engine, 1, P)
        controller.announce_baseline()
        engine.run()
        return engine, controller

    def test_steer_prepend_shifts_ingress_and_restores(self):
        engine, controller = self._world()
        before = engine.best_route(4, P).neighbor
        assert before == 2  # tie broken toward the lower neighbor
        controller.steer_prepend([2], key="r1")
        engine.run()
        assert engine.best_route(4, P).neighbor == 3
        controller.unpoison(key="r1")
        engine.run()
        assert engine.best_route(4, P).neighbor == before

    def test_suppress_withdraws_from_the_provider_and_restores(self):
        engine, controller = self._world()
        controller.suppress_providers([2], key="r1")
        engine.run()
        # 2 now only hears the prefix back from its own provider.
        assert engine.as_path(2, P)[0] == 4
        assert engine.best_route(4, P).neighbor == 3
        controller.unpoison(key="r1")
        engine.run()
        assert engine.best_route(4, P).neighbor == 2

    def test_suppressing_every_provider_is_refused(self):
        _engine, controller = self._world()
        controller.suppress_providers([2], key="r1")
        with pytest.raises(ControlError):
            controller.suppress_providers([3], key="r2")

    def test_ledger_keys_are_step_independent(self):
        engine, controller = self._world()
        key = ("origin", "10.9.0.1", 1000.0)
        base = ledger_key(key)
        assert ledger_key(key, 0) == base
        stepped = ledger_key(key, 2)
        assert stepped == base + "|step2"

        # Two rungs of the same repair compose and unwind independently.
        controller.poison([4], key=base)
        controller.suppress_providers([2], key=stepped)
        engine.run()
        controller.unpoison(key=base)
        engine.run()
        assert controller.active_poisons() == {stepped: ("suppress", (2,))}
        assert engine.best_route(4, P).neighbor == 3


class TestDefenseStudy:
    def test_ladder_wins_back_repairs_at_full_deployment(self):
        study = run_defense_study(
            scale="tiny", seed=0, rates=(0.0, 1.0), num_outages=3
        )
        assert study.abandoned_total == 0
        baseline = study.point(0.0, False)
        off = study.point(1.0, False)
        on = study.point(1.0, True)
        # Defenses cost the plain controller repairs; the ladder
        # escalates and wins at least half of them back.
        assert off.repaired < baseline.repaired
        assert on.escalations > 0
        assert on.ladder_repairs > 0
        lost, recovered = study.ladder_recovery(1.0)
        assert lost > 0
        assert recovered * 2 >= lost


_SETTLED = {
    RepairState.POISONED,
    RepairState.NOT_POISONED,
    RepairState.UNPOISONED,
}


def _mid_ladder(lifeguard):
    """True once some repair has escalated past the first rung."""
    return any(r.escalations for r in lifeguard.records)


def _drive_ladder(seed, tmp_path, crash):
    """One defended repair cycle with the ladder on; with *crash*, kill
    the controller right after its first escalation and recover it from
    the serialized journal.

    Single-target so the ladder record is the only repair in flight:
    concurrent records would re-isolate after the crash against a
    re-learned atlas, which legitimately diverges from an uninterrupted
    run.  Every non-origin AS gets the sandwich filter, so plain (and
    multi-) poisons are guaranteed to fail and the ladder must climb —
    deterministically, whatever the seed."""
    config = LifeguardConfig(
        fallback_ladder=True,
        breaker_max_failures=len(LADDER_STRATEGIES),
    )
    scenario = build_deployment(
        scale="tiny",
        seed=seed,
        num_providers=2,
        num_targets=1,
        defense_rate=1.0,
        lifeguard_config=config,
    )
    for asn, speaker in scenario.engine.speakers.items():
        if asn != scenario.origin_asn:
            speaker.reconfigure(filter_poisoned_paths=True)
    lifeguard = scenario.lifeguard
    topo = scenario.topo
    target = scenario.targets[0]
    bad_asn = scenario.reverse_transits(target)[0]
    lifeguard.prime_atlas(now=0.0)
    lifeguard.dataplane.failures.add(
        ASForwardingFailure(
            asn=bad_asn,
            toward=lifeguard.sentinel_manager.sentinel,
            start=1000.0,
            end=9800.0,
        )
    )
    crashed_at = None
    now = 30.0
    while now <= 12000.0:
        if crash and crashed_at is None and _mid_ladder(lifeguard):
            crashed_at = now
            path = str(tmp_path / f"ladder-journal-{seed}.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                for entry in lifeguard.journal.entries:
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
            loaded = RepairJournal.load(path)
            failures = lifeguard.dataplane.failures
            lifeguard = Lifeguard.recover(
                loaded,
                engine=scenario.engine,
                topo=topo,
                origin_asn=scenario.origin_asn,
                vantage_points=scenario.vantage_points,
                targets=scenario.targets,
                duration_history=generate_outage_trace(seed=seed).durations,
                config=config,
                now=now,
                failures=failures,
            )
            # A restarted controller re-learns its path atlas before
            # serving (mirrors the recovery path the experiments use).
            lifeguard.prime_atlas(now=now)
        lifeguard.tick(now)
        now += 30.0
    return lifeguard, crashed_at


class TestLadderCrashRecovery:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_recovery_mid_ladder_is_byte_identical(self, seed, tmp_path):
        base, _ = _drive_ladder(seed, tmp_path, crash=False)
        assert any(r.escalations for r in base.records), (
            "defenses at rate 1.0 must force at least one escalation"
        )
        recovered, crashed_at = _drive_ladder(seed, tmp_path, crash=True)
        assert crashed_at is not None, "no mid-ladder crash point reached"
        # The recovered controller carried the ladder position across
        # the restart and finished the repair from there.
        recovery = recovered.journal.of_event("recovered")
        assert len(recovery) == 1
        assert [r.fingerprint() for r in recovered.records] == [
            r.fingerprint() for r in base.records
        ]
