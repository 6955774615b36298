"""Edge cases of the LIFEGUARD control loop: decisions not to poison."""


import pytest

from repro.bgp.origin import PACER_BUDGET, PACER_WINDOW
from repro.control.guard import BREAKER_BACKOFF
from repro.control.plan import MIN_CONFIDENCE, unpoisonable
from repro.control.record import IN_FLIGHT, RepairState, ledger_key
from repro.dataplane.failures import ASForwardingFailure
from repro.errors import ControlError
from repro.faults import FaultKind, FaultSpec
from repro.measure.atlas import AtlasRefresher, PathAtlas
from repro.measure.monitor import MonitorEvent
from repro.workloads.scenarios import (
    build_chaos_deployment,
    build_deployment,
)


def _poisoned(lifeguard):
    """Records that reached POISONED (or a later state)."""
    reached = (*IN_FLIGHT, RepairState.UNPOISONED)
    return [r for r in lifeguard.records if r.state in reached]


def _first_transit_on_reverse_path(scenario):
    """The first transit AS on the target->origin path (demo's ground
    truth recipe)."""
    return scenario.reverse_transits(scenario.targets[0])[0]


class TestNoAlternateDecision:
    def test_single_provider_failure_not_poisoned(self, monkeypatch):
        """If the blamed AS is the origin's only provider, no poison:
        there is no policy-compliant path around it.  Every outage
        behind it asks; the graph is walked for the first, and verdict,
        note and journal entry are each outage's own."""
        import repro.control.lifeguard as module

        walked = []
        real = module.reachable_set_avoiding

        def counting(graph, origin, avoid=()):
            walked.append((graph, origin, tuple(avoid)))
            return real(graph, origin, avoid)

        monkeypatch.setattr(module, "reachable_set_avoiding", counting)
        scenario = build_deployment(
            scale="tiny", seed=41, num_providers=1
        )
        lifeguard = scenario.lifeguard
        graph, origin = scenario.graph, scenario.origin_asn
        provider = graph.providers(origin)[0]
        lifeguard.prime_atlas(now=0.0)
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=provider,
                toward=lifeguard.sentinel_manager.sentinel,
                start=500.0,
            )
        )
        scenario.run(2000.0, start=500.0)
        assert not _poisoned(lifeguard)
        blamed_provider = [
            r
            for r in lifeguard.records
            if r.isolation is not None
            and r.isolation.blamed_asn == provider
        ]
        assert len(blamed_provider) >= 2
        note = (
            f"no policy-compliant path avoiding AS{provider}: "
            f"not poisoning"
        )
        for record in blamed_provider:
            assert record.state is RepairState.NOT_POISONED
            assert record.notes.count(note) == 1
            assert [
                e["note"] for e in lifeguard.journal.for_outage(record.key)
                if e["event"] == "note"
            ].count(note) == 1
        assert walked == [(graph, origin, (provider,))]
        # Another graph object: what was remembered is for the old one.
        lifeguard.engine.graph = graph.copy()
        target_asn = scenario.topo.router_by_address(
            blamed_provider[0].outage.destination
        ).asn
        for _record in blamed_provider[:2]:
            assert unpoisonable(
                provider, origin, target_asn,
                lifeguard._reachable_avoiding(),
            ) == note
        assert walked[1:] == [(lifeguard.engine.graph, origin, (provider,))]

    def test_failure_in_destination_as_not_poisoned(self):
        """A failure inside the destination's own AS is its operators'
        problem; poisoning the edge would only cut it off."""
        scenario = build_deployment(
            scale="tiny", seed=43, num_providers=2
        )
        lifeguard = scenario.lifeguard
        topo = scenario.topo
        target = scenario.targets[0]
        target_asn = topo.router_by_address(target).asn
        lifeguard.prime_atlas(now=0.0)
        # Break forwarding *to the origin* inside the destination AS.
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=target_asn,
                toward=lifeguard.sentinel_manager.sentinel,
                start=500.0,
            )
        )
        scenario.run(2000.0, start=500.0)
        poisons_of_target = [
            r
            for r in _poisoned(lifeguard)
            if r.poisoned_asn == target_asn
        ]
        assert not poisons_of_target


class TestDegradedOperation:
    def test_vp_down_rounds_produce_no_outage(self):
        """A dead vantage point must not manufacture outages: its pairs
        report VP_DOWN and the failure is only detected once it restarts."""
        scenario, injector = build_chaos_deployment(
            scale="tiny", seed=0, intensity=0.0,
            crash_helper=False, reset_session=False, num_providers=2,
        )
        lifeguard = scenario.lifeguard
        lifeguard.prime_atlas(now=0.0)
        bad_asn = _first_transit_on_reverse_path(scenario)
        injector.plan.add(
            FaultSpec(FaultKind.VP_CRASH, vp="origin", start=0.0, end=1500.0)
        )
        # A real failure on the origin's reverse paths, active throughout.
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=bad_asn,
                toward=lifeguard.sentinel_manager.sentinel,
                start=500.0,
            )
        )
        scenario.run(1440.0)
        assert len(lifeguard.vantage_points.live()) < len(
            lifeguard.vantage_points
        )
        events = lifeguard.monitor.run_round(1440.0)
        assert MonitorEvent.VP_DOWN in events.values()
        assert MonitorEvent.OUTAGE_STARTED not in events.values()
        assert lifeguard.monitor.outages == []
        # Once the VP restarts, live rounds rebuild the failure streak and
        # detection fires for real.
        scenario.run(3000.0, start=1530.0)
        assert len(lifeguard.vantage_points.live()) == len(
            lifeguard.vantage_points
        )
        assert lifeguard.monitor.outages
        assert all(
            o.vp_name == "origin" for o in lifeguard.monitor.outages
        )

    def test_low_confidence_isolation_defers_then_gives_up(self):
        """With every helper down, isolation confidence stays below the
        poisoning threshold: the loop defers, retries, and after the
        budget runs dry concludes NOT_POISONED — it never acts on thin
        evidence."""
        scenario = build_deployment(scale="tiny", seed=0, num_providers=2)
        lifeguard = scenario.lifeguard
        lifeguard.prime_atlas(now=0.0)
        bad_asn = _first_transit_on_reverse_path(scenario)
        for vp in scenario.vantage_points:
            if vp.name != "origin":
                scenario.vantage_points.mark_down(vp.name)
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=bad_asn,
                toward=lifeguard.sentinel_manager.sentinel,
                start=500.0,
            )
        )
        scenario.run(3000.0)
        assert len(lifeguard.vantage_points.live()) < len(
            lifeguard.vantage_points
        )
        assert not _poisoned(lifeguard)
        record = next(
            r for r in lifeguard.records if r.outage.vp_name == "origin"
        )
        assert record.isolation is not None
        assert record.isolation.confidence < MIN_CONFIDENCE
        assert any("deferring poisoning" in note for note in record.notes)
        assert record.state is RepairState.NOT_POISONED
        assert any("retry budget" in note for note in record.notes)

    def test_sentinel_false_negatives_delay_but_never_falsify_repair(self):
        """Lost sentinel replies postpone repair detection; they never
        trigger a premature unpoison, and once the loss clears the poison
        is withdrawn normally."""
        scenario, injector = build_chaos_deployment(
            scale="tiny", seed=0, intensity=0.0,
            crash_helper=False, reset_session=False, num_providers=2,
        )
        lifeguard = scenario.lifeguard
        lifeguard.prime_atlas(now=0.0)
        bad_asn = _first_transit_on_reverse_path(scenario)
        injector.plan.add(
            FaultSpec(
                FaultKind.SENTINEL_FALSE_NEGATIVE,
                rate=1.0, start=0.0, end=6000.0,
            )
        )
        # The underlying failure is genuinely repaired at t=3000 -- but
        # every sentinel reply is suppressed until t=6000.
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=bad_asn,
                toward=lifeguard.sentinel_manager.sentinel,
                start=500.0, end=3000.0,
            )
        )
        scenario.run(9000.0)
        record = next(
            r for r in lifeguard.records if r.poisoned_asn == bad_asn
        )
        assert lifeguard.sentinel_manager.replies_suppressed > 0
        assert record.state is RepairState.UNPOISONED
        assert record.repair_detected_time is not None
        # Detection waited out the suppression window instead of firing
        # on a lucky (or faked) early check.
        assert record.repair_detected_time > 6000.0


class TestUnpoisonNeedsItsLedgerEntry:
    def test_a_poison_withdrawn_behind_the_controller_is_an_error(self):
        """Unpoisoning withdraws the record's own ledger entry and no
        other: with that entry gone there is nothing the controller may
        withdraw, so it refuses instead of resetting every poison."""
        scenario, _injector = build_chaos_deployment(
            scale="tiny", seed=0, intensity=0.0,
            crash_helper=False, reset_session=False, num_providers=2,
        )
        lifeguard = scenario.lifeguard
        lifeguard.prime_atlas(now=0.0)
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=_first_transit_on_reverse_path(scenario),
                toward=lifeguard.sentinel_manager.sentinel,
                start=500.0,
            )
        )
        scenario.run(3000.0)
        (record,) = _poisoned(lifeguard)
        owner = ledger_key(record.key, record.ladder_step)
        lifeguard.origin.unpoison(key=owner)
        with pytest.raises(ControlError, match="no active poison"):
            lifeguard.unpoison(record, 3000.0)


class TestIncrementalAtlasMode:
    def test_incremental_refresher_populates_atlas(self):
        scenario = build_deployment(scale="tiny", seed=47, num_providers=2)
        lifeguard = scenario.lifeguard
        atlas = PathAtlas()
        refresher = AtlasRefresher(
            lifeguard.prober,
            scenario.vantage_points,
            atlas,
            use_incremental=True,
        )
        stats = refresher.refresh_all(scenario.targets[:2], now=0.0)
        assert stats.paths_refreshed > 0
        # Incremental mode accounts actual probes, not the cost model.
        assert stats.option_probes > 0
        for vp in scenario.vantage_points:
            for entry in atlas.reverse_history(vp.name, scenario.targets[0]):
                assert entry.hops


class TestDeferralRetry:
    """Breaker-backoff and pacing deferrals must land the record back in
    OBSERVED so later ticks retry it.  Regression: both branches once left
    the record in ISOLATED, a state tick() never revisits, so a deferred
    poison was silently abandoned forever (and diverged from journal
    replay, which maps 'deferred' to OBSERVED)."""

    def _scenario_with_failure(self, end=8200.0):
        scenario = build_deployment(scale="tiny", seed=5, num_providers=2)
        lifeguard = scenario.lifeguard
        bad_asn = _first_transit_on_reverse_path(scenario)
        lifeguard.prime_atlas(now=0.0)
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=bad_asn,
                toward=lifeguard.sentinel_manager.sentinel,
                start=1000.0,
                end=end,
            )
        )
        return scenario, lifeguard, bad_asn

    def test_pacing_deferral_is_retried_once_budget_frees(self):
        scenario, lifeguard, bad_asn = self._scenario_with_failure()
        # Spend the whole announcement budget just before the decision
        # point, so the first poison attempt hits the flap-damping guard.
        spent_at = 1300.0
        lifeguard.origin.pacer.times.extend([spent_at] * PACER_BUDGET)
        scenario.run(9600.0)

        deferrals = [
            e
            for e in lifeguard.journal.of_event("deferred")
            if e.get("why") == "pacing"
        ]
        assert deferrals
        record = next(
            r for r in lifeguard.records if r.poisoned_asn == bad_asn
        )
        # The poison happened -- after the budget freed, not never.
        free_at = spent_at + PACER_WINDOW
        assert record.poison_time >= free_at
        assert all(e["t"] < free_at for e in deferrals)
        assert record.state is RepairState.UNPOISONED

    def test_breaker_backoff_deferral_is_retried_after_backoff(self):
        scenario, lifeguard, bad_asn = self._scenario_with_failure()
        # A prior rollback of bad_asn is on the books for every monitored
        # pair: the first poison attempt lands in BACKOFF, not CLOSED.
        failed_at = 1300.0
        for vp in scenario.vantage_points.names():
            for dst in scenario.targets:
                lifeguard.guard.breaker.record_failure(
                    (vp, str(dst)), bad_asn, failed_at
                )
        scenario.run(9600.0)

        deferrals = [
            e
            for e in lifeguard.journal.of_event("deferred")
            if e.get("why") == "breaker-backoff"
        ]
        assert deferrals
        record = next(
            r for r in lifeguard.records if r.poisoned_asn == bad_asn
        )
        retry_at = failed_at + BREAKER_BACKOFF
        assert record.poison_time >= retry_at
        assert record.state is RepairState.UNPOISONED
