"""End-to-end tests: the full LIFEGUARD loop repairing an injected outage."""

import pytest

from repro.bgp.origin import PACER_BUDGET, PACER_WINDOW
from repro.control.record import IN_FLIGHT, RepairState
from repro.control.sentinel import covering_sentinel, unused_half
from repro.dataplane.failures import ASForwardingFailure
from repro.isolation.direction import FailureDirection
from repro.workloads.scenarios import build_deployment


def _poisoned(lifeguard):
    """Records that reached POISONED (or a later state)."""
    reached = (*IN_FLIGHT, RepairState.UNPOISONED)
    return [r for r in lifeguard.records if r.state in reached]


@pytest.fixture(scope="module")
def scenario():
    return build_deployment(scale="tiny", seed=5, num_providers=2)


class TestScenarioWiring:
    def test_monitored_targets_initially_reachable(self, scenario):
        lifeguard = scenario.lifeguard
        vp = scenario.vantage_points.get("origin")
        for target in scenario.targets:
            assert lifeguard.prober.ping(vp.rid, target).success

    def test_sentinel_covers_production(self, scenario):
        sentinel = scenario.lifeguard.sentinel_manager.sentinel
        assert scenario.production_prefix.is_more_specific_of(sentinel)

    def test_sentinel_unused_half_is_dark(self, scenario):
        sentinel = scenario.lifeguard.sentinel_manager.sentinel
        half = unused_half(scenario.production_prefix, sentinel)
        assert half not in dict(scenario.graph.prefixes())


class TestEndToEndRepair:
    def test_full_repair_cycle(self, scenario):
        lifeguard = scenario.lifeguard
        target = scenario.targets[0]
        bad_asn = scenario.reverse_transits(target)[0]
        sentinel = lifeguard.sentinel_manager.sentinel

        # Prime the atlas while healthy, then break the reverse path for
        # two hours starting at t=1000.
        lifeguard.prime_atlas(now=0.0)
        failure = ASForwardingFailure(
            asn=bad_asn, toward=sentinel, start=1000.0, end=8200.0
        )
        lifeguard.dataplane.failures.add(failure)

        scenario.run(9600.0)

        poisoned = [
            r for r in lifeguard.records if r.poisoned_asn == bad_asn
        ]
        assert poisoned, "LIFEGUARD never poisoned the failing AS"
        record = poisoned[0]
        assert record.isolation.direction is FailureDirection.REVERSE
        assert record.isolation.blamed_asn == bad_asn
        # Decision respected the persistence threshold.
        assert record.poison_time - record.outage.start >= 300.0
        # Poisoning restored connectivity (monitor saw the outage end).
        assert record.outage.end is not None
        assert record.outage.end < failure.end
        # The sentinel detected the repair and the poison was withdrawn.
        assert record.state is RepairState.UNPOISONED
        assert record.repair_detected_time is not None
        assert record.repair_detected_time >= failure.end
        assert record.convergence_seconds is not None
        assert record.convergence_seconds < 600.0

    def test_short_outage_not_poisoned(self, scenario):
        lifeguard = scenario.lifeguard
        target = scenario.targets[1]
        bad_asn = scenario.reverse_transits(target)[0]
        sentinel = lifeguard.sentinel_manager.sentinel
        start = lifeguard.engine.now + 600.0
        # A 3-minute blip: below the persistence threshold.
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=bad_asn,
                toward=sentinel,
                start=start,
                end=start + 180.0,
            )
        )
        before = len(_poisoned(lifeguard))
        scenario.run(start + 1200.0, start=start)
        new_poisons = [
            r
            for r in _poisoned(lifeguard)[before:]
            if r.outage.start >= start - 1.0
        ]
        assert not new_poisons


class TestPacedIsolation:
    """A spent announcement budget defers before the isolation: a verdict
    no poison may follow this round is not worth its probes."""

    def test_paced_round_sends_no_probes_then_poisons(self):
        scenario = build_deployment(scale="tiny", seed=5, num_providers=2)
        lifeguard = scenario.lifeguard
        target = scenario.targets[0]
        bad_asn = scenario.reverse_transits(target)[0]
        lifeguard.prime_atlas(now=0.0)
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=bad_asn,
                toward=lifeguard.sentinel_manager.sentinel,
                start=1000.0,
                end=8200.0,
            )
        )
        # Fill the pacer's window before the outage is old enough to act
        # on, then only monitor until the decision rule says poison.
        spent_at = 900.0
        lifeguard.origin.pacer.times.extend([spent_at] * PACER_BUDGET)
        now = 30.0
        while now <= 1800.0:
            lifeguard.begin_round(now)
            now += 30.0
        now -= 30.0
        record = lifeguard.observed_records()[0]
        assert not lifeguard.origin.pacer.allows(now)

        probes = lifeguard.prober.probes_sent
        charge = record.isolation_charge
        entries = len(lifeguard.journal.entries)
        lifeguard.stage_isolate(record, now)
        new = lifeguard.journal.entries[entries:]
        assert lifeguard.prober.probes_sent == probes
        assert record.isolation_charge == charge
        assert record.state is RepairState.OBSERVED
        assert [
            (e["event"], e.get("why")) for e in new if e["event"] != "note"
        ] == [("deferred", "pacing")]

        # Once the window slides past the spent slots, the same record
        # is isolated and poisoned.
        now = spent_at + PACER_WINDOW + 30.0
        lifeguard.begin_round(now)
        assert lifeguard.origin.pacer.allows(now)
        lifeguard.stage_isolate(record, now)
        assert lifeguard.prober.probes_sent > probes
        assert record.isolation_charge == charge + 1
        assert record.poisoned_asn == bad_asn
        assert record.state is RepairState.VERIFYING

        live = [r.fingerprint() for r in lifeguard.records]
        scenario.crash()
        recovered = scenario.recover(now)
        assert [r.fingerprint() for r in recovered.records] == live


class TestSentinelHelpers:
    def test_covering_sentinel_is_one_bit_shorter(self, scenario):
        production = scenario.production_prefix
        sentinel = covering_sentinel(production)
        assert sentinel.length == production.length - 1
        assert production.is_more_specific_of(sentinel)

    def test_unused_half_disjoint_from_production(self, scenario):
        production = scenario.production_prefix
        sentinel = covering_sentinel(production)
        half = unused_half(production, sentinel)
        assert half != production
        assert half.is_more_specific_of(sentinel)
