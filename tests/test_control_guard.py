"""The repair guard: post-poison verification, rollback, circuit breaker."""

import pytest

from repro.control.guard import (
    BREAKER_BACKOFF,
    BreakerState,
    PoisonBreaker,
    VerifyOutcome,
    VerifyVerdict,
)
from repro.control.lifeguard import REPAIR_CHECK_INTERVAL, RepairState
from repro.control.record import ledger_key
from repro.dataplane.failures import ASForwardingFailure
from repro.workloads.scenarios import build_deployment

PAIR = ("origin", "0.4.0.1")


class TestPoisonBreaker:
    def test_starts_closed_with_no_failures(self):
        breaker = PoisonBreaker()
        assert breaker.failures(PAIR, 8) == 0
        assert breaker.state(PAIR, 8, now=0.0) is BreakerState.CLOSED

    def test_backoff_doubles_per_failure(self):
        breaker = PoisonBreaker(max_failures=5)
        breaker.record_failure(PAIR, 8, now=1000.0)
        assert breaker.retry_at(PAIR, 8) == 1000.0 + BREAKER_BACKOFF
        breaker.record_failure(PAIR, 8, now=2000.0)
        assert breaker.retry_at(PAIR, 8) == 2000.0 + 2 * BREAKER_BACKOFF
        breaker.record_failure(PAIR, 8, now=4000.0)
        assert breaker.retry_at(PAIR, 8) == 4000.0 + 4 * BREAKER_BACKOFF

    def test_state_walks_backoff_then_closed_then_open(self):
        breaker = PoisonBreaker(max_failures=2)
        retry_at = 1000.0 + BREAKER_BACKOFF
        breaker.record_failure(PAIR, 8, now=1000.0)
        assert breaker.state(PAIR, 8, now=retry_at - 1) is (
            BreakerState.BACKOFF
        )
        assert breaker.state(PAIR, 8, now=retry_at) is BreakerState.CLOSED
        breaker.record_failure(PAIR, 8, now=retry_at)
        assert breaker.state(PAIR, 8, now=99999.0) is BreakerState.OPEN

    def test_entries_are_independent_per_pair_and_asn(self):
        breaker = PoisonBreaker()
        breaker.record_failure(PAIR, 8, now=1000.0)
        assert breaker.failures(PAIR, 9) == 0
        assert breaker.failures(("origin", "0.6.0.1"), 8) == 0

    def test_restore_merges_by_max(self):
        breaker = PoisonBreaker()
        breaker.record_failure(PAIR, 8, now=1000.0)
        breaker.restore(PAIR, 8, failures=3, last_failure=500.0)
        assert breaker.failures(PAIR, 8) == 3
        # The live failure's timestamp wins over the older replayed one.
        assert breaker.retry_at(PAIR, 8) > 1000.0
        breaker.restore(PAIR, 8, failures=1, last_failure=0.0)
        assert breaker.failures(PAIR, 8) == 3


class TestVerifyOutcome:
    def test_rollback_needed_only_for_bad_verdicts(self):
        assert VerifyOutcome(VerifyVerdict.INEFFECTIVE).rollback_needed
        assert VerifyOutcome(VerifyVerdict.HARMFUL).rollback_needed
        assert not VerifyOutcome(VerifyVerdict.EFFECTIVE).rollback_needed
        assert not VerifyOutcome(VerifyVerdict.DEFERRED).rollback_needed

    def test_describe_names_the_dark_destinations(self):
        outcome = VerifyOutcome(
            VerifyVerdict.HARMFUL, collateral_dark=["0.9.0.1"]
        )
        assert "0.9.0.1" in outcome.describe()
        assert "collateral" in outcome.describe()


@pytest.fixture()
def scenario():
    return build_deployment(scale="tiny", seed=5, num_providers=2)


class TestRepairGuardProbes:
    def test_snapshot_excludes_the_outage_destination(self, scenario):
        guard = scenario.lifeguard.guard
        outage_dst = scenario.targets[0]
        control = guard.snapshot_control(
            "origin", scenario.targets, outage_dst, now=100.0
        )
        assert str(outage_dst) not in control
        assert set(control) == {str(t) for t in scenario.targets[1:]}

    def test_snapshot_empty_when_vp_down(self, scenario):
        scenario.vantage_points.mark_down("origin")
        guard = scenario.lifeguard.guard
        control = guard.snapshot_control(
            "origin", scenario.targets, scenario.targets[0], now=100.0
        )
        assert control == ()

    def test_verify_effective_on_healthy_paths(self, scenario):
        guard = scenario.lifeguard.guard
        control = [str(t) for t in scenario.targets[1:]]
        outcome = guard.verify(
            "origin", scenario.targets[0], control, now=100.0
        )
        assert outcome.verdict is VerifyVerdict.EFFECTIVE
        assert outcome.target_reachable
        assert outcome.collateral_dark == []
        assert outcome.probes_used == len(scenario.targets)

    def test_verify_harmful_when_control_destination_goes_dark(
        self, scenario
    ):
        lifeguard = scenario.lifeguard
        victim = scenario.targets[1]
        victim_asn = scenario.topo.router_by_address(victim).asn
        control = lifeguard.guard.snapshot_control(
            "origin", scenario.targets, scenario.targets[0], now=100.0
        )
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=victim_asn,
                toward=lifeguard.sentinel_manager.sentinel,
                start=150.0,
                end=1000.0,
            )
        )
        outcome = lifeguard.guard.verify(
            "origin", scenario.targets[0], control, now=200.0
        )
        assert outcome.verdict is VerifyVerdict.HARMFUL
        assert str(victim) in outcome.collateral_dark

    def test_verify_deferred_when_vp_down(self, scenario):
        scenario.vantage_points.mark_down("origin")
        outcome = scenario.lifeguard.guard.verify(
            "origin", scenario.targets[0], [], now=100.0
        )
        assert outcome.verdict is VerifyVerdict.DEFERRED


class TestIneffectivePoisonRollback:
    """An outage whose repair path is *also* broken: every poison the
    controller places fails verification, is rolled back, and after
    ``breaker_max_failures`` rollbacks the circuit breaker opens."""

    @pytest.fixture()
    def run(self):
        scenario = build_deployment(
            scale="tiny",
            seed=5,
            num_providers=2,
        )
        lifeguard = scenario.lifeguard
        target = scenario.targets[0]
        bad_asn = scenario.reverse_transits(target)[0]
        sentinel = lifeguard.sentinel_manager.sentinel
        lifeguard.prime_atlas(now=0.0)
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=bad_asn, toward=sentinel, start=1000.0, end=30000.0
            )
        )
        # Tick until the poison lands, then break the *alternate* path it
        # rerouted onto — from here on, no poison of bad_asn can work.
        # The first rollback lands before t=1500; the two retries after
        # it wait BREAKER_BACKOFF and twice that.
        now = 30.0
        alt_broken = False
        while now <= 1500.0 + 3 * BREAKER_BACKOFF:
            lifeguard.tick(now)
            verifying = next(
                (
                    r
                    for r in lifeguard.records
                    if r.state is RepairState.VERIFYING
                    and r.poisoned_asn == bad_asn
                ),
                None,
            )
            if verifying is not None and not alt_broken:
                alt_broken = True
                alt = next(
                    a
                    for a in scenario.reverse_transits(target)
                    if a != bad_asn
                )
                lifeguard.dataplane.failures.add(
                    ASForwardingFailure(
                        asn=alt, toward=sentinel, start=now, end=30000.0
                    )
                )
            now += 30.0
        record = next(
            r
            for r in lifeguard.records
            if str(r.outage.destination) == str(target)
        )
        return lifeguard, record, bad_asn

    def test_rollback_within_one_repair_check_interval(self, run):
        lifeguard, record, bad_asn = run
        rollbacks = lifeguard.journal.for_outage(record.key)
        rollbacks = [e for e in rollbacks if e["event"] == "rollback"]
        assert rollbacks, "the ineffective poison was never rolled back"
        poisons = [
            e
            for e in lifeguard.journal.for_outage(record.key)
            if e["event"] == "poison"
        ]
        assert rollbacks[0]["t"] - poisons[0]["t"] <= REPAIR_CHECK_INTERVAL

    def test_breaker_opens_after_max_failures(self, run):
        lifeguard, record, bad_asn = run
        assert record.state is RepairState.NOT_POISONED
        assert len(record.rollbacks) == lifeguard.config.breaker_max_failures
        assert any(
            "circuit breaker open" in note for note in record.notes
        )
        breaker = lifeguard.guard.breaker
        pair = (record.outage.vp_name, str(record.outage.destination))
        assert (
            breaker.state(pair, bad_asn, now=1e12) is BreakerState.OPEN
        )

    def test_each_rollback_withdraws_the_poison(self, run):
        lifeguard, record, bad_asn = run
        # Nothing is left announced for this record once the breaker opens.
        key = ledger_key(record.key)
        assert key not in lifeguard.origin.active_poisons()
        assert bad_asn not in lifeguard.origin.currently_poisoned


class TestEffectivePoisonVerified:
    def test_good_poison_passes_verification(self, scenario):
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
        scenario.run(9600.0)
        record = next(
            r for r in lifeguard.records if r.poisoned_asn == bad_asn
        )
        assert record.state is RepairState.UNPOISONED
        assert record.verified_time is not None
        assert record.verified_time > record.poison_time
        assert record.rollbacks == []
        assert any("verified" in note for note in record.notes)
        # The pre-poison control snapshot rode along in the journal (here
        # empty: AS8 sat on every target's reverse path, so nothing else
        # was reachable when the poison went out).
        poison_entry = next(
            e
            for e in lifeguard.journal.for_outage(record.key)
            if e["event"] == "poison"
        )
        assert poison_entry.get("control", []) == list(record.control_set)
