"""Crash recovery, the poison ledger, and degraded-mode deferrals.

The property test at the bottom is the PR's acceptance check: a controller
killed between POISONED and UNPOISONED and rebuilt from its (serialized
and reloaded) write-ahead journal must finish with byte-identical
RepairRecord state to an uninterrupted run.  Seeds come from
``REPRO_CHAOS_SEEDS`` (comma-separated) so CI can sweep a matrix.
"""

import json
import os

import pytest

from repro.control.journal import RepairJournal
from repro.control.lifeguard import Lifeguard, RepairState
from repro.control.record import ledger_key
from repro.dataplane.failures import ASForwardingFailure
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.measure.monitor import OutageRecord
from repro.workloads.outages import generate_outage_trace
from repro.workloads.scenarios import build_deployment

SEEDS = tuple(
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "3,5,7").split(",")
)


class TestConcurrentPoisonLedger:
    """Regression: finishing one repair must not withdraw another's poison
    (the pre-ledger OriginController clobbered the whole announcement)."""

    def test_unpoisoning_one_record_keeps_the_other(self):
        scenario = build_deployment(scale="tiny", seed=5, num_providers=2)
        lifeguard = scenario.lifeguard
        transits = [
            asn
            for asn in sorted(scenario.graph.transit_ases())
            if asn != scenario.origin_asn
        ]
        asn_a, asn_b = transits[0], transits[1]
        records = []
        for index, asn in enumerate((asn_a, asn_b)):
            outage = OutageRecord(
                vp_name="origin",
                destination=scenario.targets[index],
                start=1000.0 + index * 100.0,
                detected=1110.0 + index * 100.0,
            )
            record = lifeguard._record_for(outage)
            lifeguard.origin.poison(
                [asn], key=ledger_key(record.key)
            )
            record.state = RepairState.POISONED
            record.poisoned_asn = asn
            record.poison_time = 1200.0 + index * 100.0
            records.append(record)
        assert set(lifeguard.origin.currently_poisoned) == {asn_a, asn_b}

        lifeguard.unpoison(records[0], now=2000.0)

        assert records[0].state is RepairState.UNPOISONED
        assert records[1].state is RepairState.POISONED
        # The concurrent repair's poison is still on the announcement.
        assert lifeguard.origin.currently_poisoned == (asn_b,)
        active = lifeguard.origin.active_poisons()
        assert ledger_key(records[1].key) in active
        assert ledger_key(records[0].key) not in active


class TestRepairCheckSkipped:
    """A poisoned AS with no responsive routers must not fake a repair."""

    def test_sentinel_check_with_nothing_to_probe_is_skipped(self):
        scenario = build_deployment(scale="tiny", seed=5, num_providers=2)
        check = scenario.lifeguard.sentinel_manager.check_repair(
            [], now=100.0
        )
        assert check.skipped
        assert not check.repaired
        assert check.probes_used == 0

    def test_unresponsive_poisoned_as_keeps_the_poison(self):
        scenario = build_deployment(scale="tiny", seed=5, num_providers=2)
        lifeguard = scenario.lifeguard
        topo = scenario.topo
        asn = next(
            a
            for a in sorted(scenario.graph.transit_ases())
            if a != scenario.origin_asn
        )
        for rid in topo.routers_of(asn):
            topo.router(rid).responds_to_ping = False
        outage = OutageRecord(
            vp_name="origin",
            destination=scenario.targets[0],
            start=1000.0,
            detected=1110.0,
        )
        record = lifeguard._record_for(outage)
        record.state = RepairState.POISONED
        record.poisoned_asn = asn
        record.poison_time = 1300.0

        lifeguard.stage_check(record, now=5000.0)

        assert record.state is RepairState.POISONED
        assert record.repair_detected_time is None
        checks = [
            e
            for e in lifeguard.journal.for_outage(record.key)
            if e["event"] == "repair-check"
        ]
        assert checks and checks[-1].get("skipped") is True
        note = f"no responsive routers in AS{asn}: repair check skipped"
        assert record.notes.count(note) == 1
        # A second skipped round does not repeat the note.
        lifeguard.stage_check(record, now=5700.0)
        assert record.notes.count(note) == 1


class TestDegradedDeferral:
    """With the observing VP crashed by a FaultPlan, poisoning defers —
    and the journal records every deferred round, not just the first."""

    def test_vp_crash_defers_poisoning_until_vp_returns(self):
        scenario = build_deployment(scale="tiny", seed=5, num_providers=2)
        lifeguard = scenario.lifeguard
        plan = FaultPlan()
        plan.add(
            FaultSpec(
                FaultKind.VP_CRASH, vp="origin", start=1200.0, end=4000.0
            )
        )
        FaultInjector(plan).attach(lifeguard)
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
        # Nothing was poisoned while the VP was down.
        assert record.poison_time >= 4000.0
        assert any(
            "down: isolation deferred" in note for note in record.notes
        )
        # Every deferred round made it into the journal individually.
        deferrals = [
            e
            for e in lifeguard.journal.of_event("deferred")
            if e.get("why") == "vp-down"
        ]
        assert len(deferrals) > 10
        assert all(1200.0 <= e["t"] < 4000.0 for e in deferrals)
        # Once the VP came back the repair completed normally.
        assert record.state is RepairState.UNPOISONED


_SETTLED = {
    RepairState.POISONED,
    RepairState.NOT_POISONED,
    RepairState.UNPOISONED,
}


def _mid_repair(lifeguard):
    """True when every record has settled (or its outage is over) and at
    least one poison is in flight — the crash point the property wants."""
    if not lifeguard.records:
        return False
    for record in lifeguard.records:
        if record.state in _SETTLED:
            continue
        if record.outage.end is not None:
            continue  # inert: outage over, nothing left to decide
        return False
    return any(
        r.state is RepairState.POISONED for r in lifeguard.records
    )


def _drive(seed, tmp_path, crash):
    """One full repair cycle; with *crash*, kill the controller between
    POISONED and UNPOISONED and recover it from the serialized journal."""
    scenario = build_deployment(scale="tiny", seed=seed, num_providers=2)
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
            end=8200.0,
        )
    )
    crashed_at = None
    now = 30.0
    while now <= 9600.0:
        if crash and crashed_at is None and _mid_repair(lifeguard):
            crashed_at = now
            # The process dies here.  Only what it persisted survives:
            # round-trip the journal through disk like a real restart.
            path = str(tmp_path / f"journal-{seed}.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                for entry in lifeguard.journal.entries:
                    handle.write(
                        json.dumps(entry, sort_keys=True) + "\n"
                    )
            loaded = RepairJournal.load(path)
            failures = lifeguard.dataplane.failures
            config = lifeguard.config
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
        lifeguard.tick(now)
        now += 30.0
    return lifeguard, crashed_at


class TestCrashRecoveryProperty:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_recovery_is_byte_identical_to_uninterrupted_run(
        self, seed, tmp_path
    ):
        base, _ = _drive(seed, tmp_path, crash=False)
        recovered, crashed_at = _drive(seed, tmp_path, crash=True)
        assert crashed_at is not None, "no mid-repair crash point reached"
        # The crash landed between POISONED and UNPOISONED.
        unpoisons = [
            e["t"] for e in recovered.journal.of_event("unpoison")
        ]
        assert all(t > crashed_at for t in unpoisons)
        # Recovery happened and carried the in-flight poison across.
        recovery = recovered.journal.of_event("recovered")
        assert len(recovery) == 1
        assert recovery[0]["active_poisons"] >= 1
        # The recovered controller finished the repair...
        assert any(
            r.state is RepairState.UNPOISONED for r in recovered.records
        )
        # ...and every record ended byte-identical to the run that never
        # crashed.
        assert [r.fingerprint() for r in recovered.records] == [
            r.fingerprint() for r in base.records
        ]
