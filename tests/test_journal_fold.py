"""The journal fold: live state == fold(entries), and compaction keeps it.

The controller and the service daemon are event-sourced: their state
changes only by applying a journal entry through a reducer table, so a
controller folded from any prefix of the journal must equal the live one
at that point, and :func:`repro.control.journal._compact` is correct iff
folding its output rebuilds the state folding its input did.  Both are
checked here at several round boundaries of a chaos run with the
escalation ladder on (seeds from ``REPRO_CHAOS_SEEDS``), together with
the regressions the single reducer table closes: the replayed pacer
equals the live one in both delta modes, and an entry kind with no
reducer is an error instead of silently lost state.
"""

import json
import os
import re
from dataclasses import fields

import pytest

from repro.bgp.origin import PACER_WINDOW
from repro.control.journal import (
    KINDS,
    TERMINAL_STATES,
    RepairJournal,
    _compact,
)
from repro.control import plan
from repro.control.lifeguard import Lifeguard, LifeguardConfig, RepairState
from repro.control.record import (
    LADDER_STRATEGIES,
    RECORD_REDUCERS,
    RepairRecord,
    fold_records,
    ledger_key,
)
from repro.errors import ControlError
from repro.service import LifeguardService, ServiceConfig
from repro.workloads.outages import (
    OutageArrivalConfig,
    generate_outage_trace,
)
from repro.workloads.scenarios import (
    build_chaos_deployment,
    build_deployment,
)
from tests.test_obs_trace import _ladder_run

SEEDS = tuple(
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "3,5,7").split(",")
)

DESIGN = os.path.join(os.path.dirname(__file__), os.pardir, "DESIGN.md")


def _controller_state(lifeguard, keys=None, floor=float("-inf")):
    """Everything the controller's reducers write, optionally restricted
    to the outages in *keys* and the pacer slots after *floor*.  A
    record's fingerprint is the whole per-outage state; the breaker and
    the pacer are the controller's own."""
    return {
        "fingerprints": [
            r.fingerprint()
            for r in lifeguard.records
            if keys is None or r.key in keys
        ],
        "breaker": {
            charge: (entry.failures, entry.last_failure)
            for charge, entry in lifeguard.guard.breaker._entries.items()
        },
        "pacer": sorted(t for t in lifeguard.origin.pacer.times if t > floor),
    }


def _service_state(service):
    return {
        "cursor": service.cursor,
        "plan": list(service.plan),
        "tier": service.admission.tier,
        "ledger": service.ledger.state_json(),
    }


def _tags(lifeguard):
    tags = set()
    for record in lifeguard.records:
        if record.state is RepairState.VERIFYING:
            tags.add("verifying")
        if record.escalations and record.state in (
            RepairState.ROLLED_BACK, RepairState.OBSERVED
        ):
            tags.add("mid-escalation")
    return tags


def _fold(host, config, entries):
    """A fresh controller on *host* with *entries* applied, nothing else."""
    lifeguard = Lifeguard(
        engine=host.engine,
        topo=host.topo,
        origin_asn=host.origin_asn,
        vantage_points=host.vantage_points,
        targets=host.targets,
        duration_history=generate_outage_trace(seed=0).durations,
        config=config,
    )
    for entry in entries:
        lifeguard.apply(entry)
    return lifeguard


class _Run:
    """One chaos service run with the ladder on, sampled at every round
    boundary; plus a second, idle world of the same seed to fold into
    (folding on the live world would consume its FIB dirty set)."""

    def __init__(self, seed):
        self.seed = seed
        # A breaker that opens one rung short of the ladder's top leaves
        # both kinds of terminal record behind (repaired, given up on),
        # so compaction has breaker charges to carry.
        self.config = LifeguardConfig(
            fallback_ladder=True,
            breaker_max_failures=len(LADDER_STRATEGIES) - 1,
        )
        scenario, _ = build_chaos_deployment(
            scale="tiny",
            seed=seed,
            intensity=0.2,
            defense_rate=1.0,
            lifeguard_config=self.config,
        )
        # Every plain poison is filtered, so repairs must climb the
        # ladder whatever the seed (as in test_defenses.py).
        for asn, speaker in scenario.engine.speakers.items():
            if asn != scenario.origin_asn:
                speaker.reconfigure(filter_poisoned_paths=True)
        self.service_config = ServiceConfig(
            duration=5400.0,
            arrivals=OutageArrivalConfig(
                first_arrival=1000.0, spacing=600.0, duration=4200.0
            ),
            seed=seed,
            drain=9000.0,
        )
        service = LifeguardService(scenario, self.service_config)
        service.start()
        #: (now, entry count, tags, controller state, service state)
        self.boundaries = []
        now = 30.0
        while now <= 5400.0 or (
            now <= 14400.0 and service._active_work(now)
        ):
            service.run_round(now)
            lifeguard = service.lifeguard
            self.boundaries.append(
                (
                    now,
                    len(lifeguard.journal),
                    _tags(lifeguard),
                    _controller_state(lifeguard),
                    _service_state(service),
                )
            )
            now += 30.0
        self.entries = list(service.journal.entries)
        self.host = build_deployment(
            scale="tiny", seed=seed, defense_rate=1.0
        )

    def sampled(self):
        """At least five boundaries: the first mid-escalation one, the
        first with a VERIFYING record, and evenly spaced others."""
        picks = {}
        for tag in ("mid-escalation", "verifying"):
            picks[tag] = next(
                i for i, b in enumerate(self.boundaries) if tag in b[2]
            )
        last = len(self.boundaries) - 1
        indices = set(picks.values()) | {
            last * k // 4 for k in range(1, 5)
        }
        assert len(indices) >= 5
        return [self.boundaries[i] for i in sorted(indices)]

    def fold(self, entries):
        return _fold(self.host, self.config, entries)

    def fold_service(self, entries, lifeguard, now):
        """A fresh service restored from *entries* around *lifeguard*."""
        self.host.lifeguard = lifeguard
        service = LifeguardService(self.host, self.service_config)
        journal = RepairJournal()
        journal.entries = list(entries)
        service._restore_from_journal(journal, now)
        return service, journal


@pytest.fixture(scope="module", params=SEEDS)
def run(request):
    return _Run(request.param)


class TestLiveEqualsFold:
    def test_sweep_reaches_the_interesting_boundaries(self, run):
        tags = set().union(*(b[2] for b in run.sampled()))
        assert tags == {"mid-escalation", "verifying"}
        kinds = {e["event"] for e in run.entries}
        assert {"escalate", "rollback", "announced"} <= kinds

    def test_controller_folded_from_each_prefix_equals_live(self, run):
        for now, count, _, live, _ in run.sampled():
            folded = run.fold(run.entries[:count])
            assert _controller_state(folded) == live, f"boundary t={now}"

    def test_service_folded_from_each_prefix_equals_live(self, run):
        for now, count, _, _, live in run.sampled():
            prefix = run.entries[:count]
            service, journal = run.fold_service(
                prefix, run.fold(prefix), now
            )
            assert _service_state(service) == live, f"boundary t={now}"
            assert service.cursor == journal.count_of("service-arrival")

    def test_recover_reasserts_the_live_poison_ledger(self, run):
        """fold + reconcile: a recovered controller intends exactly the
        announcements the live one had in flight mid-verification."""
        now, count, _, live, _ = next(
            b for b in run.sampled() if "verifying" in b[2]
        )
        journal = RepairJournal()
        journal.entries = list(run.entries[:count])
        host = run.host
        recovered = Lifeguard.recover(
            journal,
            engine=host.engine,
            topo=host.topo,
            origin_asn=host.origin_asn,
            vantage_points=host.vantage_points,
            targets=host.targets,
            duration_history=generate_outage_trace(
                seed=run.seed
            ).durations,
            config=run.config,
            now=now,
            reprime_atlas=False,
        )
        # What the live controller had in flight, read off its own
        # records' fingerprints (field order is the dataclass's).
        names = [f.name for f in fields(RepairRecord)]
        state, intent = names.index("state"), names.index("poison_intent")
        in_flight = {
            row[0][0]: row[intent]
            for row in live["fingerprints"]
            if row[state] in ("verifying", "poisoned")
        }
        assert in_flight
        assert recovered.origin.active_poisons() == {
            ledger_key(key, step): (
                mode, providers if mode in ("prepend", "suppress") else asns
            )
            for key, (mode, asns, providers, step) in in_flight.items()
        }


class TestReusedVerdict:
    def test_every_commit_leaves_the_live_record_its_fold(self, monkeypatch):
        """An escalated rung reuses the verdict that blamed the AS:
        from then on, after each commit for that outage (the poison
        entry the stage writes first among them), the live record is the
        fold of the outage's journaled entries."""
        reused, checked = [], []
        reuses_verdict = plan.reuses_verdict

        def spy(record, ladder):
            if reuses_verdict(record, ladder):
                reused.append(record)
                return True
            return False

        commit = Lifeguard._commit

        def checked_commit(self, kind, key, now, live=None, **fields):
            commit(self, kind, key, now, live, **fields)
            if reused and key == reused[-1].key:
                (folded,) = fold_records(self.journal.for_outage(key))
                assert folded.fingerprint() == reused[-1].fingerprint(), kind
                checked.append(kind)

        monkeypatch.setattr(plan, "reuses_verdict", spy)
        monkeypatch.setattr(Lifeguard, "_commit", checked_commit)
        _ladder_run(3)
        assert reused and "poison" in checked


def _terminal_keys(lifeguard):
    return {
        r.key for r in lifeguard.records
        if r.state.value in TERMINAL_STATES
    }


class TestCompactionPreservesTheFold:
    def _assert_same_fold(self, run, full_entries, compacted, now):
        full = run.fold(full_entries)
        small = run.fold(compacted)
        kept = {r.key for r in small.records}
        # Only terminal records may be dropped...
        assert {r.key for r in full.records} - kept <= _terminal_keys(full)
        # ...and everything else folds to the same state.
        floor = now - PACER_WINDOW
        assert _controller_state(small, kept, floor) == _controller_state(
            full, kept, floor
        )
        full_service, full_journal = run.fold_service(
            full_entries, full, now
        )
        state = _service_state(full_service)
        small_service, small_journal = run.fold_service(
            compacted, small, now
        )
        assert _service_state(small_service) == state
        assert small_journal.count_of(
            "service-arrival"
        ) == full_journal.count_of("service-arrival")

    def test_each_cut_folds_the_same_compacted(self, run):
        dropped_any = False
        for now, count, _, _, _ in run.sampled():
            prefix = run.entries[:count]
            compacted, marker = _compact(prefix, 1, now)
            dropped_any = dropped_any or marker["dropped"] > 0
            self._assert_same_fold(run, prefix, compacted, now)
        assert dropped_any, "compaction never had anything to drop"

    def test_dropped_records_leave_their_charges_and_slots(self):
        """Whatever the sweep's seeds produce: a terminal record's
        rollbacks and in-window announcements survive as folded state,
        out-of-window ones do not."""
        journal = RepairJournal()
        done = ("origin", "0.3.0.1", 1000.0)
        live = ("origin", "0.4.0.1", 5000.0)
        journal.append("announce-baseline", 0.0)
        journal.append("observed", 1110.0, key=done, detected=1110.0)
        journal.append("announced", 1300.0, key=done)
        journal.append(
            "rollback", 1330.0, key=done, asn=7, reason="x", failures=1
        )
        journal.append("announced", 6000.0, key=done)
        journal.append(
            "rollback", 6030.0, key=done, asn=7, reason="x", failures=2
        )
        journal.append("state", 6030.0, key=done, state="not-poisoned")
        journal.append("observed", 5110.0, key=live, detected=5110.0)
        journal.append("isolation-spend", 5400.0, key=live, used=1)
        compacted, marker = _compact(journal.entries, 1, 7000.0)
        assert marker["dropped"] == 7
        host = build_deployment(scale="tiny", seed=5)
        config = LifeguardConfig()
        full = _controller_state(
            _fold(host, config, journal.entries),
            {live},
            7000.0 - PACER_WINDOW,
        )
        folded = _fold(host, config, compacted)
        small = _controller_state(folded)
        assert small == full
        assert small["pacer"] == [6000.0]
        assert small["breaker"] == {(done[:2], 7): (2, 6030.0)}
        assert [(r.key, r.isolation_charge) for r in folded.records] == [
            (live, 1)
        ]

    def test_chained_compactions_fold_the_same(self, run):
        """Compact, keep appending, compact again — as rotation does."""
        log, done = [], 0
        for segment, (now, count, _, _, _) in enumerate(
            run.sampled(), start=1
        ):
            log, _ = _compact(log + run.entries[done:count], segment, now)
            done = count
            self._assert_same_fold(run, run.entries[:count], log, now)


def _pacer_run(delta_mode):
    scenario = build_deployment(
        scale="tiny",
        seed=0,
        lifeguard_config=LifeguardConfig(delta_mode=delta_mode),
    )
    service = LifeguardService(
        scenario,
        ServiceConfig(
            duration=7200.0,
            arrivals=OutageArrivalConfig(
                first_arrival=1000.0, spacing=360.0, duration=3000.0
            ),
            seed=0,
            drain=9000.0,
        ),
    )
    report = service.run()
    return scenario, report


class TestPacerSurvivesReplay:
    """Regression: ``OriginController._apply`` took the live pacer slot
    at the engine clock while the journal recorded the tick's ``now``;
    after an earlier ``engine.run()`` in the same tick the two differ
    (delta off), so a recovered pacer disagreed with the live one.

    ``[auto]`` must really splice: the default-mode deployment below is
    solver-built, so every announcement takes the delta path; if it were
    event-converged, every announcement would fall back and ``[auto]``
    would be ``[off]`` under another name."""

    @pytest.mark.parametrize("delta_mode", ["off", "auto"])
    def test_recovered_pacer_equals_live(self, delta_mode):
        scenario, report = _pacer_run(delta_mode)
        live = scenario.lifeguard
        assert report.repaired >= 2 and report.drained
        if delta_mode == "auto":
            assert live.origin.delta_applied > 0
            assert live.origin.delta_fallbacks == 0
        else:
            assert live.origin.delta_applied == 0
        live_times = list(live.origin.pacer.times)
        recovered = Lifeguard.recover(
            live.journal,
            engine=scenario.engine,
            topo=scenario.topo,
            origin_asn=scenario.origin_asn,
            vantage_points=scenario.vantage_points,
            targets=scenario.targets,
            duration_history=generate_outage_trace(seed=0).durations,
            config=live.config,
            now=report.duration,
            failures=live.dataplane.failures,
            reprime_atlas=False,
        )
        assert recovered.origin.pacer.times == live_times
        # Every slot is a journaled announcement time, nothing else.
        assert live_times == [
            e["t"]
            for e in live.journal.entries
            if e["event"] in ("announce-baseline", "announced")
        ]


class TestUnknownEntryKinds:
    def test_live_commit_of_an_unregistered_kind_fails_at_once(self):
        scenario = build_deployment(scale="tiny", seed=5)
        lifeguard = scenario.lifeguard
        before = len(lifeguard.journal)
        with pytest.raises(ControlError, match="esclate"):
            lifeguard._commit("esclate", None, 100.0, step=1)
        service = LifeguardService(scenario, ServiceConfig())
        with pytest.raises(ControlError, match="service-arival"):
            service._commit("service-arival", 100.0, index=0)
        # Nothing was written for either.
        assert len(lifeguard.journal) == before

    def test_loaded_journal_with_an_unknown_kind_is_refused(self, tmp_path):
        scenario = build_deployment(scale="tiny", seed=5)
        path = str(tmp_path / "typo.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for entry in scenario.lifeguard.journal.entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.write(
                json.dumps({"v": 1, "t": 50.0, "event": "esclate"}) + "\n"
            )
        with pytest.raises(ControlError, match="'esclate'"):
            Lifeguard.recover(
                RepairJournal.load(path),
                engine=scenario.engine,
                topo=scenario.topo,
                origin_asn=scenario.origin_asn,
                vantage_points=scenario.vantage_points,
                targets=scenario.targets,
                duration_history=generate_outage_trace(seed=5).durations,
            )

    def test_service_kinds_pass_through_the_controller_fold(self):
        scenario = build_deployment(scale="tiny", seed=5)
        for kind, owner in sorted(KINDS.items()):
            if owner == "service":
                scenario.lifeguard.apply({"v": 1, "t": 0.0, "event": kind})

    def test_replayed_service_journal_with_an_unknown_kind_is_refused(self):
        scenario = build_deployment(scale="tiny", seed=5)
        service = LifeguardService(scenario, ServiceConfig())
        journal = RepairJournal()
        journal.entries = [{"v": 1, "t": 0.0, "event": "service-arival"}]
        with pytest.raises(ControlError, match="'service-arival'"):
            service._restore_from_journal(journal, 0.0)


class TestDocumentedKinds:
    def test_design_table_lists_exactly_the_reducer_tables(self):
        """DESIGN.md's table is the registry, kind and owner."""
        with open(DESIGN, encoding="utf-8") as handle:
            text = handle.read()
        section = text.split("### Journal entry kinds", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = dict(
            re.findall(r"^\| `([a-z-]+)` \|.*\| ([a-z]+) \|$", section, re.M)
        )
        assert documented == KINDS

    def test_every_registered_kind_has_a_reducer_in_its_owner(self):
        controller = set(Lifeguard._REDUCERS)
        service = set(LifeguardService._REDUCERS)
        owned = {
            "record": set(RECORD_REDUCERS) & controller,
            "controller": controller,
            "service": service,
            "journal": controller | service,
        }
        for kind, owner in KINDS.items():
            assert kind in owned[owner], (kind, owner)
        # ... and no owner folds a kind the registry does not hold.
        assert set(RECORD_REDUCERS) | controller | service == set(KINDS)
        assert not controller & {
            kind for kind, owner in KINDS.items() if owner == "service"
        }
