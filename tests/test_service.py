"""The continuous-operation service daemon.

Unit tests cover the bounded stage queues (backpressure, deadline
boosts) and the admission controller's degradation ladder; the property
tests at the bottom are the acceptance check for the service PR,
extending ``tests/test_lifeguard_recovery.py``: a service run with the
same seed is byte-identical (event-bus SHA-256 digest) across two
executions, across interpreters with other hash seeds, and across a
mid-run crash + recover — including one that
crosses rotated journal segments — with zero abandoned repairs.  Seeds
come from ``REPRO_CHAOS_SEEDS`` so CI can sweep a matrix.
"""

import hashlib
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.journal import RepairJournal
from repro.control.lifeguard import LifeguardConfig
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    AdmissionController,
    Backlog,
    LifeguardService,
    OverloadSignals,
    ServiceConfig,
    ServiceReport,
    ServiceTier,
    Watermarks,
    daemon,
)
from repro.service.daemon import STAGE_DEADLINE
from repro.traffic import TrafficConfig
from repro.workloads.outages import OutageArrivalConfig
from repro.workloads.scenarios import build_deployment

SEEDS = tuple(
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "3,5,7").split(",")
)


def _backlog(**stages):
    """A backlog holding *stages*' keys in order; the dict stands in for
    the records, so setting a key's stage (None = settled) is a fold."""
    backlog = Backlog(stages.get)
    for key in stages:
        backlog.push(key, now=0.0)
    return backlog, stages


class TestBacklog:
    def test_fifo_within_a_stage_under_budget(self):
        backlog, _ = _backlog(a="isolate", v="verify", b="isolate",
                              c="isolate")
        ran = []
        assert backlog.serve("isolate", 2, 10.0, ran.append) == 2
        assert ran == ["a", "b"]
        # Served and still isolating: to the tail, in service order.
        assert list(backlog.items) == ["v", "c", "a", "b"]
        assert backlog.serve("isolate", 0, 20.0, ran.append) == 0
        assert ran == ["a", "b"]

    def test_admission_refuses_at_capacity(self, monkeypatch):
        monkeypatch.setattr(daemon, "QUEUE_CAPACITY", 2)
        backlog, stages = _backlog(a="isolate", v="verify")
        stages.update(b="isolate", c="isolate")
        # Only isolation has a capacity: the verify item takes no slot.
        assert backlog.admit(["b", "c"], now=5.0) == ["c"]
        assert list(backlog.items) == ["a", "v", "b"]

    def test_served_items_go_where_their_record_now_waits(self):
        backlog, stages = _backlog(a="isolate", b="isolate", c="isolate",
                                   d="isolate")
        after = {"a": "isolate", "b": "verify", "c": None}
        backlog.serve("isolate", 3, 50.0, lambda k: stages.update(
            {k: after[k]}))
        assert list(backlog.items) == ["d", "a", "b"]
        stayed, moved = backlog.items["a"], backlog.items["b"]
        assert (stayed.attempts, stayed.deadline) == (1, 50.0 + STAGE_DEADLINE)
        assert (moved.attempts, moved.deadline) == (0, 50.0 + STAGE_DEADLINE)

    def test_expire_boosts_breached_items_to_front(self):
        backlog, stages = _backlog()
        stages.update(fresh="isolate", v="verify", old="isolate")
        backlog.push("fresh", now=90.0)
        backlog.push("v", now=0.0)
        backlog.push("old", now=0.0)
        now = STAGE_DEADLINE + 50.0
        breached = backlog.expire(now)
        # Journaled stage by stage (isolate, verify, retry, check);
        # moved to the front in backlog order, each with an attempt.
        assert [(stage, i.key) for stage, i in breached] == [
            ("isolate", "old"), ("verify", "v")
        ]
        assert list(backlog.items) == ["v", "old", "fresh"]
        assert backlog.timeouts == 2
        for _stage, item in breached:
            assert (item.attempts, item.deadline) == (
                1, now + STAGE_DEADLINE
            )

    def test_depths_count_live_items_and_raise_the_peaks(self):
        backlog, stages = _backlog(a="isolate", b="isolate", v="verify")
        assert backlog.depths() == {
            "isolate": 2, "verify": 1, "retry": 0, "check": 0
        }
        stages.update(a=None, v=None)
        backlog.drop_settled()
        assert list(backlog.items) == ["b"]
        assert backlog.depths()["isolate"] == 1
        assert backlog.peaks == {
            "isolate": 2, "verify": 1, "retry": 0, "check": 0
        }


def _tiny_service(seed=3, first_arrival=150.0):
    scenario = build_deployment(scale="tiny", seed=seed)
    config = ServiceConfig(
        duration=1500.0,
        arrivals=OutageArrivalConfig(
            first_arrival=first_arrival, spacing=300.0, duration=600.0
        ),
        seed=seed,
        drain=3600.0,
    )
    service = LifeguardService(scenario, config)
    service.start()
    return service


class TestBacklogInTheService:
    def test_monitoring_pings_are_no_load(self):
        service = _tiny_service()
        prober = service.lifeguard.prober
        before = prober.probes_sent
        service.run_round(30.0)  # before the first arrival
        assert prober.probes_sent > before
        signals = service._signals(60.0)
        assert signals.probe_utilisation == 0
        assert signals.queue_occupancy == 0

    def test_settled_items_leave_the_backlog_while_paused(self):
        service = _tiny_service()
        interval = service.lifeguard.config.monitor_interval
        now = interval
        with mock.patch.dict(daemon.BUDGETS, isolate=0):
            while not service.backlog.depths()["isolate"]:
                assert now < 1500.0, "no outage was admitted"
                service.run_round(now)
                now += interval
            depth = service.backlog.depths()["isolate"]
            assert service._signals(now).queue_occupancy == (
                depth / daemon.QUEUE_CAPACITY
            )
            service.admission.restore(ServiceTier.PAUSED)
            service.admission.evaluate = lambda signals: ServiceTier.PAUSED
            while now <= service._last_outage_end + 300.0:
                service.run_round(now)
                now += interval
        assert service.admission.tier is ServiceTier.PAUSED
        assert len(service.backlog) == 0
        assert service.report(now).pending == 0


class TestOverloadRecovers:
    """The closed loop the admission unit tests cannot see: the backlog
    feeds the occupancy signal and the tier feeds the isolate budget.
    With four isolation slots an arrival burst breaches the watermark;
    once the last outage has ended the service must come back."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 40),
        spacing=st.integers(1, 16).map(lambda n: 30.0 * n),
        outage=st.integers(4, 40).map(lambda n: 30.0 * n),
    )
    def test_tier_returns_to_normal_and_the_backlog_drains(
        self, seed, spacing, outage
    ):
        with mock.patch.object(daemon, "QUEUE_CAPACITY", 4):
            scenario = build_deployment(scale="tiny", seed=seed)
            config = ServiceConfig(
                duration=2400.0,
                arrivals=OutageArrivalConfig(
                    first_arrival=300.0, spacing=spacing, duration=outage
                ),
                seed=seed,
                drain=7200.0,
            )
            service = LifeguardService(scenario, config)
            report = service.run()
        last_end = max(outage.end for outage in service.schedule)
        assert report.final_tier == ServiceTier.NORMAL.name
        assert report.drained
        assert len(service.backlog) == 0
        assert report.duration <= last_end + 1800.0


def _signals(inflight=0, probes=0.0, occupancy=0.0):
    return OverloadSignals(
        inflight=inflight,
        probe_utilisation=probes,
        queue_occupancy=occupancy,
    )


class TestAdmissionController:
    def _controller(self):
        return AdmissionController(Watermarks(max_inflight=8))

    def test_escalates_one_tier_per_breach(self):
        controller = self._controller()
        assert controller.evaluate(_signals(inflight=9)) is (
            ServiceTier.THROTTLED
        )
        assert controller.evaluate(
            _signals(inflight=9, occupancy=1.0)
        ) is ServiceTier.PAUSED
        # Capped at PAUSED no matter how many breaches.
        assert controller.evaluate(
            _signals(inflight=9, occupancy=1.0, probes=2.0)
        ) is ServiceTier.PAUSED
        assert controller.transitions == 2

    def test_recovers_one_tier_per_calm_round(self):
        controller = self._controller()
        controller.evaluate(_signals(inflight=9, occupancy=1.0, probes=2.0))
        assert controller.tier is ServiceTier.PAUSED
        # Not calm (inflight above the low watermark): tier holds.
        assert controller.evaluate(_signals(inflight=5)) is (
            ServiceTier.PAUSED
        )
        for expected in (
            ServiceTier.SHED,
            ServiceTier.THROTTLED,
            ServiceTier.NORMAL,
            ServiceTier.NORMAL,
        ):
            assert controller.evaluate(_signals()) is expected

    def test_budget_scale_and_admitting_per_tier(self):
        controller = self._controller()
        expected = {
            ServiceTier.NORMAL: (1.0, True),
            ServiceTier.THROTTLED: (0.5, True),
            ServiceTier.SHED: (0.25, False),
            ServiceTier.PAUSED: (0.0, False),
        }
        for tier, (scale, admitting) in expected.items():
            controller.restore(tier)
            assert controller.budget_scale() == scale
            assert controller.admitting is admitting


class TestServiceReport:
    def test_as_dict_keeps_its_keys_order_and_special_cases(self):
        """``repro serve`` prints this dict as its table and the control
        pin records it: same 29 keys, same order, queue peaks sorted,
        user-minutes rounded to 6 places."""
        report = ServiceReport(
            duration=14430.0, rounds=470, monitored_pairs=24, arrivals=21,
            records=24, repaired=1, completed=1, settled=24, pending=0,
            abandoned=0, shed=2, deferred=3, timeouts=4, backpressure=5,
            crashes=1, tier_transitions=6, final_tier="NORMAL",
            ttr_p50=240.0, ttr_p95=None, ttr_p99=270.0,
            queue_peaks={"verify": 1, "isolate": 3, "retry": 0, "check": 2},
            journal_entries=558, journal_rotations=0, drained=True,
            users_total=1000000, users_affected=0,
            peak_users_affected=17338,
            affected_user_minutes=390746.12345678, digest="d39daab2",
        )
        assert list(report.as_dict().items()) == [
            ("duration", 14430.0), ("rounds", 470),
            ("monitored_pairs", 24), ("arrivals", 21), ("records", 24),
            ("repaired", 1), ("completed", 1), ("settled", 24),
            ("pending", 0), ("abandoned", 0), ("shed", 2),
            ("deferred", 3), ("timeouts", 4), ("backpressure", 5),
            ("crashes", 1), ("tier_transitions", 6),
            ("final_tier", "NORMAL"), ("ttr_p50", 240.0),
            ("ttr_p95", None), ("ttr_p99", 270.0),
            ("queue_peaks",
             {"check": 2, "isolate": 3, "retry": 0, "verify": 1}),
            ("journal_entries", 558), ("journal_rotations", 0),
            ("drained", True), ("users_total", 1000000),
            ("users_affected", 0), ("peak_users_affected", 17338),
            ("affected_user_minutes", 390746.123457),
            ("digest", "d39daab2"),
        ]
        assert list(report.as_dict()["queue_peaks"]) == [
            "check", "isolate", "retry", "verify"
        ]
        # A copy, not the report's own dict.
        assert report.as_dict()["queue_peaks"] is not report.queue_peaks


def _run_service(seed, journal_path=None, crash_at=None, max_bytes=None):
    """One tiny-scale service run; returns (report, fingerprints)."""
    obs = EventBus(metrics=MetricsRegistry())
    journal = None
    if journal_path is not None:
        journal = RepairJournal(journal_path, max_bytes=max_bytes)
    scenario = build_deployment(
        scale="tiny", seed=seed, obs=obs, journal=journal
    )
    config = ServiceConfig(
        duration=3600.0,
        arrivals=OutageArrivalConfig(
            first_arrival=1000.0, spacing=900.0, duration=3600.0
        ),
        seed=seed,
        drain=7200.0,
        crash_at=crash_at,
    )
    service = LifeguardService(scenario, config, obs=obs)
    report = service.run()
    fingerprints = [
        r.fingerprint() for r in scenario.lifeguard.records
    ]
    if journal is not None:
        journal.close()
    return report, fingerprints


_DIGEST_SCRIPT = """
from tests.test_service import _run_service
print(_run_service(%d)[0].digest)
"""


class TestServiceDeterminism:
    def test_digest_is_independent_of_hash_seed(self):
        """No event may follow a set's iteration order or an identity
        hash: fresh interpreters under other hash seeds (other string
        hashes, other object addresses) emit the same event stream."""
        seed = SEEDS[0]
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join(
                    [os.path.join(root, "src"), root]
                ),
            )
            out = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT % seed],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            )
            digests.add(out.stdout.strip())
        assert digests == {_run_service(seed)[0].digest}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_runs_are_byte_identical(self, seed):
        first, prints_a = _run_service(seed)
        second, prints_b = _run_service(seed)
        assert first.digest == second.digest
        assert prints_a == prints_b
        assert first.repaired >= 1, "property is vacuous without repairs"
        assert first.abandoned == 0
        assert first.drained

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_recover_is_byte_identical(self, seed, tmp_path):
        first, prints_a = _run_service(
            seed,
            journal_path=str(tmp_path / "a.jsonl"),
            crash_at=2500.0,
        )
        second, prints_b = _run_service(
            seed,
            journal_path=str(tmp_path / "b.jsonl"),
            crash_at=2500.0,
        )
        assert first.crashes == 1
        assert first.digest == second.digest
        assert prints_a == prints_b
        # The crash cost downtime, never a repair: everything journaled
        # before the crash was retried or finished after recovery.
        assert first.abandoned == 0
        assert first.repaired >= 1
        assert first.drained

    def test_crash_recover_across_rotated_segments(self, tmp_path):
        seed = SEEDS[0]
        first, prints_a = _run_service(
            seed,
            journal_path=str(tmp_path / "a.jsonl"),
            crash_at=2500.0,
            max_bytes=8192,
        )
        second, prints_b = _run_service(
            seed,
            journal_path=str(tmp_path / "b.jsonl"),
            crash_at=2500.0,
            max_bytes=8192,
        )
        assert first.journal_rotations >= 1
        assert first.digest == second.digest
        assert prints_a == prints_b
        assert first.abandoned == 0
        assert first.drained


class TestReadPathBehaviourPin:
    """One fixed episode whose observable behaviour is pinned.

    The constants were recorded on the commit *before* the forwarding
    walk memo, the skeleton event encoder and the ledger's
    classification reuse went in (b9f41c9): none of the three may move
    an event, a time-to-repair or a user-minute.  ``bench/compare.py``
    guards the same on the benchmark workloads; this is the tier-1 copy.

    The event count and the digests were re-recorded, and only they, when
    the announcement pacer moved ahead of the isolation: the round at
    t=1050 that isolated a record (a low-confidence verdict) while the
    budget was spent now defers it for pacing with no probes, so that
    run's pings, traceroute and isolation entries are gone.
    """

    def test_small_episode_is_what_it_was(self):
        obs = EventBus(metrics=MetricsRegistry())
        # The delta mode is spelled out: the pin must not depend on
        # what an earlier test left behind.
        scenario = build_deployment(
            scale="small", seed=3, num_helper_vps=3, num_targets=5,
            obs=obs,
            lifeguard_config=LifeguardConfig(delta_mode="off"),
        )
        config = ServiceConfig(
            duration=1200.0,  # 40 rounds of arrivals, then the drain
            arrivals=OutageArrivalConfig(
                first_arrival=150.0, spacing=300.0, duration=900.0
            ),
            seed=3,
            drain=1500.0,
            traffic=TrafficConfig(),
        )
        service = LifeguardService(scenario, config, obs=obs)
        report = service.run()
        assert (
            report.monitored_pairs, report.rounds, report.records,
            report.repaired, report.completed, report.pending,
        ) == (20, 75, 6, 4, 2, 0)
        assert obs.total == 5778
        assert report.digest == (
            "02bb8995eff41ffa304f6f408cc24858"
            "bb0c6cb7e8c3252eb7b7ef8a93c025d9"
        )
        assert service.ttr == [240.0, 240.0]
        assert report.affected_user_minutes == 55215.0
        # The memo is what served most of it, and says so only here:
        # in the gauges and the report, never on the bus.
        gauges = obs.metrics.snapshot()["gauges"]
        assert gauges["dataplane.walk_memo.hits"] == report.walk_hits
        assert gauges["dataplane.walk_memo.misses"] == report.walk_misses
        assert report.walk_hits > 3 * report.walk_misses > 0
        # Likewise how the FIBs were kept: every refresh patched rows;
        # no prefix appeared after the first table was compiled, so
        # nothing fell back to compiling a column whole.
        fibs = service.lifeguard.dataplane.fibs
        assert gauges["dataplane.fib.rows_patched"] == fibs.rows_patched > 0
        assert gauges["dataplane.fib.columns_compiled"] == 0
        assert gauges["dataplane.fib.axis_regrown"] == 0
        assert (fibs.columns_compiled, fibs.axis_regrown) == (0, 0)
        assert service.ledger.classify_reused > report.rounds // 2
        assert "walk_hits" not in report.as_dict()
        # Nothing in the loop reads engine.change_log, so the daemon
        # keeps one round of it: every finished round's changes were
        # dropped and counted — in a gauge, never on the bus.
        assert scenario.engine.change_log == []
        assert gauges["bgp.change_log.dropped"] == service.changes_dropped
        assert service.changes_dropped > 500


def test_small_episode_reads_back_the_events_it_emitted():
    """``TestReadPathBehaviourPin``'s episode read back from the ring.

    The ring keeps each event's canonical line and ``events()`` parses
    it; the hash over the parsed events (``repr`` tells a tuple from a
    list, ``True`` from ``1``, ``1`` from ``1.0``) was recorded when the
    ring still held the ``Event`` objects ``emit`` had built, and
    re-recorded with the count above when the pacer moved ahead of the
    isolation.
    """
    obs = EventBus(metrics=MetricsRegistry())
    scenario = build_deployment(
        scale="small", seed=3, num_helper_vps=3, num_targets=5,
        obs=obs,
        lifeguard_config=LifeguardConfig(delta_mode="off"),
    )
    config = ServiceConfig(
        duration=1200.0,
        arrivals=OutageArrivalConfig(
            first_arrival=150.0, spacing=300.0, duration=900.0
        ),
        seed=3,
        drain=1500.0,
        traffic=TrafficConfig(),
    )
    LifeguardService(scenario, config, obs=obs).run()
    blobs = [event.to_json() for event in obs.events()]
    assert len(blobs) == 5778
    assert hashlib.sha256(repr(blobs).encode("utf-8")).hexdigest() == (
        "1d744b1b01f9432687d5be2fc48d0836"
        "18de2e1f9c131a7a774c536c0097ba4e"
    )
