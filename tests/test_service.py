"""The continuous-operation service daemon.

Unit tests cover the bounded stage queues (backpressure, deadline
boosts) and the admission controller's degradation ladder; the property
tests at the bottom are the acceptance check for the service PR,
extending ``tests/test_lifeguard_recovery.py``: a service run with the
same seed is byte-identical (event-bus SHA-256 digest) across two
executions, and across a mid-run crash + recover — including one that
crosses rotated journal segments — with zero abandoned repairs.  Seeds
come from ``REPRO_CHAOS_SEEDS`` so CI can sweep a matrix.
"""

import os

import pytest

from repro.control.journal import RepairJournal
from repro.control.lifeguard import LifeguardConfig
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    AdmissionController,
    LifeguardService,
    OverloadSignals,
    ServiceConfig,
    ServiceReport,
    ServiceTier,
    Stage,
    StageQueue,
    Watermarks,
)
from repro.traffic import TrafficConfig
from repro.workloads.outages import OutageArrivalConfig
from repro.workloads.scenarios import build_deployment

SEEDS = tuple(
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "3,5,7").split(",")
)


class TestStageQueue:
    def _queue(self, capacity=3, deadline=100.0):
        return StageQueue(Stage.ISOLATE, capacity, deadline)

    def test_fifo_take_respects_budget(self):
        queue = self._queue()
        for name in ("a", "b", "c"):
            assert queue.offer((name, "d", 0.0), now=10.0)
        taken = queue.take(2)
        assert [item.key[0] for item in taken] == ["a", "b"]
        assert len(queue) == 1

    def test_full_queue_refuses_and_counts(self):
        queue = self._queue(capacity=1)
        assert queue.offer(("a", "d", 0.0), now=0.0)
        assert not queue.offer(("b", "d", 0.0), now=0.0)
        assert queue.refusals == 1
        # An already-queued key is accepted in place, not a refusal.
        assert queue.offer(("a", "d", 0.0), now=5.0)
        assert queue.refusals == 1
        assert len(queue) == 1

    def test_requeue_goes_to_tail_with_attempt(self):
        queue = self._queue()
        queue.offer(("a", "d", 0.0), now=0.0)
        queue.offer(("b", "d", 0.0), now=0.0)
        (item,) = queue.take(1)
        queue.requeue(item, now=50.0)
        assert item.attempts == 1
        assert item.deadline == 150.0
        assert [k[0] for k in queue.keys()] == ["b", "a"]

    def test_expire_boosts_breached_items_to_front(self):
        queue = self._queue(deadline=100.0)
        queue.offer(("old", "d", 0.0), now=0.0)
        queue.offer(("new", "d", 0.0), now=90.0)
        breached = queue.expire(now=150.0)
        assert [item.key[0] for item in breached] == ["old"]
        assert queue.timeouts == 1
        # Boosted to the head with a fresh deadline and an attempt.
        assert [k[0] for k in queue.keys()] == ["old", "new"]
        assert breached[0].deadline == 250.0
        assert breached[0].attempts == 1

    def test_occupancy_and_peak(self):
        queue = self._queue(capacity=4)
        queue.offer(("a", "d", 0.0), now=0.0)
        queue.offer(("b", "d", 0.0), now=0.0)
        assert queue.occupancy == 0.5
        queue.take(2)
        assert queue.peak == 2


def _signals(inflight=0, probes=0.0, lag=0, occupancy=0.0):
    return OverloadSignals(
        inflight=inflight,
        probe_utilisation=probes,
        journal_lag=lag,
        queue_occupancy=occupancy,
    )


class TestAdmissionController:
    def _controller(self):
        return AdmissionController(
            Watermarks(max_inflight=8, max_journal_lag=16)
        )

    def test_escalates_one_tier_per_breach(self):
        controller = self._controller()
        assert controller.evaluate(_signals(inflight=9)) is (
            ServiceTier.THROTTLED
        )
        assert controller.evaluate(
            _signals(inflight=9, lag=17)
        ) is ServiceTier.PAUSED
        # Capped at PAUSED no matter how many breaches.
        assert controller.evaluate(
            _signals(inflight=9, lag=17, occupancy=1.0, probes=2.0)
        ) is ServiceTier.PAUSED
        assert controller.transitions == 2

    def test_recovers_one_tier_per_calm_round(self):
        controller = self._controller()
        controller.evaluate(_signals(inflight=9, lag=17, occupancy=1.0))
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
        """``baseline.json``'s service entry and ``repro serve
        --metrics-out`` serialize this dict: same 29 keys, same order,
        queue peaks sorted, user-minutes rounded to 6 places."""
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


class TestServiceDeterminism:
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
    """

    def test_small_episode_is_what_it_was(self):
        obs = EventBus(metrics=MetricsRegistry())
        # Every mode an environment variable could pick is spelled out:
        # the pin must not depend on what an earlier test left behind.
        scenario = build_deployment(
            scale="small", seed=3, num_helper_vps=3, num_targets=5,
            obs=obs, cache=None, baseline_mode="auto",
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
        assert obs.total == 5789
        assert report.digest == (
            "ed9555b8ef64bdded00a39102e12432c"
            "02ba557fec886014dfc0982d3575dbee"
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
