"""Affected-user-minutes accounting, crash recovery, and the CI smoke.

Three layers under test:

* the :class:`~repro.traffic.impact.ImpactLedger` itself — flow
  classification against failures, left-Riemann integration, and the
  journal round-trip: a ledger restored mid-stream from ``state_json``
  must continue byte-identically with the original;
* the end-to-end impact study behind ``repro impact --check`` — user
  pain accrues before the repair lands and decays monotonically to zero
  after (the CI smoke assertions), swept over ``REPRO_CHAOS_SEEDS``;
* the service integration — two crash-and-recover service runs with the
  same seed stay byte-identical (event-bus digest) with the traffic
  ledger journaling samples every round, and the recovered report
  carries identical impact accumulators.
"""

import os

import pytest

from repro.cli import main
from repro.control.journal import RepairJournal
from repro.dataplane.failures import ASForwardingFailure, FailureSet
from repro.dataplane.fib import FibSnapshot, build_fibs
from repro.experiments.impact import run_impact_study
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.service import LifeguardService, ServiceConfig
from repro.traffic import (
    ImpactLedger,
    TrafficConfig,
    build_traffic_matrix,
    impact_key,
)
from repro.workloads.outages import OutageArrivalConfig
from repro.workloads.scenarios import build_deployment

SEEDS = tuple(
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "3,5,7").split(",")
)


def _transit_asn(graph, matrix, fibs):
    """A transit AS that actually carries some flow's first hop."""
    stubs = set(graph.stubs())
    for flow in matrix.flows:
        hop = fibs.next_hop_as(flow.src_asn, flow.dst_address)
        if hop is not None and hop >= 0 and hop not in stubs:
            return hop
    raise AssertionError("no transit next hop found")


class TestImpactLedger:
    @pytest.fixture()
    def setting(self, small_internet):
        graph, _topo, engine = small_internet
        fibs = build_fibs(engine)
        matrix = build_traffic_matrix(
            graph, seed=3, config=TrafficConfig(total_users=50_000)
        )
        return graph, fibs, matrix

    def test_healthy_plane_has_no_affected_users(self, setting):
        _graph, fibs, matrix = setting
        ledger = ImpactLedger(matrix)
        ledger.prime(fibs)
        sample = ledger.observe(30.0, fibs, FailureSet())
        assert sample.affected_users == 0
        assert sample.by_key == {}
        assert ledger.user_minutes == 0.0

    def test_failure_strands_users_and_attributes_them(self, setting):
        graph, fibs, matrix = setting
        bad = _transit_asn(graph, matrix, fibs)
        failure = ASForwardingFailure(asn=bad, start=0.0, end=600.0)
        failures = FailureSet([failure])
        ledger = ImpactLedger(matrix)
        ledger.prime(fibs)
        first = ledger.observe(30.0, fibs, failures)
        assert first.affected_users > 0
        assert first.by_key == {impact_key(failure): first.affected_users}
        # One more minute of the same outage integrates exactly
        # affected_users user-minutes.
        ledger.observe(90.0, fibs, failures)
        assert ledger.user_minutes == pytest.approx(
            first.affected_users * 1.0
        )
        # After the window closes the users come back.
        done = ledger.observe(660.0, fibs, failures)
        assert done.affected_users == 0
        assert ledger.peak_affected == first.affected_users

    def test_integration_is_left_riemann(self, setting):
        graph, fibs, matrix = setting
        bad = _transit_asn(graph, matrix, fibs)
        failures = FailureSet(
            [ASForwardingFailure(asn=bad, start=0.0, end=10_000.0)]
        )
        ledger = ImpactLedger(matrix)
        ledger.prime(fibs)
        a = ledger.observe(30.0, fibs, failures)
        before = ledger.user_minutes
        ledger.observe(150.0, fibs, failures)
        assert ledger.user_minutes - before == pytest.approx(
            a.affected_users * 2.0
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_restore_midstream_is_byte_identical(self, setting, seed):
        graph, fibs, matrix = setting
        bad = _transit_asn(graph, matrix, fibs)
        failures = FailureSet(
            [
                ASForwardingFailure(
                    asn=bad, start=100.0 + seed, end=400.0
                )
            ]
        )
        original = ImpactLedger(matrix)
        original.prime(fibs)
        times = [30.0 * i for i in range(1, 20)]
        cut = len(times) // 2
        for t in times[:cut]:
            original.observe(t, fibs, failures)
        # Crash: a fresh ledger over the deterministically rebuilt
        # matrix adopts the last journaled accumulators.
        snapshot = original.state_json()
        recovered = ImpactLedger(matrix)
        recovered.restore_state(snapshot)
        assert recovered.state_json() == snapshot
        for t in times[cut:]:
            a = original.observe(t, fibs, failures)
            b = recovered.observe(t, fibs, failures)
            assert (a.affected_users, a.by_key) == (
                b.affected_users,
                b.by_key,
            )
            assert original.state_json() == recovered.state_json()


    def test_reused_classifications_change_nothing(self, setting):
        """Same snapshot + same live failures (reused), a window edge
        crossed, a failure added, the FIBs rebound: the same samples and
        accumulators as a ledger rebuilt — so with nothing to reuse —
        before every sample."""
        graph, fibs, matrix = setting
        bad = _transit_asn(graph, matrix, fibs)
        other = next(
            f.src_asn for f in matrix.flows if f.src_asn != bad
        )
        failures = FailureSet(
            [ASForwardingFailure(asn=bad, start=100.0, end=400.0)]
        )
        # The rebound snapshot: *bad* lost every route it had.
        rebound = FibSnapshot(
            tables={**fibs.tables, bad: {}}, origins=dict(fibs.origins)
        )
        script = [
            (30.0, fibs), (60.0, fibs), (90.0, fibs),   # before the window
            (120.0, fibs), (150.0, fibs),               # inside it
            ("add", ASForwardingFailure(asn=other, start=0.0, end=250.0)),
            (180.0, fibs), (210.0, fibs),
            (270.0, fibs),                              # the added one ended
            (300.0, rebound), (330.0, rebound),
            (420.0, rebound), (450.0, fibs), (480.0, fibs),
        ]
        reusing = ImpactLedger(matrix)
        reusing.prime(fibs)
        state = reusing.state_json()
        samples = 0
        for when, what in script:
            if when == "add":
                failures.add(what)
                continue
            rebuilt = ImpactLedger(matrix)
            rebuilt.restore_state(state)
            a = reusing.observe(when, what, failures)
            b = rebuilt.observe(when, what, failures)
            assert a == b
            assert rebuilt.classify_reused == 0
            assert reusing.user_minutes_by_key == rebuilt.user_minutes_by_key
            state = reusing.state_json()
            assert state == rebuilt.state_json()
            samples += 1
        assert reusing.user_minutes > 0.0
        assert len(reusing.user_minutes_by_key) >= 3
        # Reused: 30 (primed), 60, 90, 150, 210, 330, 480.
        assert reusing.classify_reused == 7 and samples == 13


class TestImpactStudy:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_smoke_invariants(self, seed):
        study, matrix = run_impact_study(scale="tiny", seed=seed)
        assert study.users_total == matrix.total_users > 0
        assert study.flows == len(matrix.flows)
        # The CI smoke assertions behind `repro impact --check`.
        assert study.repair_time is not None
        assert study.nonzero_before_repair()
        assert study.monotone_after_repair()
        assert study.final_affected_users == 0
        assert study.peak_users_affected > 0
        assert (
            study.affected_user_minutes
            >= study.user_minutes_before_repair
            > 0.0
        )

    def test_same_seed_studies_agree(self):
        a, _ = run_impact_study(scale="tiny", seed=SEEDS[0])
        b, _ = run_impact_study(scale="tiny", seed=SEEDS[0])
        assert a.affected_user_minutes == b.affected_user_minutes
        assert [
            (s.t, s.affected_users, s.by_key) for s in a.samples
        ] == [(s.t, s.affected_users, s.by_key) for s in b.samples]


def _run_service(seed, journal_path, crash_at=None):
    """One tiny-scale service run with the traffic ledger attached."""
    obs = EventBus(metrics=MetricsRegistry())
    journal = RepairJournal(journal_path)
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
        traffic=TrafficConfig(total_users=100_000),
    )
    service = LifeguardService(scenario, config, obs=obs)
    report = service.run()
    journal.close()
    return report


class TestServiceIntegration:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_recover_is_byte_identical(self, seed, tmp_path):
        first = _run_service(
            seed, str(tmp_path / "a.jsonl"), crash_at=2500.0
        )
        second = _run_service(
            seed, str(tmp_path / "b.jsonl"), crash_at=2500.0
        )
        assert first.crashes == 1
        assert first.digest == second.digest
        assert first.users_total == 100_000
        assert first.affected_user_minutes == (
            second.affected_user_minutes
        )
        assert first.peak_users_affected == second.peak_users_affected

    def test_report_carries_impact_fields(self, tmp_path):
        report = _run_service(SEEDS[0], str(tmp_path / "a.jsonl"))
        doc = report.as_dict()
        for key in (
            "users_total",
            "users_affected",
            "peak_users_affected",
            "affected_user_minutes",
        ):
            assert key in doc
        assert doc["users_total"] == 100_000


class TestImpactCLI:
    def test_check_mode_passes(self, capsys):
        assert (
            main(
                [
                    "--seed",
                    str(SEEDS[0]),
                    "impact",
                    "--scale",
                    "tiny",
                    "--check",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "user-minutes before repair" in out
