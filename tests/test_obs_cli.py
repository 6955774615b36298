"""Tests for the observability CLI surface and exporters.

Covers ``repro trace`` (timeline rendering, artifact writing, the
``--check-determinism`` gate), ``--metrics-out`` on experiment commands,
and the cross-worker event-log digest equality the subsystem guarantees.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.events import EventBus
from repro.obs.export import (
    demo_event_digests,
    event_log_digest,
    prometheus_text,
    read_events_jsonl,
    write_events_jsonl,
)
from repro.obs.metrics import MetricsRegistry

#: Shortened demo horizon shared by the determinism checks (CI-cheap).
SHORT_DEMO = dict(fail_start=1000.0, fail_end=2400.0, end=3000.0)


class TestParser:
    def test_trace_subcommand(self):
        args = build_parser().parse_args(["trace"])
        assert args.command == "trace"
        assert args.check_determinism == 0
        assert args.events_out is None
        assert args.metrics_out is None

    def test_trace_flags(self):
        args = build_parser().parse_args([
            "trace", "--check-determinism", "4",
            "--events-out", "e.jsonl", "--metrics-out", "m.json",
        ])
        assert args.check_determinism == 4
        assert args.events_out == "e.jsonl"
        assert args.metrics_out == "m.json"

    def test_metrics_out_on_experiment_commands(self):
        parser = build_parser()
        for command in ("chaos", "defenses", "impact", "fuzz"):
            args = parser.parse_args([command, "--metrics-out", "m.json"])
            assert args.metrics_out == "m.json"


class TestTraceCommand:
    def test_renders_repair_timeline(self, capsys):
        assert main(["--seed", "0", "trace"]) == 0
        out = capsys.readouterr().out
        assert "final state: unpoisoned" in out
        for phase in ("detection", "isolation", "poison",
                      "convergence", "verification", "unpoison"):
            assert phase in out
        assert "bgp updates" in out
        assert "digest" in out

    def test_writes_artifacts(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main([
            "--seed", "0", "trace",
            "--events-out", str(events),
            "--metrics-out", str(metrics),
        ]) == 0
        replayed = read_events_jsonl(str(events))
        assert replayed, "event log should not be empty"
        assert replayed[0].kind == "control.announce-baseline"
        snapshot = json.loads(metrics.read_text())
        assert "counters" in snapshot and "histograms" in snapshot
        assert snapshot["counters"]["obs.events.control.state"] > 0

    def test_writes_no_artifact_unless_asked(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["--seed", "3", "trace"]) == 0
        assert not list(tmp_path.iterdir())

    def test_check_determinism_gate(self, capsys):
        assert main([
            "--seed", "0", "trace", "--check-determinism", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out and "MISMATCH" not in out


class TestMetricsOut:
    def test_experiment_writes_snapshot(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main([
            "chaos", "--intensity", "0", "--outages", "1",
            "--metrics-out", str(path),
        ]) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"], "experiment should count something"
        # The legacy RunStats counters are what landed in the snapshot.
        assert any(
            name.startswith("robustness.") for name in snapshot["counters"]
        )
        for blob in snapshot["histograms"].values():
            assert blob["buckets"][-1][0] == "+Inf"
            assert blob["buckets"][-1][1] == blob["count"]


class TestCrossWorkerDeterminism:
    def test_digests_identical_at_workers_1_and_4(self):
        seeds = (0, 1)
        serial = demo_event_digests(seeds, workers=1, **SHORT_DEMO)
        parallel = demo_event_digests(seeds, workers=4, **SHORT_DEMO)
        assert serial == parallel
        # Distinct seeds tell different stories.
        assert serial[0] != serial[1]


class TestExportHelpers:
    def test_event_log_digest_matches_bus(self, tmp_path):
        bus = EventBus()
        bus.emit("a", 1.0, "c", x=1)
        bus.emit("b", 2.0, "c")
        path = tmp_path / "log.jsonl"
        assert write_events_jsonl(bus.events(), str(path)) == 2
        assert event_log_digest(read_events_jsonl(str(path))) == (
            bus.digest()
        )

    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.inc("obs.events.probe.ping", 3)
        registry.set_gauge("poisons.active", 1)
        registry.observe("repair.convergence_seconds", 52.8)
        text = prometheus_text(registry)
        assert "# TYPE repro_obs_events_probe_ping counter" in text
        assert "repro_obs_events_probe_ping 3" in text
        assert "repro_poisons_active 1" in text
        assert 'repro_repair_convergence_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_repair_convergence_seconds_sum 52.8" in text

    def test_prometheus_values_are_not_rounded(self):
        # ``:g`` once exported these as 1.23457e+06 and 2.24621e+06.
        registry = MetricsRegistry()
        registry.inc("probes", 1234567)
        registry.set_gauge("traffic.affected_user_minutes", 2246214.0)
        registry.set_gauge("share", 0.1 + 0.2)
        registry.observe("wall", 1234567.25)
        lines = prometheus_text(registry).splitlines()
        assert "repro_probes 1234567" in lines
        assert "repro_traffic_affected_user_minutes 2246214.0" in lines
        assert "repro_share 0.30000000000000004" in lines
        assert "repro_wall_sum 1234567.25" in lines

    def test_prometheus_rejects_unknown_payload(self):
        with pytest.raises(TypeError):
            prometheus_text(42)
