"""Tests for the observability CLI surface and exporters.

Covers ``repro trace`` (timeline rendering, artifact writing, the
``--check-determinism`` gate), ``--metrics-out`` on experiment commands,
and the cross-worker event-log digest equality the subsystem guarantees.
"""

import hashlib
import json

import pytest

from repro.cli import build_parser, main
from repro.obs.events import EventBus
from repro.obs.export import (
    demo_event_digests,
    event_log_digest,
    prometheus_text,
    read_events_jsonl,
)
from repro.obs.metrics import MetricsRegistry

#: Shortened demo horizon shared by the determinism checks (CI-cheap).
SHORT_DEMO = dict(fail_start=1000.0, fail_end=2400.0, end=3000.0)

#: seed -> (SHA-256 of ``repro --seed S trace --events-out events.jsonl``'s
#: stdout, SHA-256 of the events file, events), recorded when the bus
#: still kept a ring that ``trace`` read its timelines from.
TRACE_PINS = {
    3: (
        "dd812884b1db4cf83adfef74d0489ce9f2df621b7de297bc321898e15c9fab02",
        "71391ffafcb3c3d3127197a0ec6a650415e6142ff187e113154e3b2b316e7332",
        9021,
    ),
    5: (
        "284b72c48af5934a8bfb3239a3f642848c963d6343ab588f70c0f434c2fb3b79",
        "97269386a5a7ce965414429b57c52e85e4e6ad29052e0c245217c2a1dd570dd2",
        8945,
    ),
    7: (
        "ae7fd30108dfc93a5d805ce96b46355b094048c0d7b83130efe2d56883910bcc",
        "cdd6682ab9fe5f899a3fa7bc36b8d39f847d61776567955495a512de6d3639f6",
        8841,
    ),
}


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

    @pytest.mark.parametrize("seed", sorted(TRACE_PINS))
    def test_output_and_event_log_pinned(
        self, seed, tmp_path, monkeypatch, capsys
    ):
        """The rendered timelines, the digest line and the event log,
        byte for byte; the event log's SHA-256 is the bus digest."""
        stdout_sha, log_sha, events = TRACE_PINS[seed]
        monkeypatch.chdir(tmp_path)
        assert main([
            "--seed", str(seed), "trace", "--events-out", "events.jsonl",
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote {events} events to events.jsonl" in out
        assert f"digest {log_sha[:16]}…" in out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_sha
        log = (tmp_path / "events.jsonl").read_bytes()
        assert hashlib.sha256(log).hexdigest() == log_sha

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
        path = tmp_path / "log.jsonl"
        bus = EventBus(sink=str(path))
        bus.emit("a", 1.0, "c", x=1)
        bus.emit("b", 2.0, "c")
        bus.close()
        events = read_events_jsonl(str(path))
        assert len(events) == 2
        assert event_log_digest(events) == bus.digest()
        with open(path, encoding="utf-8") as handle:
            assert read_events_jsonl(handle) == events

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
