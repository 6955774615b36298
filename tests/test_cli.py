"""Tests for the lifeguard-repro command-line interface."""

import dataclasses
import functools
import json
import os
import subprocess
import sys

import pytest

import repro.obs
from repro.cli import build_parser, main
from repro.obs import EventBus
from repro.obs.export import event_log_digest, read_events_jsonl
from repro.runner.bench import BENCH_SCHEMA_VERSION, BENCHMARKS, RETIRED
from repro.service import LifeguardService


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("fig1", "fig5", "fig6", "efficacy", "accuracy",
                        "table2", "demo", "chaos", "bench"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_workers_flag(self):
        parser = build_parser()
        for command in ("fig6", "efficacy", "accuracy", "chaos", "bench"):
            args = parser.parse_args([command, "--workers", "3"])
            assert args.workers == 3

    def test_defaults_are_literals_whatever_the_environment(
        self, monkeypatch
    ):
        """Every subcommand's defaults used to be evaluated from the
        environment in ``build_parser()``: a bad ``REPRO_FUZZ_CASES``
        killed ``fig1``, and ``REPRO_SERVICE_DELTA`` walked past
        ``choices``."""
        monkeypatch.setenv("REPRO_FUZZ_CASES", "abc")
        monkeypatch.setenv("REPRO_SERVICE_DELTA", "sideways")
        monkeypatch.setenv("REPRO_DEFENSE_OUTAGES", "x")
        monkeypatch.setenv("REPRO_SERVICE_MAX_INFLIGHT", "1")
        parser = build_parser()
        assert parser.parse_args(["fig1"]).command == "fig1"
        serve = parser.parse_args(["serve", "--sim"])
        assert (serve.delta, serve.journal_max_bytes) == ("auto", None)
        defenses = parser.parse_args(["defenses"])
        assert (defenses.scale, defenses.sweep, defenses.outages) == (
            "tiny", "0,0.25,0.5,0.75,1.0", 3
        )
        fuzz = parser.parse_args(["fuzz"])
        assert (fuzz.cases, fuzz.scale, fuzz.workers) == (500, "small", 1)
        assert (fuzz.corpus_dir, fuzz.inject_divergence) == (None, False)


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "CDF" in out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "residual" in out.lower()

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_fig6_tiny(self, capsys):
        assert main(["fig6", "--scale", "tiny", "--max-poisons", "2"]) == 0
        out = capsys.readouterr().out
        assert "prepend" in out

    def test_accuracy_tiny(self, capsys):
        assert main(["accuracy", "--scale", "tiny", "--cases", "4"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out.lower()

    def test_demo(self, capsys):
        assert main(["--seed", "5", "demo"]) == 0
        out = capsys.readouterr().out
        assert "unpoisoned" in out

    def test_serve_runs_its_flags_not_the_environment(
        self, monkeypatch, capsys
    ):
        def serve():
            assert main(["--seed", "3", "serve", "--sim"]) == 0
            return capsys.readouterr().out

        unset = serve()
        assert "event digest" in unset
        monkeypatch.setenv("REPRO_SERVICE_MAX_INFLIGHT", "1")
        monkeypatch.setenv("REPRO_SERVICE_DELTA", "off")
        monkeypatch.setenv("REPRO_DELTA_MODE", "auto")
        monkeypatch.setenv("REPRO_TRAFFIC_USERS", "5")
        assert serve() == unset

    @pytest.mark.parametrize("stub, reason", [
        ({}, None),
        ({"drained": False}, "final tier NORMAL, drained False"),
        ({"final_tier": "PAUSED"}, "final tier PAUSED, drained True"),
    ])
    def test_serve_exit_code_says_whether_it_kept_repairing(
        self, monkeypatch, capsys, stub, reason
    ):
        """It looked at ``abandoned`` only: a run that ended PAUSED with
        work still queued exited 0."""
        run = LifeguardService.run
        monkeypatch.setattr(
            LifeguardService, "run",
            lambda self: dataclasses.replace(run(self), **stub),
        )
        code = main(["--seed", "3", "serve", "--sim", "--duration", "600"])
        err = capsys.readouterr().err
        assert code == (1 if stub else 0)
        assert err == (
            f"the service stopped repairing: {reason}\n" if stub else ""
        )

    def test_serve_events_out_is_the_whole_log(
        self, monkeypatch, tmp_path, capsys
    ):
        """It was written from the ring after the run: a run that evicted
        left only the ring's last events in the file, and their digest
        was not the one printed.  A 100-event ring makes this run evict."""
        monkeypatch.setattr(
            repro.obs, "EventBus", functools.partial(EventBus, capacity=100)
        )
        reports = []
        run = LifeguardService.run
        monkeypatch.setattr(
            LifeguardService, "run",
            lambda self: reports.append(run(self)) or reports[-1],
        )
        path = str(tmp_path / "events.jsonl")
        assert main([
            "--seed", "3", "serve", "--sim", "--duration", "600",
            "--events-out", path,
        ]) == 0
        (report,) = reports
        logged = read_events_jsonl(path)
        assert len(logged) > 100
        assert event_log_digest(logged) == report.digest
        assert f"event digest {report.digest[:16]}" in capsys.readouterr().out


class TestBench:
    @pytest.fixture(scope="class")
    def bench_doc(self, tmp_path_factory):
        """One quick bench run shared by the document checks."""
        out = tmp_path_factory.mktemp("bench") / "BENCH_test.json"
        code = main([
            "bench", "--scale", "tiny", "--only", "alternate_paths",
            "--only", "efficacy", "--output", str(out),
        ])
        assert code == 0
        with open(out, "r", encoding="utf-8") as handle:
            return out, json.load(handle)

    def test_document_shape(self, bench_doc):
        _path, doc = bench_doc
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert doc["scale"] == "tiny"
        assert doc["workers"] == 1
        assert set(doc["benchmarks"]) == {"alternate_paths", "efficacy"}
        for bench in doc["benchmarks"].values():
            assert bench["trials"] > 0
            assert bench["wall_seconds"] > 0
            assert bench["trials_per_sec"] > 0
            assert "metrics" in bench and "stats" in bench
        totals = doc["totals"]
        assert totals["trials"] == sum(
            b["trials"] for b in doc["benchmarks"].values()
        )

    def test_compare_accepts_bench_output(self, bench_doc):
        path, _doc = bench_doc
        script = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "compare.py"
        )
        result = subprocess.run(
            [sys.executable, script, str(path), str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 regressed" in result.stdout

    def test_compare_gates_on_regression(self, bench_doc, tmp_path):
        _path, doc = bench_doc
        # Inflate wall times past compare's noise floor so the gate
        # applies, then halve the candidate's throughput.
        base = json.loads(json.dumps(doc))
        for bench in base["benchmarks"].values():
            bench["wall_seconds"] = 10.0
        slow = json.loads(json.dumps(base))
        for bench in slow["benchmarks"].values():
            bench["trials_per_sec"] *= 0.5
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(base))
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        script = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "compare.py"
        )
        result = subprocess.run(
            [sys.executable, script, str(base_path), str(slow_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout

    def test_compare_skips_sub_noise_floor_runs(self, bench_doc, tmp_path):
        path, doc = bench_doc
        slow = json.loads(json.dumps(doc))
        for bench in slow["benchmarks"].values():
            bench["wall_seconds"] = 0.05
            bench["trials_per_sec"] *= 0.5
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        script = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "compare.py"
        )
        result = subprocess.run(
            [sys.executable, script, str(path), str(slow_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "not gated" in result.stdout

    def test_compare_rejects_wrong_schema(self, bench_doc, tmp_path):
        path, doc = bench_doc
        bad = json.loads(json.dumps(doc))
        bad["schema_version"] = 999
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        script = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "compare.py"
        )
        result = subprocess.run(
            [sys.executable, script, str(path), str(bad_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode != 0

    def test_unknown_benchmark_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nope") as raised:
            main([
                "bench", "--scale", "tiny", "--only", "nope",
                "--output", str(tmp_path / "x.json"),
            ])
        assert "measured by" not in str(raised.value)
        # A retired entry's error says which harness measures it now.
        assert not set(RETIRED) & set(BENCHMARKS)
        for name, harness in RETIRED.items():
            with pytest.raises(ValueError) as raised:
                main([
                    "bench", "--scale", "tiny", "--only", name,
                    "--output", str(tmp_path / "x.json"),
                ])
            assert f"{name!r} is measured by {harness}" in str(raised.value)
