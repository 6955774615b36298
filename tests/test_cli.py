"""Tests for the lifeguard-repro command-line interface."""

import dataclasses
import functools
import os

import pytest

import repro.obs
from repro.cli import build_parser, main
from repro.obs import EventBus
from repro.obs.export import event_log_digest, read_events_jsonl
from repro.service import LifeguardService


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("fig1", "fig5", "fig6", "efficacy", "accuracy",
                        "table2", "demo", "chaos"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_workers_flag(self):
        parser = build_parser()
        for command in ("fig6", "efficacy", "accuracy", "chaos"):
            args = parser.parse_args([command, "--workers", "3"])
            assert args.workers == 3

    def test_no_cache_dir_option(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["impact", "--cache-dir", "x"])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["bench"], ["--baseline-mode", "event", "fig1"]],
        ids=["bench", "baseline-mode"],
    )
    def test_retired_commands_and_options_are_usage_errors(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_main_dispatches_and_leaves_the_environment_alone(
        self, monkeypatch
    ):
        """``main`` hands the parsed arguments to the command and returns
        its exit code; no option reaches the command through
        ``os.environ``, which is the same before and after."""
        from repro import cli

        seen = []

        def command(args):
            seen.append((args.command, dict(os.environ)))
            return 3

        monkeypatch.setattr(cli, "_cmd_fig1", command)
        before = dict(os.environ)
        assert main(["fig1"]) == 3
        assert seen == [("fig1", before)]
        assert dict(os.environ) == before

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
