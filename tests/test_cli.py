"""Tests for the lifeguard-repro command-line interface."""

import dataclasses
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.export import event_log_digest, read_events_jsonl
from repro.service import LifeguardService


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("table", "demo", "trace", "chaos", "defenses",
                        "serve", "impact", "fuzz"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_workers_flag(self):
        parser = build_parser()
        for command in ("table", "chaos", "defenses", "fuzz"):
            args = parser.parse_args([command, "--workers", "3"])
            assert args.workers == 3

    def test_no_cache_dir_option(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["impact", "--cache-dir", "x"])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["bench"], ["--baseline-mode", "event", "demo"], ["fig1"], ["fig5"],
         ["fig6"], ["efficacy"], ["accuracy"], ["table2"], ["serve", "--sim"],
         ["serve", "--delta", "off"], ["serve", "--journal-flush-every", "4"]],
        ids=["bench", "baseline-mode", "fig1", "fig5", "fig6", "efficacy",
             "accuracy", "table2", "serve-sim", "serve-delta",
             "serve-journal-flush-every"],
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

        monkeypatch.setattr(cli, "_cmd_table", command)
        before = dict(os.environ)
        assert main(["table"]) == 3
        assert seen == [("table", before)]
        assert dict(os.environ) == before

    def test_defaults_are_literals_whatever_the_environment(
        self, monkeypatch
    ):
        """Every subcommand's defaults used to be evaluated from the
        environment in ``build_parser()``: a bad ``REPRO_FUZZ_CASES``
        killed every subcommand, and ``REPRO_SERVICE_DELTA`` walked past
        ``choices``."""
        monkeypatch.setenv("REPRO_FUZZ_CASES", "abc")
        monkeypatch.setenv("REPRO_SERVICE_DELTA", "sideways")
        monkeypatch.setenv("REPRO_DEFENSE_OUTAGES", "x")
        monkeypatch.setenv("REPRO_SERVICE_MAX_INFLIGHT", "1")
        parser = build_parser()
        assert parser.parse_args(["table"]).command == "table"
        serve = parser.parse_args(["serve"])
        assert (serve.scale, serve.journal_max_bytes) == ("tiny", None)
        defenses = parser.parse_args(["defenses"])
        assert (defenses.scale, defenses.sweep, defenses.outages) == (
            "tiny", "0,0.25,0.5,0.75,1.0", 3
        )
        fuzz = parser.parse_args(["fuzz"])
        assert (fuzz.cases, fuzz.scale, fuzz.workers) == (500, "small", 1)
        assert (fuzz.corpus_dir, fuzz.inject_divergence) == (None, False)


RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: The tables whose studies take seconds, not minutes: tier-1 holds each
#: to its committed bytes (the paper-tables CI job holds all of them).
CHEAP_TABLES = (
    "fig1_outage_durations", "fig5_residual_duration", "fig5_decision_rule",
    "sec42_avoidable_unavailability", "ablation_atlas",
    "ablation_avoid_problem", "ablation_sentinel", "robustness",
    "sec52_selective", "sec54_atlas_refresh", "sec6_case_study",
    "sec71_loop_quirks", "sec71_cogent_filter", "sec51_simulated",
)


class TestTable:
    @pytest.mark.parametrize("name", CHEAP_TABLES)
    def test_prints_the_committed_file(self, name, capsys):
        assert main(["table", name]) == 0
        out = capsys.readouterr().out
        assert out.encode() == (RESULTS / f"{name}.txt").read_bytes()

    def test_out_writes_the_committed_file(self, tmp_path, capsys):
        name = "fig5_decision_rule"
        assert main(["table", name, "--out", str(tmp_path / "t")]) == 0
        written = tmp_path / "t" / f"{name}.txt"
        assert capsys.readouterr().out == f"{written}\n"
        assert written.read_bytes() == (RESULTS / f"{name}.txt").read_bytes()

    def test_every_committed_file_has_a_table(self):
        from repro.experiments.tables import TABLES

        assert sorted(TABLES) == sorted(
            path.stem for path in RESULTS.glob("*.txt")
        )

    def test_unknown_name_is_a_usage_error(self, capsys):
        assert main(["table", "fig6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown table(s) fig6" in captured.err


SERVE = ["serve", "--scale", "tiny", "--duration", "1200"]


@pytest.mark.parametrize("argv, expected", [
    (["defenses", "--sweep", "1.5"], "in [0, 1]"),
    (["defenses", "--sweep", ""], "in [0, 1]"),
    (["defenses", "--sweep", "0,x"], "in [0, 1]"),
    (["chaos", "--intensity", "2"], "in [0, 1]"),
    (["chaos", "--intensity", "0.1", "--intensity", "-0.5"], "in [0, 1]"),
    (SERVE + ["--interarrival", "0"], "seconds > 0"),
    (SERVE + ["--interarrival", "-60"], "seconds > 0"),
    (SERVE + ["--intensity", "2"], "in [0, 1]"),
    (SERVE + ["--intensity", "-1"], "in [0, 1]"),
    (SERVE + ["--outage-duration", "-10"], "seconds > 0"),
    (SERVE + ["--journal", "bad.jsonl", "--targets", "0"], "count >= 1"),
    (SERVE + ["--targets", "-2"], "count >= 1"),
    (SERVE + ["--vps", "-1"], "count >= 0"),
    (SERVE + ["--duration", "-5"], "seconds > 0"),
    (SERVE + ["--scale", "huge"], "one of tiny, small, medium, large"),
    (["chaos", "--scale", "huge"], "one of tiny, small, medium, large"),
    (["defenses", "--scale", "huge"], "one of tiny, small, medium, large"),
    (["impact", "--scale", "huge"], "one of tiny, small, medium, large"),
    (["fuzz", "--scale", "huge"], "one of tiny, small, medium"),
], ids=["rate-above-1", "no-rates", "not-a-number", "intensity-above-1",
        "negative-intensity", "serve-zero-interarrival",
        "serve-negative-interarrival", "serve-intensity-above-1",
        "serve-negative-intensity", "serve-negative-outage-duration",
        "serve-zero-targets", "serve-negative-targets",
        "serve-negative-vps", "serve-negative-duration", "serve-huge-scale",
        "chaos-huge-scale", "defenses-huge-scale", "impact-huge-scale",
        "fuzz-huge-scale"])
def test_bad_sweep_is_a_usage_error_before_any_study(
    argv, expected, monkeypatch, capsys, tmp_path
):
    """A rate of 1.5 died in ``assign_defense_configs`` with a traceback,
    an empty sweep printed a header-only table and exited 0, and an
    intensity of 2 died in the chaos plan.  ``serve`` divided by a zero
    interarrival, ran no arrivals on a negative one or on a negative
    outage duration, died in the fault plan on an intensity of 2, and
    ran without its injector on a negative one.  It monitored one target
    at ``--targets 0`` or ``-2``, sliced ``stubs[:-1]`` for 80 pairs at
    ``--vps -1`` and ran five rounds at ``--duration -5``; an unknown
    ``--scale`` died with a traceback while building the world, in every
    command that builds one."""
    import repro.experiments.defenses
    import repro.experiments.impact
    import repro.experiments.robustness
    import repro.fuzz
    import repro.workloads.scenarios

    def no_study(**kwargs):
        raise AssertionError("a study ran on a bad number")

    monkeypatch.setattr(
        repro.experiments.defenses, "run_defense_study", no_study
    )
    monkeypatch.setattr(
        repro.experiments.robustness, "run_robustness_study", no_study
    )
    monkeypatch.setattr(
        repro.workloads.scenarios, "build_deployment", no_study
    )
    monkeypatch.setattr(
        repro.workloads.scenarios, "build_chaos_deployment", no_study
    )
    monkeypatch.setattr(
        repro.experiments.impact, "run_impact_study", no_study
    )
    monkeypatch.setattr(repro.fuzz, "run_campaign", no_study)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = next(arg for arg in reversed(argv) if arg.startswith("--"))
    assert captured.err.startswith(f"bad {flag} ")
    assert captured.err.count("\n") == 1
    assert expected in captured.err
    assert not list(tmp_path.iterdir()), "a journal file was opened"


class TestCommands:
    def test_demo(self, capsys):
        assert main(["--seed", "5", "demo"]) == 0
        out = capsys.readouterr().out
        assert "unpoisoned" in out

    def test_serve_runs_its_flags_not_the_environment(
        self, monkeypatch, capsys
    ):
        def serve():
            assert main(["--seed", "3", "serve"]) == 0
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
        code = main(["--seed", "3", "serve", "--duration", "600"])
        err = capsys.readouterr().err
        assert code == (1 if stub else 0)
        assert err == (
            f"the service stopped repairing: {reason}\n" if stub else ""
        )

    def test_serve_events_out_is_the_whole_log(
        self, monkeypatch, tmp_path, capsys
    ):
        """The bus keeps no event, so the file is the log: every event
        of the run is in it, and its digest is the one printed.  (It was
        once written from a bounded ring after the run, and a run that
        overflowed the ring left only its last events in the file.)"""
        reports = []
        run = LifeguardService.run
        monkeypatch.setattr(
            LifeguardService, "run",
            lambda self: reports.append(run(self)) or reports[-1],
        )
        path = str(tmp_path / "events.jsonl")
        assert main([
            "--seed", "3", "serve", "--duration", "600",
            "--events-out", path,
        ]) == 0
        (report,) = reports
        logged = read_events_jsonl(path)
        assert len(logged) > 100
        assert event_log_digest(logged) == report.digest
        assert f"event digest {report.digest[:16]}" in capsys.readouterr().out
