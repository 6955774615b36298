"""Command-line entry point: run the reproduction's studies from a shell.

Installed as ``lifeguard-repro`` (see pyproject).  ``table`` prints the
paper's tables exactly as ``benchmarks/results/`` holds them (see
:mod:`repro.experiments.tables`); the other subcommands run the demo,
the service and the system's own studies at a configurable scale.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import List, Optional

from repro.analysis.reporting import Table


def _add_metrics_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", default=None,
        help="write a deterministic metrics snapshot (JSON) to this path",
    )


def _unit_interval(values) -> bool:
    """Whether *values* is a non-empty sequence of numbers in [0, 1]."""
    return bool(values) and all(0.0 <= value <= 1.0 for value in values)


def _usage_error(message: str) -> int:
    """Refuse a bad option value: one stderr line, exit status 2."""
    print(message, file=sys.stderr)
    return 2


def _bad_scale(scale: str, known=None) -> Optional[str]:
    """The usage error for a ``--scale`` that names none of *known*
    (default: the deployment topology scales)."""
    if known is None:
        from repro.workloads.scenarios import SCALES as known
    if scale in known:
        return None
    return f"bad --scale {scale}: expected one of {', '.join(known)}"


def _measured(args: argparse.Namespace, study, **kwargs):
    """Run *study* with a fresh RunStats threaded through it, honoring
    ``--metrics-out``; returns what the study returned."""
    from repro.runner.stats import RunStats

    stats = RunStats()
    result = study(stats=stats, **kwargs)
    if getattr(args, "metrics_out", None):
        from repro.obs.export import write_metrics_snapshot

        write_metrics_snapshot(stats, args.metrics_out)
    return result


def _cmd_table(args: argparse.Namespace) -> int:
    """Print (or, with ``--out``, write) the named paper tables."""
    from repro.experiments.tables import TABLES, table_text, write_table

    names = args.names or list(TABLES)
    unknown = [name for name in names if name not in TABLES]
    if unknown:
        print(f"unknown table(s) {', '.join(unknown)}; known: "
              f"{', '.join(TABLES)}", file=sys.stderr)
        return 2
    for index, name in enumerate(names):
        if args.out:
            write_table(name, args.out, workers=args.workers)
            print(os.path.join(args.out, f"{name}.txt"))
        else:
            # One blank line between tables; each is its file's bytes.
            sys.stdout.write(
                ("\n" if index else "") + table_text(name, args.workers)
            )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """The quickstart repair loop, inline (same story as the example)."""
    from repro.workloads.scenarios import run_demo_scenario

    scenario, bad_asn = run_demo_scenario(seed=args.seed)
    lifeguard = scenario.lifeguard
    table = Table("LIFEGUARD repair demo", ["event", "value"])
    for record in lifeguard.records:
        if record.poisoned_asn != bad_asn:
            continue
        table.add_row("failed AS", f"AS{bad_asn}")
        table.add_row("direction", record.isolation.direction.value)
        table.add_row("poisoned at (s)", record.poison_time)
        table.add_row("convergence (s)", record.convergence_seconds)
        table.add_row("repair detected (s)", record.repair_detected_time)
        table.add_row("final state", record.state.value)
    table.emit()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run the demo scenario under observation and print its repair
    timeline (or check cross-worker event-log determinism)."""
    from repro.obs import EventBus, MetricsRegistry
    from repro.obs.export import (
        check_trace_determinism,
        read_events_jsonl,
        write_metrics_snapshot,
    )
    from repro.obs.trace import assemble_timelines, render_timelines
    from repro.workloads.scenarios import run_demo_scenario

    if args.check_determinism:
        # A shortened horizon: the full demo story in miniature (outage,
        # poison, repair) x N demo runs has to stay CI-cheap.
        results = check_trace_determinism(
            seeds=(args.seed,),
            workers=args.check_determinism,
            fail_end=2400.0,
            end=3000.0,
        )
        ok = all(blob["match"] for blob in results.values())
        for seed, blob in sorted(results.items()):
            status = "MATCH" if blob["match"] else "MISMATCH"
            print(
                f"seed {seed}: workers=1 {blob['serial'][:16]}… vs "
                f"workers={args.check_determinism} "
                f"{blob['parallel'][:16]}… -> {status}"
            )
        if not ok:
            print("event-log digest differs across worker counts",
                  file=sys.stderr)
            return 1
        return 0

    # The bus keeps no event: the timelines are read back from its sink.
    registry = MetricsRegistry()
    sink = args.events_out or io.StringIO()
    bus = EventBus(sink=sink, metrics=registry)
    run_demo_scenario(seed=args.seed, obs=bus)
    bus.close()
    if not args.events_out:
        sink.seek(0)
    timelines = assemble_timelines(read_events_jsonl(sink))
    print(render_timelines(timelines))
    print()
    print(f"events: {bus.total} ({len(bus.counts)} kinds), "
          f"digest {bus.digest()[:16]}…")

    if args.events_out:
        print(f"wrote {bus.total} events to {args.events_out}")
    if args.metrics_out:
        write_metrics_snapshot(registry, args.metrics_out)
        print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.robustness import run_robustness_study

    intensities = (
        tuple(args.intensity) if args.intensity else (0.0, 0.1, 0.3)
    )
    if not _unit_interval(intensities):
        got = ", ".join(f"{value:g}" for value in intensities)
        return _usage_error(f"bad --intensity {got}: expected fault "
                            f"intensities in [0, 1]")
    bad = _bad_scale(args.scale)
    if bad is not None:
        return _usage_error(bad)
    study = _measured(
        args, run_robustness_study,
        scale=args.scale,
        seed=args.seed,
        intensities=intensities,
        num_outages=args.outages,
        workers=args.workers,
        crash_controller=args.crash_controller,
    )
    table = Table(
        "Chaos: repair under infrastructure faults",
        ["intensity", "injected", "detected", "repaired", "unpoisoned",
         "false poisons", "deferrals", "rollbacks", "breaker opens",
         "crashes", "recovered", "fault events", "peak users out",
         "user-min lost"],
    )
    for point in study.points:
        table.add_row(
            point.intensity,
            point.injected,
            point.detected,
            point.repaired,
            point.completed,
            point.false_poisons,
            point.deferrals,
            point.rollbacks,
            point.breaker_opens,
            point.controller_crashes,
            point.recovered_records,
            point.stats.total_events if point.stats else 0,
            point.peak_users_affected,
            f"{point.affected_user_minutes:.0f}",
        )
    table.add_note(
        "faults hit LIFEGUARD's own probes, vantage points, BGP sessions "
        "and atlas — never the monitored paths"
    )
    if args.crash_controller:
        table.add_note(
            "controller killed mid-run and rebuilt from its write-ahead "
            "journal (dropped at intensity 0: the null plan stays empty)"
        )
    table.emit()
    return 0


#: The defense sweep's columns, named once: DefensePoint attribute ->
#: table header (None: in the ``--summary-out`` document only).
_DEFENSE_COLUMNS = (
    ("rate", "rate"),
    ("ladder", "ladder"),
    ("injected", "injected"),
    ("detected", "detected"),
    ("repaired", "repaired"),
    ("ladder_repairs", "via ladder"),
    ("escalations", "escalations"),
    ("rollbacks", "rollbacks"),
    ("breaker_opens", "breaker opens"),
    ("abandoned", "abandoned"),
    ("controller_crashes", "crashes"),
    ("recovered_records", "recovered"),
    ("mean_time_to_repair", "mean TTR (s)"),
    ("users_total", None),
    ("peak_users_affected", "peak users out"),
    ("affected_user_minutes", "user-min lost"),
)
#: How the table prints the columns it does not print as they are.
_DEFENSE_CELLS = {
    "ladder": lambda on: "on" if on else "off",
    "mean_time_to_repair": lambda ttr: "-" if ttr is None else f"{ttr:.0f}",
    "affected_user_minutes": lambda minutes: f"{minutes:.0f}",
}


def defense_summary(study) -> dict:
    """Deterministic JSON-able summary of a defense sweep (byte-stable
    across same-seed runs: no timestamps, no floats beyond the inputs)."""
    points = []
    for point in study.points:
        blob = {name: getattr(point, name) for name, _ in _DEFENSE_COLUMNS}
        blob["affected_user_minutes"] = round(
            point.affected_user_minutes, 6
        )
        points.append(blob)
    return {"points": points, "abandoned_total": study.abandoned_total}


def _cmd_defenses(args: argparse.Namespace) -> int:
    from repro.experiments.defenses import run_defense_study

    try:
        rates = tuple(
            float(part) for part in args.sweep.split(",") if part.strip()
        )
    except ValueError:
        rates = ()
    if not _unit_interval(rates):
        return _usage_error(f"bad --sweep {args.sweep!r}: expected "
                            f"comma-separated rates in [0, 1]")
    bad = _bad_scale(args.scale)
    if bad is not None:
        return _usage_error(bad)
    study = _measured(
        args, run_defense_study,
        scale=args.scale,
        seed=args.seed,
        rates=rates,
        num_outages=args.outages,
        workers=args.workers,
        crash_controller=args.crash_controller,
    )
    if args.summary_out:
        with open(args.summary_out, "w") as handle:
            json.dump(defense_summary(study), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    shown = [(name, head) for name, head in _DEFENSE_COLUMNS if head]
    table = Table(
        "Defenses: repair vs anti-poisoning deployment rate",
        [head for _, head in shown],
    )
    for point in study.points:
        table.add_row(*(
            _DEFENSE_CELLS.get(name, lambda value: value)(
                getattr(point, name)
            )
            for name, _ in shown
        ))
    table.add_note(
        "defenses: poisoned-path filters, reserved-ASN rejection, "
        "path-length caps, Peerlock, stub default routes "
        "(tier-biased, seed-derived deployment)"
    )
    table.add_note(
        "ladder: poison -> multi-poison -> prepend-only -> selective "
        "advertisement, one rung per rollback"
    )
    for rate in rates:
        recovery = study.ladder_recovery(rate)
        if recovery is None or rate == 0.0:
            continue
        lost, recovered = recovery
        if lost:
            table.add_note(
                f"at rate {rate:g}: defenses cost {lost} repair(s) "
                f"without the ladder; the ladder won back {recovered}"
            )
    table.emit()
    if study.abandoned_total:
        print(
            f"{study.abandoned_total} repair(s) abandoned mid-flight "
            f"(stuck state machine)",
            file=sys.stderr,
        )
        return 1
    return 0


def _bad_serve_option(args: argparse.Namespace) -> Optional[str]:
    """The usage error for the first out-of-range ``serve`` option."""
    bad = _bad_scale(args.scale)
    if bad is not None:
        return bad
    if not args.duration > 0:
        return f"bad --duration {args.duration:g}: expected seconds > 0"
    if args.targets < 1:
        return f"bad --targets {args.targets}: expected a count >= 1"
    if args.vps < 0:
        return f"bad --vps {args.vps}: expected a count >= 0"
    if not args.interarrival > 0:
        return (f"bad --interarrival {args.interarrival:g}: expected "
                f"seconds > 0")
    if args.outage_duration is not None and not args.outage_duration > 0:
        return (f"bad --outage-duration {args.outage_duration:g}: "
                f"expected seconds > 0")
    if not _unit_interval([args.intensity]):
        return (f"bad --intensity {args.intensity:g}: expected a fault "
                f"intensity in [0, 1]")
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the continuous-operation service daemon over a simulated
    streaming outage workload."""
    from repro.control.journal import RepairJournal
    from repro.control.lifeguard import LifeguardConfig
    from repro.obs import EventBus, MetricsRegistry
    from repro.obs.export import prometheus_text, write_metrics_snapshot
    from repro.service import LifeguardService, ServiceConfig, ServiceTier
    from repro.workloads.outages import OutageArrivalConfig
    from repro.workloads.scenarios import (
        build_chaos_deployment,
        build_deployment,
    )

    bad = _bad_serve_option(args)
    if bad is not None:
        return _usage_error(bad)

    registry = MetricsRegistry()
    # The bus keeps no event: --events-out is the log.
    bus = EventBus(sink=args.events_out, metrics=registry)
    journal = None
    if args.journal:
        journal = RepairJournal(
            args.journal, max_bytes=args.journal_max_bytes
        )
    common = dict(
        scale=args.scale,
        seed=args.seed,
        num_helper_vps=args.vps,
        num_targets=args.targets,
        obs=bus,
        journal=journal,
        lifeguard_config=LifeguardConfig(delta_mode="auto"),
    )
    if args.intensity > 0:
        scenario, _ = build_chaos_deployment(
            intensity=args.intensity, **common
        )
    else:
        scenario = build_deployment(**common)

    config = ServiceConfig(
        duration=args.duration,
        arrivals=OutageArrivalConfig(
            rate=1.0 / args.interarrival,
            duration=args.outage_duration,
        ),
        seed=args.seed,
        crash_at=args.crash_at,
    )
    service = LifeguardService(scenario, config, obs=bus)
    report = service.run()

    table = Table(
        f"Service run ({args.scale}, seed {args.seed})",
        ["metric", "value"],
    )
    # The report's own fields, in its own order; the digest is the note
    # below, and a queue-peak map or a settled count is no table row.
    for name, value in report.as_dict().items():
        if name not in ("settled", "queue_peaks", "digest"):
            table.add_row(name, value)
    table.add_note(f"event digest {report.digest[:16]}…")
    table.emit()

    if args.metrics_out:
        write_metrics_snapshot(registry, args.metrics_out)
    if args.prom_out:
        with open(args.prom_out, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(registry))
    bus.close()
    service.journal.close()
    if not report.drained or report.final_tier != ServiceTier.NORMAL.name:
        print(
            f"the service stopped repairing: final tier "
            f"{report.final_tier}, drained {report.drained}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_impact(args: argparse.Namespace) -> int:
    """User-impact study: affected-user-minutes through one repair.

    With ``--check`` (the CI smoke mode) the exit code is the
    assertion: nonzero affected-user-minutes must accrue before the
    repair lands, and the affected-user count must decrease
    monotonically to zero once it does.
    """
    from repro.experiments.impact import run_impact_study
    from repro.traffic.matrix import TrafficConfig

    bad = _bad_scale(args.scale)
    if bad is not None:
        return _usage_error(bad)
    traffic = TrafficConfig()
    if args.users is not None:
        traffic.total_users = args.users
    study, _matrix = _measured(
        args, run_impact_study,
        scale=args.scale,
        seed=args.seed,
        traffic=traffic,
    )
    table = Table(
        f"User impact of one repair ({args.scale}, seed {args.seed})",
        ["metric", "value"],
    )
    table.add_row("users modeled (gravity)", study.users_total)
    table.add_row("flows", study.flows)
    table.add_row("baseline unroutable flows", study.baseline_unroutable)
    table.add_row("failed AS", f"AS{study.bad_asn}")
    table.add_row("outage window (s)",
                  f"{study.fail_start:g}-{study.fail_end:g}")
    table.add_row("repair landed at (s)", study.repair_time)
    table.add_row("peak users affected", study.peak_users_affected)
    table.add_row("user-minutes before repair",
                  f"{study.user_minutes_before_repair:.0f}")
    table.add_row("user-minutes total",
                  f"{study.affected_user_minutes:.0f}")
    table.add_row("users affected at end", study.final_affected_users)
    table.add_note(
        "affected-user-minutes: integral of users behind the outage "
        "over sim time, AS-level forwarding walked per flow"
    )
    table.emit()
    if args.check:
        failures = []
        if not study.nonzero_before_repair():
            failures.append(
                "no affected-user-minutes accrued before the repair"
            )
        if not study.monotone_after_repair():
            failures.append(
                "affected users did not decrease monotonically after "
                "the repair"
            )
        if study.final_affected_users:
            failures.append(
                f"{study.final_affected_users} user(s) still affected "
                f"at run end"
            )
        for failure in failures:
            print(f"impact check failed: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import FUZZ_SCALES, run_campaign

    bad = _bad_scale(args.scale, FUZZ_SCALES)
    if bad is not None:
        return _usage_error(bad)
    report = _measured(
        args, run_campaign,
        seed=args.seed,
        cases=args.cases,
        scale=args.scale,
        workers=args.workers,
        shrink=args.shrink,
        shrink_budget=args.shrink_budget,
        corpus_dir=args.corpus_dir,
        inject_divergence=args.inject_divergence,
    )
    table = Table(
        f"Differential fuzz: solver vs event engine "
        f"({report.scale}, seed {report.seed})",
        ["metric", "value"],
    )
    table.add_row("cases", report.cases)
    table.add_row("equal", report.equal)
    table.add_row("divergences", report.divergences)
    table.add_row("crashes", report.crashes)
    table.add_row("gate rejected", report.gate_rejected)
    for slug, count in sorted(report.gate_reasons.items()):
        table.add_row(f"  gate: {slug}", count)
    if report.failures:
        table.add_note(
            f"{len(report.failures)} failing case(s) "
            + ("shrunk and " if args.shrink else "")
            + (
                f"written to {args.corpus_dir}"
                if args.corpus_dir
                else "kept in memory (no --corpus-dir)"
            )
        )
    table.add_note(
        "gate rows are the conservative-rejection budget: configs the "
        "solver refuses and the event engine handles alone"
    )
    table.emit()
    for failure in report.failures:
        print(
            f"FAIL case {failure.index}: {failure.verdict}"
            + (f" ({failure.reason})" if failure.reason else ""),
            file=sys.stderr,
        )
        print(
            f"  shrunk to {failure.shrunk.summary()} "
            f"in {failure.shrink_runs} runs"
            + (
                f" -> {failure.corpus_path}"
                if failure.corpus_path
                else ""
            ),
            file=sys.stderr,
        )
        for row in failure.diff_sample:
            print(f"  diff {row}", file=sys.stderr)
    if not report.ok:
        print(
            f"fuzz: {report.divergences} divergence(s), "
            f"{report.crashes} crash(es) across {report.cases} cases",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifeguard-repro",
        description="LIFEGUARD (SIGCOMM'12) reproduction experiments",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "table",
        help="print a paper table exactly as committed under "
             "benchmarks/results/ (every table when no NAME is given); "
             "each runs its studies at the paper's own scale and seed, "
             "so the global --seed does not reach it",
    )
    p.add_argument(
        "names", nargs="*", metavar="NAME",
        help="table name: the stem of benchmarks/results/NAME.txt",
    )
    p.add_argument(
        "--out", default=None, metavar="DIR",
        help="write DIR/NAME.txt for each table instead of printing it",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per study (the tables do not depend on it)",
    )
    p.set_defaults(func=_cmd_table)
    sub.add_parser("demo", help="end-to-end repair demo").set_defaults(
        func=_cmd_demo
    )
    p = sub.add_parser(
        "trace",
        help="run the demo under observation and print the repair "
             "timeline (spans with causal BGP-update references)",
    )
    p.add_argument(
        "--events-out", default=None,
        help="write the event log (canonical JSONL) to this path",
    )
    p.add_argument(
        "--check-determinism", type=int, default=0, metavar="WORKERS",
        help="instead of tracing, assert the event-log digest is "
             "identical at workers=1 and workers=WORKERS (exit 1 on "
             "mismatch)",
    )
    _add_metrics_out(p)
    p.set_defaults(func=_cmd_trace)
    p = sub.add_parser(
        "chaos", help="robustness under injected infrastructure faults"
    )
    p.add_argument("--scale", default="tiny")
    p.add_argument("--outages", type=int, default=3)
    p.add_argument(
        "--intensity",
        type=float,
        action="append",
        help="fault intensity in [0, 1] (repeatable; default 0.0 0.1 0.3)",
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--crash-controller",
        action="store_true",
        help="kill the controller mid-run and recover it from its journal",
    )
    _add_metrics_out(p)
    p.set_defaults(func=_cmd_chaos)
    p = sub.add_parser(
        "defenses",
        help="repair success vs anti-poisoning defense deployment rate, "
             "fallback ladder off vs on at every rate",
    )
    p.add_argument("--scale", default="tiny")
    p.add_argument(
        "--sweep",
        default="0,0.25,0.5,0.75,1.0",
        help="comma-separated defense deployment rates in [0, 1] "
             "(default 0,0.25,0.5,0.75,1.0)",
    )
    p.add_argument(
        "--outages", type=int, default=3,
        help="injected ground-truth outages per sweep cell (default 3)",
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--crash-controller",
        action="store_true",
        help="kill the controller mid-sweep in every cell and recover "
             "it (ladder state included) from its write-ahead journal",
    )
    p.add_argument(
        "--summary-out", default=None,
        help="write the deterministic sweep summary (JSON) to this path",
    )
    _add_metrics_out(p)
    p.set_defaults(func=_cmd_defenses)
    p = sub.add_parser(
        "serve",
        help="run the continuous-operation repair daemon over a "
             "streaming simulated outage workload",
    )
    p.add_argument("--scale", default="tiny")
    p.add_argument(
        "--duration", type=float, default=14400.0,
        help="simulated seconds of arrival workload (drain may extend "
             "the run; default 14400 = 4h)",
    )
    p.add_argument(
        "--interarrival", type=float, default=600.0,
        help="mean seconds between outage arrivals (Poisson process)",
    )
    p.add_argument(
        "--outage-duration", type=float, default=None,
        help="fixed outage duration in seconds (default: sample the "
             "paper's Fig. 1 duration mixture)",
    )
    p.add_argument(
        "--targets", type=int, default=4,
        help="monitored targets (monitored pairs = targets x VPs)",
    )
    p.add_argument(
        "--vps", type=int, default=5,
        help="helper vantage points (plus one at the origin)",
    )
    p.add_argument(
        "--intensity", type=float, default=0.0,
        help="chaos fault intensity in [0, 1] (0 = no injector)",
    )
    p.add_argument(
        "--crash-at", type=float, default=None,
        help="crash the controller at this sim time and recover it "
             "from the journal",
    )
    p.add_argument(
        "--journal", default=None,
        help="write-ahead journal path (default: in-memory)",
    )
    p.add_argument(
        "--journal-max-bytes", type=int, default=None,
        help="rotate + compact the journal past this size (default: never)",
    )
    p.add_argument(
        "--events-out", default=None,
        help="write the event log (canonical JSONL) to this path",
    )
    p.add_argument(
        "--prom-out", default=None,
        help="write Prometheus text-format metrics to this path",
    )
    _add_metrics_out(p)
    p.set_defaults(func=_cmd_serve)
    p = sub.add_parser(
        "impact",
        help="affected-user-minutes through one outage-and-repair "
             "cycle (gravity-model traffic matrix over the stub ASes)",
    )
    p.add_argument("--scale", default="tiny")
    p.add_argument(
        "--users", type=int, default=None,
        help="total modeled users (default 1000000)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="exit 1 unless impact accrues before the repair and "
             "decreases monotonically to zero after it (CI smoke)",
    )
    _add_metrics_out(p)
    p.set_defaults(func=_cmd_impact)
    p = sub.add_parser(
        "fuzz",
        help="differentially fuzz the analytic solver against the "
             "event engine; nonzero exit on any divergence or crash",
    )
    p.add_argument(
        "--cases", type=int, default=500,
        help="number of generated cases (default 500)",
    )
    p.add_argument(
        "--scale", default="small",
        help="case size distribution: tiny, small or medium "
             "(default small)",
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="minimize failing cases before reporting them",
    )
    p.add_argument(
        "--shrink-budget", type=int, default=2000,
        help="max differential runs the shrinker may spend per failure",
    )
    p.add_argument(
        "--corpus-dir", default=None,
        help="write shrunk failing cases as replayable JSON here "
             "(default: don't persist)",
    )
    p.add_argument(
        "--inject-divergence", action="store_true",
        help="deliberately corrupt the solver side of every case "
             "(end-to-end self-test of the detect/shrink/persist path)",
    )
    _add_metrics_out(p)
    p.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
