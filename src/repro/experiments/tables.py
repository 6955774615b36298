"""The paper's tables, each rendered in one place.

``STUDIES`` maps a study name to its driver and the paper-scale
arguments it runs at; ``TABLES`` maps each table name — the stem of its
committed ``benchmarks/results/NAME.txt`` — to the studies it reads and
the function that renders them.  Studies are memoised per process, so
the five tables over the BGP-Mux study run it once.

:func:`write_table` is the one writer: ``repro table --out DIR`` and
every ``benchmarks/test_*.py`` go through it, and ``repro table NAME``
prints the same bytes (:func:`table_text`).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.analysis.availability import (
    DEFAULT_REPAIR_LATENCY,
    avoidable_unavailability,
    latency_sweep,
)
from repro.analysis.reporting import Table
from repro.analysis.residual import residual_duration_curve
from repro.bgp.collectors import summarize_convergence
from repro.control.decision import ResidualDurationModel
from repro.experiments import worlds
from repro.experiments.accuracy import run_isolation_accuracy_study
from repro.experiments.alternate_paths import run_alternate_path_study
from repro.experiments.convergence import run_poisoning_convergence_study
from repro.experiments.diversity import run_provider_diversity_study
from repro.experiments.efficacy import run_topology_efficacy_study
from repro.experiments.robustness import run_robustness_study
from repro.experiments.summary import table1_rows
from repro.isolation.direction import FailureDirection
from repro.measure.atlas import OPTION_PROBES_AMORTIZED, OPTION_PROBES_FRESH
from repro.workloads.hubble import (
    EDGE_ROUTER_DAILY_UPDATES,
    estimate_update_load,
    generate_hubble_dataset,
)
from repro.workloads.outages import generate_outage_trace

#: The robustness table's moderate intensity: 10% probe loss (plus
#: scaled latency/BGP/atlas/sentinel faults), one vantage-point crash
#: window, one BGP session reset.
MODERATE = 0.1

#: Paper's Table 2 values for side-by-side display, keyed (I, T, d).
PAPER_TABLE2 = {
    (0.01, 0.5, 5): 393, (0.01, 1.0, 5): 783,
    (0.01, 0.5, 15): 137, (0.01, 1.0, 15): 275,
    (0.01, 0.5, 60): 58, (0.01, 1.0, 60): 115,
    (0.1, 0.5, 5): 3931, (0.1, 1.0, 5): 7866,
    (0.1, 0.5, 15): 1370, (0.1, 1.0, 15): 2748,
    (0.1, 0.5, 60): 576, (0.1, 1.0, 60): 1154,
    (0.5, 0.5, 5): 19625, (0.5, 1.0, 5): 39200,
    (0.5, 0.5, 15): 6874, (0.5, 1.0, 15): 13714,
    (0.5, 0.5, 60): 2889, (0.5, 1.0, 60): 5771,
}


@dataclass(frozen=True)
class Study:
    """A driver and the arguments the paper's tables run it at;
    *parallel* drivers also take ``workers`` (their results do not
    depend on it)."""

    driver: Callable[..., object]
    args: Dict[str, object] = field(default_factory=dict)
    parallel: bool = False


def _mrai_sweep(workers: int = 1):
    """The poisoning study at three MRAI settings: mrai -> study."""
    return {
        mrai: run_poisoning_convergence_study(
            scale="small", seed=23, num_collector_peers=30, max_poisons=8,
            measure_loss=False, mrai=mrai, workers=workers,
        )[0]
        for mrai in (5.0, 30.0, 60.0)
    }


STUDIES: Dict[str, Study] = {
    # The calibrated EC2-like trace (Fig. 1, Fig. 5, §4.2).
    "outage_trace": Study(generate_outage_trace, {"seed": 2012}),
    "hubble": Study(generate_hubble_dataset, {"days": 7.0, "seed": 2012}),
    # The BGP-Mux poisoning study (Fig. 6, §5.1 wild half, §5.2 loss).
    "mux": Study(run_poisoning_convergence_study, {
        "scale": "medium", "seed": 7, "num_collector_peers": 60,
        "max_poisons": 25,
    }, parallel=True),
    "efficacy": Study(run_topology_efficacy_study, {
        "scale": "medium", "seed": 7, "num_origins": 25,
        "max_cases": 60000,
    }, parallel=True),
    "diversity": Study(run_provider_diversity_study, {
        "scale": "medium", "seed": 7, "num_feeds": 40,
        "max_reverse_feeds": 24,
    }, parallel=True),
    # §5.3 isolation accuracy, with ICMP rate-limit noise.
    "accuracy": Study(run_isolation_accuracy_study, {
        "scale": "medium", "seed": 7, "num_cases": 60,
        "reply_loss_rate": 0.05,
    }, parallel=True),
    "alternate_paths": Study(run_alternate_path_study, {
        "scale": "medium", "seed": 7, "num_sites": 100,
        "num_outages": 300,
    }, parallel=True),
    "mrai_sweep": Study(_mrai_sweep, parallel=True),
    "robustness": Study(run_robustness_study, {
        "scale": "tiny", "seed": 0, "intensities": (0.0, MODERATE, 0.3),
        "num_outages": 3,
    }, parallel=True),
    "atlas_ablation": Study(worlds.atlas_ablation),
    "avoid_problem": Study(worlds.avoid_problem_comparison),
    "sentinel_styles": Study(worlds.sentinel_styles),
    "selective": Study(worlds.selective_poisoning),
    "atlas_refresh": Study(worlds.atlas_refresh),
    "case_study": Study(worlds.case_study),
    "anomalies": Study(worlds.anomalies),
}

_RESULTS: Dict[str, object] = {}


def study(name: str, workers: int = 1):
    """What STUDIES[*name*]'s driver returns, run once per process."""
    if name not in _RESULTS:
        spec = STUDIES[name]
        extra = {"workers": workers} if spec.parallel else {}
        _RESULTS[name] = spec.driver(**spec.args, **extra)
    return _RESULTS[name]


@dataclass(frozen=True)
class TableSpec:
    studies: Tuple[str, ...]
    render: Callable[..., Table]


TABLES: Dict[str, TableSpec] = {}


def _table(*studies: str):
    """Register the decorated renderer under its own name; it is called
    with the named studies' results, in order."""
    def register(render):
        TABLES[render.__name__] = TableSpec(studies, render)
        return render
    return register


def render(name: str, workers: int = 1) -> Table:
    spec = TABLES[name]
    return spec.render(*(study(s, workers) for s in spec.studies))


def table_text(name: str, workers: int = 1) -> str:
    """The bytes of ``benchmarks/results/NAME.txt``."""
    return render(name, workers).render() + "\n"


def write_table(name: str, directory: str, workers: int = 1) -> Table:
    """Render table *name* into ``directory/NAME.txt``; returns it."""
    table = render(name, workers)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{name}.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(table.render() + "\n")
    return table


# ----------------------------------------------------------------------
# §2.1 / §4.2 / Table 2: the outage trace and the update-load model
# ----------------------------------------------------------------------
@_table("outage_trace")
def fig1_outage_durations(trace) -> Table:
    table = Table(
        "Fig. 1: outage durations vs unavailability (paper vs measured)",
        ["duration", "CDF of outages", "CDF of unavailability"],
    )
    points = [90, 120, 300, 600, 1800, 3600, 21600, 86400, 604800]
    for seconds, events, downtime in trace.duration_cdf(points):
        label = (
            f"{seconds / 60:.0f} min"
            if seconds < 3600
            else f"{seconds / 3600:.0f} h"
        )
        table.add_row(label, events, downtime)
    table.add_note(
        f"outages <= 10 min: measured "
        f"{trace.fraction_shorter_than(600.0):.1%} (paper: >90%)"
    )
    table.add_note(
        f"unavailability from > 10 min: measured "
        f"{trace.unavailability_share_longer_than(600.0):.1%} (paper: 84%)"
    )
    return table


@_table("outage_trace")
def fig5_residual_duration(trace) -> Table:
    table = Table(
        "Fig. 5: residual duration after X minutes (measured)",
        ["elapsed (min)", "survivors", "mean (min)", "median (min)",
         "25th pct (min)"],
    )
    for point in residual_duration_curve(
        trace.durations, tuple(range(0, 31, 5))
    ):
        table.add_row(
            point.elapsed_minutes,
            point.survivors,
            point.mean_minutes,
            point.median_minutes,
            point.p25_minutes,
        )
    model = ResidualDurationModel(trace.durations)
    surviving_5min = 1.0 - trace.fraction_shorter_than(299.0)
    table.add_note(
        f"outages persisting >= 5 min: {surviving_5min:.1%} (paper: 12%)"
    )
    table.add_note(
        f"P(>=5 more min | lasted 5): "
        f"{model.survival_probability(300.0, 300.0):.0%} (paper: 51%)"
    )
    table.add_note(
        f"P(>=5 more min | lasted 10): "
        f"{model.survival_probability(600.0, 300.0):.0%} (paper: 68%)"
    )
    return table


@_table("outage_trace")
def fig5_decision_rule(trace) -> Table:
    """§4.2's decision: wait ~5 minutes, then poisoning pays off."""
    model = ResidualDurationModel(trace.durations)
    table = Table(
        "Poison decision vs outage age (measured)",
        ["age (s)", "poison?", "median residual (s)"],
    )
    for age in (60, 180, 300, 420, 600):
        decision = model.decide(age)
        table.add_row(
            decision.elapsed, decision.poison, decision.expected_residual
        )
    return table


@_table("outage_trace")
def sec42_avoidable_unavailability(trace) -> Table:
    table = Table(
        "Sec 4.2: unavailability avoidable under a repair budget",
        ["repair latency", "avoided downtime", "outages repaired"],
    )
    for point in latency_sweep(trace.durations):
        table.add_row(
            f"{point.repair_latency / 60:.0f} min",
            point.avoided_fraction,
            f"{point.outages_repaired}/{point.outages_total}",
        )
    budget = avoidable_unavailability(
        trace.durations, DEFAULT_REPAIR_LATENCY
    )
    table.add_note(
        f"paper anchor: 7 min budget avoids ~80% "
        f"(measured {budget.avoided_fraction:.1%})"
    )
    return table


@_table("hubble")
def table2_update_load(dataset) -> Table:
    table = Table(
        "Table 2: additional daily path changes (paper vs measured)",
        ["I", "T", "d (min)", "measured", "paper", "% of edge router load"],
    )
    for cell in estimate_update_load(dataset):
        key = (
            cell.deploying_fraction,
            cell.monitored_fraction,
            int(cell.wait_minutes),
        )
        table.add_row(
            *key,
            cell.daily_path_changes,
            PAPER_TABLE2[key],
            100.0 * cell.daily_path_changes / EDGE_ROUTER_DAILY_UPDATES,
        )
    table.add_note(
        "reference: edge router ~110K updates/day, tier-1 255K-315K"
    )
    return table


# ----------------------------------------------------------------------
# §2.2 / §2.3: alternate paths and provider diversity
# ----------------------------------------------------------------------
@_table("alternate_paths")
def sec22_alternate_paths(alternate) -> Table:
    study, _graph = alternate
    table = Table(
        "Sec 2.2: spliced alternate paths during outages",
        ["population", "triple test", "valley-free test", "paper"],
    )
    table.add_row("all outages", study.overall_fraction,
                  study.overall_fraction_valley, "49%")
    table.add_row(
        "outages >= 1 hour",
        study.fraction_for_long_outages(3600.0),
        study.fraction_for_long_outages(3600.0, valley=True),
        "83%",
    )
    table.add_note(f"corpus: {study.corpus_size} all-pairs traceroutes, "
                   f"{len(study.cases)} synthetic outages")
    table.add_note(
        "triple test under-observes compliant splices in the smaller "
        "mesh; ground truth (valley) is the upper bound it approximates"
    )
    return table


@_table("alternate_paths")
def sec22_persistence(alternate) -> Table:
    """Simulated paths are stable between control-plane events, so a
    first-round alternate persists for the whole outage."""
    study, _graph = alternate
    with_alternates = [c for c in study.cases if c.alternate_exists]
    table = Table(
        "Sec 2.2: persistence of first-round alternates",
        ["metric", "measured", "paper"],
    )
    table.add_row(
        "alternate persisted for outage duration",
        sum(1 for _ in with_alternates) / max(1, len(with_alternates)),
        "98%",
    )
    return table


@_table("diversity")
def sec23_provider_diversity(diversity) -> Table:
    study, _graph = diversity
    table = Table(
        "Sec 2.3/5.2: last-link avoidance with 5 providers",
        ["direction", "mechanism", "measured", "paper"],
    )
    table.add_row("forward", "choose a different provider",
                  study.forward_fraction, "90%")
    table.add_row("reverse", "selective poisoning",
                  study.reverse_fraction, "73%")
    table.add_note(
        f"{len(study.forward_avoidable)} feed ASes (forward), "
        f"{len(study.reverse_avoidable)} (reverse), "
        f"{study.num_providers} providers"
    )
    return table


# ----------------------------------------------------------------------
# Fig. 6 / §5.1 / §5.2 / Table 1: the poisoning studies
# ----------------------------------------------------------------------
@_table("mux")
def fig6_convergence(mux) -> Table:
    study, _graph = mux
    table = Table(
        "Fig. 6: convergence after poisoning (paper vs measured)",
        ["curve", "peers", "instant (measured)", "within 50s (measured)",
         "paper anchor"],
    )
    anchors = {
        (True, False): ">=95% instant, 99% within 50s",
        (True, True): "96% within 50s",
        (False, False): "<70% instant, 94% within 50s",
        (False, True): "86% within 50s",
    }
    for (prepended, changed), anchor in anchors.items():
        records = study.convergence_records(prepended, changed)
        table.add_row(
            f"{'prepend' if prepended else 'no-prepend'}, "
            f"{'change' if changed else 'no-change'}",
            summarize_convergence(records)["peers"],
            study.instant_fraction(prepended, changed),
            study.converged_within(prepended, changed, 50.0),
            anchor,
        )
    for prepended in (True, False):
        median = study.global_convergence_percentile(prepended, 0.5)
        p90 = study.global_convergence_percentile(prepended, 0.9)
        table.add_note(
            f"global convergence {'with' if prepended else 'without'} "
            f"prepending: median {median:.0f}s, p90 {p90:.0f}s "
            f"(paper: {'91s/200s' if prepended else '133s/226s'})"
        )
    return table


@_table("mux")
def fig6_update_counts(mux) -> Table:
    """Paper: with prepending, 97% of unaffected peers made only a
    single update; without, only 64% (36% explored alternatives)."""
    study, _graph = mux
    table = Table(
        "Fig. 6 companion: single-update fraction for unaffected peers",
        ["baseline", "single-update fraction", "paper"],
    )
    for prepended, label, paper in (
        (True, "O-O-O (prepend)", "97%"), (False, "O (no prepend)", "64%")
    ):
        records = study.convergence_records(prepended, False)
        fraction = (
            sum(1 for r in records if r.num_updates == 1) / len(records)
            if records
            else 1.0
        )
        table.add_row(label, fraction, paper)
    return table


@_table("mux")
def sec51_wild(mux) -> Table:
    study, graph = mux
    fraction, found, total = study.alternate_route_fraction()
    table = Table(
        "Sec 5.1: alternate routes after real poisonings",
        ["metric", "measured", "paper"],
    )
    table.add_row(
        "affected peers finding an alternate",
        f"{fraction:.1%} ({found}/{total})",
        "77% (102/132)",
    )
    table.add_row(
        "cut-off cases that were a stub's only provider",
        study.cutoff_stub_fraction(graph),
        "2/3",
    )
    return table


@_table("efficacy")
def sec51_simulated(efficacy) -> Table:
    study, _graph = efficacy
    table = Table(
        "Sec 5.1: simulated poisonings over the path corpus",
        ["metric", "measured", "paper"],
    )
    table.add_row(
        "cases with a policy-compliant alternate",
        study.fraction_with_alternates,
        "90% (of ~10M cases)",
    )
    table.add_note(
        f"{len(study.outcomes)} simulated cases from "
        f"{study.corpus_paths} harvested AS paths"
    )
    return table


@_table("mux")
def sec52_loss(mux) -> Table:
    study, _graph = mux
    fractions = study.loss_fractions((0.01, 0.02))
    table = Table(
        "Sec 5.2: loss during convergence (prepended baseline)",
        ["metric", "measured", "paper"],
    )
    table.add_row("poisonings with overall loss < 1%", fractions[0.01],
                  "60%")
    table.add_row("poisonings with overall loss < 2%", fractions[0.02],
                  "98%")
    table.add_row("poisonings with any 10s round > 10% loss",
                  study.spike_fraction(0.10), "2%")
    trials = [t for t in study.trials if t.prepended_baseline]
    table.add_note(f"{len(trials)} poisonings, "
                   f"{len(study.collector_peers)} probe sources each")
    return table


@_table("selective")
def sec52_selective(result) -> Table:
    table = Table(
        "Sec 5.2: selective poisoning (I2 experiment analogue)",
        ["metric", "measured", "paper"],
    )
    # The study only stops at a target that kept its route.
    table.add_row("target AS keeps a route", True, "yes")
    table.add_row("target egresses via the clean provider",
                  result["clean_egress"], "yes (PNW Gigapop)")
    table.add_row(
        "unrelated ASes whose path changed",
        f"{result['unrelated_changed']}/{result['unrelated_total']}",
        "0/33 collector peers",
    )
    return table


@_table("mux", "efficacy", "accuracy")
def table1_summary(mux, efficacy, accuracy) -> Table:
    """Each row of the paper's Table 1, recomputed from the studies."""
    rows = table1_rows(mux[0], efficacy[0], accuracy[0])
    wild_fraction, found, total = rows["wild"]
    table = Table(
        "Table 1: key results (paper vs measured)",
        ["criterion", "paper", "measured"],
    )
    for criterion, paper, measured in (
        ("effectiveness: poisons finding alternates (BGP-Mux)", "77%",
         f"{wild_fraction:.0%} ({found}/{total})"),
        ("effectiveness: alternates in large-scale simulation", "90%",
         f"{rows['sim']:.0%}"),
        ("disruptiveness: working routes reconverging instantly", "95%",
         f"{rows['instant']:.0%}"),
        ("disruptiveness: poisonings with < 2% convergence loss", "98%",
         f"{rows['loss2']:.0%}"),
        ("accuracy: consistent with both-end traceroutes", "93%",
         f"{rows['consistency']:.0%}"),
        ("accuracy: differs from traceroute-only diagnosis", "40%",
         f"{rows['differs']:.0%}"),
        ("scalability: isolation time (reverse outages)", "140 s",
         f"{rows['seconds']:.0f} s"),
        ("scalability: probes per isolated failure", "280",
         f"{rows['probes']:.0f}"),
        ("scalability: extra update load at 1% / 50% deployment",
         "<1% / <10-35%", "see Table 2 bench"),
    ):
        table.add_row(criterion, paper, measured)
    return table


# ----------------------------------------------------------------------
# §5.3 / §5.4 / §6: isolation, its cost, and the case study
# ----------------------------------------------------------------------
@_table("accuracy")
def sec53_accuracy(accuracy) -> Table:
    study, _scenario = accuracy
    mix = Counter(c.true_direction.value for c in study.cases)
    table = Table(
        "Sec 5.3: failure isolation accuracy",
        ["metric", "measured", "paper"],
    )
    table.add_row("blamed the injected AS (ground truth)", study.accuracy,
                  "n/a (no ground truth in the wild)")
    table.add_row("consistent with both-end traceroutes", study.consistency,
                  "93% (169/182)")
    table.add_row("verdict differs from traceroute-only",
                  study.traceroute_difference_fraction, "40%")
    table.add_note(
        f"{len(study.cases)} injected failures "
        f"({dict(sorted(mix.items()))}), 5% probe-reply loss"
    )
    return table


def reverse_traceroute_misdiagnosis(study) -> Tuple[float, int]:
    """(fraction, count) of the isolated reverse-path cases where the
    failing traceroute points somewhere other than the culprit."""
    reverse = [
        c
        for c in study.cases
        if c.true_direction is FailureDirection.REVERSE
        and c.result is not None
    ]
    if not reverse:
        return 0.0, 0
    return (
        sum(c.traceroute_differs for c in reverse) / len(reverse),
        len(reverse),
    )


@_table("accuracy")
def sec53_reverse_traceroute(accuracy) -> Table:
    """Every reverse-path case is a Fig.-4 situation: the failing
    traceroute terminates somewhere on the (working) forward path."""
    fraction, count = reverse_traceroute_misdiagnosis(accuracy[0])
    table = Table(
        "Sec 5.3: traceroute misdiagnosis on reverse failures",
        ["metric", "measured", "paper"],
    )
    table.add_row(
        "reverse-path cases where traceroute points elsewhere",
        f"{fraction:.1%} (n={count})",
        "the Fig. 4 case: 'gave incorrect information'",
    )
    return table


@_table("accuracy")
def sec54_isolation_cost(accuracy) -> Table:
    study, _scenario = accuracy
    table = Table(
        "Sec 5.4: isolation cost per outage",
        ["metric", "measured", "paper"],
    )
    table.add_row("probe packets per isolated outage", study.mean_probes,
                  "~280")
    table.add_row(
        "isolation time, reverse/bidirectional outages (s)",
        study.mean_isolation_seconds(
            (FailureDirection.REVERSE, FailureDirection.BIDIRECTIONAL)
        ),
        "140 s average",
    )
    table.add_note(
        "probe counts are lower than the paper's because the synthetic "
        "topology has shorter paths (fewer hops to test per atlas path)"
    )
    return table


@_table("atlas_refresh")
def sec54_atlas_refresh(refresh) -> Table:
    table = Table(
        "Sec 5.4: atlas refresh throughput",
        ["metric", "measured", "paper"],
    )
    table.add_row(
        "option probes per refreshed path (amortized)",
        refresh["option_probes_per_path"],
        f"{OPTION_PROBES_AMORTIZED} (vs {OPTION_PROBES_FRESH} fresh)",
    )
    table.add_row("total probes per path", refresh["probes_per_path"],
                  "~10 + 2 tr")
    table.add_row(
        f"paths/minute at {worlds.PROBE_BUDGET_PPS:.0f} pps budget",
        refresh["paths_per_minute"],
        "225 mean / 502 peak",
    )
    return table


@_table("case_study")
def sec6_case_study(case) -> Table:
    record, _bad_asn = case
    hour = worlds.HOUR
    table = Table(
        "Sec 6: case-study repair timeline",
        ["event", "measured", "paper analogue"],
    )
    table.add_row("outage start (h)", record.outage.start / hour,
                  "8:15 pm Oct 3")
    table.add_row("detected after (s)",
                  record.outage.detected - record.outage.start,
                  "minutes of failed test traffic")
    table.add_row("direction", record.isolation.direction.value,
                  "reverse (spoofed pings)")
    table.add_row("poisoned AS", f"AS{record.poisoned_asn}",
                  "UUNET (AS701)")
    table.add_row("convergence after poison (s)",
                  record.convergence_seconds,
                  "brief convergence loop, then repaired")
    table.add_row("connectivity restored (h)",
                  record.outage.end / hour, "shortly after poisoning")
    table.add_row("sentinel detected repair (h)",
                  record.repair_detected_time / hour,
                  "just after 4 am Oct 4")
    table.add_row("unpoisoned (h)", record.unpoison_time / hour,
                  "poison removed after repair")
    return table


# ----------------------------------------------------------------------
# §7: anomalies, ablations and robustness
# ----------------------------------------------------------------------
@_table("anomalies")
def sec71_loop_quirks(anomalies) -> Table:
    quirks = anomalies["loop_quirks"]
    table = Table(
        "Sec 7.1: loop-detection quirks vs poisoning",
        ["network type", "keeps route after single poison",
         "keeps route after double poison", "paper"],
    )
    table.add_row("loop detection disabled", *quirks["disabled"],
                  "immune to poisoning")
    table.add_row("maxas-limit 2 (AS286-style)", *quirks["maxas-2"],
                  "single ineffective, double works")
    return table


@_table("anomalies")
def sec71_cogent_filter(anomalies) -> Table:
    before, after = anomalies["cogent_filter"]
    table = Table(
        "Sec 7.1: Cogent-style filter vs tier-1 poisons",
        ["metric", "measured", "paper"],
    )
    table.add_row("ASes with a route before the tier-1 poison", before,
                  "-")
    table.add_row("ASes with a route after (filtered at the provider)",
                  after,
                  "poisons of Cogent's tier-1 peers did not propagate")
    return table


@_table("atlas_ablation")
def ablation_atlas(result) -> Table:
    table = Table(
        "Ablation: historical atlas in reverse-path isolation",
        ["configuration", "correct-blame fraction"],
    )
    table.add_row("primed atlas, depth 3", result["with_atlas"])
    table.add_row("primed atlas, depth 1", result["shallow"])
    table.add_row("no atlas", result["without_atlas"])
    table.add_note(f"{result['cases']} injected reverse-path failures")
    return table


@_table("avoid_problem")
def ablation_avoid_problem(rows) -> Table:
    table = Table(
        "Ablation: poisoning vs idealized AVOID_PROBLEM",
        ["target AS", "users", "cut off (poison)", "cut off (avoid)",
         "rerouted (poison)", "rerouted (avoid)", "notified"],
    )
    for row in rows:
        table.add_row(
            f"AS{row['target']}", row["users"], row["poisoned_cut"],
            row["avoid_cut"], row["poisoned_avoiding"],
            row["avoid_avoiding"], row["notified"],
        )
    table.add_note(
        f"total cut off: poisoning "
        f"{sum(r['poisoned_cut'] for r in rows)}, AVOID_PROBLEM "
        f"{sum(r['avoid_cut'] for r in rows)} (the Backup Property)"
    )
    return table


@_table("mrai_sweep")
def ablation_mrai(sweep) -> Table:
    table = Table(
        "Ablation: MRAI timer vs convergence",
        ["MRAI (s)", "instant (prepend)", "instant (no prepend)",
         "global conv. median, no prepend (s)"],
    )
    for mrai, study in sorted(sweep.items()):
        table.add_row(
            mrai,
            study.instant_fraction(True, False),
            study.instant_fraction(False, False),
            study.global_convergence_percentile(False, 0.5) or 0.0,
        )
    return table


@_table("sentinel_styles")
def ablation_sentinel(rows) -> Table:
    table = Table(
        "Ablation: sentinel styles (Sec 7.2)",
        ["style", "captive keeps covering route", "repair detectable",
         "backup property"],
    )
    for row in rows:
        table.add_row(*row)
    return table


@_table("robustness")
def robustness(study) -> Table:
    table = Table(
        "Robustness: repair under injected infrastructure faults",
        ["intensity", "injected", "detected", "repaired", "unpoisoned",
         "false poisons", "deferrals", "fault events"],
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
            point.stats.total_events if point.stats else 0,
        )
    table.add_note(
        "chaos plan at intensity i: probe loss i, latency spikes and BGP "
        "message drops i/2, duplication and atlas corruption i/4, "
        "sentinel false negatives i; plus one VP crash window and one "
        "BGP session reset at i > 0"
    )
    table.add_note(
        "deferrals are the DEGRADED path working: low-confidence "
        "isolations that held fire instead of acting"
    )
    return table
