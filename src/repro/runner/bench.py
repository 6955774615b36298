"""The studies' throughput through the parallel runner:
``python -m repro bench``.

Runs the seven paper studies and the tiny impact study at a named scale
through the parallel runner and emits a schema-versioned JSON document
(``BENCH_<date>.json``) recording wall time, throughput, cache behaviour
and each study's headline metrics.  CI archives these documents and
gates merges on the throughput trajectory via ``benchmarks/compare.py``.
The system's own speed (service rounds, repair steps, fuzz cases) is
``bench/``'s question and the solver-vs-event microbenchmark is
``benchmarks/test_perf_baseline.py``'s; neither is measured here.

The efficacy benchmark is deliberately embarrassingly parallel — it runs
several full replica studies (distinct topology seeds) as runner units —
so its wall clock scales with the worker count and anchors the suite's
speedup measurement.
"""

from __future__ import annotations

import platform
import sys
import time
from datetime import date
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.runner.cache import DiskCache, resolve_cache
from repro.runner.core import derive_seed, run_trials
from repro.runner.stats import RunStats

#: Bump when the BENCH JSON layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Independent full-study replicas in the efficacy benchmark.
EFFICACY_REPLICAS = 4

#: (trials, headline metrics) returned by each benchmark body.
BenchResult = Tuple[int, Dict[str, Any]]


def _efficacy_replica(
    context, replica_seed: int
) -> Tuple[int, float, Dict[str, Any]]:
    from repro.experiments.efficacy import run_topology_efficacy_study

    scale, max_cases, cache_root = context
    stats = RunStats()
    study, _graph = run_topology_efficacy_study(
        scale=scale,
        seed=replica_seed,
        max_cases=max_cases,
        workers=1,
        cache=DiskCache.maybe(cache_root),
        stats=stats,
    )
    return len(study.outcomes), study.fraction_with_alternates, stats.as_dict()


def _bench_efficacy(
    scale: str, seed: int, workers: int,
    cache: Optional[DiskCache], stats: RunStats,
) -> BenchResult:
    max_cases = {"tiny": 400, "small": 1500, "medium": 4000}.get(scale, 1500)
    seeds = [
        derive_seed(seed, "bench-efficacy", replica)
        for replica in range(EFFICACY_REPLICAS)
    ]
    results = run_trials(
        _efficacy_replica,
        seeds,
        context=(scale, max_cases, cache.root if cache else None),
        workers=workers,
        stats=stats,
        label="bench.efficacy",
        chunks_per_worker=1,
    )
    for _cases, _fraction, worker_stats in results:
        stats.merge_dict(worker_stats)
    trials = sum(r[0] for r in results)
    return trials, {
        "replicas": EFFICACY_REPLICAS,
        "cases": trials,
        "fraction_with_alternates": round(
            sum(r[1] for r in results) / len(results), 6
        ),
    }


def _bench_convergence(
    scale: str, seed: int, workers: int,
    cache: Optional[DiskCache], stats: RunStats,
) -> BenchResult:
    from repro.experiments.convergence import (
        run_poisoning_convergence_study,
    )

    max_poisons = {"tiny": 4, "small": 8, "medium": 12}.get(scale, 8)
    study, _graph = run_poisoning_convergence_study(
        scale=scale, seed=seed, max_poisons=max_poisons,
        workers=workers, cache=cache, stats=stats,
    )
    return len(study.trials), {
        "trials": len(study.trials),
        "alternate_route_fraction": round(
            study.alternate_route_fraction()[0], 6
        ),
        "loss_under_1pct": round(study.loss_fractions()[0.01], 6),
    }


def _bench_accuracy(
    scale: str, seed: int, workers: int,
    cache: Optional[DiskCache], stats: RunStats,
) -> BenchResult:
    from repro.experiments.accuracy import run_isolation_accuracy_study

    num_cases = {"tiny": 10, "small": 20, "medium": 30}.get(scale, 20)
    study, _scenario = run_isolation_accuracy_study(
        scale=scale, seed=seed, num_cases=num_cases,
        reply_loss_rate=0.05, workers=workers, cache=cache, stats=stats,
    )
    return len(study.cases), {
        "cases": len(study.cases),
        "accuracy": round(study.accuracy, 6),
        "consistency": round(study.consistency, 6),
        "mean_probes": round(study.mean_probes, 6),
    }


def _bench_diversity(
    scale: str, seed: int, workers: int,
    cache: Optional[DiskCache], stats: RunStats,
) -> BenchResult:
    from repro.experiments.diversity import run_provider_diversity_study

    num_feeds = {"tiny": 16, "small": 30, "medium": 40}.get(scale, 30)
    study, _graph = run_provider_diversity_study(
        scale=scale, seed=seed, num_feeds=num_feeds,
        workers=workers, cache=cache, stats=stats,
    )
    trials = len(study.reverse_avoidable)
    return trials, {
        "feeds": trials,
        "forward_fraction": round(study.forward_fraction, 6),
        "reverse_fraction": round(study.reverse_fraction, 6),
    }


def _bench_alternate_paths(
    scale: str, seed: int, workers: int,
    cache: Optional[DiskCache], stats: RunStats,
) -> BenchResult:
    from repro.experiments.alternate_paths import run_alternate_path_study

    num_sites = {"tiny": 10, "small": 16, "medium": 24}.get(scale, 16)
    num_outages = {"tiny": 80, "small": 150, "medium": 300}.get(scale, 150)
    study, _graph = run_alternate_path_study(
        scale=scale, seed=seed, num_sites=num_sites,
        num_outages=num_outages, workers=workers, cache=cache, stats=stats,
    )
    return len(study.cases), {
        "cases": len(study.cases),
        "overall_fraction": round(study.overall_fraction, 6),
        "long_outage_fraction": round(
            study.fraction_for_long_outages(), 6
        ),
    }


def _bench_robustness(
    scale: str, seed: int, workers: int,
    cache: Optional[DiskCache], stats: RunStats,
) -> BenchResult:
    from repro.experiments.robustness import run_robustness_study

    num_outages = {"tiny": 2, "small": 3, "medium": 3}.get(scale, 3)
    study = run_robustness_study(
        scale="tiny", seed=seed, intensities=(0.0, 0.2),
        num_outages=num_outages, workers=workers, cache=cache, stats=stats,
    )
    trials = sum(p.injected for p in study.points)
    return trials, {
        "points": len(study.points),
        "repair_fraction_clean": round(
            study.points[0].repair_fraction, 6
        ),
        "repair_fraction_chaos": round(
            study.points[-1].repair_fraction, 6
        ),
        "max_false_poisons": study.max_false_poisons,
    }


def _bench_defenses(
    scale: str, seed: int, workers: int,
    cache: Optional[DiskCache], stats: RunStats,
) -> BenchResult:
    """Defense sweep: repairs vs anti-poisoning filters, ladder off/on.

    Pinned to tiny like the robustness benchmark — each (rate, ladder)
    cell is a full deployment replay, so the cell count, not the scale,
    is the work knob.  Headlines record what the sweep is for: repairs
    the defenses cost the plain poisoner and how many the fallback
    ladder won back.
    """
    from repro.experiments.defenses import run_defense_study

    rates = (0.0, 0.5, 1.0)
    study = run_defense_study(
        scale="tiny", seed=seed, rates=rates, num_outages=3,
        workers=workers, cache=cache, stats=stats,
    )
    trials = sum(p.injected for p in study.points)
    full_off = study.point(1.0, False)
    full_on = study.point(1.0, True)
    lost, recovered = study.ladder_recovery(1.0) or (0, 0)
    return trials, {
        "cells": len(study.points),
        "repaired_defended_ladder_off": full_off.repaired,
        "repaired_defended_ladder_on": full_on.repaired,
        "ladder_repairs": full_on.ladder_repairs,
        "escalations": full_on.escalations,
        "repairs_lost": lost,
        "repairs_recovered": recovered,
        "abandoned": study.abandoned_total,
    }


def _bench_impact(
    scale: str, seed: int, workers: int,
    cache: Optional[DiskCache], stats: RunStats,
) -> BenchResult:
    """The tiny repair story with the gravity matrix attached; a trial
    is one ledger sample taken."""
    from repro.experiments.impact import run_impact_study

    study, _matrix = run_impact_study(
        scale="tiny", seed=seed, cache=cache, stats=stats
    )
    return len(study.samples), {
        "users_total": study.users_total,
        "peak_users_affected": study.peak_users_affected,
        "affected_user_minutes": round(
            study.affected_user_minutes, 4
        ),
        "user_minutes_before_repair": round(
            study.user_minutes_before_repair, 4
        ),
    }


#: Entries this suite used to carry -> the harness that takes the
#: measurement now.
RETIRED = {
    "baseline": "benchmarks/test_perf_baseline.py",
    "delta": "bench/run.py --workload repair_ladder",
    "service": "bench/run.py --workload monitor_steady (or repair_storm)",
}

#: Name -> body, in suite execution order.
BENCHMARKS: Dict[
    str,
    Callable[[str, int, int, Optional[DiskCache], RunStats], BenchResult],
] = {
    "efficacy": _bench_efficacy,
    "convergence": _bench_convergence,
    "accuracy": _bench_accuracy,
    "diversity": _bench_diversity,
    "alternate_paths": _bench_alternate_paths,
    "robustness": _bench_robustness,
    "defenses": _bench_defenses,
    "impact": _bench_impact,
}


def run_bench_suite(
    scale: str = "small",
    seed: int = 7,
    workers: int = 1,
    only: Optional[Sequence[str]] = None,
    cache=None,
    stats: Optional[RunStats] = None,
) -> Dict[str, Any]:
    """Run the suite and return the BENCH document (a JSON-ready dict).

    *stats* optionally receives the suite-wide totals (merged across
    benchmarks), so a caller can snapshot the full metrics registry —
    e.g. the CLI's ``--metrics-out`` — on top of the returned document.
    """
    chosen = list(BENCHMARKS) if not only else [
        name for name in BENCHMARKS if name in set(only)
    ]
    unknown = set(only or ()) - set(BENCHMARKS)
    if unknown:
        moved = "".join(
            f"; {name!r} is measured by {RETIRED[name]}"
            for name in sorted(unknown & set(RETIRED))
        )
        raise ValueError(
            f"unknown benchmarks {sorted(unknown)}; "
            f"pick from {sorted(BENCHMARKS)}{moved}"
        )

    totals_stats = stats if stats is not None else RunStats()
    benchmarks: Dict[str, Any] = {}
    total_wall = 0.0
    total_trials = 0
    for name in chosen:
        stats = RunStats()
        bench_cache = resolve_cache(cache, stats)
        start = time.perf_counter()
        trials, metrics = BENCHMARKS[name](
            scale, seed, workers, bench_cache, stats
        )
        wall = time.perf_counter() - start
        total_wall += wall
        total_trials += trials
        totals_stats.merge(stats)
        benchmarks[name] = {
            "wall_seconds": round(wall, 4),
            "trials": trials,
            "trials_per_sec": round(trials / wall, 4) if wall else 0.0,
            "metrics": metrics,
            "stats": stats.as_dict(),
        }

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created": date.today().isoformat(),
        "scale": scale,
        "seed": seed,
        "workers": workers,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "totals": {
            "wall_seconds": round(total_wall, 4),
            "trials": total_trials,
            "trials_per_sec": round(total_trials / total_wall, 4)
            if total_wall
            else 0.0,
            "cache_hit_rate": totals_stats.cache_hit_rate,
        },
        "benchmarks": benchmarks,
    }
