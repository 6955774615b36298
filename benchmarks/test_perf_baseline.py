"""Microbenchmark: converged-baseline construction, solver vs event.

Times :func:`repro.runner.baseline.converged_internet` in both modes at
each scale in ``$REPRO_PERF_SCALES`` (default ``small,medium``), asserts
the two modes agree on every Loc-RIB and forwarding next hop, and
archives a BENCH-schema JSON (``perf_baseline_candidate.json``) that CI
gates against the committed ``perf_baseline.json`` via
``benchmarks/compare.py`` — the same 25% trajectory gate as the study
suite.

Run directly with::

    PYTHONPATH=src REPRO_PERF_SCALES=small \
        python -m pytest benchmarks/test_perf_baseline.py -q
"""

import json
import os
import platform
import sys
import time
from datetime import date

import pytest

from repro.runner.baseline import (
    MODE_EVENT,
    MODE_SOLVER,
    converged_internet,
)
from repro.runner.bench import BENCH_SCHEMA_VERSION

SEED = 7

#: The solver must beat event convergence by at least this factor at
#: every scale (the headline acceptance is ~10x at medium; 1.5x keeps
#: the assertion robust on noisy CI runners).
MIN_SPEEDUP = 1.5

SCALES = tuple(
    scale.strip()
    for scale in os.environ.get("REPRO_PERF_SCALES", "small,medium").split(",")
    if scale.strip()
)

#: Accumulated per-scale measurements; rewritten to disk after every
#: scale so an aborted run still leaves a valid (partial) document.
_MEASUREMENTS = {}


def _assert_equivalent(solver_base, event_base, scale):
    """Solver and event modes must agree on routing (not bookkeeping)."""
    solver_engine, event_engine = solver_base.engine, event_base.engine
    assert set(solver_engine.speakers) == set(event_engine.speakers)
    prefixes = set()
    for asn, solver_speaker in solver_engine.speakers.items():
        solver_loc = solver_speaker.table.loc_rib()
        event_loc = event_engine.speakers[asn].table.loc_rib()
        assert solver_loc == event_loc, (
            f"{scale}: Loc-RIB mismatch at AS{asn}"
        )
        prefixes.update(solver_loc)
    for prefix in prefixes:
        assert solver_engine.forwarding_next_hops(
            prefix
        ) == event_engine.forwarding_next_hops(prefix), (
            f"{scale}: forwarding mismatch for {prefix}"
        )


def _write_candidate(results_dir):
    wall = {
        name: bench["wall_seconds"] for name, bench in _MEASUREMENTS.items()
    }
    doc = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created": date.today().isoformat(),
        "scale": ",".join(SCALES),
        "seed": SEED,
        "workers": 1,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "totals": {
            "wall_seconds": round(sum(wall.values()), 4),
            "trials": sum(b["trials"] for b in _MEASUREMENTS.values()),
            "trials_per_sec": round(
                sum(b["trials"] for b in _MEASUREMENTS.values())
                / sum(wall.values()),
                4,
            )
            if sum(wall.values())
            else 0.0,
        },
        "benchmarks": dict(sorted(_MEASUREMENTS.items())),
    }
    path = os.path.join(results_dir, "perf_baseline_candidate.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize("scale", SCALES)
def test_solver_vs_event_convergence(scale, results_dir):
    timings = {}
    baselines = {}
    for mode in (MODE_SOLVER, MODE_EVENT):
        start = time.perf_counter()
        baselines[mode] = converged_internet(scale, SEED, mode=mode)
        timings[mode] = time.perf_counter() - start

    _assert_equivalent(baselines[MODE_SOLVER], baselines[MODE_EVENT], scale)

    prefixes = sum(
        len(node.prefixes) for node in baselines[MODE_EVENT].graph.nodes()
    )
    speedup = (
        timings[MODE_EVENT] / timings[MODE_SOLVER]
        if timings[MODE_SOLVER]
        else float("inf")
    )
    for mode in (MODE_SOLVER, MODE_EVENT):
        wall = timings[mode]
        _MEASUREMENTS[f"baseline_{mode}_{scale}"] = {
            "wall_seconds": round(wall, 4),
            "trials": prefixes,
            "trials_per_sec": round(prefixes / wall, 4) if wall else 0.0,
            "metrics": {
                "prefixes": prefixes,
                "solver_speedup": round(speedup, 4),
            },
        }
    _write_candidate(results_dir)

    assert speedup >= MIN_SPEEDUP, (
        f"{scale}: solver {timings[MODE_SOLVER]:.2f}s vs event "
        f"{timings[MODE_EVENT]:.2f}s — only {speedup:.2f}x"
    )
