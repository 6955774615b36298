"""Converged-baseline construction, solver vs event.

Builds :func:`repro.runner.baseline.converged_internet` in both modes at
each scale in ``$REPRO_PERF_SCALES`` (default ``small,medium``), asserts
the two modes agree on every Loc-RIB and forwarding next hop, and that
the solver is at least ``MIN_SPEEDUP`` times faster.

Run directly with::

    PYTHONPATH=src REPRO_PERF_SCALES=small,medium \
        python -m pytest benchmarks/test_perf_baseline.py -q
"""

import os
import time

import pytest

from repro.runner.baseline import (
    MODE_EVENT,
    MODE_SOLVER,
    converged_internet,
)

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


@pytest.mark.parametrize("scale", SCALES)
def test_solver_vs_event_convergence(scale):
    timings = {}
    baselines = {}
    for mode in (MODE_SOLVER, MODE_EVENT):
        start = time.perf_counter()
        baselines[mode] = converged_internet(scale, SEED, mode=mode)
        timings[mode] = time.perf_counter() - start

    _assert_equivalent(baselines[MODE_SOLVER], baselines[MODE_EVENT], scale)

    speedup = (
        timings[MODE_EVENT] / timings[MODE_SOLVER]
        if timings[MODE_SOLVER]
        else float("inf")
    )
    assert speedup >= MIN_SPEEDUP, (
        f"{scale}: solver {timings[MODE_SOLVER]:.2f}s vs event "
        f"{timings[MODE_EVENT]:.2f}s — only {speedup:.2f}x"
    )
