"""Seeded, deterministic multiprocess experiment execution.

``repro.runner`` is the layer every experiment driver and benchmark runs
on: a trial executor whose parallel results are byte-identical to serial
(:mod:`repro.runner.core`), construction of converged control planes
and the snapshots trial workers restore them from
(:mod:`repro.runner.baseline`), and run accounting
(:mod:`repro.runner.stats`).
"""

from repro.runner.baseline import (
    ConvergedBaseline,
    converged_internet,
    restore_snapshot,
)
from repro.runner.core import derive_seed, run_trials
from repro.runner.stats import RunStats

__all__ = [
    "ConvergedBaseline",
    "RunStats",
    "converged_internet",
    "derive_seed",
    "restore_snapshot",
    "run_trials",
]
