"""Shared fixtures for the evaluation benchmarks.

Each heavy study runs once per session (module fixtures below); the
individual benchmarks measure a representative kernel of their experiment
and print/archive a paper-vs-measured table under ``benchmarks/results/``.

``REPRO_BENCH_WORKERS`` sets the worker processes per study (default 1);
results are byte-identical at any setting.
"""

import os

import pytest

from repro.experiments.accuracy import run_isolation_accuracy_study
from repro.experiments.alternate_paths import run_alternate_path_study
from repro.experiments.convergence import run_poisoning_convergence_study
from repro.experiments.diversity import run_provider_diversity_study
from repro.experiments.efficacy import run_topology_efficacy_study
from repro.workloads.hubble import generate_hubble_dataset
from repro.workloads.outages import generate_outage_trace

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Worker processes per study (the runner keeps results byte-identical).
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def outage_trace():
    """The calibrated EC2-like trace (Fig. 1, Fig. 5, Table 2 input)."""
    return generate_outage_trace(seed=2012)


@pytest.fixture(scope="session")
def hubble_dataset():
    return generate_hubble_dataset(days=7.0, seed=2012)


@pytest.fixture(scope="session")
def mux_study():
    """The BGP-Mux poisoning study (Fig. 6, §5.1 wild half, §5.2 loss)."""
    study, graph = run_poisoning_convergence_study(
        scale="medium", seed=7, num_collector_peers=60, max_poisons=25,
        workers=WORKERS,
    )
    return study, graph


@pytest.fixture(scope="session")
def efficacy_study():
    """§5.1 topology-scale poisoning simulation."""
    study, graph = run_topology_efficacy_study(
        scale="medium", seed=7, num_origins=25, max_cases=60000,
        workers=WORKERS,
    )
    return study, graph


@pytest.fixture(scope="session")
def diversity_study():
    """§2.3 forward / §5.2 reverse provider-diversity study."""
    study, graph = run_provider_diversity_study(
        scale="medium", seed=7, num_feeds=40, max_reverse_feeds=24,
        workers=WORKERS,
    )
    return study, graph


@pytest.fixture(scope="session")
def accuracy_study():
    """§5.3 isolation accuracy study (with ICMP rate-limit noise)."""
    study, scenario = run_isolation_accuracy_study(
        scale="medium", seed=7, num_cases=60, reply_loss_rate=0.05,
        workers=WORKERS,
    )
    return study, scenario


@pytest.fixture(scope="session")
def alternate_study():
    """§2.2 spliced alternate-path study."""
    study, graph = run_alternate_path_study(
        scale="medium", seed=7, num_sites=100, num_outages=300,
        workers=WORKERS,
    )
    return study, graph
