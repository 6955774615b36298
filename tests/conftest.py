"""Shared fixtures: a small converged Internet with a router-level data plane."""

import os

import pytest

from repro.bgp.engine import BGPEngine
from repro.dataplane.failures import FailureSet
from repro.dataplane.fib import build_fibs
from repro.dataplane.forwarding import DataPlane
from repro.topology.generate import InternetShape, generate_internet
from repro.topology.routers import RouterTopology


SMALL_SHAPE = InternetShape(num_tier1=3, num_tier2=10, num_stubs=25)

#: ``REPRO_*`` names a session may legitimately pick up on the way: the
#: harness's own seed / scale / worker matrices.
HARNESS_ENV = {
    "REPRO_CHAOS_SEEDS",
    "REPRO_DELTA_SEEDS",
    "REPRO_PERF_SCALES",
}


@pytest.fixture(scope="session", autouse=True)
def no_test_leaks_configuration():
    """Fail the run if a test left a ``REPRO_*`` variable behind: every
    later test would run a configuration other than the one it names."""
    def set_now():
        return {name for name in os.environ if name.startswith("REPRO_")}

    before = set_now()
    yield
    leaked = set_now() - before - HARNESS_ENV
    assert not leaked, f"leaked into the process: {sorted(leaked)}"


@pytest.fixture(scope="session")
def small_internet():
    """A converged 38-AS Internet: (graph, router topo, engine)."""
    graph = generate_internet(SMALL_SHAPE, seed=11)
    topo = RouterTopology.build(
        graph, seed=11, unresponsive_fraction=0.0
    )
    engine = BGPEngine(graph)
    for node in graph.nodes():
        for prefix in node.prefixes:
            engine.originate(node.asn, prefix)
    engine.run()
    return graph, topo, engine


@pytest.fixture()
def dataplane(small_internet):
    """A fresh data plane (mutable failure set) over the converged state."""
    _graph, topo, engine = small_internet
    return DataPlane(topo, build_fibs(engine), FailureSet())
