"""The gravity-model traffic matrix and its determinism contract.

The matrix is the denominator of every user-impact number, so two
properties are load-bearing: the same (graph, seed, config) must yield a
byte-identical matrix at **any** worker count (the repo-wide
content-derived seeding discipline), and the integer user allocation
must conserve the configured total exactly — largest-remainder rounding,
no drift.  Seeds come from ``REPRO_CHAOS_SEEDS`` so CI sweeps a matrix.
"""

import os

import pytest

from repro.topology.generate import InternetShape, generate_internet
from repro.traffic.matrix import (
    TrafficConfig,
    _largest_remainder,
    build_traffic_matrix,
)

SEEDS = tuple(
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "3,5,7").split(",")
)

SHAPE = InternetShape(num_tier1=2, num_tier2=6, num_stubs=14)


@pytest.fixture(scope="module")
def graph():
    return generate_internet(SHAPE, seed=7)


class TestDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_byte_identical_at_any_worker_count(self, graph, seed):
        serial = build_traffic_matrix(graph, seed=seed, workers=1)
        fanned = build_traffic_matrix(graph, seed=seed, workers=3)
        assert serial.digest() == fanned.digest()
        assert serial.flows == fanned.flows

    def test_different_seeds_differ(self, graph):
        a = build_traffic_matrix(graph, seed=SEEDS[0])
        b = build_traffic_matrix(graph, seed=SEEDS[0] + 1)
        assert a.digest() != b.digest()

    def test_digest_is_content_derived(self, graph):
        # Two independent builds, not a cached object.
        a = build_traffic_matrix(graph, seed=11)
        b = build_traffic_matrix(graph, seed=11)
        assert a is not b
        assert a.digest() == b.digest()


class TestGravityModel:
    def test_total_users_conserved_exactly(self, graph):
        config = TrafficConfig(total_users=123_457, dests_per_src=5)
        matrix = build_traffic_matrix(graph, seed=3, config=config)
        assert matrix.total_users == config.total_users
        assert sum(f.users for f in matrix.flows) == config.total_users

    def test_sources_are_stub_ases_only(self, graph):
        matrix = build_traffic_matrix(graph, seed=3)
        stubs = set(graph.stubs())
        assert {f.src_asn for f in matrix.flows} <= stubs

    def test_no_self_traffic(self, graph):
        matrix = build_traffic_matrix(graph, seed=3)
        for flow in matrix.flows:
            origins = graph.node(flow.src_asn).prefixes
            assert flow.dst_prefix not in origins

    def test_destination_addresses_live_inside_their_prefix(self, graph):
        matrix = build_traffic_matrix(graph, seed=5)
        for flow in matrix.flows:
            assert flow.dst_address in flow.dst_prefix
            assert flow.users > 0

    def test_users_by_src_partitions_the_total(self, graph):
        config = TrafficConfig(total_users=40_000)
        matrix = build_traffic_matrix(graph, seed=7, config=config)
        assert sum(flow.users for flow in matrix.flows) == 40_000


class TestTrafficConfig:
    def test_service_matrix_ignores_the_environment(self, monkeypatch):
        """``ServiceConfig.traffic=None`` means the dataclass defaults,
        as ``run_impact_study(traffic=None)`` always did."""
        from repro.service import LifeguardService, ServiceConfig
        from repro.workloads.scenarios import build_deployment

        def digest():
            scenario = build_deployment(scale="tiny", seed=3)
            service = LifeguardService(scenario, ServiceConfig())
            return service.ledger.matrix.digest()

        unset = digest()
        monkeypatch.setenv("REPRO_TRAFFIC_USERS", "5")
        monkeypatch.setenv("REPRO_TRAFFIC_DESTS", "1")
        assert digest() == unset
        assert unset == build_traffic_matrix(
            build_deployment(scale="tiny", seed=3).graph,
            seed=0,
            config=TrafficConfig(),
        ).digest()


class TestLargestRemainder:
    def test_conserves_the_total(self):
        shares = _largest_remainder(100, [1.0, 1.0, 1.0])
        assert sum(shares) == 100

    def test_proportional_and_tie_stable(self):
        assert _largest_remainder(10, [3.0, 1.0]) == [8, 2]
        # Equal weights: leftovers go to the earliest indices.
        assert _largest_remainder(5, [1.0, 1.0, 1.0]) == [2, 2, 1]

    def test_degenerate_inputs(self):
        assert _largest_remainder(0, [1.0]) == [0]
        assert _largest_remainder(10, []) == []
        assert _largest_remainder(10, [0.0, 0.0]) == [0, 0]
