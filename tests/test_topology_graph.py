"""Unit tests for the AS graph, relationships and generator."""


import pytest

from repro.errors import TopologyError
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.generate import (
    InternetShape,
    generate_internet,
    generate_multihomed_origin,
    prefix_for_asn,
)
from repro.topology.relationships import (
    Relationship,
    is_valley_free,
    local_pref_for,
    may_export,
)


class TestRelationships:
    def test_inverse(self):
        assert Relationship.CUSTOMER.inverse() is Relationship.PROVIDER
        assert Relationship.PROVIDER.inverse() is Relationship.CUSTOMER
        assert Relationship.PEER.inverse() is Relationship.PEER
        assert Relationship.SIBLING.inverse() is Relationship.SIBLING

    def test_local_pref_ordering(self):
        assert (
            local_pref_for(Relationship.CUSTOMER)
            > local_pref_for(Relationship.PEER)
            > local_pref_for(Relationship.PROVIDER)
        )

    def test_export_rules(self):
        # Customer routes go everywhere.
        assert may_export(Relationship.CUSTOMER, Relationship.PEER)
        assert may_export(Relationship.CUSTOMER, Relationship.PROVIDER)
        # Peer/provider routes only to customers.
        assert may_export(Relationship.PEER, Relationship.CUSTOMER)
        assert not may_export(Relationship.PEER, Relationship.PEER)
        assert not may_export(Relationship.PROVIDER, Relationship.PEER)
        assert not may_export(Relationship.PROVIDER, Relationship.PROVIDER)

    def test_valley_free_sequences(self):
        up, flat, down = (
            Relationship.PROVIDER,
            Relationship.PEER,
            Relationship.CUSTOMER,
        )
        assert is_valley_free([up, up, flat, down, down])
        assert is_valley_free([down, down])
        assert is_valley_free([up])
        assert not is_valley_free([down, up])          # valley
        assert not is_valley_free([flat, flat])        # two peer links
        assert not is_valley_free([flat, up])          # climb after peak


class TestASGraph:
    @pytest.fixture
    def graph(self):
        g = ASGraph()
        g.add_as(1, tier=1)
        g.add_as(2, tier=2)
        g.add_as(3, tier=3, prefixes=[Prefix("10.3.0.0/16")])
        g.add_link(2, 1, Relationship.PROVIDER)
        g.add_link(3, 2, Relationship.PROVIDER)
        return g

    def test_relationship_symmetry(self, graph):
        assert graph.relationship(2, 1) is Relationship.PROVIDER
        assert graph.relationship(1, 2) is Relationship.CUSTOMER

    def test_providers_customers(self, graph):
        assert graph.providers(3) == [2]
        assert graph.customers(1) == [2]
        assert graph.peers(1) == []

    def test_stub_detection(self, graph):
        assert graph.is_stub(3)
        assert not graph.is_stub(1)
        assert set(graph.transit_ases()) == {1, 2}

    def test_prefix_origin(self, graph):
        origins = dict(graph.prefixes())
        assert origins[Prefix("10.3.0.0/16")] == 3
        assert Prefix("10.9.0.0/16") not in origins

    def test_duplicate_asn_rejected(self, graph):
        with pytest.raises(TopologyError):
            graph.add_as(1)

    def test_duplicate_link_rejected(self, graph):
        with pytest.raises(TopologyError):
            graph.add_link(1, 2, Relationship.PEER)

    def test_self_link_rejected(self, graph):
        with pytest.raises(TopologyError):
            graph.add_link(1, 1, Relationship.PEER)

    def test_copy_independent(self, graph):
        clone = graph.copy()
        clone.add_as(9)
        clone.add_link(9, 2, Relationship.PROVIDER)
        assert 9 not in graph and not graph.has_link(2, 9)
        graph.validate()
        clone.validate()

    def test_validate_passes(self, graph):
        graph.validate()


class TestGenerator:
    def test_shape_counts(self):
        shape = InternetShape(num_tier1=4, num_tier2=10, num_stubs=30)
        graph = generate_internet(shape, seed=1)
        assert len(graph) == 44
        tiers = {}
        for node in graph.nodes():
            tiers.setdefault(node.tier, 0)
            tiers[node.tier] += 1
        assert tiers == {1: 4, 2: 10, 3: 30}

    def test_tier1_clique(self):
        graph = generate_internet(
            InternetShape(num_tier1=5, num_tier2=5, num_stubs=5), seed=2
        )
        for a in range(1, 6):
            for b in range(a + 1, 6):
                assert graph.relationship(a, b) is Relationship.PEER

    def test_everyone_reaches_the_clique(self):
        graph = generate_internet(
            InternetShape(num_tier1=3, num_tier2=8, num_stubs=20), seed=3
        )
        tier1 = {n.asn for n in graph.nodes() if n.tier == 1}
        for node in graph.nodes():
            if node.tier == 1:
                continue
            # Follow provider links upward; must hit the clique.
            frontier, seen = {node.asn}, set()
            reached = False
            while frontier and not reached:
                current = frontier.pop()
                seen.add(current)
                for provider in graph.providers(current):
                    if provider in tier1:
                        reached = True
                        break
                    if provider not in seen:
                        frontier.add(provider)
            assert reached, f"AS{node.asn} cannot reach tier-1"

    def test_deterministic_for_seed(self):
        a = generate_internet(seed=7)
        b = generate_internet(seed=7)
        assert sorted(a.links()) == sorted(b.links())

    def test_multihomed_origin_attachment(self):
        graph = generate_internet(
            InternetShape(num_tier1=3, num_tier2=10, num_stubs=10), seed=4
        )
        origin = generate_multihomed_origin(graph, num_providers=5, seed=4)
        assert len(graph.providers(origin)) == 5
        assert graph.node(origin).prefixes == [prefix_for_asn(origin)]

    def test_prefix_for_asn_is_unique_per_asn(self):
        assert prefix_for_asn(1) != prefix_for_asn(2)
        assert prefix_for_asn(42).contains(prefix_for_asn(42).address(7))
