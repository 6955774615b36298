"""Tests for route collectors and convergence measurement."""

import pytest

from repro.bgp.collectors import RouteCollector, summarize_convergence
from repro.bgp.engine import BGPEngine
from repro.bgp.messages import make_path
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship

P = Prefix("10.60.0.0/16")


@pytest.fixture()
def world():
    """Diamond: E(5) can reach origin 1 via A(6) or via D(4)-C(3)-B(2)."""
    g = ASGraph()
    for asn in range(1, 7):
        g.add_as(asn)
    g.assign_prefix(1, P)
    g.add_link(1, 2, Relationship.PROVIDER)
    g.add_link(2, 3, Relationship.PROVIDER)
    g.add_link(2, 6, Relationship.PROVIDER)
    g.add_link(4, 3, Relationship.PROVIDER)
    g.add_link(5, 4, Relationship.PROVIDER)
    g.add_link(5, 6, Relationship.PROVIDER)
    engine = BGPEngine(g)
    collector = RouteCollector(engine, peers={3, 4, 5, 6})
    engine.originate(1, P, path=make_path(1, prepend=3))
    engine.run()
    return engine, collector


class TestCollector:
    def test_unknown_peer_rejected(self, world):
        engine, _collector = world
        with pytest.raises(ValueError):
            RouteCollector(engine, peers={999})

    def test_updates_recorded_in_time_order(self, world):
        engine, collector = world
        updates = collector.updates(prefix=P)
        assert updates
        times = [u.time for u in updates]
        assert times == sorted(times)
        assert {u.peer for u in updates} <= {3, 4, 5, 6}

    def test_peers_using(self, world):
        engine, collector = world
        users = collector.peers_using(P, 6)
        assert 5 in users  # E prefers the short path via A(6)

    def test_withdrawal_appears_as_none_path(self, world):
        engine, collector = world
        t0 = engine.now
        engine.withdraw_origin(1, P)
        engine.run()
        updates = collector.updates(prefix=P, since=t0)
        assert any(u.as_path is None for u in updates)

    def test_convergence_after_poison(self, world):
        engine, collector = world
        affected = set(collector.peers_using(P, 6))
        t0 = engine.now
        engine.originate(1, P, path=make_path(1, prepend=3, poison=[6]))
        engine.run()
        records = collector.convergence_after(t0, P, affected=affected)
        assert records
        by_peer = {r.peer: r for r in records}
        # The poisoned AS itself loses its route (withdrawal counts as
        # its final update).
        assert 6 in by_peer
        assert by_peer[6].final_path is None
        # E was affected and rerouted.
        assert by_peer[5].was_affected
        assert by_peer[5].final_path is not None

    def test_global_convergence_time(self, world):
        engine, collector = world
        t0 = engine.now
        engine.originate(1, P, path=make_path(1, prepend=3, poison=[6]))
        engine.run()
        span = collector.global_convergence_time(t0, P)
        assert span is not None and span >= 0.0

    def test_no_updates_returns_none(self, world):
        engine, collector = world
        assert collector.global_convergence_time(engine.now + 999, P) is None


class TestSummaries:
    def test_summarize_empty(self):
        summary = summarize_convergence([])
        assert summary["peers"] == 0
        assert summary["instant_fraction"] == 1.0

    def test_summarize_counts(self, world):
        engine, collector = world
        t0 = engine.now
        engine.originate(1, P, path=make_path(1, prepend=3, poison=[6]))
        engine.run()
        records = collector.convergence_after(t0, P)
        summary = summarize_convergence(records)
        assert summary["peers"] == len(records)
        assert 0.0 <= summary["instant_fraction"] <= 1.0
