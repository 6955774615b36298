"""Tests for the idealized AVOID_PROBLEM(X, P) primitive (§3).

The paper defines three properties the hypothetical primitive should
provide — Avoidance, Backup, and Notification — and approximates them
with poisoning.  The simulator implements the primitive directly so the
approximation can be compared against the ideal.
"""

import pytest

from repro.bgp.engine import BGPEngine
from repro.bgp.messages import make_path, traversed_ases
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship

P = Prefix("10.70.0.0/16")


@pytest.fixture()
def world():
    """Diamond with a captive stub F(7) behind A(6)."""
    g = ASGraph()
    for asn in range(1, 8):
        g.add_as(asn)
    g.assign_prefix(1, P)
    g.add_link(1, 2, Relationship.PROVIDER)
    g.add_link(2, 3, Relationship.PROVIDER)
    g.add_link(2, 6, Relationship.PROVIDER)
    g.add_link(4, 3, Relationship.PROVIDER)
    g.add_link(5, 4, Relationship.PROVIDER)
    g.add_link(5, 6, Relationship.PROVIDER)
    g.add_link(7, 6, Relationship.PROVIDER)  # captive
    engine = BGPEngine(g)
    engine.originate(1, P, path=make_path(1, prepend=3))
    engine.run()
    return engine


class TestAvoidanceProperty:
    def test_ases_with_alternatives_reroute(self, world):
        engine = world
        assert engine.best_route(5, P).neighbor == 6  # E prefers A
        engine.originate(
            1, P, path=make_path(1, prepend=3), avoid={6}
        )
        engine.run()
        best = engine.best_route(5, P)
        assert best.neighbor == 4  # rerouted around A
        assert 6 not in traversed_ases(best.as_path, 1)


class TestBackupProperty:
    def test_captive_keeps_tainted_route(self, world):
        engine = world
        engine.originate(
            1, P, path=make_path(1, prepend=3), avoid={6}
        )
        engine.run()
        # F(7) only knows routes through A(6): it keeps using them,
        # unlike under poisoning where it would be cut off entirely.
        best = engine.best_route(7, P)
        assert best is not None
        assert 6 in best.as_path

    def test_avoided_as_itself_keeps_routing(self, world):
        engine = world
        engine.originate(
            1, P, path=make_path(1, prepend=3), avoid={6}
        )
        engine.run()
        assert engine.best_route(6, P) is not None


class TestNotificationProperty:
    def test_flagged_as_is_notified(self, world):
        engine = world
        engine.originate(
            1, P, path=make_path(1, prepend=3), avoid={6}
        )
        engine.run()
        notifications = engine.avoid_notifications()
        assert notifications.get(6, 0) >= 1

    def test_unrelated_ases_not_notified(self, world):
        engine = world
        engine.originate(
            1, P, path=make_path(1, prepend=3), avoid={6}
        )
        engine.run()
        notifications = engine.avoid_notifications()
        assert 4 not in notifications


class TestComparisonWithPoisoning:
    def test_poisoning_cuts_captive_avoid_does_not(self, world):
        engine = world
        # Poison A: captive F loses everything.
        engine.originate(
            1, P, path=make_path(1, prepend=3, poison=[6])
        )
        engine.run()
        assert engine.as_path(7, P) is None
        # AVOID_PROBLEM: captive keeps its route.
        engine.originate(
            1, P, path=make_path(1, prepend=3), avoid={6}
        )
        engine.run()
        assert engine.as_path(7, P) is not None

    def test_clearing_hint_restores_preferences(self, world):
        engine = world
        engine.originate(
            1, P, path=make_path(1, prepend=3), avoid={6}
        )
        engine.run()
        engine.originate(1, P, path=make_path(1, prepend=3))
        engine.run()
        assert engine.best_route(5, P).neighbor == 6  # back to preferred
