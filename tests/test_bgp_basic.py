"""Integration tests for the BGP engine on small hand-built topologies."""


from repro.bgp.engine import BGPEngine
from repro.bgp.messages import make_path
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship

P = Prefix("10.100.0.0/16")


def line_graph():
    """O -- B -- A -- E, each link customer->provider going right."""
    g = ASGraph()
    for asn in (1, 2, 3, 4):
        g.add_as(asn)
    g.assign_prefix(1, P)
    g.add_link(1, 2, Relationship.PROVIDER)  # 2 provides 1 (O)
    g.add_link(2, 3, Relationship.PROVIDER)
    g.add_link(3, 4, Relationship.PROVIDER)
    return g


def diamond_graph():
    """Fig. 2-style: origin O(1) <- B(2) <- {C(3)->D(4)->E(5)}, A(6).

    O's provider is B; B has providers C and A; E buys from A and D; D from
    C.  Gives E two ways to O: via A-B and via D-C-B.
    """
    g = ASGraph()
    for asn in range(1, 7):
        g.add_as(asn)
    g.assign_prefix(1, P)
    g.add_link(1, 2, Relationship.PROVIDER)   # B provides O
    g.add_link(2, 3, Relationship.PROVIDER)   # C provides B
    g.add_link(2, 6, Relationship.PROVIDER)   # A provides B
    g.add_link(3, 4, Relationship.PROVIDER)   # D provides C
    g.add_link(5, 4, Relationship.PROVIDER)   # D provides E
    g.add_link(5, 6, Relationship.PROVIDER)   # A provides E
    return g


class TestPropagation:
    def test_route_reaches_everyone_on_line(self):
        engine = BGPEngine(line_graph())
        engine.originate(1, P)
        engine.run()
        assert engine.as_path(2, P) == (1,)
        assert engine.as_path(3, P) == (2, 1)
        assert engine.as_path(4, P) == (3, 2, 1)

    def test_origin_loc_rib_has_own_prefix(self):
        engine = BGPEngine(line_graph())
        engine.originate(1, P)
        engine.run()
        assert engine.best_route(1, P).neighbor == 1

    def test_withdrawal_propagates(self):
        engine = BGPEngine(line_graph())
        engine.originate(1, P)
        engine.run()
        engine.withdraw_origin(1, P)
        engine.run()
        for asn in (2, 3, 4):
            assert engine.as_path(asn, P) is None

    def test_prepending_lengthens_path(self):
        engine = BGPEngine(line_graph())
        engine.originate(1, P, path=make_path(1, prepend=3))
        engine.run()
        assert engine.as_path(4, P) == (3, 2, 1, 1, 1)


class TestValleyFreeExport:
    def test_peer_route_not_exported_to_other_peer_or_provider(self):
        # O(1) customer of B(2); B peers with C(3); C peers with D(4).
        g = ASGraph()
        for asn in (1, 2, 3, 4):
            g.add_as(asn)
        g.assign_prefix(1, P)
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(2, 3, Relationship.PEER)
        g.add_link(3, 4, Relationship.PEER)
        engine = BGPEngine(g)
        engine.originate(1, P)
        engine.run()
        # C hears the customer route of B over the peering link...
        assert engine.as_path(3, P) == (2, 1)
        # ...but must not pass it to its own peer D (valley-free).
        assert engine.as_path(4, P) is None

    def test_customer_routes_preferred_over_peer_and_provider(self):
        # Target AS 4 hears P from a customer chain and a peer; customer wins.
        g = ASGraph()
        for asn in (1, 2, 3, 4):
            g.add_as(asn)
        g.assign_prefix(1, P)
        g.add_link(1, 2, Relationship.PROVIDER)   # 2 provides 1
        g.add_link(1, 3, Relationship.PROVIDER)   # 3 provides 1
        g.add_link(2, 4, Relationship.PROVIDER)   # 4 provides 2 (customer route)
        g.add_link(3, 4, Relationship.PEER)       # 4 peers with 3
        engine = BGPEngine(g)
        engine.originate(1, P)
        engine.run()
        best = engine.best_route(4, P)
        assert best.neighbor == 2  # via the customer, despite equal length


class TestPoisoning:
    def test_poisoned_as_drops_route_and_others_avoid_it(self):
        engine = BGPEngine(diamond_graph())
        engine.originate(1, P, path=make_path(1, prepend=3))
        engine.run()
        # Baseline: E(5) prefers the shorter path via A(6).
        assert engine.as_path(5, P) == (6, 2, 1, 1, 1)
        # Poison A: announce O-A-O (same length as the O-O-O baseline).
        engine.originate(1, P, path=make_path(1, prepend=3, poison=[6]))
        engine.run()
        # A rejects the poisoned path entirely.
        assert engine.as_path(6, P) is None
        # E reroutes through D-C-B, avoiding A on the traversed hops (the
        # poison tail O-A-O still mentions A, but no packet visits it).
        from repro.bgp.messages import traversed_ases

        path = engine.as_path(5, P)
        assert path is not None
        assert 6 not in traversed_ases(path, 1)
        assert path[:3] == (4, 3, 2)

    def test_captive_stub_loses_route_without_sentinel(self):
        # F(7) is single-homed behind A(6): poisoning A cuts F off.
        g = diamond_graph()
        g.add_as(7)
        g.add_link(7, 6, Relationship.PROVIDER)
        engine = BGPEngine(g)
        engine.originate(1, P, path=make_path(1, prepend=3))
        engine.run()
        assert engine.as_path(7, P) is not None
        engine.originate(1, P, path=make_path(1, prepend=3, poison=[6]))
        engine.run()
        assert engine.as_path(7, P) is None

    def test_sentinel_prefix_survives_poisoning(self):
        g = diamond_graph()
        g.add_as(7)
        g.add_link(7, 6, Relationship.PROVIDER)
        sentinel = Prefix("10.100.0.0/15").supernet(15)
        engine = BGPEngine(g)
        engine.originate(1, P, path=make_path(1, prepend=3))
        engine.originate(1, sentinel, path=make_path(1, prepend=3))
        engine.run()
        engine.originate(1, P, path=make_path(1, prepend=3, poison=[6]))
        engine.run()
        # The captive stub keeps the covering sentinel route.
        assert engine.as_path(7, P) is None
        assert engine.as_path(7, sentinel) is not None

    def test_selective_poisoning_shifts_egress(self):
        # Origin 1 has two providers 2 and 3; both reach A(4) disjointly.
        g = ASGraph()
        for asn in (1, 2, 3, 4, 5):
            g.add_as(asn)
        g.assign_prefix(1, P)
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(1, 3, Relationship.PROVIDER)
        g.add_link(2, 4, Relationship.PROVIDER)  # A(4) provides 2
        g.add_link(3, 4, Relationship.PROVIDER)  # A(4) provides 3
        g.add_link(4, 5, Relationship.PROVIDER)  # 5 provides A
        engine = BGPEngine(g)
        engine.originate(1, P, path=make_path(1, prepend=3))
        engine.run()
        baseline = engine.best_route(4, P)
        assert baseline.neighbor in (2, 3)
        poisoned_provider = baseline.neighbor
        clean_provider = 3 if poisoned_provider == 2 else 2
        # Poison A only via the provider it currently uses.
        per_neighbor = {
            poisoned_provider: make_path(1, prepend=3, poison=[4]),
            clean_provider: make_path(1, prepend=3),
        }
        engine.originate(
            1, P, path=make_path(1, prepend=3), per_neighbor=per_neighbor
        )
        engine.run()
        after = engine.best_route(4, P)
        # A keeps a route (not cut off) but now egresses the other way.
        assert after is not None
        assert after.neighbor == clean_provider


class TestLoopPreventionQuirks:
    def test_disabled_loop_detection_ignores_poison(self):
        from repro.bgp.policy import SpeakerConfig

        engine = BGPEngine(
            diamond_graph(),
            speaker_configs={6: SpeakerConfig(loop_max_occurrences=0)},
        )
        engine.originate(1, P, path=make_path(1, prepend=3, poison=[6]))
        engine.run()
        # AS6 accepts the path despite containing itself.
        assert engine.as_path(6, P) is not None

    def test_max_occurrences_two_needs_double_poison(self):
        from repro.bgp.policy import SpeakerConfig

        engine = BGPEngine(
            diamond_graph(),
            speaker_configs={6: SpeakerConfig(loop_max_occurrences=2)},
        )
        engine.originate(1, P, path=make_path(1, prepend=3, poison=[6]))
        engine.run()
        assert engine.as_path(6, P) is not None  # single poison ineffective
        engine.originate(1, P, path=make_path(1, prepend=3, poison=[6, 6]))
        engine.run()
        assert engine.as_path(6, P) is None  # double poison works


class TestInstrumentation:
    def test_updates_counted(self):
        engine = BGPEngine(line_graph())
        engine.originate(1, P)
        engine.run()
        assert sum(engine.updates_sent.values()) >= 3

    def test_change_log_records_event_times(self):
        engine = BGPEngine(line_graph())
        recorded = []
        engine.on_change.append(recorded.append)
        engine.originate(1, P)
        engine.run()
        times = [c.time for c in recorded]
        assert times == sorted(times)
        assert {c.asn for c in recorded} == {1, 2, 3, 4}
        assert engine.changes == len(recorded)

    def test_ases_using(self):
        engine = BGPEngine(diamond_graph())
        engine.originate(1, P, path=make_path(1, prepend=3))
        engine.run()
        assert 5 in engine.ases_using(P, 6)  # E routes via A
