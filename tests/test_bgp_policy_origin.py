"""Unit tests for policy quirks, communities, and the origin controller."""

import pytest

from repro.bgp.engine import BGPEngine
from repro.bgp.messages import Announcement, make_path
from repro.bgp.origin import AnnouncementSpec, OriginController
from repro.bgp.policy import NO_EXPORT_TO_PEERS, PolicyEngine, SpeakerConfig
from repro.bgp.speaker import BGPSpeaker
from repro.errors import BGPError, ControlError
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship

P = Prefix("10.50.0.0/16")


def star_graph():
    """Origin 1 with providers 2 and 3; 4 provides both; 5 peers with 4."""
    g = ASGraph()
    for asn in (1, 2, 3, 4, 5):
        g.add_as(asn)
    g.assign_prefix(1, P)
    g.add_link(1, 2, Relationship.PROVIDER)
    g.add_link(1, 3, Relationship.PROVIDER)
    g.add_link(2, 4, Relationship.PROVIDER)
    g.add_link(3, 4, Relationship.PROVIDER)
    g.add_link(4, 5, Relationship.PEER)
    return g


def imported(config, as_path, relationship, peers=()):
    """The route AS7 installs for *as_path* heard over a *relationship*
    session (None: filtered), with *peers* as its settlement-free
    peers."""
    neighbors = {peer: Relationship.PEER for peer in peers}
    neighbors[as_path[0]] = relationship
    speaker = BGPSpeaker(7, neighbors, config)
    speaker.process(Announcement(prefix=P, as_path=as_path))
    return speaker.table.route_from(P, as_path[0])


class TestPolicyEngine:
    def test_loop_detection_default(self):
        assert imported(None, (2, 7, 1), Relationship.CUSTOMER) is None

    def test_loop_detection_disabled(self):
        config = SpeakerConfig(loop_max_occurrences=0)
        assert imported(config, (2, 7, 1), Relationship.CUSTOMER)

    def test_cogent_style_filter(self):
        config = SpeakerConfig(reject_peer_paths_from_customers=True)
        customer = Relationship.CUSTOMER
        assert imported(config, (2, 99, 1), customer, peers={99}) is None
        assert imported(config, (2, 3, 1), customer, peers={99})
        # The filter only applies to customer sessions.
        assert imported(
            config, (2, 99, 1), Relationship.PROVIDER, peers={99}
        )

    def test_no_export_to_peers_community(self):
        policy = PolicyEngine(
            7,
            {8: Relationship.PEER, 9: Relationship.CUSTOMER},
            SpeakerConfig(honours_communities=True),
        )
        tagged = frozenset({(7, NO_EXPORT_TO_PEERS)})
        assert policy.export_targets(Relationship.CUSTOMER, tagged) == {9}
        assert policy.export_targets(Relationship.CUSTOMER) == {8, 9}

    def test_community_ignored_when_not_honoured(self):
        policy = PolicyEngine(7, {8: Relationship.PEER})
        tagged = frozenset({(7, NO_EXPORT_TO_PEERS)})
        assert policy.export_targets(Relationship.CUSTOMER, tagged) == {8}

    def test_community_stripping(self):
        policy = PolicyEngine(
            7, {}, SpeakerConfig(propagates_communities=False)
        )
        communities = frozenset({(7, 1), (8, 2)})
        assert policy.outbound_communities(communities) == frozenset(
            {(7, 1)}
        )

    def test_local_pref_override(self):
        config = SpeakerConfig(local_pref_overrides={9: 250})
        provider = Relationship.PROVIDER
        assert imported(config, (9, 1), provider).local_pref == 250
        assert imported(config, (8, 1), provider).local_pref == 80


class TestAnnouncementSpec:
    def test_baseline_path(self):
        spec = AnnouncementSpec(prefix=P, prepend=3)
        assert spec.path_for(1, 2) == (1, 1, 1)

    def test_poison_keeps_baseline_length(self):
        spec = AnnouncementSpec(prefix=P, prepend=3, poisoned=(9,))
        assert spec.path_for(1, 2) == (1, 9, 1)
        assert len(spec.path_for(1, 2)) == 3

    def test_large_poison_list_grows_path(self):
        spec = AnnouncementSpec(
            prefix=P, prepend=2, poisoned=(9, 8, 7)
        )
        path = spec.path_for(1, 2)
        assert path[0] == 1 and path[-1] == 1
        assert set((9, 8, 7)).issubset(path)

    def test_selective_overrides_global(self):
        spec = AnnouncementSpec(
            prefix=P, prepend=3, poisoned=(), selective={2: (9,)}
        )
        assert 9 in spec.path_for(1, 2)
        assert 9 not in spec.path_for(1, 3)

    def test_suppressed_provider_gets_nothing(self):
        spec = AnnouncementSpec(
            prefix=P, prepend=3, suppressed_providers=(2,)
        )
        assert spec.path_for(1, 2) is None
        assert spec.path_for(1, 3) is not None


class TestOriginController:
    @pytest.fixture()
    def world(self):
        graph = star_graph()
        engine = BGPEngine(graph)
        controller = OriginController(
            engine, 1, P, sentinel_prefix=Prefix("10.50.0.0/15").supernet(15)
        )
        controller.announce_baseline()
        engine.run()
        return engine, controller

    def test_baseline_reaches_everyone(self, world):
        engine, controller = world
        for asn in (2, 3, 4, 5):
            assert engine.as_path(asn, P) is not None

    def test_poison_and_unpoison(self, world):
        engine, controller = world
        controller.poison([4])
        engine.run()
        assert engine.as_path(4, P) is None
        assert controller.currently_poisoned == (4,)
        controller.unpoison()
        engine.run()
        assert engine.as_path(4, P) is not None
        assert controller.currently_poisoned == ()

    def test_poison_origin_rejected(self, world):
        _engine, controller = world
        with pytest.raises(ControlError):
            controller.poison([1])

    def test_selective_poison_requires_real_provider(self, world):
        _engine, controller = world
        with pytest.raises(ControlError):
            controller.poison_selectively(4, via_providers=[99])

    def test_announcement_log_records_actions(self, world):
        _engine, controller = world
        controller.poison([4])
        controller.unpoison()
        actions = [entry[1] for entry in controller.log]
        assert any("poison" in a for a in actions)
        assert actions[-1] == "unpoison"

    def test_sentinel_survives_poison(self, world):
        engine, controller = world
        controller.poison([4])
        engine.run()
        assert engine.as_path(4, controller.sentinel_prefix) is not None

    def test_sentinel_must_not_be_the_production_prefix(self):
        """One prefix originated twice would carry every poison on the
        channel that is meant to stay clean for repair detection; the
        covering and the disjoint sentinels of §7.2 are both fine."""
        engine = BGPEngine(star_graph())
        with pytest.raises(ControlError, match="equals production"):
            OriginController(engine, 1, P, sentinel_prefix=P)
        for sentinel in (P.supernet(15), Prefix("10.99.0.0/16"), None):
            controller = OriginController(
                engine, 1, P, sentinel_prefix=sentinel
            )
            assert controller.sentinel_prefix == sentinel


class TestMakePathValidation:
    def test_zero_prepend_rejected(self):
        with pytest.raises(BGPError):
            make_path(1, prepend=0)

    def test_self_poison_rejected(self):
        with pytest.raises(BGPError):
            make_path(1, poison=[1])
