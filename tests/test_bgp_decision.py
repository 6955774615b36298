"""The event engine's per-update shortcuts against their slow oracles.

* the incremental decision (:meth:`RouteTable.decide`) against a model
  that runs :func:`best_route` over the unsuppressed rows every time;
* the once-per-decision-change export against ``desired_export`` asked
  neighbor by neighbor;
* the route / announcement / withdrawal value types.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bgp.rib as rib
from repro.bgp.engine import BGPEngine
from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.policy import NO_EXPORT_TO_PEERS, SpeakerConfig
from repro.bgp.rib import Route, best_route, preference_key
from repro.bgp.speaker import BGPSpeaker
from repro.errors import BGPError
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship, local_pref_for

P = Prefix("10.77.0.0/16")
ME = 50
#: ASNs paths and avoid hints are drawn from (small, so hints hit paths).
POOL = (60, 61, 62, 63)
RELS = (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER)

announce = st.tuples(
    st.just("announce"),
    st.integers(0, 5),                         # neighbor index
    st.lists(st.sampled_from(POOL + (ME,)), max_size=3),   # path tail
    st.integers(0, 2),                         # MED
    st.sets(st.sampled_from(POOL), max_size=2),            # avoid hint
)
withdraw = st.tuples(st.just("withdraw"), st.integers(0, 5))
release = st.tuples(st.just("release"), st.integers(0, 5))
wait = st.tuples(st.just("wait"), st.sampled_from((5.0, 2000.0, 20000.0)))


class DecisionModel:
    """What every decision must equal, the slow way."""

    def __init__(self, speaker):
        self.speaker = speaker
        self.avoid_seen = False

    def best(self):
        return best_route([
            route for route in self.speaker.table.candidates(P)
            if not self.speaker.is_suppressed(P, route.neighbor)
        ])

    def rescan_needed(self, old, neighbor, route, had_row):
        """The specified rescans: the decision is not a plain minimum,
        or the best's own row worsens or leaves."""
        if route is None and not had_row:
            return False
        if route is not None and route.avoid:
            self.avoid_seen = True
        if self.speaker.table.suppressed or self.avoid_seen:
            return True
        if old is None or old.neighbor != neighbor:
            return False
        return route is None or preference_key(route) > preference_key(old)


@st.composite
def scenarios(draw):
    count = draw(st.integers(2, 6))
    neighbors = {
        10 + i: draw(st.sampled_from(RELS)) for i in range(count)
    }
    overrides = draw(st.dictionaries(
        st.sampled_from(sorted(neighbors)), st.sampled_from((85, 95, 150)),
        max_size=2,
    ))
    damping = draw(st.booleans())
    steps = draw(st.lists(
        st.one_of(announce, announce, withdraw, release, wait),
        min_size=1, max_size=30,
    ))
    return neighbors, overrides, damping, steps


class TestIncrementalDecision:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_equals_a_full_decision_every_time(self, scenario):
        neighbors, overrides, damping, steps = scenario
        speaker = BGPSpeaker(ME, neighbors, SpeakerConfig(
            local_pref_overrides=overrides, flap_damping=damping,
        ))
        model = DecisionModel(speaker)
        order = sorted(neighbors)
        scans = []
        counted = rib.best_route

        def counting(candidates):
            scans.append(len(candidates))
            return counted(candidates)

        rib.best_route = counting
        try:
            now = 0.0
            for step in steps:
                if step[0] == "wait":
                    now += step[1]
                    continue
                neighbor = order[step[1] % len(order)]
                old = model.best()
                assert speaker.best(P) == old
                had_row = speaker.table.route_from(P, neighbor) is not None
                del scans[:]
                if step[0] == "release":
                    outcome = speaker.release_damped(P, neighbor, now)
                    allowed = 1
                else:
                    route = None
                    if step[0] == "announce":
                        path = (neighbor, *step[2], 99)
                        update = Announcement(
                            P, path, step[3], avoid=frozenset(step[4])
                        )
                        if ME not in path:  # else: filtered as a loop
                            route = Route(
                                P, path, neighbor, neighbors[neighbor],
                                overrides.get(
                                    neighbor,
                                    local_pref_for(neighbors[neighbor]),
                                ),
                                step[3], avoid=frozenset(step[4]),
                            )
                    else:
                        update = Withdrawal(P, neighbor)
                    outcome = speaker.process(update, now)
                    assert speaker.table.route_from(P, neighbor) == route
                    allowed = model.rescan_needed(
                        old, neighbor, route, had_row
                    )
                new = model.best()
                assert outcome == (P, old, new, old != new)
                assert speaker.best(P) == new
                assert len(scans) <= allowed
        finally:
            rib.best_route = counted


@st.composite
def exporters(draw):
    count = draw(st.integers(2, 6))
    relationships = [draw(st.sampled_from(RELS)) for _ in range(count)]
    config = SpeakerConfig(
        propagates_communities=draw(st.booleans()),
        honours_communities=draw(st.booleans()),
    )
    communities = frozenset(draw(st.sets(
        st.sampled_from(((ME, NO_EXPORT_TO_PEERS), (ME, 7), (60, 7))),
    )))
    avoid = frozenset(draw(st.sets(st.sampled_from(POOL), max_size=1)))
    source = draw(st.integers(0, count))  # == count: originate it here
    suppressed = draw(st.sets(st.integers(0, count - 1), max_size=2))
    return relationships, config, communities, avoid, source, suppressed


class TestSharedExport:
    @settings(max_examples=200, deadline=None)
    @given(exporters())
    def test_batched_flush_tells_each_neighbor_its_desired_export(
        self, exporter
    ):
        rels, config, communities, avoid, source, suppressed = exporter
        graph = ASGraph()
        graph.add_as(ME)
        for index, rel in enumerate(rels):
            graph.add_as(10 + index)
            graph.add_link(ME, 10 + index, rel)
        engine = BGPEngine(graph, speaker_configs={ME: config})
        speaker = engine.speakers[ME]
        if source == len(rels):
            engine.originate(
                ME, P, communities=communities, avoid=avoid,
                per_neighbor={10 + i: None for i in suppressed},
                path=(ME,),
            )
        else:
            update = Announcement(
                P, (10 + source, 99), 0, communities, avoid
            )
            changed = speaker.process(update)[3]
            assert changed
            engine._flush_all_sessions(speaker, P, speaker.best(P))
        for neighbor, session in speaker.sessions.items():
            assert session.sent.get(P) == speaker.desired_export(
                P, neighbor
            )
        # One announcement object serves every admitted transit neighbor.
        told = [
            session.sent[P] for session in speaker.sessions.values()
            if session.sent.get(P) is not None
        ]
        if source < len(rels) and told:
            assert all(item is told[0] for item in told)


FS = frozenset({(1, 2)})
VALUES = [
    Route(P, (1, 2), 1, Relationship.PEER, 90, 3, FS, frozenset({9})),
    Announcement(P, (1, 2), 3, FS, frozenset({9})),
    Withdrawal(P, 1),
]


class TestValueTypes:
    @pytest.mark.parametrize("value", VALUES)
    def test_immutable_hashable_picklable(self, value):
        with pytest.raises(AttributeError):
            value.prefix = Prefix("10.0.0.0/8")
        with pytest.raises(AttributeError):
            value.extra = 1
        assert {value: 1}[value] == 1
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(value, protocol))
            assert type(clone) is type(value) and clone == value

    def test_distinct_types_never_compare_equal(self):
        for left in VALUES:
            for right in VALUES:
                assert (left == right) == (left is right)
        assert len(set(VALUES)) == 3

    def test_keyword_and_positional_construction_agree(self):
        route, announcement, withdrawal = VALUES
        assert route == Route(
            prefix=P, as_path=(1, 2), neighbor=1,
            relationship=Relationship.PEER, local_pref=90, med=3,
            communities=FS, avoid=frozenset({9}),
        )
        assert announcement == Announcement(
            prefix=P, as_path=(1, 2), med=3, communities=FS,
            avoid=frozenset({9}),
        )
        assert withdrawal == Withdrawal(prefix=P, sender=1)
        plain = Announcement(P, (4, 5))
        assert (plain.med, plain.communities, plain.avoid) == (
            0, frozenset(), frozenset()
        )
        assert (plain.sender, plain.origin) == (4, 5)
        assert Route(P, (4, 5), 4, Relationship.PEER, 90).origin == 5

    def test_empty_path_is_a_bgp_error(self):
        with pytest.raises(BGPError):
            Announcement(prefix=P, as_path=())
        with pytest.raises(BGPError):
            Announcement(P, ())
