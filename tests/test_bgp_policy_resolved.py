"""A speaker's resolved policy against the per-message oracle.

``PolicyEngine`` resolves a config once per speaker; ``process`` and the
export side read the resolved tables.  ``tests/policy_oracle.py`` holds
the decisions as they were re-derived per message (the import filter,
the local-pref, the export rule): for every import field of
``SpeakerConfig`` and both community flags, alone and in pairs, the two
must agree on drawn announcements and on every pair of relationships.
Then ``reconfigure``: the one way policy changes on a built engine, and
what must not go stale when it does.
"""

import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.delta import DeltaChange, delta_unsupported_reason
from repro.bgp.engine import BGPEngine
from repro.bgp.messages import Announcement, make_path
from repro.bgp.policy import NO_EXPORT_TO_PEERS, SpeakerConfig
from repro.bgp.solver import Origination, Refusal, solve
from repro.bgp.speaker import BGPSpeaker
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship
from tests import policy_oracle

P = Prefix("10.66.0.0/16")
ME = 50
NEIGHBORS = {
    10: Relationship.CUSTOMER,
    11: Relationship.CUSTOMER,
    20: Relationship.PEER,
    21: Relationship.PEER,
    30: Relationship.PROVIDER,
    31: Relationship.PROVIDER,
    40: Relationship.SIBLING,
}
PEERS = {20, 21}
#: What path tails are drawn from: the local ASN (loops), neighbours
#: (peers for the Cogent filter), a protected network, a private and a
#: reserved ASN, and two that trip nothing.
POOL = (ME, 10, 20, 21, 60, 64512, 23456, 61, 62)

#: One non-default value per field the import or export side reads.
FIELDS = {
    "loop_max_occurrences": 2,
    "reject_peer_paths_from_customers": True,
    "local_pref_overrides": {10: 250, 20: 85, 30: None, 99: 70},
    "as_path_max_length": 3,
    "filter_poisoned_paths": True,
    "reject_reserved_asns": True,
    "peerlock_protected": (60, 21, 10),  # 10: a first hop is exempt
    "honours_communities": True,
    "propagates_communities": False,
}
#: The default, no loop check, each field alone, each pair of fields.
CONFIGS = [
    SpeakerConfig(**changes)
    for changes in (
        [{}, {"loop_max_occurrences": 0}]
        + [{name: value} for name, value in FIELDS.items()]
        + [dict(two) for two in itertools.combinations(FIELDS.items(), 2)]
    )
]
COMMUNITIES = st.frozensets(
    st.sampled_from(((ME, NO_EXPORT_TO_PEERS), (ME, 7), (60, 7)))
)


class TestResolvedEqualsPerMessage:
    """Each drawn case against the whole table of configs."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(sorted(NEIGHBORS)),
        st.lists(st.sampled_from(POOL), max_size=4),
        st.integers(0, 2),
        COMMUNITIES,
    )
    def test_import(self, sender, tail, med, communities):
        update = Announcement(P, (sender, *tail), med, communities)
        relationship = NEIGHBORS[sender]
        for config in CONFIGS:
            speaker = BGPSpeaker(ME, NEIGHBORS, config)
            speaker.process(update)
            installed = speaker.table.route_from(P, sender)
            assert (installed is not None) == policy_oracle.accepts(
                ME, config, update, relationship, PEERS
            ), config
            if installed is not None:
                assert installed == (
                    P, update.as_path, sender, relationship,
                    policy_oracle.local_pref(config, sender, relationship),
                    med, communities, frozenset(),
                ), config

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(NEIGHBORS)), COMMUNITIES)
    def test_export_to_every_relationship(self, supplier, communities):
        # A path no import field above rejects.
        update = Announcement(P, (supplier, 61), 0, communities)
        for config in CONFIGS:
            speaker = BGPSpeaker(ME, NEIGHBORS, config)
            speaker.process(update)
            best = speaker.best(P)
            assert best is not None and best.neighbor == supplier
            outbound = (
                communities if config.propagates_communities
                else frozenset(c for c in communities if c[0] == ME)
            )
            for neighbor, relationship in NEIGHBORS.items():
                told = speaker.desired_export(P, neighbor)
                assert (told is not None) == (
                    neighbor != supplier
                    and policy_oracle.may_export_to(
                        ME, config, NEIGHBORS[supplier], relationship,
                        communities,
                    )
                ), (config, neighbor)
                if told is not None:
                    assert told == (
                        P, (ME, supplier, 61), 0, outbound, frozenset()
                    )


class TestResolution:
    def test_default_config_resolves_to_no_extra_checks(self):
        policy = BGPSpeaker(ME, NEIGHBORS).policy
        assert policy.loop_limit == 1 and policy.no_export_tag is None
        assert sorted(policy.imports) == sorted(NEIGHBORS)
        for neighbor, (relationship, local_pref, checks) in (
            policy.imports.items()
        ):
            assert relationship is NEIGHBORS[neighbor]
            assert local_pref == policy_oracle.local_pref(
                SpeakerConfig(), neighbor, relationship
            )
            assert checks == ()

    def test_customer_only_checks_sit_on_customer_sessions(self):
        policy = BGPSpeaker(ME, NEIGHBORS, SpeakerConfig(
            peerlock_protected=(60,), filter_poisoned_paths=True,
        )).policy
        for neighbor, (relationship, _, checks) in policy.imports.items():
            assert len(checks) == (
                2 if relationship is Relationship.CUSTOMER else 1
            )

    def test_a_config_cannot_be_assigned_to(self):
        config = SpeakerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.filter_poisoned_paths = True


def _diamond():
    """Origin 1 under providers 2 and 3, both under 4."""
    graph = ASGraph()
    for asn in (1, 2, 3, 4):
        graph.add_as(asn)
    graph.add_link(1, 2, Relationship.PROVIDER)
    graph.add_link(1, 3, Relationship.PROVIDER)
    graph.add_link(2, 4, Relationship.PROVIDER)
    graph.add_link(3, 4, Relationship.PROVIDER)
    return graph


class TestReconfigure:
    def test_gate_verdict_and_import_filter_follow_a_reconfigure(self):
        engine = BGPEngine(_diamond())
        engine.warm_start(solve(engine, [Origination.make(1, P)]))
        poisoned = make_path(1, prepend=3, poison=[99])
        poison = DeltaChange.originate(1, P, path=poisoned)
        assert delta_unsupported_reason(engine, [poison]) is None
        assert engine.as_path(4, P) == (2, 1)

        engine.speakers[2].reconfigure(filter_poisoned_paths=True)
        assert engine.speakers[2].policy.config.filter_poisoned_paths
        assert delta_unsupported_reason(engine, [poison]) == Refusal(
            "filter_poisoned_paths", "AS2: filter_poisoned_paths"
        )
        engine.originate(1, P, path=poisoned)
        engine.run()
        assert engine.as_path(2, P) is None  # filtered at AS2 ...
        assert engine.as_path(3, P) == poisoned
        assert engine.as_path(4, P) == (3,) + poisoned  # ... so 4 moves

        engine.speakers[2].reconfigure(filter_poisoned_paths=False)
        engine.reset_session(1, 2)
        engine.run()
        assert engine.as_path(2, P) == poisoned

    def test_a_restored_snapshot_still_shares_the_verdict_cell(self):
        engine = BGPEngine(_diamond(), speaker_configs={
            3: SpeakerConfig(as_path_max_length=9, peerlock_protected=(7,)),
        })
        restored = pickle.loads(pickle.dumps(engine))
        assert restored.speakers[3].policy.imports.keys() == {1, 4}
        restored.speakers[3].reconfigure(
            as_path_max_length=0, peerlock_protected=()
        )
        restored.warm_start(solve(restored, [Origination.make(1, P)]))
        change = DeltaChange.withdraw(1, P)
        assert delta_unsupported_reason(restored, [change]) is None
        restored.speakers[4].reconfigure(reject_reserved_asns=True)
        assert delta_unsupported_reason(restored, [change]) == Refusal(
            "reject_reserved_asns", "AS4: reject_reserved_asns"
        )

    def test_keeps_the_other_fields_and_resolves_again(self):
        speaker = BGPSpeaker(ME, NEIGHBORS, SpeakerConfig(
            as_path_max_length=3, local_pref_overrides={10: 250},
        ))
        before = speaker.policy.config
        speaker.reconfigure(honours_communities=True, as_path_max_length=0)
        config = speaker.policy.config
        assert config is not before and not before.honours_communities
        assert config == dataclasses.replace(
            before, honours_communities=True, as_path_max_length=0
        )
        assert speaker.policy.imports[10] == (
            Relationship.CUSTOMER, 250, ()
        )
        assert speaker.policy.no_export_tag == (ME, NO_EXPORT_TO_PEERS)
        with pytest.raises(TypeError):
            speaker.reconfigure(no_such_field=1)
