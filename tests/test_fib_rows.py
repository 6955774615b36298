"""The row is the unit of FIB change: patched == rebuilt == oracle.

``BGPEngine.consume_fib_dirty`` names the rows that moved (asn -> the
prefixes whose next hop changed) and ``build_fibs(engine, previous,
dirty)`` re-reads exactly those: a dirty AS gets a copied map with the
named rows read again, and — if its table had been compiled — a copied
column with the slots under those rows re-read.  Nothing here trusts
the patched map to say what is right: after every refresh the snapshot
must equal a full rebuild from the Loc-RIBs, every compiled column must
answer as a trie of the *full* build's map does at every boundary, and
``origin_for`` as a linear scan of the full build's origins.  The
stateful test drives that through both routing paths (the delta splice
and the event engine), axis growth, MOAS, whole-prefix withdrawals,
several ``run()``s per look and next hops that flap back, and counts
that no refresh compiles a column whole; the ladder test pins the point
of it all — a repair step compiles nothing, and a never-seen prefix
re-cuts each compiled column onto one new axis.
"""

import random

import pytest

from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.messages import make_path
from repro.bgp.origin import OriginController
from repro.bgp.policy import SpeakerConfig
from repro.bgp.solver import Origination, solve
from repro.control.lifeguard import LifeguardConfig
from repro.dataplane.fib import DEFAULT_PREFIX, LOCAL, build_fibs
from repro.net.addr import Prefix
from repro.net.lpm import FlatLPM, PrefixAxis
from repro.topology.as_graph import ASGraph
from repro.topology.generate import (
    generate_internet,
    generate_multihomed_origin,
)
from repro.topology.relationships import Relationship
from repro.workloads.scenarios import SCALES, build_deployment
from tests.test_traffic_lpm import _assert_matches_oracle, _linear_origin

SENTINEL = Prefix("198.18.0.0/15")
PRODUCTION = Prefix("198.18.0.0/16")
BRAND_NEW = Prefix("203.0.113.0/24")


def _analytic_world(scale, seed):
    """(graph, engine, origin): a solver-converged Internet whose
    origin has announced nothing yet and a quarter of whose stubs
    default-route through a provider."""
    rng = random.Random(seed)
    graph = generate_internet(SCALES[scale], seed=seed)
    stubs = sorted(n.asn for n in graph.nodes() if n.tier == 3)
    origin = generate_multihomed_origin(graph, num_providers=2, seed=seed)
    engine = BGPEngine(
        graph,
        EngineConfig(seed=seed),
        {
            asn: SpeakerConfig(default_route_via_provider=True)
            for asn in rng.sample(stubs, max(2, len(stubs) // 4))
        },
    )
    engine.warm_start(solve(engine, [
        Origination.make(node.asn, prefix)
        for node in graph.nodes()
        if node.asn != origin
        for prefix in node.prefixes
    ]))
    return graph, engine, origin


@pytest.fixture()
def counted(monkeypatch):
    """Counts of full-column compiles, axis constructions, columns
    re-cut onto a regrown axis and fresh-slot lists found for one."""
    counts = {"compile": 0, "axis": 0, "recut": 0, "fresh": 0}
    compile_ = FlatLPM.compile.__func__
    init = PrefixAxis.__init__
    recut = FlatLPM.recut
    fresh_slots = PrefixAxis.fresh_slots

    def counting_compile(cls, fib, axis=None):
        counts["compile"] += 1
        return compile_(cls, fib, axis)

    def counting_init(self, prefixes):
        counts["axis"] += 1
        init(self, prefixes)

    def counting_recut(self, axis, fresh):
        counts["recut"] += 1
        return recut(self, axis, fresh)

    def counting_fresh_slots(self, older):
        counts["fresh"] += 1
        return fresh_slots(self, older)

    monkeypatch.setattr(FlatLPM, "compile", classmethod(counting_compile))
    monkeypatch.setattr(PrefixAxis, "__init__", counting_init)
    monkeypatch.setattr(FlatLPM, "recut", counting_recut)
    monkeypatch.setattr(PrefixAxis, "fresh_slots", counting_fresh_slots)
    return counts


class TestPatchedEqualsRebuiltEqualsOracle:
    @pytest.mark.parametrize("compile_up_front", [True, False],
                             ids=["compiled", "lazy"])
    @pytest.mark.parametrize("scale,seed", [("tiny", 0), ("tiny", 2),
                                            ("small", 3)])
    def test_every_refresh(self, scale, seed, compile_up_front, counted):
        graph, engine, origin = _analytic_world(scale, seed)
        rng = random.Random(9000 + seed)
        controller = OriginController(
            engine, origin, PRODUCTION, sentinel_prefix=SENTINEL,
            delta_mode="auto",
        )
        stubs = sorted(
            n.asn for n in graph.nodes()
            if n.tier == 3 and n.prefixes and n.asn != origin
        )
        transit = sorted(
            set(graph.transit_ases()) - set(graph.providers(origin))
        )
        links = sorted(
            (a, b) for a in graph.ases() for b in graph.neighbors(a) if a < b
        )
        victim = graph.node(stubs[0]).prefixes[0]
        toggles = {
            # a stub takes a more-specific of another's prefix
            "specific": (stubs[1], next(iter(victim.subnets(
                victim.length + 2)))),
            # a prefix nobody ever announced
            "brand-new": (stubs[2], BRAND_NEW),
            # a second origin for a prefix that has one (MOAS), from
            # either side of the first origin's ASN
            "moas-above": (stubs[-1], victim),
            "moas-below": (stubs[0], graph.node(stubs[-1]).prefixes[0]),
            # a stub's only prefix, withdrawn whole and announced again
            "withdrawn": (stubs[3], graph.node(stubs[3]).prefixes[0]),
            # a learned 0.0.0.0/0 beside the static default
            "default": (transit[0], DEFAULT_PREFIX),
        }
        announced = {name: name == "withdrawn" for name in toggles}

        def repair():
            """One announcement of the origin's repair ladder."""
            move = rng.choice(["poison", "multi", "prepend", "unpoison"])
            if move == "unpoison" and "repair" not in (
                controller.active_poisons()
            ):
                move = "poison"
            if move == "poison":
                controller.poison([rng.choice(transit)], key="repair")
            elif move == "multi":
                controller.poison(rng.sample(transit, 2), key="repair")
            elif move == "prepend":
                controller.steer_prepend(
                    [rng.choice(controller.providers)], key="repair"
                )
            else:
                controller.unpoison("repair")

        def toggle(name):
            asn, prefix = toggles[name]
            announced[name] = not announced[name]
            if announced[name]:
                engine.originate(asn, prefix)
            else:
                engine.withdraw_origin(asn, prefix)

        def flap():
            """A next hop that leaves and comes back within one look."""
            controller.poison([rng.choice(transit)], key="flap")
            engine.run()
            controller.unpoison("flap")

        def event_repair():
            """The same ladder through the event engine."""
            controller.delta_mode = "off"
            repair()
            controller.delta_mode = "auto"

        moves = {
            "repair": repair,
            "flap": flap,
            "event-repair": event_repair,
            "reset": lambda: engine.reset_session(*rng.choice(links)),
            **{name: lambda n=name: toggle(n) for name in toggles},
        }
        seen = dict.fromkeys(list(moves) + ["double"], 0)

        def step(index):
            # The splice needs an analytic engine and every event-path
            # move ends that, so the ladder gets the first steps alone.
            name = (
                rng.choice(["repair", "repair", "flap", "double"])
                if index < 12
                else rng.choice(list(seen))
            )
            seen[name] += 1
            engine.advance_to(engine.now + 600.0)
            if name == "double":
                # Two convergences before one consume_fib_dirty().
                repair()
                engine.run()
                repair()
            else:
                moves[name]()
            engine.run()

        controller.announce_baseline()
        engine.run()
        assert engine.consume_fib_dirty() is None  # unbounded: warm start
        previous = build_fibs(engine)
        asked = set()  # the ASes whose compiled column has been read
        if compile_up_front:
            asked.update(previous.tables)
            for asn, fib in previous.tables.items():
                _assert_matches_oracle(previous.flat(asn), fib)
            previous.origin_for(0)

        for index in range(45):
            step(index)
            dirty = engine.consume_fib_dirty()
            assert dirty is not None
            compiles, axes = counted["compile"], counted["axis"]
            current = build_fibs(engine, previous, dirty)
            # A refresh compiles no column whole, even when it regrows
            # the axis: a carried column is re-cut, then patched.
            assert counted["compile"] == compiles
            assert counted["axis"] - axes == (
                current.axis_regrown - previous.axis_regrown
            ) <= 1
            full = build_fibs(engine)
            assert current.tables == full.tables, seen
            assert current.origins == full.origins, seen
            for asn in full.tables:
                if asn in dirty:
                    assert current.tables[asn] is not previous.tables[asn]
                else:
                    assert current.tables[asn] is previous.tables[asn]
                    if asn in asked:
                        assert current.flat(asn) is previous.flat(asn)
            # The lazy variant reads a few columns per look, so compiled
            # and never-compiled ASes keep meeting the same refreshes.
            # (A clean AS's column was checked when it was last made:
            # same table, same map, as just asserted.)
            fresh = rng.sample(sorted(full.tables), 3)
            asked.update(fresh)
            for asn in asked.intersection(dirty.keys() | set(fresh)):
                _assert_matches_oracle(current.flat(asn), full.tables[asn])
            for prefix in set(full.origins) | {p for _a, p in
                                               toggles.values()}:
                for address in (prefix.base, prefix.base + 1):
                    assert current.origin_for(address) == _linear_origin(
                        full.origins, address
                    )
            previous = current
        assert all(seen.values()), seen
        assert controller.delta_applied > 10, "the splice path never ran"
        assert controller.delta_fallbacks, "the event path never ran"
        assert previous.rows_patched and previous.axis_regrown
        if compile_up_front:
            assert counted["recut"], "no column ever left an old axis"


class TestOneRuleForARow:
    """The full build and the row patch decide a row with one helper."""

    def _stub_behind_two_providers(self):
        # S(5) default-routes; its providers are 3 and 4, both under
        # tier-1 2, as is the stub 6 that will announce a 0.0.0.0/0.
        g = ASGraph()
        g.add_as(2, tier=1)
        for asn in (3, 4):
            g.add_as(asn, tier=2)
            g.add_link(asn, 2, Relationship.PROVIDER)
        g.add_as(5, tier=3)
        g.add_as(6, tier=3)
        g.add_link(5, 3, Relationship.PROVIDER)
        g.add_link(5, 4, Relationship.PROVIDER)
        g.add_link(6, 4, Relationship.PROVIDER)
        g.assign_prefix(5, Prefix("10.105.0.0/16"))
        g.assign_prefix(6, Prefix("10.106.0.0/16"))
        engine = BGPEngine(
            g,
            speaker_configs={
                5: SpeakerConfig(default_route_via_provider=True)
            },
        )
        for node in g.nodes():
            for prefix in node.prefixes:
                engine.originate(node.asn, prefix)
        engine.run()
        return engine

    def test_static_default_outlives_a_learned_slash_zero(self):
        engine = self._stub_behind_two_providers()
        engine.consume_fib_dirty()
        fibs = build_fibs(engine)
        for asn in fibs.tables:
            fibs.flat(asn)
        assert fibs.tables[5][DEFAULT_PREFIX] == 3
        for announce in (True, False):
            if announce:
                engine.originate(6, DEFAULT_PREFIX)
            else:
                engine.withdraw_origin(6, DEFAULT_PREFIX)
            engine.run()
            dirty = engine.consume_fib_dirty()
            # S hears the /0 from provider 4 — not its static choice.
            assert DEFAULT_PREFIX in dirty[5]
            assert (engine.speakers[5].best(DEFAULT_PREFIX) is not None) == (
                announce
            )
            fibs = build_fibs(engine, fibs, dirty)
            full = build_fibs(engine)
            assert fibs.tables == full.tables
            assert fibs.origins == full.origins
            assert fibs.tables[5][DEFAULT_PREFIX] == 3
            assert (DEFAULT_PREFIX in fibs.tables[3]) == announce
            for asn in full.tables:
                _assert_matches_oracle(fibs.flat(asn), full.tables[asn])

    def test_the_highest_claimant_hosts_whatever_the_visiting_order(self):
        # Speakers stand in the order the graph met them: 9 before 5.
        g = ASGraph()
        g.add_as(1, tier=1)
        for asn in (9, 5):
            g.add_as(asn, tier=3)
            g.add_link(asn, 1, Relationship.PROVIDER)
        engine = BGPEngine(g)
        assert list(engine.speakers) == [1, 9, 5]
        for asn in (9, 5):
            engine.originate(asn, BRAND_NEW)
        engine.run()
        full = build_fibs(engine)
        assert full.origins == {BRAND_NEW: 9}
        for dirty in ({5}, {9}, {5: {BRAND_NEW}}, {9: {BRAND_NEW}}, {5, 9}):
            assert build_fibs(engine, full, dirty).origins == {BRAND_NEW: 9}
        engine.consume_fib_dirty()
        engine.withdraw_origin(9, BRAND_NEW)
        engine.run()
        after = build_fibs(engine, full, engine.consume_fib_dirty())
        assert after.origins == build_fibs(engine).origins == {BRAND_NEW: 5}

    def test_a_bare_set_of_asns_means_every_row(self):
        engine = self._stub_behind_two_providers()
        fibs = build_fibs(engine)
        for asn in fibs.tables:
            fibs.flat(asn)
        engine.originate(6, DEFAULT_PREFIX)
        engine.originate(6, BRAND_NEW)
        engine.withdraw_origin(5, Prefix("10.105.0.0/16"))
        engine.run()
        # Nobody consumed the engine's record: the caller only knows
        # which ASes to look at again.
        patched = build_fibs(engine, fibs, set(fibs.tables))
        full = build_fibs(engine)
        assert patched.tables == full.tables
        assert patched.origins == full.origins
        for asn in full.tables:
            assert patched.tables[asn] is not fibs.tables[asn]
            _assert_matches_oracle(patched.flat(asn), full.tables[asn])

    def test_a_vanished_speaker_leaves_the_tables(self):
        engine = self._stub_behind_two_providers()
        fibs = build_fibs(engine)
        fibs.flat(6)
        del engine.speakers[6]
        after = build_fibs(engine, fibs, {6})
        assert 6 not in after.tables and after.flat(6) is None
        assert Prefix("10.106.0.0/16") not in after.origins
        assert after.origin_for(Prefix("10.106.0.0/16").base + 1) is None
        assert after.tables[5] is fibs.tables[5]


class TestARepairStepCompilesNothing:
    """The regression guard for the gain, outside the benchmark."""

    def test_ladder_patches_and_a_new_prefix_regrows_once(self, counted):
        scenario = build_deployment(
            "small", seed=3,
            lifeguard_config=LifeguardConfig(delta_mode="auto"),
        )
        lifeguard, graph = scenario.lifeguard, scenario.graph
        engine, controller = lifeguard.engine, lifeguard.origin
        start = lifeguard.dataplane.fibs
        for asn in start.tables:
            start.flat(asn)
        start.origin_for(0)
        counted.update(dict.fromkeys(counted, 0))

        providers = set(graph.providers(lifeguard.origin_asn))
        first, second = sorted(
            (asn for asn in graph.transit_ases() if asn not in providers),
            key=lambda asn: (-graph.degree(asn), asn),
        )[:2]
        previous = start
        moved = 0
        for announce in (
            lambda: controller.poison([first], key="repair"),
            lambda: controller.poison([first, second], key="repair"),
            lambda: controller.steer_prepend(
                [controller.providers[0]], key="repair"
            ),
            lambda: controller.unpoison("repair"),
        ):
            engine.advance_to(engine.now + 600.0)
            announce()
            engine.run()
            lifeguard.refresh_dataplane()
            current = lifeguard.dataplane.fibs
            dirty = [
                asn for asn in current.tables
                if current.tables[asn] is not previous.tables[asn]
            ]
            assert dirty, "every rung moves somebody's next hop"
            moved += len(dirty)
            for asn in dirty:
                patched, old = current.flat(asn), previous.flat(asn)
                assert patched is not old
                assert patched.values is not old.values
                assert patched.bases is old.bases
            previous = current
        assert controller.delta_applied > 0
        assert controller.delta_fallbacks == 0
        assert counted == {"compile": 0, "axis": 0, "recut": 0, "fresh": 0}
        assert previous.rows_patched - start.rows_patched == moved
        assert previous.axis_regrown == start.axis_regrown
        # The unpoison put every next hop back.
        assert previous.tables == start.tables

        # A more-specific nobody has seen: one new axis, and every AS
        # that learns it — all of them, each compiled — has its column
        # re-cut onto it and patched, as does the origins index; none
        # is compiled whole.  ASes that learn nothing would keep their
        # old table.
        stub = next(
            n.asn for n in graph.nodes()
            if n.tier == 3 and n.asn != lifeguard.origin_asn and n.prefixes
        )
        specific = next(iter(graph.node(stub).prefixes[0].subnets(26)))
        engine.originate(stub, specific)
        engine.run()
        lifeguard.refresh_dataplane()
        grown = lifeguard.dataplane.fibs
        assert all(specific in fib for fib in grown.tables.values())
        assert counted == {
            "compile": 0, "axis": 1, "recut": len(grown.tables) + 1,
            "fresh": 1,
        }
        assert grown.axis_regrown == previous.axis_regrown + 1
        assert grown.flat(stub).bases is not previous.flat(stub).bases
        for asn, fib in grown.tables.items():
            assert grown.flat(asn).bases is grown.axis.bases
            _assert_matches_oracle(grown.flat(asn), fib)
        for prefix in grown.origins:
            for address in (prefix.base, prefix.base + 1):
                assert grown.origin_for(address) == _linear_origin(
                    grown.origins, address
                )
        assert grown.origin_for(specific.base + 1) == stub
        assert grown.tables[stub][specific] == LOCAL
        # Every column read above was the carried one: none compiled.
        assert counted["compile"] == 0
        # From here on the new axis is the shared one: patches again.
        counted.update(dict.fromkeys(counted, 0))
        controller.poison([first], key="repair")
        engine.run()
        lifeguard.refresh_dataplane()
        assert lifeguard.dataplane.fibs is not grown
        assert counted == {"compile": 0, "axis": 0, "recut": 0, "fresh": 0}

    def test_a_column_carried_across_skipped_axes(self, counted):
        # AS3 never learns the first newcomer (the path poisons it), so
        # its column sits out one regrown axis and leaves the first axis
        # for the third at the second refresh; the others, and the
        # origins column, move from the second.  Nothing is compiled
        # whole and each source axis's fresh slots are found once.
        # Stubs 1 and 3 under one provider, 2; each originates a /16.
        g = ASGraph()
        for asn, tier in ((1, 3), (2, 2), (3, 3)):
            g.add_as(asn, tier=tier)
            g.assign_prefix(asn, Prefix(f"10.10{asn}.0.0/16"))
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(3, 2, Relationship.PROVIDER)
        engine = BGPEngine(g)
        for node in g.nodes():
            engine.originate(node.asn, node.prefixes[0])
        engine.run()
        engine.consume_fib_dirty()
        first = build_fibs(engine)
        for asn in first.tables:
            first.flat(asn)
        first.origin_for(0)
        counted.update(dict.fromkeys(counted, 0))

        specific = Prefix("10.101.1.0/24")
        engine.originate(1, specific, path=make_path(1, poison=[3]))
        engine.run()
        second = build_fibs(engine, first, engine.consume_fib_dirty())
        assert specific not in second.tables[3]
        assert second.tables[3] is first.tables[3]
        assert second.flat(3) is first.flat(3)
        assert second.flat(1).axis is second.axis is not first.axis
        assert counted == {"compile": 0, "axis": 1, "recut": 3, "fresh": 1}

        engine.originate(2, BRAND_NEW)
        engine.run()
        third = build_fibs(engine, second, engine.consume_fib_dirty())
        assert counted == {"compile": 0, "axis": 2, "recut": 7, "fresh": 3}
        full = build_fibs(engine)
        assert third.tables == full.tables and third.origins == full.origins
        assert third.axis_regrown == 2
        for asn, fib in third.tables.items():
            assert third.flat(asn).axis is third.axis
            _assert_matches_oracle(third.flat(asn), fib)
        for prefix in third.origins:
            for address in (prefix.base, prefix.base + 1):
                assert third.origin_for(address) == _linear_origin(
                    third.origins, address
                )
        assert third.origin_for(BRAND_NEW.base) == 2
        assert third.origin_for(specific.base) == 1
        assert counted["compile"] == 0
