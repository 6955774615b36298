"""The flattened probe walk answers exactly what the slow one did.

``DataPlane.forward`` resolves every hop through three fast structures:
the interval tables a ``FibSnapshot`` compiles from its per-AS maps, the
``FailureSet`` index, and the topology's egress memo.  The reference
walk below is written against slow ones — ``PrefixTrie.lookup_value``
per hop on tries this file builds from the maps' entries (the code under
test never constructs its own oracle), a linear scan of
``FibSnapshot.origins``, a linear scan of every failure in the set — and
the property test requires the same ``(outcome, hops, final_router)``
for every sampled packet on generated Internets with random router /
link / AS failures.

``forward`` also remembers its answers.  The stateful property at the
bottom re-asks a fixed sample of probes while failures come, go and
cross their window edges, FIBs are rebound after poisons, and a second
``DataPlane`` shares the failure set: after every step the remembered
answer must equal the reference walk's and a freshly built
``DataPlane``'s.  A hit re-dates its entry to the current epoch, so one
step stamps an AS a walk did not cross, asks again, then stamps one it
did cross: the re-dated entry must not outlive that.
"""

import gc
import random

import pytest

from repro.bgp.engine import BGPEngine
from repro.bgp.messages import make_path
from repro.bgp.policy import SpeakerConfig
from repro.dataplane.failures import (
    ASForwardingFailure,
    FailureSet,
    LinkFailure,
    RouterFailure,
)
from repro.dataplane.fib import DEFAULT_PREFIX, LOCAL, build_fibs
from repro.dataplane.forwarding import _SCOPES_KEPT, DataPlane, ForwardOutcome
from repro.net.addr import Address, Prefix
from repro.net.lpm import FlatLPM
from repro.topology.generate import generate_internet
from repro.topology.routers import RouterTopology
from repro.workloads.scenarios import SCALES
from tests.trie_oracle import PrefixTrie, intervals, moved_rows

WORLDS = [("tiny", 0), ("tiny", 1), ("tiny", 2), ("small", 3)]
TIMES = (-50.0, 0.0, 99.0, 100.0, 150.0, 199.0, 200.0, 1e9)


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
def _build_world(scale, seed):
    """(graph, topo, engine, fibs): some stubs default-route through a
    provider, and one origin poisons two of them so their BGP route for
    that prefix is gone and only the /0 entry carries the traffic."""
    rng = random.Random(seed)
    graph = generate_internet(SCALES[scale], seed=seed)
    topo = RouterTopology.build(graph, seed=seed)
    stubs = sorted(n.asn for n in graph.nodes() if n.tier == 3)
    defaulted = rng.sample(stubs, max(2, len(stubs) // 4))
    engine = BGPEngine(
        graph,
        speaker_configs={
            asn: SpeakerConfig(default_route_via_provider=True)
            for asn in defaulted
        },
    )
    poisoner = next(asn for asn in stubs if asn not in defaulted)
    for node in graph.nodes():
        for prefix in node.prefixes:
            if node.asn == poisoner:
                engine.originate(
                    node.asn,
                    prefix,
                    path=make_path(
                        node.asn, prepend=2, poison=defaulted[:2]
                    ),
                )
            else:
                engine.originate(node.asn, prefix)
    engine.run()
    return graph, topo, engine, build_fibs(engine)


@pytest.fixture(scope="module", params=WORLDS, ids=lambda w: f"{w[0]}-{w[1]}")
def world(request):
    return _build_world(*request.param)


@pytest.fixture(params=WORLDS, ids=lambda w: f"{w[0]}-{w[1]}")
def fresh_world(request):
    """A world of the test's own, whose engine it may move: FIB dirt is
    tracked from its snapshot on."""
    graph, topo, engine, fibs = _build_world(*request.param)
    assert engine.consume_fib_dirty() is None  # cold: unbounded
    return graph, topo, engine, fibs


def _refreshed(engine, fibs, change):
    """*fibs* refreshed by ``build_fibs`` after *change* converged."""
    change()
    engine.run()
    return build_fibs(engine, fibs, engine.consume_fib_dirty())


def _oracle_tries(fibs):
    """asn -> a PrefixTrie holding that AS's FIB entries."""
    return {
        asn: PrefixTrie.from_items(fib.items())
        for asn, fib in fibs.tables.items()
    }


@pytest.fixture(scope="module")
def tries(world):
    return _oracle_tries(world[3])


def _random_failures(rng, graph, topo, count):
    """Router, link (uni- and bidirectional, intra- and inter-AS) and AS
    failures; scoped and unscoped; open-ended, windowed and expired."""
    routers = sorted(r.rid for r in topo.routers())
    ases = sorted(graph.ases())
    links = []
    for router in topo.routers():
        for other in router.intra_neighbors + router.external_neighbors:
            links.append((router.rid, other))
    links.sort()
    prefixes = sorted(p for asn in ases for p in graph.node(asn).prefixes)
    failures = []
    for _ in range(count):
        toward = None
        if rng.random() < 0.6:
            toward = rng.choice(prefixes)
            if rng.random() < 0.3:
                toward = next(iter(toward.subnets(toward.length + 4)))
        window = rng.choice(
            [{}, {"start": 100.0}, {"start": 100.0, "end": 200.0},
             {"end": 100.0}, {"start": -10.0, "end": 0.0}]
        )
        kind = rng.randrange(3)
        if kind == 0:
            failures.append(
                RouterFailure(rid=rng.choice(routers), toward=toward,
                              **window)
            )
        elif kind == 1:
            a, b = rng.choice(links)
            failures.append(
                LinkFailure(a=a, b=b, toward=toward,
                            bidirectional=rng.random() < 0.5, **window)
            )
        else:
            failures.append(
                ASForwardingFailure(asn=rng.choice(ases), toward=toward,
                                    **window)
            )
    return failures


def _destinations(rng, graph, topo, fibs):
    """Router interfaces, host addresses inside originated prefixes, the
    edges of those prefixes, and addresses nobody originates."""
    out = [r.address.value for r in topo.routers()]
    for prefix in fibs.origins:
        out.append(prefix.base)
        out.append(prefix.base + prefix.num_addresses - 1)
        out.append(prefix.base + rng.randrange(prefix.num_addresses))
    out += [0, (1 << 32) - 1, Address("203.0.113.1").value]
    return out


# ----------------------------------------------------------------------
# The reference walk: tries and linear scans only
# ----------------------------------------------------------------------
def _scan_matches(failure, address, now):
    if not failure.start <= now < failure.end:
        return False
    return failure.toward is None or failure.toward.contains(address)


def _scan_router_drops(failures, rid, asn, address, now):
    for failure in failures:
        if not _scan_matches(failure, address, now):
            continue
        if isinstance(failure, RouterFailure) and failure.rid == rid:
            return True
        if isinstance(failure, ASForwardingFailure) and failure.asn == asn:
            return True
    return False


def _scan_link_drops(failures, from_rid, to_rid, address, now):
    for failure in failures:
        if not isinstance(failure, LinkFailure):
            continue
        if not _scan_matches(failure, address, now):
            continue
        if (from_rid, to_rid) == (failure.a, failure.b):
            return True
        if failure.bidirectional and (from_rid, to_rid) == (
            failure.b, failure.a
        ):
            return True
    return False


def _scan_host_router(topo, fibs, address):
    router = topo.router_by_address(address)
    if router is not None:
        return router.rid
    best = None
    for prefix, asn in fibs.origins.items():
        if prefix.contains(address) and (
            best is None or prefix.length > best[0]
        ):
            best = (prefix.length, asn)
    if best is None:
        return None
    routers = topo.routers_of(best[1])
    return routers[0] if routers else None


def _trie_next_hop(tries, asn, address):
    trie = tries.get(asn)
    return None if trie is None else trie.lookup_value(address)


def _pick_egress(topo, rid, next_asn):
    """Closest border router with a link into *next_asn*, first wins."""
    best = None
    for egress, ingress in topo.as_link_routers(
        topo.router(rid).asn, next_asn
    ):
        distance, at = 0, rid
        while at != egress and at is not None and distance <= len(topo):
            at = topo.intra_next_hop(at, egress)
            distance += 1
        if at == egress and (best is None or distance < best[0]):
            best = (distance, egress, ingress)
    return None if best is None else best[1:]


def reference_forward(
    topo, fibs, tries, failures, source_rid, value, ttl, now
):
    """(outcome, hops, final_router) by the slow structures alone."""
    address = Address(value)
    failures = list(failures)
    target_rid = _scan_host_router(topo, fibs, address)
    current = source_rid
    hops = [current]
    visited = {current}
    if _scan_router_drops(
        failures, current, topo.router(current).asn, address, now
    ):
        return ForwardOutcome.DROPPED, hops, current
    for _ in range(256):
        current_asn = topo.router(current).asn
        next_as = _trie_next_hop(tries, current_asn, address)
        if next_as is None:
            return ForwardOutcome.NO_ROUTE, hops, current
        if next_as == LOCAL:
            if (
                target_rid is None
                or topo.router(target_rid).asn != current_asn
            ):
                return ForwardOutcome.NO_ROUTE, hops, current
            if current == target_rid:
                return ForwardOutcome.DELIVERED, hops, current
            next_rid = topo.intra_next_hop(current, target_rid)
            if next_rid is None:
                return ForwardOutcome.NO_ROUTE, hops, current
        else:
            egress = _pick_egress(topo, current, next_as)
            if egress is None:
                return ForwardOutcome.NO_LINK, hops, current
            if current == egress[0]:
                next_rid = egress[1]
            else:
                next_rid = topo.intra_next_hop(current, egress[0])
                if next_rid is None:
                    return ForwardOutcome.NO_ROUTE, hops, current
        if _scan_link_drops(failures, current, next_rid, address, now):
            return ForwardOutcome.DROPPED, hops, current
        ttl -= 1
        hops.append(next_rid)
        next_asn = topo.router(next_rid).asn
        if (
            next_rid == target_rid
            and _trie_next_hop(tries, next_asn, address) == LOCAL
        ):
            return ForwardOutcome.DELIVERED, hops, next_rid
        if ttl <= 0:
            return ForwardOutcome.TTL_EXPIRED, hops, next_rid
        if _scan_router_drops(failures, next_rid, next_asn, address, now):
            return ForwardOutcome.DROPPED, hops, next_rid
        if next_rid in visited:
            return ForwardOutcome.LOOP, hops, next_rid
        visited.add(next_rid)
        current = next_rid
    return ForwardOutcome.LOOP, hops, current


# ----------------------------------------------------------------------
# forward == reference
# ----------------------------------------------------------------------
class TestForwardEquivalence:
    def _check(
        self, dataplane, tries, rng, routers, destinations, samples
    ):
        seen = set()
        for _ in range(samples):
            source = rng.choice(routers)
            value = rng.choice(destinations)
            ttl = rng.choice((1, 2, 3, 5, 64))
            now = rng.choice(TIMES)
            result = dataplane.forward(source, value, ttl=ttl, now=now)
            expected = reference_forward(
                dataplane.topo, dataplane.fibs, tries,
                dataplane.failures, source, value, ttl, now,
            )
            assert (
                result.outcome, list(result.hops), result.final_router
            ) == expected, (source, str(Address(value)), ttl, now)
            seen.add(result.outcome)
        return seen

    def test_no_failures(self, world, tries):
        graph, topo, _engine, fibs = world
        rng = random.Random(7)
        routers = sorted(r.rid for r in topo.routers())
        seen = self._check(
            DataPlane(topo, fibs), tries, rng, routers,
            _destinations(rng, graph, topo, fibs), 600,
        )
        assert {
            ForwardOutcome.DELIVERED,
            ForwardOutcome.NO_ROUTE,
            ForwardOutcome.TTL_EXPIRED,
        } <= seen

    @pytest.mark.parametrize("failure_seed", range(4))
    def test_random_failures(self, world, tries, failure_seed):
        graph, topo, _engine, fibs = world
        rng = random.Random(1000 + failure_seed)
        failures = FailureSet(
            _random_failures(rng, graph, topo, count=rng.randint(5, 40))
        )
        routers = sorted(r.rid for r in topo.routers())
        seen = self._check(
            DataPlane(topo, fibs, failures), tries, rng, routers,
            _destinations(rng, graph, topo, fibs), 600,
        )
        assert ForwardOutcome.DROPPED in seen

    def test_default_routed_stub_follows_the_slash_zero(self, world, tries):
        _graph, topo, engine, fibs = world
        dataplane = DataPlane(topo, fibs)
        on_default = 0
        for asn, speaker in sorted(engine.speakers.items()):
            if not speaker.policy.config.default_route_via_provider:
                continue
            source = topo.routers_of(asn)[0]
            for prefix in fibs.origins:
                value = prefix.base + 9
                on_default += tries[asn].lookup(value)[0].length == 0
                result = dataplane.forward(source, value)
                assert (
                    result.outcome, list(result.hops), result.final_router
                ) == reference_forward(
                    topo, fibs, tries, (), source, value, 64, 0.0
                )
        assert on_default, "a poisoned stub should be left with only its /0"

    def test_accepts_every_address_spelling(self, world):
        _graph, topo, _engine, fibs = world
        dataplane = DataPlane(topo, fibs)
        routers = sorted(r.rid for r in topo.routers())
        address = topo.router(routers[-1]).address
        by_int = dataplane.forward(routers[0], address.value)
        assert dataplane.forward(routers[0], address) == by_int
        assert dataplane.forward(routers[0], str(address)) == by_int
        assert by_int.target_router == routers[-1]


# ----------------------------------------------------------------------
# The walk memo under mutation: remembered == reference == fresh
# ----------------------------------------------------------------------
EPSILON = 1e-6
#: Window edges of the failures the stateful test injects, and the
#: instants it visits: before, onto, just short of, between, after.
EDGES = (100.0, 150.0, 200.0, 300.0)
NOWS = tuple(
    sorted(
        {0.0, 125.0, 250.0, 1e9}
        | set(EDGES)
        | {edge - EPSILON for edge in EDGES}
    )
)


class TestWalkMemoUnderMutation:
    @pytest.fixture(
        params=[("tiny", 0), ("tiny", 2), ("small", 3)],
        ids=lambda w: f"{w[0]}-{w[1]}",
    )
    def own_world(self, request):
        """Not the module's: this test poisons the engine."""
        graph, topo, engine, fibs = _build_world(*request.param)
        assert engine.consume_fib_dirty() is None  # cold: unbounded
        return graph, topo, engine, fibs

    def _sample(self, rng, graph, topo, fibs):
        """(source, destination, ttl): pings, plus traceroute shapes
        (ttl 1..N toward one destination)."""
        routers = sorted(r.rid for r in topo.routers())
        destinations = _destinations(rng, graph, topo, fibs)
        sample = [
            (rng.choice(routers), rng.choice(destinations), 64)
            for _ in range(40)
        ]
        for source, value, _ttl in sample[:4]:
            sample += [(source, value, ttl) for ttl in range(1, 9)]
        return sample

    def _failure_on_a_sampled_path(self, rng, dataplane, sample):
        """A failure some sampled walk can actually meet, scoped or
        not, open-ended or windowed on EDGES."""
        source, value, _ttl = rng.choice(sample)
        hops = dataplane.forward(source, value, now=0.0).hops
        toward = None
        if rng.random() < 0.5:
            toward = Prefix(value & 0xFFFFFF00, 24)
        start, end = sorted(rng.sample((float("-inf"),) + EDGES, 2))
        if rng.random() < 0.3:
            end = float("inf")
        window = {"toward": toward, "start": start, "end": end}
        kind = rng.randrange(3)
        if kind == 0 or len(hops) < 2:
            return RouterFailure(rid=rng.choice(hops), **window)
        if kind == 1:
            at = rng.randrange(len(hops) - 1)
            a, b = hops[at], hops[at + 1]
            if rng.random() < 0.3:
                a, b = b, a
            return LinkFailure(
                a=a, b=b, bidirectional=rng.random() < 0.5, **window
            )
        asn = dataplane.topo.router(rng.choice(hops)).asn
        return ASForwardingFailure(asn=asn, **window)

    def _failure_on(self, rng, asn, now):
        """An AS failure at *asn*, live at *now* or not."""
        start, end = rng.choice(
            [(float("-inf"), float("inf")), (now, float("inf")),
             (float("-inf"), now), (now + 1.0, now + 2.0)]
        )
        return ASForwardingFailure(asn=asn, start=start, end=end)

    @pytest.mark.parametrize("seed", range(3))
    def test_remembered_equals_reference_and_fresh(self, own_world, seed):
        graph, topo, engine, fibs = own_world
        rng = random.Random(4000 + seed)
        failures = FailureSet()
        planes = [DataPlane(topo, fibs, failures)]
        sample = self._sample(rng, graph, topo, fibs)
        tries = _oracle_tries(fibs)
        stubs = sorted(
            n.asn for n in graph.nodes()
            if n.tier == 3 and n.prefixes
            and not engine.speakers[n.asn].policy.config
            .default_route_via_provider
        )
        transit = sorted(graph.transit_ases())
        poisoned = {}
        # A more-specific of one sampled host's prefix, announced and
        # withdrawn by another stub: the address changes hands, so the
        # origins index (and where its walks should end) moves.
        victim = next(
            p for p in sorted(fibs.origins) if p.length <= 28
        )
        claim = next(iter(victim.subnets(victim.length + 2)))
        claimant = next(a for a in stubs if a != fibs.origins[victim])
        sample += [(s, claim.base + 9, 64) for s, _v, _t in sample[:6]]
        claimed = False
        now = 0.0
        steps = dict.fromkeys(
            ["probe", "add", "remove", "clear", "now", "poison",
             "unpoison", "claim", "second", "swap", "refresh", "burst",
             "branch", "new log"], 0
        )
        #: [snapshot, the rows dirtied since it] for each one built.
        history = [[fibs, {}]]

        def move(kind):
            """Poison, unpoison or claim, converged; False: nothing to
            unpoison."""
            nonlocal claimed
            if kind == "claim":
                claimed = not claimed
                if claimed:
                    engine.originate(claimant, claim)
                else:
                    engine.withdraw_origin(claimant, claim)
            else:
                if kind == "poison":
                    origin = rng.choice(stubs)
                    poisoned[origin] = make_path(
                        origin, prepend=2,
                        poison=rng.sample(transit, 2),
                    )
                elif poisoned:
                    origin = rng.choice(sorted(poisoned))
                    del poisoned[origin]
                else:
                    return False
                engine.originate(
                    origin,
                    graph.node(origin).prefixes[0],
                    path=poisoned.get(origin, make_path(origin)),
                )
            engine.run()
            dirty = engine.consume_fib_dirty()
            for _snapshot, since in history:
                for asn, rows in dirty.items():
                    since.setdefault(asn, set()).update(rows)
            return True

        def refresh(base):
            """Bind every plane to a snapshot built from *base* (an
            entry of history) with the rows dirtied since it."""
            nonlocal fibs, tries
            fibs = build_fibs(engine, base[0], base[1])
            if fibs.log is not base[0].log:
                steps["new log"] += 1
            history.append([fibs, {}])
            tries = _oracle_tries(fibs)
            for plane in planes:
                plane.fibs = fibs

        def check():
            fresh = DataPlane(topo, fibs, failures)
            for source, value, ttl in sample:
                expected = reference_forward(
                    topo, fibs, tries, failures, source, value, ttl, now
                )
                answer = fresh.forward(source, value, ttl=ttl, now=now)
                assert (
                    answer.outcome, list(answer.hops), answer.final_router
                ) == expected
                for plane in planes:
                    assert plane.forward(
                        source, value, ttl=ttl, now=now
                    ) == answer, (source, str(Address(value)), ttl, now)

        check()
        schedule = [
            rng.choice(
                ["probe", "add", "add", "remove", "now", "now", "poison",
                 "unpoison", "claim", "second", "swap", "clear", "refresh",
                 "burst", "branch"]
            )
            for _ in range(60)
        ]
        for step in ("burst", "branch"):  # at least once each
            schedule.insert(rng.randrange(10, len(schedule)), step)
        for step in schedule:
            if step == "add":
                failures.add(
                    self._failure_on_a_sampled_path(rng, planes[0], sample)
                )
            elif step == "remove":
                if not len(failures):
                    continue
                failures.remove(rng.choice(list(failures)))
            elif step == "clear":
                if rng.random() < 0.7:
                    continue
                failures.clear()
            elif step == "now":
                now = rng.choice(NOWS)
            elif step == "swap":
                # What Lifeguard.recover does to its new data plane.
                failures = FailureSet(
                    f for f in failures if rng.random() < 0.8
                )
                for plane in planes:
                    plane.failures = failures
            elif step in ("poison", "unpoison", "claim"):
                if not move(step):
                    continue
                refresh(history[-1])
            elif step == "burst":
                # Several refreshes before the next walk.
                for _ in range(rng.randint(2, 4)):
                    if move(rng.choice(["poison", "unpoison", "claim"])):
                        refresh(history[-1])
            elif step == "branch":
                # A snapshot built from an older one than the head.
                move(rng.choice(["poison", "unpoison", "claim"]))
                refresh(rng.choice(history[:-1] or history))
            elif step == "second":
                if len(planes) == 2:
                    continue
                planes.append(DataPlane(topo, fibs, failures))
            elif step == "refresh":
                plane = planes[-1]
                source, value, ttl = rng.choice(sample)
                probe = dict(ttl=ttl, now=now)
                walk = plane.forward(source, value, **probe)
                crossed = walk.as_level_hops(topo)
                elsewhere = rng.choice(
                    [a for a in sorted(graph.ases()) if a not in crossed]
                )
                aside = failures.add(ASForwardingFailure(asn=elsewhere))
                hits = plane.walk_hits
                # Checked against the new stamp, passed, re-dated...
                assert plane.forward(source, value, **probe) is walk
                # ...and not checked again while nothing moves.
                assert plane.forward(source, value, **probe) is walk
                assert plane.walk_hits == hits + 2
                failures.add(
                    self._failure_on(rng, rng.choice(crossed), now)
                )
                misses = plane.walk_misses
                plane.forward(source, value, **probe)
                assert plane.walk_misses == misses + 1
                failures.remove(aside)
            steps[step] += 1
            check()
        assert all(
            steps[s]
            for s in ("add", "remove", "now", "poison", "claim", "refresh",
                      "burst", "branch", "new log")
        ), steps
        for plane in planes:
            assert plane.walk_hits > plane.walk_misses > len(sample)

    def test_counters_account_for_every_call(self, world):
        graph, topo, _engine, fibs = world
        rng = random.Random(11)
        dataplane = DataPlane(topo, fibs, FailureSet(
            _random_failures(rng, graph, topo, count=20)
        ))
        sample = self._sample(rng, graph, topo, fibs)
        for source, value, ttl in sample:
            dataplane.forward(source, value, ttl=ttl, now=150.0)
        assert dataplane.walk_hits + dataplane.walk_misses == len(sample)
        misses = dataplane.walk_misses
        assert misses == len(set(sample))
        # An untouched world asked again is answered from memory alone,
        # the very same result objects.
        first = [
            dataplane.forward(s, v, ttl=t, now=150.0) for s, v, t in sample
        ]
        again = [
            dataplane.forward(s, v, ttl=t, now=150.0) for s, v, t in sample
        ]
        assert dataplane.walk_misses == misses
        assert dataplane.walk_hits == 3 * len(sample) - misses
        assert all(a is b for a, b in zip(first, again))

    def test_a_repeat_hit_in_one_epoch_reads_no_stamp(self, world):
        graph, topo, _engine, fibs = world
        source, value, hops = self._long_walk(topo, fibs)
        crossed = {topo.router(rid).asn for rid in hops}
        elsewhere = [a for a in sorted(graph.ases()) if a not in crossed]
        reads = []

        class Stamps(dict):
            def get(self, asn, default=None):
                reads.append(asn)
                return dict.get(self, asn, default)

        failures = FailureSet()
        dataplane = DataPlane(topo, fibs, failures)
        dataplane._stamps = Stamps()
        walk = dataplane.forward(source, value)
        assert reads == []  # a first walk has nothing to check
        for moved in elsewhere[:3]:
            failures.add(ASForwardingFailure(asn=moved))
            # The world moved, elsewhere: one look at each AS crossed...
            assert dataplane.forward(source, value) is walk
            assert sorted(reads) == sorted(crossed)
            # ...then none until it moves again.
            for _ in range(3):
                assert dataplane.forward(source, value) is walk
            assert len(reads) == len(crossed)
            reads.clear()
        failures.add(RouterFailure(rid=hops[1]))
        assert dataplane.forward(source, value).final_router == hops[1]
        assert (dataplane.walk_misses, dataplane.walk_hits) == (2, 12)

    def _long_walk(self, topo, fibs):
        """(source, destination, hops) of a delivered walk of >= 3 hops."""
        routers = sorted(r.rid for r in topo.routers())
        return next(
            (rid, topo.router(far).address.value, walk.hops)
            for rid in routers
            for far in reversed(routers)
            for walk in [
                DataPlane(topo, fibs).forward(rid, topo.router(far).address)
            ]
            if walk.delivered and len(walk.hops) >= 3
        )

    def _two_as_walk(self, topo, fibs):
        """(source, destination, source AS) of a delivered walk that
        leaves the source's AS."""
        routers = sorted(r.rid for r in topo.routers())
        return next(
            (rid, topo.router(far).address.value, topo.router(rid).asn)
            for rid in routers
            for far in reversed(routers)
            for walk in [DataPlane(topo, fibs).forward(
                rid, topo.router(far).address
            )]
            if walk.delivered and len(walk.as_level_hops(topo)) >= 2
        )

    def test_a_move_toward_other_destinations_keeps_the_walk(
        self, fresh_world
    ):
        """A failure or a FIB row at an AS the walk crossed invalidates
        it only if it matches the walk's destination."""
        _graph, topo, engine, fibs = fresh_world
        source, value, asn = self._two_as_walk(topo, fibs)
        failures = FailureSet()
        plane = DataPlane(topo, fibs, failures)
        walk = plane.forward(source, value)
        inside = Prefix(value & 0xFFFFFF00, 24)
        outside = next(p for p in sorted(fibs.origins) if value not in p)
        failures.add(ASForwardingFailure(asn=asn, toward=outside))
        assert failures.changes[-1] == (asn, outside.mask, outside.base)
        assert plane.forward(source, value) is walk
        table = fibs.tables[asn]
        elsewhere = next(
            p for p in sorted(table) if value not in p and table[p] != LOCAL
        )
        # The source AS originates that prefix too: its row turns LOCAL.
        moved = _refreshed(
            engine, fibs, lambda: engine.originate(asn, elsewhere)
        )
        assert moved.tables[asn][elsewhere] == LOCAL
        assert (asn, elsewhere) in moved.log[fibs.upto:moved.upto]
        plane.fibs = moved
        assert plane.forward(source, value) is walk
        assert (plane.walk_misses, plane.walk_hits) == (1, 2)
        # Now one that reaches it: the walk dies in the source AS...
        failures.add(ASForwardingFailure(asn=asn, toward=inside))
        dropped = plane.forward(source, value)
        assert dropped.outcome is ForwardOutcome.DROPPED
        assert plane.walk_misses == 2
        # ...and, the failure gone, a row for the destination itself
        # makes the source AS claim it.
        failures.clear()
        plane.fibs = _refreshed(
            engine, moved, lambda: engine.originate(asn, Prefix(value, 32))
        )
        answer = plane.forward(source, value)
        assert plane.walk_misses == 3
        assert answer.outcome is ForwardOutcome.NO_ROUTE
        assert answer == DataPlane(topo, plane.fibs).forward(source, value)

    def test_a_moved_origin_drops_only_the_walks_toward_it(self, fresh_world):
        _graph, topo, engine, fibs = fresh_world
        source, value, _asn = self._two_as_walk(topo, fibs)
        # A higher-numbered AS than its owner claims a prefix that does
        # not hold the walk's destination, and so takes it over.
        other, thief = next(
            (p, a)
            for p in sorted(fibs.origins)
            if value not in p
            for a in sorted(fibs.tables)
            if a > fibs.origins[p]
        )
        plane = DataPlane(topo, fibs)
        walk = plane.forward(source, value)
        host = other.base + other.num_addresses - 2  # no router's
        aside = plane.forward(source, host)
        plane.fibs = _refreshed(
            engine, fibs, lambda: engine.originate(thief, other)
        )
        assert plane.fibs.origins[other] == thief
        assert (None, other) in plane.fibs.log[fibs.upto:plane.fibs.upto]
        assert plane.forward(source, value) is walk
        misses = plane.walk_misses
        answer = plane.forward(source, host)
        assert plane.walk_misses == misses + 1
        assert answer.target_router != aside.target_router
        assert answer == DataPlane(topo, plane.fibs).forward(source, host)

    def test_several_refreshes_stamp_each_moved_row_once(self, fresh_world):
        """One catch-up across refreshes stamps each row that differs
        between the snapshot it last saw and the new one, once — a row
        that moved twice once, a row that moved back not at all — and
        the next catch-up only what moved since."""
        graph, topo, engine, fibs = fresh_world
        source, value, _asn = self._two_as_walk(topo, fibs)
        origin = next(
            n.asn for n in graph.nodes()
            if n.tier == 3 and n.prefixes
            and not engine.speakers[n.asn].policy.config
            .default_route_via_provider
        )
        prefix = graph.node(origin).prefixes[0]
        transit = sorted(
            set(graph.transit_ases()) - set(graph.providers(origin))
        )
        plane = DataPlane(topo, fibs)

        def announce(poison):
            return lambda: engine.originate(
                origin, prefix,
                path=make_path(origin, prepend=2, poison=poison),
            )

        seen = fibs
        for burst in ([transit[:1], transit[1:3], []], [transit[:2]]):
            for poison in burst:
                plane.fibs = _refreshed(engine, plane.fibs, announce(poison))
            plane.forward(source, value)  # catches up
            epoch = plane._epoch
            stamped = sorted(
                (asn, mask, base)
                for asn, kept in plane._scopes.items()
                for at, mask, base in kept
                if at == epoch
            )
            current = plane.fibs
            expected = sorted(
                (asn, p.mask, p.base)
                for asn in seen.tables.keys() | current.tables.keys()
                for p in moved_rows(
                    seen.tables.get(asn), current.tables.get(asn)
                )
            )
            assert stamped == expected
            logged = current.log[seen.upto:current.upto]
            assert len(logged) > len(stamped) > 0 or len(burst) == 1
            seen = current
        assert stamped

    def test_the_scopes_an_as_keeps_are_bounded(self, world):
        """Moves past _SCOPES_KEPT fold into one that reaches every
        destination: a walk asked for all along stays remembered, one
        not asked for across the fold is walked again."""
        _graph, topo, _engine, fibs = world
        source, value, asn = self._two_as_walk(topo, fibs)
        failures = FailureSet()
        plane = DataPlane(topo, fibs, failures)
        walk = plane.forward(source, value)
        outside = next(p for p in sorted(fibs.origins) if value not in p)

        def flap():
            failures.remove(
                failures.add(ASForwardingFailure(asn=asn, toward=outside))
            )

        for _ in range(_SCOPES_KEPT):
            flap()
            assert plane.forward(source, value) is walk
        assert len(plane._scopes[asn]) == _SCOPES_KEPT
        assert plane._scopes[asn][0][1:] == (0, 0)
        assert plane.walk_misses == 1
        for _ in range(_SCOPES_KEPT):
            flap()
            plane.forward(source, outside.base + 1)  # a new epoch each
        misses = plane.walk_misses
        assert plane.forward(source, value) == walk
        assert plane.walk_misses == misses + 1

    def test_a_swapped_failure_set_starts_over(self, world):
        """Two sets whose change logs are equally long: identity, not
        the log position, says the world moved."""
        _graph, topo, _engine, fibs = world
        source, value, hops = self._long_walk(topo, fibs)
        dataplane = DataPlane(
            topo, fibs, FailureSet([RouterFailure(rid=hops[1])])
        )
        assert not dataplane.forward(source, value).delivered
        dataplane.failures = FailureSet([RouterFailure(rid=hops[0])])
        assert dataplane.forward(source, value).final_router == hops[0]
        dataplane.failures.remove(next(iter(dataplane.failures)))
        assert dataplane.forward(source, value).delivered

    def test_a_window_edge_costs_one_walk(self, world):
        _graph, topo, _engine, fibs = world
        source, value, hops = self._long_walk(topo, fibs)
        dataplane = DataPlane(topo, fibs, FailureSet(
            [RouterFailure(rid=hops[1], start=100.0, end=200.0)]
        ))
        for now, outcome in (
            (50.0, ForwardOutcome.DELIVERED),    # walked
            (99.0, ForwardOutcome.DELIVERED),    # remembered
            (100.0, ForwardOutcome.DROPPED),     # walked
            (100.0, ForwardOutcome.DROPPED),     # remembered
            (200.0 - EPSILON, ForwardOutcome.DROPPED),  # remembered
            (200.0, ForwardOutcome.DELIVERED),   # walked
            (1e9, ForwardOutcome.DELIVERED),     # remembered
            (150.0, ForwardOutcome.DROPPED),     # walked: time went back
        ):
            assert dataplane.forward(
                source, value, now=now
            ).outcome is outcome
        assert (dataplane.walk_misses, dataplane.walk_hits) == (4, 4)


# ----------------------------------------------------------------------
# FailureSet index consistency
# ----------------------------------------------------------------------
class TestFailureSetIndex:
    """add / remove / clear keep the index equal to a linear scan."""

    def _assert_matches_scan(self, failures, topo, rng, probes=300):
        routers = sorted(r.rid for r in topo.routers())
        members = list(failures)
        for _ in range(probes):
            rid = rng.choice(routers)
            other = rng.choice(routers)
            asn = topo.router(rid).asn
            address = Address(rng.choice([
                topo.router(rng.choice(routers)).address.value + 7,
                rng.getrandbits(32),
            ]))
            now = rng.choice(TIMES)
            assert failures.router_drops(
                rid, asn, address, now
            ) == _scan_router_drops(members, rid, asn, address, now)
            assert failures.router_drops(
                rid, asn, address.value, now
            ) == _scan_router_drops(members, rid, asn, address, now)
            for a, b in ((rid, other), (other, rid)):
                assert failures.link_drops(
                    a, b, address, now
                ) == _scan_link_drops(members, a, b, address, now)

    def _probe_failed_links(self, failures, rng):
        """Link queries at exactly the failed links, both directions."""
        members = list(failures)
        for failure in members:
            if not isinstance(failure, LinkFailure):
                continue
            for a, b in ((failure.a, failure.b), (failure.b, failure.a)):
                for now in TIMES:
                    address = Address(
                        failure.toward.base + 1
                        if failure.toward is not None
                        else rng.getrandbits(32)
                    )
                    assert failures.link_drops(
                        a, b, address, now
                    ) == _scan_link_drops(members, a, b, address, now)

    def test_add_remove_clear(self, world):
        graph, topo, _engine, _fibs = world
        rng = random.Random(42)
        pool = _random_failures(rng, graph, topo, count=60)
        failures = FailureSet(pool[:20])
        self._assert_matches_scan(failures, topo, rng)
        self._probe_failed_links(failures, rng)
        for failure in pool[20:]:
            assert failures.add(failure) is failure
        assert len(failures) == 60 and list(failures) == pool
        self._assert_matches_scan(failures, topo, rng)
        self._probe_failed_links(failures, rng)
        for failure in rng.sample(pool, 45):
            failures.remove(failure)
        assert len(failures) == 15
        self._assert_matches_scan(failures, topo, rng)
        self._probe_failed_links(failures, rng)
        failures.clear()
        assert len(failures) == 0 and list(failures) == []
        self._assert_matches_scan(failures, topo, rng, probes=50)
        assert failures.active_by_asn(150.0) == {}

    def test_remove_absent_failure_raises(self):
        kept = RouterFailure(rid="AS1.r0")
        failures = FailureSet([kept])
        with pytest.raises(ValueError):
            failures.remove(RouterFailure(rid="AS1.r0"))
        failures.remove(kept)
        with pytest.raises(ValueError):
            failures.remove(kept)
        assert not failures.router_drops("AS1.r0", 1, Address(1), 0.0)

    def test_removing_one_of_two_at_the_same_key_keeps_the_other(self):
        wide = ASForwardingFailure(asn=5)
        narrow = ASForwardingFailure(
            asn=5, toward=Prefix("10.0.0.0/8"), start=10.0
        )
        failures = FailureSet([wide, narrow])
        inside, outside = Address("10.1.2.3"), Address("11.0.0.1")
        assert failures.router_drops("r", 5, outside, 20.0)
        failures.remove(wide)
        assert failures.router_drops("r", 5, inside, 20.0)
        assert not failures.router_drops("r", 5, outside, 20.0)
        assert not failures.router_drops("r", 5, inside, 5.0)
        assert [f for _m, _b, f in failures.active_by_asn(20.0)[5]] == [
            narrow
        ]

    def test_unidirectional_link_drops_one_way(self):
        failures = FailureSet(
            [LinkFailure(a="x", b="y", bidirectional=False)]
        )
        assert failures.link_drops("x", "y", Address(1), 0.0)
        assert not failures.link_drops("y", "x", Address(1), 0.0)

    def test_failures_are_frozen(self):
        failure = ASForwardingFailure(asn=5, end=100.0)
        with pytest.raises(AttributeError):
            failure.end = 200.0
        with pytest.raises(AttributeError):
            failure.toward = Prefix("10.0.0.0/8")


# ----------------------------------------------------------------------
# Compiled tables across incremental build_fibs
# ----------------------------------------------------------------------
class TestCompiledTablesAcrossRebuilds:
    def test_clean_ases_keep_their_table_dirty_ases_do_not(self, world):
        graph, _topo, engine, fibs = world
        tables = {asn: fibs.flat(asn) for asn in fibs.tables}
        assert all(fibs.flat(asn) is tables[asn] for asn in tables)
        dirty = set(sorted(fibs.tables)[:3])
        rebuilt = build_fibs(engine, fibs, dirty)
        assert rebuilt is not fibs
        for asn in fibs.tables:
            if asn in dirty:
                assert rebuilt.tables[asn] is not fibs.tables[asn]
                assert rebuilt.flat(asn) is not tables[asn]
            else:
                assert rebuilt.tables[asn] is fibs.tables[asn]
                assert rebuilt.flat(asn) is tables[asn]
        # Same routes in, same answers out — from old and new tables.
        for asn in dirty:
            for prefix in graph.node(asn).prefixes:
                value = prefix.base + 1
                assert rebuilt.next_hop_as(asn, value) == fibs.next_hop_as(
                    asn, value
                )
        # No origin claim changed, so the origins index is shared too.
        assert rebuilt.origins == fibs.origins
        probe = next(iter(fibs.origins)).base + 1
        assert rebuilt.origin_for(probe) == fibs.origin_for(probe)

    def test_tables_compile_lazily_and_only_once(self, world, monkeypatch):
        _graph, _topo, engine, _fibs = world
        fibs = build_fibs(engine)
        compiled = []
        compile_ = FlatLPM.compile.__func__
        monkeypatch.setattr(
            FlatLPM,
            "compile",
            classmethod(
                lambda cls, fib, axis=None: compiled.append(fib)
                or compile_(cls, fib, axis)
            ),
        )
        asn = sorted(fibs.tables)[0]
        assert compiled == []
        fibs.next_hop_as(asn, 1)
        fibs.next_hop_as(asn, 2)
        assert len(compiled) == 1 and compiled[0] is fibs.tables[asn]
        assert fibs.flat(asn) is fibs.flat(asn)
        assert len(compiled) == 1
        assert fibs.flat(999999) is None
        assert fibs.next_hop_as(999999, 1) is None

    def test_poison_then_unpoison_equals_a_full_rebuild(self):
        graph, _topo, engine, fibs = _build_world("small", 3)
        assert engine.consume_fib_dirty() is None  # cold: unbounded
        for asn in fibs.tables:
            fibs.flat(asn)  # compiled now, so clean ASes can carry it
        defaulted = sorted(
            asn
            for asn, speaker in engine.speakers.items()
            if speaker.policy.config.default_route_via_provider
        )
        # A plain stub origin (the world's poisoner is the first one)
        # poisons a default-routed stub and a transit AS, then stops.
        origin = sorted(
            n.asn for n in graph.nodes()
            if n.tier == 3 and n.asn not in defaulted
        )[1]
        prefix = graph.node(origin).prefixes[0]
        transit = next(
            asn for asn in sorted(graph.transit_ases())
            if asn not in graph.providers(origin)
        )
        stub = defaulted[-1]
        assert prefix in fibs.tables[stub]
        previous = fibs
        poisoned = make_path(origin, prepend=2, poison=[stub, transit])
        for path in (poisoned, make_path(origin)):
            engine.originate(origin, prefix, path=path)
            engine.run()
            dirty = engine.consume_fib_dirty()
            assert dirty and dirty.keys() < set(fibs.tables)
            current = build_fibs(engine, previous, dirty)
            full = build_fibs(engine)
            assert current.tables == full.tables
            assert current.origins == full.origins
            for asn in set(fibs.tables) - dirty.keys():
                assert current.tables[asn] is previous.tables[asn]
                assert current.flat(asn) is previous.flat(asn)
            for asn in dirty:
                assert current.tables[asn] is not previous.tables[asn]
                assert intervals(current.flat(asn)) == (
                    intervals(full.flat(asn))
                )
            # The poisoned stub is left with its /0 and no more.
            assert (prefix in current.tables[stub]) == (path != poisoned)
            assert DEFAULT_PREFIX in current.tables[stub]
            previous = current
        # The unpoison put every next hop back where it was.
        assert previous.tables == fibs.tables
        assert previous.origins == fibs.origins

    def test_two_origins_one_owner_whatever_was_dirty(self):
        """MOAS: which co-origin hosts a prefix is a rule (the highest
        claiming ASN), not an accident of which AS was rebuilt last."""
        graph, topo, engine, _fibs = _build_world("tiny", 0)
        engine.consume_fib_dirty()
        low, high = sorted(
            n.asn for n in graph.nodes() if n.tier == 3 and n.prefixes
        )[:2]
        shared = Prefix("99.0.0.0/16")
        probe = shared.base + 9
        for asn in (high, low):
            engine.originate(asn, shared)
        engine.run()
        engine.consume_fib_dirty()
        full = build_fibs(engine)
        assert full.tables[low][shared] == full.tables[high][shared] == LOCAL
        assert full.origins[shared] == high
        # Re-reading either claimant's rows moves nothing.
        for dirty in ({low}, {high}, {low: {shared}}, {high: {shared}}):
            again = build_fibs(engine, full, dirty)
            assert again.origins == full.origins
            assert again.origin_for(probe) == high
            assert DataPlane(topo, again).host_router(probe) == (
                topo.routers_of(high)[0]
            )
        # The owner withdraws: the remaining claimant is elected...
        engine.withdraw_origin(high, shared)
        engine.run()
        after = build_fibs(engine, full, engine.consume_fib_dirty())
        assert after.origins == build_fibs(engine).origins
        assert after.origins[shared] == low
        assert after.origin_for(probe) == low
        assert DataPlane(topo, after).host_router(probe) == (
            topo.routers_of(low)[0]
        )
        # ...a lower-numbered newcomer does not unseat it...
        lower = min(graph.ases())
        assert lower < low
        engine.originate(lower, shared)
        engine.run()
        after = build_fibs(engine, after, engine.consume_fib_dirty())
        assert after.tables[lower][shared] == LOCAL
        assert after.origins == build_fibs(engine).origins
        assert after.origin_for(probe) == low
        # ...and the owner coming back takes the prefix again.
        engine.originate(high, shared)
        engine.run()
        after = build_fibs(engine, after, engine.consume_fib_dirty())
        assert after.origins == build_fibs(engine).origins
        assert after.origin_for(probe) == high

    def test_snapshot_heap_grows_per_as_not_per_prefix_bit(self, world):
        _graph, _topo, engine, _fibs = world
        gc.collect()
        before = len(gc.get_objects())
        fibs = build_fibs(engine)
        for asn in fibs.tables:
            fibs.flat(asn)
        gc.collect()
        added = len(gc.get_objects()) - before
        # Per AS: its map, its FlatLPM and that table's column; once,
        # the axis they share (its boundary list belongs to nobody's
        # table) with one cover tuple per prefix.  A node-per-bit
        # structure adds two objects per prefix bit: some forty per
        # entry, thousands per AS.
        per_as = 3
        axis = len(fibs.flat(min(fibs.tables)).axis.spans)
        assert added <= per_as * len(fibs.tables) + axis + 32, added
        entries = sum(len(fib) for fib in fibs.tables.values())
        assert entries > 4 * per_as * len(fibs.tables)
