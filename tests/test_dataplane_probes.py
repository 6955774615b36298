"""Tests for ping/traceroute/spoofed probes and reverse traceroute."""

import hashlib
import random

import pytest

from repro.bgp.engine import BGPEngine
from repro.dataplane.failures import (
    ASForwardingFailure,
    FailureSet,
    RouterFailure,
)
from repro.dataplane.fib import build_fibs
from repro.dataplane.forwarding import DataPlane
from repro.dataplane.probes import Prober
from repro.dataplane.reverse_traceroute import ReverseTracerouteTool
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.topology.generate import generate_internet, prefix_for_asn
from repro.topology.routers import RouterTopology
from tests.conftest import SMALL_SHAPE


def _stub_routers(graph, topo, count):
    stubs = [n.asn for n in graph.nodes() if n.tier == 3]
    return [topo.routers_of(asn)[0] for asn in stubs[:count]]


def _helper_avoiding(prober, graph, topo, dst, avoid_asn, exclude):
    """A stub vantage point whose reverse path from *dst* skips *avoid_asn*."""
    for node in graph.nodes():
        if node.tier != 3:
            continue
        rid = topo.routers_of(node.asn)[0]
        if rid in exclude:
            continue
        walk = prober.dataplane.forward(dst, topo.router(rid).address)
        if walk.delivered and avoid_asn not in walk.as_level_hops(topo):
            return rid
    pytest.fail(
        f"no stub avoids AS{avoid_asn} on the reverse path from {dst}"
    )


@pytest.fixture()
def prober(dataplane):
    return Prober(dataplane)


class TestPing:
    def test_ping_success(self, small_internet, prober):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        assert prober.ping(src, topo.router(dst).address).success

    def test_ping_counts_probes(self, small_internet, prober):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        prober.ping(src, topo.router(dst).address)
        assert prober.probes_sent == 1

    def test_ping_fails_on_forward_failure(self, small_internet, prober):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        walk = prober.dataplane.forward(src, topo.router(dst).address)
        transit = walk.as_level_hops(topo)[1]
        prober.dataplane.failures.add(
            ASForwardingFailure(
                asn=transit, toward=prefix_for_asn(topo.router(dst).asn)
            )
        )
        assert not prober.ping(src, topo.router(dst).address).success

    def test_ping_fails_on_reverse_failure(self, small_internet, prober):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        dst_addr = topo.router(dst).address
        # Break the reverse direction only: some transit AS on the return
        # path blackholes traffic toward the *source* prefix.
        reverse_walk = prober.dataplane.forward(
            dst, topo.router(src).address
        )
        reverse_transit = reverse_walk.as_level_hops(topo)[1]
        prober.dataplane.failures.add(
            ASForwardingFailure(
                asn=reverse_transit,
                toward=prefix_for_asn(topo.router(src).asn),
            )
        )
        assert not prober.ping(src, dst_addr).success

    def test_spoofed_ping_sidesteps_reverse_failure(
        self, small_internet, prober
    ):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        dst_addr = topo.router(dst).address
        reverse_walk = prober.dataplane.forward(dst, topo.router(src).address)
        reverse_transit = reverse_walk.as_level_hops(topo)[1]
        helper = _helper_avoiding(
            prober, graph, topo, dst, reverse_transit, exclude=(src, dst)
        )
        prober.dataplane.failures.add(
            ASForwardingFailure(
                asn=reverse_transit,
                toward=prefix_for_asn(topo.router(src).asn),
            )
        )
        # Normal ping fails; spoofed-as-helper succeeds: forward path works
        # and the reply reaches the helper, isolating a reverse failure.
        assert not prober.ping(src, dst_addr).success
        assert prober.ping(src, dst_addr, receive_at=helper).success

    def test_unresponsive_router_never_answers(self, small_internet, prober):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        prober.dataplane.topo.router(dst).responds_to_ping = False
        try:
            assert not prober.ping(src, topo.router(dst).address).success
        finally:
            prober.dataplane.topo.router(dst).responds_to_ping = True


class TestPingAccountingPin:
    """1,000 mixed pings — plain, spoofed to a helper, from a claimed
    address; at routers (a fifth of them deaf to ICMP) and at hosts;
    across a failure window — with probe faults injected, replies lost
    at random, or both.  The counters and both RNG streams were pinned
    before ``_ping`` stopped consulting an absent injector and a zero
    loss rate; an extra or a missing draw moves every number after it.
    """

    @pytest.fixture(scope="class")
    def world(self):
        graph = generate_internet(SMALL_SHAPE, seed=11)
        topo = RouterTopology.build(
            graph, seed=11, unresponsive_fraction=0.2
        )
        engine = BGPEngine(graph)
        for node in graph.nodes():
            for prefix in node.prefixes:
                engine.originate(node.asn, prefix)
        engine.run()
        return graph, topo, build_fibs(engine)

    @staticmethod
    def _state(rng):
        return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16]

    def _injector(self, topo):
        injector = FaultInjector(
            FaultPlan(
                [FaultSpec(FaultKind.PROBE_LOSS, rate=0.2),
                 FaultSpec(FaultKind.PROBE_LATENCY, rate=0.1, start=300.0)],
                seed=3,
            )
        )
        # What a VP_CRASH spec does to the vantage points it names.
        injector._crashed_rids.update(
            sorted(r.rid for r in topo.routers())[::9]
        )
        return injector

    def _drive(self, world, injector, reply_loss_rate):
        graph, topo, fibs = world
        dataplane = DataPlane(topo, fibs, FailureSet())
        prober = Prober(
            dataplane, reply_loss_rate=reply_loss_rate, seed=5,
            injector=injector,
        )
        rng = random.Random(17)
        rids = sorted(r.rid for r in topo.routers())
        dataplane.failures.add(
            ASForwardingFailure(
                asn=sorted(graph.transit_ases())[2], start=200.0, end=700.0
            )
        )
        answered = 0
        for i in range(1000):
            dataplane.now = float(i)
            src, dst, helper = rng.sample(rids, 3)
            address = topo.router(dst).address
            if i % 3 == 0:
                address = address.value + 7  # a host beside the router
            how = {}
            if i % 5 == 0:
                how["receive_at"] = helper
            elif i % 7 == 0:
                how["claimed_address"] = topo.router(helper).address
            answered += prober.ping(src, address, **how).success
        return (
            answered, prober.probes_sent, prober.probes_lost_to_faults,
            prober.retries_used, prober.retry_wait_seconds,
            self._state(prober._rng),
        )

    def test_with_an_injector(self, world):
        injector = self._injector(world[1])
        # No reply-loss rate: the prober's own stream is never drawn on.
        assert self._drive(world, injector, 0.0) == (
            635, 1635, 635, 506, 336.5, self._state(random.Random(5)),
        )
        assert self._state(injector._rng) == "e3136ffd1ea8d70d"
        assert (
            injector.stats.probes_lost, injector.stats.probes_timed_out
        ) == (584, 51)

    def test_with_reply_loss(self, world):
        assert self._drive(world, None, 0.3) == (
            517, 1000, 0, 0, 0.0, "afc283cdaf5f7f9c",
        )

    def test_with_both(self, world):
        injector = self._injector(world[1])
        assert self._drive(world, injector, 0.3) == (
            433, 1635, 635, 506, 336.5, "2bf10d080043c323",
        )
        assert self._state(injector._rng) == "e3136ffd1ea8d70d"


class TestTraceroute:
    def test_complete_traceroute(self, small_internet, prober):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        result = prober.traceroute(src, topo.router(dst).address)
        assert result.reached
        assert result.hops[-1] == topo.router(dst).address
        walk = prober.dataplane.forward(src, topo.router(dst).address)
        assert len(result.hops) == len(walk.hops) - 1

    def test_traceroute_stops_at_silent_failure(self, small_internet, prober):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        walk = prober.dataplane.forward(src, topo.router(dst).address)
        victim = walk.hops[len(walk.hops) // 2]
        prober.dataplane.failures.add(RouterFailure(rid=victim))
        result = prober.traceroute(src, topo.router(dst).address)
        assert not result.reached
        # The last responding hop precedes the victim.
        victim_index = walk.hops.index(victim)
        last = result.last_responsive()
        if last is not None:
            responding_rids = [
                prober.dataplane.topo.router_by_address(h).rid
                for h in result.responding_hops()
            ]
            assert all(
                walk.hops.index(r) < victim_index for r in responding_rids
            )

    def test_traceroute_misleads_on_reverse_failure(
        self, small_internet, prober
    ):
        """The §5.3 motivation: a reverse failure truncates traceroute at
        the reachability horizon even though the forward path is fine."""
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        dst_addr = topo.router(dst).address
        reverse_walk = prober.dataplane.forward(dst, topo.router(src).address)
        reverse_transit = reverse_walk.as_level_hops(topo)[1]
        prober.dataplane.failures.add(
            ASForwardingFailure(
                asn=reverse_transit,
                toward=prefix_for_asn(topo.router(src).asn),
            )
        )
        result = prober.traceroute(src, dst_addr)
        assert not result.reached  # looks like a forward-path problem...
        forward_ok = prober.dataplane.forward(src, dst_addr).delivered
        assert forward_ok  # ...but the forward path actually works

    def test_spoofed_traceroute_reveals_forward_path(
        self, small_internet, prober
    ):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        dst_addr = topo.router(dst).address
        reverse_walk = prober.dataplane.forward(dst, topo.router(src).address)
        reverse_transit = reverse_walk.as_level_hops(topo)[1]
        helper = _helper_avoiding(
            prober, graph, topo, dst, reverse_transit, exclude=(src, dst)
        )
        prober.dataplane.failures.add(
            ASForwardingFailure(
                asn=reverse_transit,
                toward=prefix_for_asn(topo.router(src).asn),
            )
        )
        spoofed = prober.traceroute(src, dst_addr, receive_at=helper)
        assert spoofed.reached


class TestReverseTraceroute:
    def test_measures_working_reverse_path(self, small_internet, prober):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        tool = ReverseTracerouteTool(prober)
        path = tool.measure(src, topo.router(dst).address)
        assert path is not None
        truth = prober.dataplane.forward(dst, topo.router(src).address)
        assert path.hops == [
            topo.router(rid).address for rid in truth.hops
        ]

    def test_unmeasurable_during_reverse_failure(self, small_internet, prober):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        reverse_walk = prober.dataplane.forward(dst, topo.router(src).address)
        reverse_transit = reverse_walk.as_level_hops(topo)[1]
        prober.dataplane.failures.add(
            ASForwardingFailure(
                asn=reverse_transit,
                toward=prefix_for_asn(topo.router(src).asn),
            )
        )
        tool = ReverseTracerouteTool(prober)
        assert tool.measure(src, topo.router(dst).address) is None

    def test_probe_accounting(self, small_internet, prober):
        graph, topo, _ = small_internet
        src, dst = _stub_routers(graph, topo, 2)
        tool = ReverseTracerouteTool(prober)
        tool.measure(src, topo.router(dst).address)
        # 1 ping + 10 amortized option probes.
        assert prober.probes_sent == 11
