"""Tests for ping/traceroute/spoofed probes and reverse traceroute."""

import hashlib
import io
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
from repro.obs.events import EventBus
from repro.obs.export import read_events_jsonl
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


@pytest.fixture(scope="module")
def world():
    """The small seed-11 Internet with a fifth of its routers deaf to
    ICMP: (graph, router topo, FIBs)."""
    graph = generate_internet(SMALL_SHAPE, seed=11)
    topo = RouterTopology.build(graph, seed=11, unresponsive_fraction=0.2)
    engine = BGPEngine(graph)
    for node in graph.nodes():
        for prefix in node.prefixes:
            engine.originate(node.asn, prefix)
    engine.run()
    return graph, topo, build_fibs(engine)


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


#: Recorded before the prober kept prepared event lines.
PROBE_EVENT_DIGEST = (
    "a9d344c26dd0bdb1bfebac4d281d9247"
    "37b3121029193def157c3c4a8f52721e"
)
PROBE_EVENT_COUNTS = {
    "probe.ping": 1200, "probe.rr-ping": 848, "probe.traceroute": 200,
}


def probe_event_log(world):
    """Every probe kind on an attached bus: plain, spoofed-to-a-helper
    and claimed-source pings, plain and spoofed traceroutes, plain
    record-route pings and reverse traceroute's spoofed ones, among a
    dozen routers (so each pair
    recurs with either outcome), 5% of replies lost and a transit AS
    failed for part of the run.  Returns the bus's digest and counts."""
    graph, topo, fibs = world
    dataplane = DataPlane(topo, fibs, FailureSet())
    prober = Prober(dataplane, reply_loss_rate=0.05, seed=7)
    prober.obs = bus = EventBus()
    tool = ReverseTracerouteTool(prober)
    rng = random.Random(29)
    pool = rng.sample(sorted(r.rid for r in topo.routers()), 12)
    dataplane.failures.add(
        ASForwardingFailure(
            asn=sorted(graph.transit_ases())[2], start=100.0, end=250.0
        )
    )
    for i in range(400):
        dataplane.now = float(i)
        src, dst, helper = rng.sample(pool, 3)
        address = topo.router(dst).address
        if i % 3 == 0:
            address = address.value + 7  # a host beside the router
        prober.ping(src, address)
        prober.ping(src, address, receive_at=helper)
        prober.ping(
            src, address, claimed_address=topo.router(helper).address
        )
        if i % 4 == 0:
            prober.traceroute(src, address, receive_at=helper)
        elif i % 4 == 1:
            prober.traceroute(src, address)
        if i % 2 == 0:
            tool.measure_incremental(src, address, vantage_rids=pool)
        elif i % 5 == 0:
            prober.rr_ping(src, address)
    return bus.digest(), dict(sorted(bus.counts.items()))


class TestProbeEventPin:
    """The event lines of every probe kind, pinned: neither
    ``test_control_pin.py`` digest covers ``probe.rr-ping`` or reply
    loss."""

    def test_every_probe_kind(self, world):
        digest, counts = probe_event_log(world)
        assert counts == PROBE_EVENT_COUNTS
        assert digest == PROBE_EVENT_DIGEST


class TestPreparedProbeLines:
    def test_sink_lines_equal_plain_emit(self, small_internet, prober):
        """One pair's outcome flips success -> failure -> success while
        it is pinged plain and spoofed both ways, traced and
        record-route pinged, and the bus is swapped for a fresh one
        half-way: every line the prober's kept lines produce is the
        line a plain ``emit`` of the same arguments produces."""
        graph, topo, _ = small_internet
        src, dst, helper = _stub_routers(graph, topo, 3)
        dst_addr = topo.router(dst).address
        transit = prober.dataplane.forward(src, dst_addr).as_level_hops(
            topo
        )[1]
        prober.dataplane.failures.add(
            ASForwardingFailure(
                asn=transit, toward=prefix_for_asn(topo.router(dst).asn),
                start=50.0, end=100.0,
            )
        )
        sinks = [io.StringIO() for _ in range(4)]
        buses = [EventBus(sink=sink) for sink in sinks[:2]]
        plain = [EventBus(sink=sink) for sink in sinks[2:]]
        outcomes = []
        for step in range(6):
            now = prober.dataplane.now = 30.0 * step
            prober.obs, reference = buses[step // 3], plain[step // 3]

            def expect(kind, spoofed, **outcome):
                reference.emit(
                    kind, now, "dataplane.prober",
                    subject=f"{src}->{dst_addr}", spoofed=spoofed, **outcome,
                )

            for how in (
                {}, {"receive_at": helper},
                {"claimed_address": topo.router(helper).address},
            ):
                success = prober.ping(src, dst_addr, **how).success
                expect("probe.ping", bool(how), success=success)
                outcomes.append(success)
                rr = prober.rr_ping(src, dst_addr, **how)
                expect(
                    "probe.rr-ping", bool(how), success=rr.success,
                    recorded=len(rr.recorded),
                )
            for receive_at in (None, helper):
                trace = prober.traceroute(src, dst_addr, receive_at=receive_at)
                expect(
                    "probe.traceroute", receive_at is not None,
                    reached=trace.reached, hops=len(trace.hops),
                )
        assert outcomes == [True] * 6 + [False] * 6 + [True] * 6
        for bus, reference, sink, reference_sink in zip(
            buses, plain, sinks[:2], sinks[2:]
        ):
            assert bus.total == 24
            assert sink.getvalue() == reference_sink.getvalue()
            assert bus.digest() == reference.digest()
        # Each (probe, outcome) is rendered once, whichever bus it meets.
        distinct = {
            (event.kind, event.subject, tuple(sorted(event.fields.items())))
            for sink in sinks[:2]
            for event in read_events_jsonl(io.StringIO(sink.getvalue()))
        }
        assert len(prober._prepared) == len(distinct) < 48


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
