"""Smaller behaviours: partial-outage checks, probe helpers."""

import pytest

from repro.dataplane.failures import ASForwardingFailure
from repro.dataplane.probes import Prober
from repro.measure.monitor import PingMonitor
from repro.measure.vantage import VantageSet
from repro.topology.generate import prefix_for_asn


class TestPartialOutageCheck:
    def test_is_partial_true_when_other_vp_reaches(
        self, small_internet, dataplane
    ):
        graph, topo, _engine = small_internet
        prober = Prober(dataplane)
        vps = VantageSet(topo)
        stubs = [n.asn for n in graph.nodes() if n.tier == 3]
        for i, asn in enumerate(stubs[:3]):
            vps.add(f"vp{i}", topo.routers_of(asn)[0])
        target = topo.router(topo.routers_of(stubs[9])[0]).address
        monitor = PingMonitor(prober, vps, [target])

        # Break only vp0's path: a transit AS on it, scoped to traffic
        # toward the target, that the other VPs' paths avoid.
        walk0 = dataplane.forward(vps.get("vp0").rid, target)
        candidates = walk0.as_level_hops(topo)[1:-1]
        chosen = None
        for candidate in candidates:
            others_clear = all(
                candidate
                not in dataplane.forward(vp.rid, target).as_level_hops(topo)
                for vp in vps.others("vp0")
            )
            if others_clear:
                chosen = candidate
                break
        if chosen is None:
            pytest.skip("all candidate transits shared in this draw")
        target_asn = topo.router_by_address(target).asn
        dataplane.failures.add(
            ASForwardingFailure(
                asn=chosen, toward=prefix_for_asn(target_asn)
            )
        )
        for round_index in range(5):
            monitor.run_round(now=30.0 * round_index)
        assert monitor.outages
        # Partial: another vantage point still reaches the target.
        assert any(
            prober.ping(vp.rid, target).success
            for vp in vps.live_others("vp0")
        )


class TestProbeResultHelpers:
    def test_traceroute_result_helpers(self, small_internet, dataplane):
        graph, topo, _engine = small_internet
        prober = Prober(dataplane)
        stubs = [n.asn for n in graph.nodes() if n.tier == 3]
        src = topo.routers_of(stubs[0])[0]
        dst_addr = topo.router(topo.routers_of(stubs[1])[0]).address
        result = prober.traceroute(src, dst_addr)
        assert result.last_responsive() == result.responding_hops()[-1]
        assert all(h is not None for h in result.responding_hops())

    def test_reply_loss_rate_drops_some(self, small_internet, dataplane):
        graph, topo, _engine = small_internet
        prober = Prober(dataplane, reply_loss_rate=0.5, seed=9)
        stubs = [n.asn for n in graph.nodes() if n.tier == 3]
        src = topo.routers_of(stubs[0])[0]
        dst_addr = topo.router(topo.routers_of(stubs[1])[0]).address
        outcomes = [prober.ping(src, dst_addr).success for _ in range(40)]
        assert any(outcomes) and not all(outcomes)
