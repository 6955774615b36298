"""Tests for ping monitoring, the atlas, and the responsiveness DB."""

import pytest

from repro.dataplane.failures import ASForwardingFailure
from repro.dataplane.probes import Prober
from repro.errors import MeasurementError
from repro.measure.atlas import AtlasRefresher, PathAtlas
from repro.measure.monitor import (
    CONSECUTIVE_FAILURES_FOR_OUTAGE,
    MonitorEvent,
    PingMonitor,
)
from repro.measure.responsiveness import ResponsivenessDB
from repro.measure.vantage import VantageSet
from repro.topology.generate import prefix_for_asn


@pytest.fixture()
def rig(small_internet, dataplane):
    graph, topo, _engine = small_internet
    prober = Prober(dataplane)
    vps = VantageSet(topo)
    stubs = [n.asn for n in graph.nodes() if n.tier == 3]
    for i, asn in enumerate(stubs[:3]):
        vps.add(f"vp{i}", topo.routers_of(asn)[0])
    target = topo.router(topo.routers_of(stubs[8])[0]).address
    return graph, topo, prober, vps, target


class TestVantageSet:
    def test_add_and_get(self, rig):
        _g, topo, _p, vps, _t = rig
        assert vps.get("vp0").rid == vps.get("vp0").rid
        assert len(vps) == 3
        assert "vp1" in vps

    def test_duplicate_name_rejected(self, rig):
        _g, topo, _p, vps, _t = rig
        with pytest.raises(MeasurementError):
            vps.add("vp0", vps.get("vp1").rid)

    def test_others_excludes_self(self, rig):
        _g, _t2, _p, vps, _t = rig
        others = vps.others("vp0")
        assert all(vp.name != "vp0" for vp in others)
        assert len(others) == 2


class TestResponsivenessDB:
    def test_ever_responded(self):
        db = ResponsivenessDB()
        db.record("10.0.0.1", True, time=5.0)
        assert db.last_response_time("10.0.0.1") == 5.0

    def test_configured_silent_needs_attempts(self):
        db = ResponsivenessDB()
        db.record("10.0.0.2", False)
        assert not db.configured_silent("10.0.0.2")  # only one attempt
        db.record("10.0.0.2", False)
        db.record("10.0.0.2", False)
        assert db.configured_silent("10.0.0.2")

    def test_one_success_clears_silent_verdict(self):
        db = ResponsivenessDB()
        for _ in range(5):
            db.record("10.0.0.3", False)
        db.record("10.0.0.3", True)
        assert not db.configured_silent("10.0.0.3")

    def test_unknown_address_not_silent(self):
        db = ResponsivenessDB()
        assert not db.configured_silent("10.9.9.9")
        assert db.last_response_time("10.9.9.9") == float("-inf")


class TestPingMonitor:
    def test_healthy_rounds_report_ok(self, rig):
        _g, _topo, prober, vps, target = rig
        monitor = PingMonitor(prober, vps, [target])
        events = monitor.run_round(now=0.0)
        assert all(e is MonitorEvent.OK for e in events.values())
        assert not monitor.outages

    def test_outage_detection_after_threshold(self, rig):
        graph, topo, prober, vps, target = rig
        target_asn = topo.router_by_address(target).asn
        monitor = PingMonitor(prober, vps, [target])
        monitor.run_round(now=0.0)
        # Break a transit AS on vp0's path toward the target (a failure
        # inside the destination AS itself would be the operator's own
        # problem and is invisible at the ingress=destination router).
        walk = prober.dataplane.forward(vps.get("vp0").rid, target)
        transit_asn = walk.as_level_hops(topo)[1]
        prober.dataplane.failures.add(
            ASForwardingFailure(
                asn=transit_asn, toward=prefix_for_asn(target_asn),
                start=10.0,
            )
        )
        events_seen = []
        for round_index in range(CONSECUTIVE_FAILURES_FOR_OUTAGE + 1):
            now = 30.0 * (round_index + 1)
            events = monitor.run_round(now=now)
            events_seen.append(events[("vp0", target.value)])
        assert MonitorEvent.OUTAGE_STARTED in events_seen
        outage = monitor.outages[0]
        assert outage.start == 30.0  # first failed round
        assert outage.end is None

    def test_outage_end_recorded(self, rig):
        graph, topo, prober, vps, target = rig
        target_asn = topo.router_by_address(target).asn
        monitor = PingMonitor(prober, vps, [target])
        walk = prober.dataplane.forward(vps.get("vp0").rid, target)
        transit_asn = walk.as_level_hops(topo)[1]
        prober.dataplane.failures.add(
            ASForwardingFailure(
                asn=transit_asn,
                toward=prefix_for_asn(target_asn),
                start=0.0,
                end=200.0,
            )
        )
        for round_index in range(10):
            monitor.run_round(now=30.0 * round_index)
        assert monitor.outages
        outage = monitor.outages[0]
        assert outage.end is not None
        assert outage.duration >= 90.0

    def test_min_detectable_duration_is_90s(self, rig):
        _g, _topo, prober, vps, target = rig
        monitor = PingMonitor(prober, vps, [target])
        # Failure spanning only two rounds: never becomes an outage.
        target_asn = prober.dataplane.topo.router_by_address(target).asn
        prober.dataplane.failures.add(
            ASForwardingFailure(
                asn=target_asn,
                toward=prefix_for_asn(target_asn),
                start=25.0,
                end=70.0,
            )
        )
        for round_index in range(6):
            monitor.run_round(now=30.0 * round_index)
        assert not monitor.outages


class TestAtlas:
    def test_refresh_populates_both_directions(self, rig):
        _g, topo, prober, vps, target = rig
        atlas = PathAtlas()
        refresher = AtlasRefresher(prober, vps, atlas)
        stats = refresher.refresh_all([target], now=0.0)
        assert stats.paths_refreshed == len(vps)
        for vp in vps:
            assert atlas.forward_history(vp.name, target)
            assert atlas.reverse_history(vp.name, target)

    def test_historical_ordering(self, rig):
        _g, _topo, prober, vps, target = rig
        atlas = PathAtlas()
        refresher = AtlasRefresher(prober, vps, atlas)
        refresher.refresh_pair(vps.get("vp0"), target, now=0.0)
        refresher.refresh_pair(vps.get("vp0"), target, now=600.0)
        history = atlas.reverse_history("vp0", target)
        assert [e.time for e in history] == [600.0, 0.0]
        (older,) = atlas.reverse_history("vp0", target, before=300.0)
        assert older.time == 0.0

    def test_amortized_refresh_cheaper_than_fresh(self, rig):
        _g, _topo, prober, vps, target = rig
        atlas = PathAtlas()
        refresher = AtlasRefresher(prober, vps, atlas)
        first = refresher.refresh_pair(vps.get("vp0"), target, now=0.0)
        second = refresher.refresh_pair(vps.get("vp0"), target, now=600.0)
        assert second.option_probes < first.option_probes

