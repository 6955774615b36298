"""Reverse traceroute emulation.

The real system [Katz-Bassett et al., NSDI'10] measures the path *from* a
destination D *back to* a source S using IP record-route options on spoofed
probes.  The emulation honours the tool's fundamental constraint: it can
only measure the reverse path when D's responses actually reach the
measuring infrastructure — during a reverse-path failure the tool cannot
measure the broken direction from S (that is precisely why LIFEGUARD keeps
a historical atlas and pings hops on old paths instead).

Concretely: ``measure(S, T)`` returns the router-level path T -> S iff the
round trip S <-> T currently works; otherwise ``measure_via_helpers`` can
recover it when some helper vantage point has a working round trip to T
and S can reach T (the helper receives spoofed responses on S's behalf and
the segment back to S is stitched from the helpers' own measured paths —
modelled here by requiring a helper whose reverse path from T is intact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

from repro.dataplane.forwarding import DataPlane
from repro.dataplane.probes import Prober
from repro.net.addr import Address

#: Amortized IP-option probes charged per measured reverse path (§5.4
#: reports 10 for the optimized atlas, 35 for from-scratch measurement).
OPTION_PROBES_PER_PATH = 10


@dataclass
class ReversePath:
    """A measured reverse path from *target* back to *source*."""

    target: Address
    source_rid: str
    #: router addresses from the target (exclusive) to the source router.
    hops: List[Address]


class ReverseTracerouteTool:
    """Measures reverse paths over a :class:`Prober`."""

    def __init__(self, prober: Prober) -> None:
        self.prober = prober
        self.paths_measured = 0

    @property
    def dataplane(self) -> DataPlane:
        return self.prober.dataplane

    def _true_reverse_walk(
        self, target: Union[str, Address], source_rid: str
    ) -> Optional[List[Address]]:
        """Ground-truth reverse path, used once measurability is proven."""
        target_rid = self.dataplane.host_router(target)
        if target_rid is None:
            return None
        source_address = self.dataplane.topo.router(source_rid).address
        walk = self.dataplane.forward(target_rid, source_address)
        if not walk.delivered:
            return None
        return [
            self.dataplane.topo.router(rid).address for rid in walk.hops
        ]

    def measure(
        self, source_rid: str, target: Union[str, Address]
    ) -> Optional[ReversePath]:
        """Reverse path from *target* to *source_rid*, if measurable.

        Requires a working round trip: the tool sends option probes from
        the source and needs the responses back.
        """
        target = Address(target)
        round_trip = self.prober.ping(source_rid, target)
        if not round_trip.success:
            return None
        hops = self._true_reverse_walk(target, source_rid)
        if hops is None:
            # Races exist in principle (ping worked, path gone); surface
            # as unmeasurable rather than inventing data.
            return None
        self.prober.probes_sent += OPTION_PROBES_PER_PATH
        self.paths_measured += 1
        return ReversePath(target=target, source_rid=source_rid, hops=hops)

    def measure_with_spoofed_source(
        self,
        helper_rid: str,
        target: Union[str, Address],
        source_rid: str,
    ) -> Optional[ReversePath]:
        """Spoofed reverse traceroute: measure T -> S when S cannot reach T.

        A helper that *can* reach the target emits probes spoofed as the
        source; the responses travel the target->source direction and the
        record-route options reveal its hops.  Works iff helper->target and
        target->source both work — the tool for measuring the working
        reverse direction during a *forward*-path failure (§4.1.2).
        """
        target = Address(target)
        result = self.prober.ping(helper_rid, target, receive_at=source_rid)
        if not result.success:
            return None
        hops = self._true_reverse_walk(target, source_rid)
        if hops is None:
            return None
        self.prober.probes_sent += OPTION_PROBES_PER_PATH
        self.paths_measured += 1
        return ReversePath(target=target, source_rid=source_rid, hops=hops)

    def measure_incremental(
        self,
        source_rid: str,
        target: Union[str, Address],
        vantage_rids: Iterable[str] = (),
        max_rounds: int = 32,
    ) -> Optional[ReversePath]:
        """The real NSDI'10 algorithm: assemble the reverse path hop by
        hop from record-route pings.

        Each round needs a vantage point within 8 hops of the current
        frontier hop (so the 9-slot RR option has room left to stamp
        reply-side hops) whose probe, spoofed as the measurement source,
        elicits a reply that actually reaches the source.  Measurement
        fails honestly when VP coverage is too thin or the frontier's
        path to the source is broken — exactly the real tool's limits.
        """
        target = Address(target)
        topo = self.dataplane.topo
        source_address = topo.router(source_rid).address
        source_asn = topo.router(source_rid).asn
        vantage_points = [source_rid] + [
            rid for rid in vantage_rids if rid != source_rid
        ]

        target_rid = self.dataplane.host_router(target)
        if target_rid is None:
            return None
        hops: List[Address] = [topo.router(target_rid).address]
        seen = {hops[0].value}
        frontier = hops[0]

        for _ in range(max_rounds):
            if topo.router_by_address(frontier) is not None and (
                topo.router_by_address(frontier).asn == source_asn
            ):
                self.prober.probes_sent += 0  # no extra cost: done
                self.paths_measured += 1
                return ReversePath(
                    target=target, source_rid=source_rid, hops=hops
                )
            new_hops = self._measure_next_segment(
                frontier, source_address, vantage_points
            )
            if not new_hops:
                return None  # coverage gap or broken reverse path
            progressed = False
            for hop in new_hops:
                if hop.value in seen:
                    continue
                seen.add(hop.value)
                hops.append(hop)
                frontier = hop
                progressed = True
            if not progressed:
                return None
        return None

    def _measure_next_segment(
        self,
        frontier: Address,
        source_address: Address,
        vantage_points: List[str],
    ) -> List[Address]:
        """One RR round: reply-side stamps past *frontier* toward S."""
        # Order vantage points by distance to the frontier; only those
        # within 8 hops leave RR slots for the reply direction.
        candidates = []
        for rid in vantage_points:
            walk = self.dataplane.forward(rid, frontier)
            if not walk.delivered:
                continue
            distance = len(walk.hops) - 1
            if distance <= 8:
                candidates.append((distance, rid))
        candidates.sort()
        for _, rid in candidates:
            rr = self.prober.rr_ping(
                rid, frontier, claimed_address=source_address
            )
            if rr.success and rr.recorded_reply:
                return rr.recorded_reply
        return []

    def measure_via_helpers(
        self,
        source_rid: str,
        target: Union[str, Address],
        helpers: Iterable[str],
    ) -> Optional[ReversePath]:
        """Reverse path measurement assisted by helper vantage points.

        The source must be able to *reach* the target (it emits the spoofed
        probes) and some helper must have a working round trip to the
        target (it receives the responses).  Used for building atlas
        entries of paths the source itself cannot complete.
        """
        target = Address(target)
        spoofed_ok = False
        for helper in helpers:
            result = self.prober.ping(source_rid, target, receive_at=helper)
            if result.success:
                spoofed_ok = True
                break
        if not spoofed_ok:
            return None
        hops = self._true_reverse_walk(target, source_rid)
        if hops is None:
            return None
        self.prober.probes_sent += OPTION_PROBES_PER_PATH
        self.paths_measured += 1
        return ReversePath(target=target, source_rid=source_rid, hops=hops)
