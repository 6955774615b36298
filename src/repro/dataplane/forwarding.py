"""Hop-by-hop forwarding walks over the router topology.

A walk consults the per-AS FIB at every hop, picks the hot-potato egress
router toward the AS-level next hop, steps router-by-router (decrementing
TTL), and checks the failure set at each router and link.  Failures are
applied even at the emitting router — a reply generated inside a
blackholing AS dies before it leaves, which is what makes unidirectional
failures observable the way the paper describes.

TTL semantics follow real routers: a packet whose TTL expires at a transit
router elicits a TTL-exceeded there, but a packet arriving *at its
destination* is consumed regardless — hosts do not generate TTL-exceeded
for packets addressed to them.

A walk is a pure function of what it read — the FIB maps of the ASes it
crossed, the origins index, the failure buckets at the routers, ASes and
links it passed (``now`` only through their windows), the static
topology — and of those, only the rows and failures that match its
destination.  :meth:`DataPlane.forward` remembers it on those terms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.dataplane.failures import FailureSet
from repro.dataplane.fib import LOCAL, FibSnapshot
from repro.net.addr import Address, Prefix, address_int
from repro.topology.routers import RouterTopology

_MAX_ROUTER_HOPS = 256
#: Moves one AS keeps the destinations of.  Older ones fold into a move
#: that reaches every destination: a walk not asked for across that many
#: moves of one AS it crossed is walked again, never served stale.
_SCOPES_KEPT = 16


class ForwardOutcome(enum.Enum):
    """Terminal state of a forwarding walk."""

    DELIVERED = "delivered"
    NO_ROUTE = "no-route"
    DROPPED = "dropped"          # silent failure ate the packet
    TTL_EXPIRED = "ttl-expired"
    LOOP = "loop"
    NO_LINK = "no-link"          # FIB points at an AS with no physical link


@dataclass(frozen=True, slots=True)
class ForwardResult:
    """Everything observable about one packet's trip (immutable: one
    remembered result goes to every caller asking the same question)."""

    outcome: ForwardOutcome
    #: routers traversed in order, starting with the emitting router.
    hops: Tuple[str, ...] = ()
    #: router where the walk ended (delivery point or drop point).
    final_router: Optional[str] = None
    #: router that terminates the destination, resolved once when the
    #: walk started (None when nothing hosts the address).
    target_router: Optional[str] = None

    @property
    def delivered(self) -> bool:
        return self.outcome is ForwardOutcome.DELIVERED

    def as_level_hops(self, topo: RouterTopology) -> List[int]:
        """AS sequence of the traversed routers (duplicates collapsed)."""
        out: List[int] = []
        for rid in self.hops:
            asn = topo.router(rid).asn
            if not out or out[-1] != asn:
                out.append(asn)
        return out


class DataPlane:
    """A forwarding engine bound to one FIB snapshot and failure set."""

    def __init__(
        self,
        topo: RouterTopology,
        fibs: FibSnapshot,
        failures: Optional[FailureSet] = None,
        now: float = 0.0,
    ) -> None:
        self.topo = topo
        self.fibs = fibs
        self.failures = failures if failures is not None else FailureSet()
        self.now = now
        #: (source router, destination, ttl) -> (result, lo, hi, epoch,
        #: ASes): a walk's answer, the sim-time window its failure
        #: buckets hold still in, when it was walked or last checked
        #: against the stamps, the ASes whose FIB map or failures it
        #: read.  One per probe, overwritten in place.
        self._walks: Dict[Tuple[str, int, int], tuple] = {}
        #: asn -> the epoch at which its FIB map or failures last moved.
        self._stamps: Dict[int, int] = {}
        #: asn -> (epoch, mask, base) per move behind its stamp, oldest
        #: first: the move can reach destination ``d`` iff ``d & mask ==
        #: base``.  At most _SCOPES_KEPT; older ones fold into the first.
        self._scopes: Dict[int, List[Tuple[int, int, int]]] = {}
        self._epoch = 0
        self._seen = (fibs, self.failures, len(self.failures.changes))
        #: forward() calls answered from / added to the memo.
        self.walk_hits = self.walk_misses = 0

    # ------------------------------------------------------------------
    # Host attachment
    # ------------------------------------------------------------------
    def host_router(
        self, destination: Union[int, str, Address]
    ) -> Optional[str]:
        """The router that terminates *destination*.

        Router-interface addresses map to their router; any other address
        inside an originated prefix is a host hanging off the origin AS's
        first router.
        """
        destination = address_int(destination)
        router = self.topo.router_by_address(destination)
        if router is not None:
            return router.rid
        owner = self.fibs.origin_for(destination)
        if owner is None:
            return None
        routers = self.topo.routers_of(owner)
        return routers[0] if routers else None

    # ------------------------------------------------------------------
    # The walk
    # ------------------------------------------------------------------
    def _catch_up(self) -> None:
        """Stamp what moved since the last walk, and toward which
        destinations: each row that differs between an AS's old and new
        map in a rebound ``fibs`` (its prefix: only an address inside it
        can resolve differently), and each entry of the failure set's
        change log (the failure's ``toward``) in the AS its key is homed
        in (a link's is its sending router's).  A changed origin row
        drops the walks toward its prefix; a swapped failure set drops
        every walk."""
        old, failures, cursor = self._seen
        fibs, changes = self.fibs, self.failures.changes
        self._seen = (fibs, self.failures, len(changes))
        self._epoch += 1
        if self.failures is not failures:
            self._walks.clear()
            return
        moved = []
        if fibs is not old:
            if fibs.origins is not old.origins:
                self._forget(_moved_rows(old.origins, fibs.origins))
            tables, before = fibs.tables, old.tables
            for asn in tables.keys() | before.keys():
                new, was = tables.get(asn), before.get(asn)
                if new is not was:
                    moved += [
                        (asn, prefix.mask, prefix.base)
                        for prefix in _moved_rows(was, new)
                    ]
        for key, mask, base in changes[cursor:]:
            home = key[0] if type(key) is tuple else key
            if type(home) is str:
                home = self.topo.router(home).asn
            moved.append((home, mask, base))
        epoch, stamps, scopes = self._epoch, self._stamps, self._scopes
        for asn, mask, base in moved:
            stamps[asn] = epoch
            kept = scopes.setdefault(asn, [])
            kept.append((epoch, mask, base))
            if len(kept) > _SCOPES_KEPT:
                del kept[:-_SCOPES_KEPT]
                kept[0] = (kept[0][0], 0, 0)

    def _reaches(self, asn: int, walked: int, destination: int) -> bool:
        """Can a move of *asn* since epoch *walked* have changed a walk
        toward *destination*?"""
        for epoch, mask, base in reversed(self._scopes[asn]):
            if epoch <= walked:
                return False
            if destination & mask == base:
                return True
        return False

    def _forget(self, prefixes) -> None:
        """Drop the walks toward an address inside any of *prefixes*
        (whose host may have moved)."""
        scopes = [(prefix.mask, prefix.base) for prefix in prefixes]
        walks = self._walks
        for key in [
            key for key in walks
            if any(key[1] & mask == base for mask, base in scopes)
        ]:
            del walks[key]

    def forward(
        self,
        source_rid: str,
        destination: Union[int, str, Address],
        ttl: int = 64,
        now: Optional[float] = None,
    ) -> ForwardResult:
        """Walk a packet from *source_rid* toward *destination*.

        Served from the memo while *now* is inside the window the same
        (source, destination, ttl) was walked for and no AS it read has
        been stamped since by a move that reaches *destination* —
        checked once per change of the world: an
        entry that passes is re-dated to the current epoch, and one
        dated to the current epoch is returned unread.  Otherwise the
        destination travels as an int and the current AS as a local;
        each hop asks the FIB snapshot, the failure set (router, then
        link) and the topology's egress memo one question apiece.
        """
        now = self.now if now is None else now
        if type(destination) is not int:  # noqa: E721
            destination = address_int(destination)
        failures = self.failures
        seen = self._seen
        if (
            self.fibs is not seen[0]
            or failures is not seen[1]
            or len(failures.changes) != seen[2]
        ):
            self._catch_up()
        key = (source_rid, destination, ttl)
        entry = self._walks.get(key)
        if entry is not None and entry[1] <= now < entry[2]:
            walked = entry[3]
            if walked == self._epoch:
                self.walk_hits += 1
                return entry[0]
            stamps = self._stamps
            for asn in entry[4]:
                if stamps.get(asn, 0) > walked and self._reaches(
                    asn, walked, destination
                ):
                    break
            else:
                # Checked against everything stamped so far: as good as
                # walked now, until the world next moves.
                self._walks[key] = (*entry[:3], self._epoch, entry[4])
                self.walk_hits += 1
                return entry[0]
        self.walk_misses += 1

        router = self.topo.router
        intra_next_hop = self.topo.intra_next_hop
        egress_router = self.topo.egress_router
        next_hop_as = self.fibs.next_hop_as
        router_drops = failures.router_drops
        link_drops = failures.link_drops

        target_rid = self.host_router(destination)
        target_asn = None if target_rid is None else router(target_rid).asn
        current = source_rid
        current_asn = router(current).asn
        hops = [current]
        # What the walk reads beside the routers: ASes (FIB map, bucket)
        # and directed links (bucket), including the link it may die on.
        asns = [current_asn]
        links = []
        visited = {current}

        def ended(outcome: ForwardOutcome, at: str) -> ForwardResult:
            result = ForwardResult(outcome, tuple(hops), at, target_rid)
            read = hops + asns + links
            quiet = failures.quiet_window(read, destination, now)
            self._walks[key] = (result, *quiet, self._epoch, tuple(asns))
            return result

        if router_drops(current, current_asn, destination, now):
            return ended(ForwardOutcome.DROPPED, current)

        for _ in range(_MAX_ROUTER_HOPS):
            next_as = next_hop_as(current_asn, destination)
            if next_as is None:
                return ended(ForwardOutcome.NO_ROUTE, current)

            if next_as == LOCAL:
                if target_asn != current_asn:
                    # Prefix originated here but no host terminates the
                    # address (or a more-specific host lives elsewhere).
                    return ended(ForwardOutcome.NO_ROUTE, current)
                if current == target_rid:
                    return ended(ForwardOutcome.DELIVERED, current)
                next_rid = intra_next_hop(current, target_rid)
                if next_rid is None:
                    return ended(ForwardOutcome.NO_ROUTE, current)
            else:
                egress = egress_router(current, next_as)
                if egress is None:
                    return ended(ForwardOutcome.NO_LINK, current)
                egress_rid, ingress_rid = egress
                if current == egress_rid:
                    next_rid = ingress_rid
                else:
                    next_rid = intra_next_hop(current, egress_rid)
                    if next_rid is None:
                        return ended(ForwardOutcome.NO_ROUTE, current)

            links.append((current, next_rid))
            if link_drops(current, next_rid, destination, now):
                return ended(ForwardOutcome.DROPPED, current)

            ttl -= 1
            hops.append(next_rid)
            next_asn = router(next_rid).asn
            if next_asn != current_asn:
                asns.append(next_asn)
            if (
                next_rid == target_rid
                and next_hop_as(next_asn, destination) == LOCAL
            ):
                # Delivery check precedes the drop check: the packet is
                # consumed by the host before the router would forward it.
                return ended(ForwardOutcome.DELIVERED, next_rid)
            if ttl <= 0:
                return ended(ForwardOutcome.TTL_EXPIRED, next_rid)
            if router_drops(next_rid, next_asn, destination, now):
                return ended(ForwardOutcome.DROPPED, next_rid)
            if next_rid in visited:
                return ended(ForwardOutcome.LOOP, next_rid)
            visited.add(next_rid)
            current = next_rid
            current_asn = next_asn

        return ended(ForwardOutcome.LOOP, current)


def _moved_rows(
    was: Optional[Mapping[Prefix, int]], new: Optional[Mapping[Prefix, int]]
) -> Set[Prefix]:
    """The prefixes whose row differs between two maps (None: no map)."""
    return {prefix for prefix, _ in (was or {}).items() ^ (new or {}).items()}
