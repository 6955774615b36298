"""Router/PoP-level topology layered under the AS graph.

Traceroute-style measurements see router hops, not ASes, so each AS is
expanded into a small connected graph of routers.  AS-level adjacencies are
realized as links between specific *border* routers, which lets the failure
models break a single PoP or inter-AS link while the rest of the AS keeps
working — the situation LIFEGUARD's isolation engine has to untangle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.errors import TopologyError
from repro.net.addr import Address, address_int
from repro.topology.as_graph import ASGraph


@dataclass
class Router:
    """One router.  ``rid`` is globally unique, e.g. ``"AS12.r3"``."""

    rid: str
    asn: int
    address: Address
    #: True once the router terminates at least one inter-AS link.
    is_border: bool = False
    #: Routers in the same AS this one links to.
    intra_neighbors: List[str] = field(default_factory=list)
    #: Router ids in *other* ASes this one links to.
    external_neighbors: List[str] = field(default_factory=list)
    #: Routers configured to never answer ICMP (the atlas must learn this).
    responds_to_ping: bool = True


class RouterTopology:
    """Router-level expansion of an :class:`ASGraph`.

    Build one with :meth:`build`.  The object precomputes intra-AS
    shortest-path next hops so the data plane can walk packets hop by hop.
    """

    def __init__(self, as_graph: ASGraph) -> None:
        self.as_graph = as_graph
        self._routers: Dict[str, Router] = {}
        self._by_asn: Dict[int, List[str]] = {}
        self._by_address: Dict[int, str] = {}
        #: (asn_a, asn_b) -> list of (router-in-a, router-in-b) realizations.
        self._as_links: Dict[Tuple[int, int], List[Tuple[str, str]]] = {}
        #: per-AS next-hop table: (src_rid, dst_rid) -> next rid.
        self._intra_next: Dict[Tuple[str, str], str] = {}
        #: (from_router, next_asn) -> egress_router() answer.  Links and
        #: next hops never change once build() returns, so neither do
        #: the answers.
        self._egress: Dict[
            Tuple[str, int], Optional[Tuple[str, str]]
        ] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        as_graph: ASGraph,
        seed: int = 0,
        min_routers: int = 1,
        max_routers: int = 4,
        unresponsive_fraction: float = 0.05,
    ) -> "RouterTopology":
        """Expand *as_graph* into routers.

        Tier-1/2 ASes get up to *max_routers* PoPs, stubs get 1-2.  A small
        fraction of routers is marked ICMP-unresponsive so the measurement
        layer has to cope, as the paper's responsiveness database does.
        """
        rng = random.Random(seed)
        topo = cls(as_graph)
        for node in as_graph.nodes():
            if node.tier >= 3:
                count = rng.randint(1, max(1, min(2, max_routers)))
            else:
                count = rng.randint(max(2, min_routers), max_routers)
            topo._add_as_routers(node.asn, count, rng, unresponsive_fraction)
        for a, b, _rel in as_graph.links():
            topo._realize_as_link(a, b, rng)
        topo._compute_intra_next_hops()
        return topo

    def _add_as_routers(
        self,
        asn: int,
        count: int,
        rng: random.Random,
        unresponsive_fraction: float,
    ) -> None:
        if not self.as_graph.node(asn).prefixes:
            raise TopologyError(f"AS{asn} has no prefix to number routers")
        prefix = self.as_graph.node(asn).prefixes[0]
        rids = []
        for index in range(count):
            rid = f"AS{asn}.r{index}"
            address = prefix.address(index + 1)
            router = Router(rid=rid, asn=asn, address=address)
            if rng.random() < unresponsive_fraction:
                router.responds_to_ping = False
            self._routers[rid] = router
            self._by_address[address.value] = rid
            rids.append(rid)
        self._by_asn[asn] = rids
        # Intra-AS: chain plus random chords keeps it connected but sparse.
        for i in range(1, count):
            self._link_intra(rids[i - 1], rids[i])
        for i in range(count):
            for j in range(i + 2, count):
                if rng.random() < 0.3:
                    self._link_intra(rids[i], rids[j])

    def _link_intra(self, a: str, b: str) -> None:
        if b not in self._routers[a].intra_neighbors:
            self._routers[a].intra_neighbors.append(b)
            self._routers[b].intra_neighbors.append(a)

    def _realize_as_link(self, a: int, b: int, rng: random.Random) -> None:
        router_a = rng.choice(self._by_asn[a])
        router_b = rng.choice(self._by_asn[b])
        self._routers[router_a].is_border = True
        self._routers[router_b].is_border = True
        self._routers[router_a].external_neighbors.append(router_b)
        self._routers[router_b].external_neighbors.append(router_a)
        self._as_links.setdefault((a, b), []).append((router_a, router_b))
        self._as_links.setdefault((b, a), []).append((router_b, router_a))

    def _compute_intra_next_hops(self) -> None:
        for asn, rids in self._by_asn.items():
            # BFS from every router within the AS (ASes are small).
            for source in rids:
                parent: Dict[str, Optional[str]] = {source: None}
                queue = [source]
                head = 0
                while head < len(queue):
                    current = queue[head]
                    head += 1
                    for neighbor in self._routers[current].intra_neighbors:
                        if neighbor not in parent:
                            parent[neighbor] = current
                            queue.append(neighbor)
                for destination in rids:
                    if destination == source or destination not in parent:
                        continue
                    # Walk back from destination to find the first hop.
                    hop = destination
                    while parent[hop] != source:
                        hop = parent[hop]  # type: ignore[assignment]
                    self._intra_next[(source, destination)] = hop

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def router(self, rid: str) -> Router:
        """Router by id; raises TopologyError if unknown."""
        try:
            return self._routers[rid]
        except KeyError:
            raise TopologyError(f"unknown router {rid!r}")

    def routers(self) -> Iterator[Router]:
        """All routers."""
        return iter(self._routers.values())

    def __len__(self) -> int:
        return len(self._routers)

    def routers_of(self, asn: int) -> List[str]:
        """Router ids belonging to *asn*."""
        try:
            return list(self._by_asn[asn])
        except KeyError:
            raise TopologyError(f"AS{asn} has no routers")

    def router_by_address(
        self, address: Union[int, str, Address]
    ) -> Optional[Router]:
        """The router owning *address*, if any."""
        address = address_int(address)
        rid = self._by_address.get(address)
        return self._routers[rid] if rid else None

    def as_link_routers(self, a: int, b: int) -> List[Tuple[str, str]]:
        """Realizations of the a->b AS link as (router-in-a, router-in-b)."""
        return list(self._as_links.get((a, b), ()))

    def intra_next_hop(self, source: str, destination: str) -> Optional[str]:
        """Next router inside the AS from *source* toward *destination*."""
        if source == destination:
            return None
        return self._intra_next.get((source, destination))

    def egress_router(
        self, from_router: str, next_asn: int
    ) -> Optional[Tuple[str, str]]:
        """Hot-potato egress selection.

        Given the router currently holding the packet and the AS-level next
        hop, pick the closest border router (by intra-AS hop count) with a
        link into *next_asn*.  Returns (egress-router, ingress-router of the
        next AS), or None if the AS has no link to *next_asn*.
        """
        key = (from_router, next_asn)
        try:
            return self._egress[key]
        except KeyError:
            answer = self._egress[key] = self._pick_egress(
                from_router, next_asn
            )
            return answer

    def _pick_egress(
        self, from_router: str, next_asn: int
    ) -> Optional[Tuple[str, str]]:
        current = self._routers[from_router]
        options = self._as_links.get((current.asn, next_asn))
        if not options:
            return None
        best: Optional[Tuple[int, str, str]] = None
        for egress, ingress in options:
            distance = self._intra_distance(from_router, egress)
            if distance is None:
                continue
            if best is None or distance < best[0]:
                best = (distance, egress, ingress)
        if best is None:
            return None
        return best[1], best[2]

    def _intra_distance(self, source: str, destination: str) -> Optional[int]:
        if source == destination:
            return 0
        hops = 0
        current = source
        seen: Set[str] = {source}
        while current != destination:
            nxt = self._intra_next.get((current, destination))
            if nxt is None or nxt in seen:
                return None
            seen.add(nxt)
            current = nxt
            hops += 1
        return hops
