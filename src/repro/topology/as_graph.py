"""The AS-level topology with business relationships.

This is the central substrate: the BGP engine, the splicing analysis and the
poisoning simulations all run over an :class:`ASGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import TopologyError
from repro.net.addr import Prefix
from repro.topology.relationships import Relationship


@dataclass
class ASNode:
    """One autonomous system.

    ``tier`` is informational (1 = backbone clique, 2 = regional transit,
    3 = stub/edge).  ``prefixes`` are the address blocks the AS originates.
    """

    asn: int
    tier: int = 3
    name: str = ""
    prefixes: List[Prefix] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"AS{self.asn}"


class ASGraph:
    """An undirected AS graph whose edges carry directional relationships.

    ``relationship(a, b)`` answers "what role does *b* play for *a*" — see
    :mod:`repro.topology.relationships` for the label convention.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, ASNode] = {}
        self._edges: Dict[int, Dict[int, Relationship]] = {}
        self._prefix_origin: Dict[Prefix, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_as(
        self,
        asn: int,
        tier: int = 3,
        name: str = "",
        prefixes: Iterable[Prefix] = (),
    ) -> ASNode:
        """Add an AS; returns the node.  Re-adding an ASN is an error."""
        if asn in self._nodes:
            raise TopologyError(f"AS{asn} already exists")
        node = ASNode(asn=asn, tier=tier, name=name, prefixes=list(prefixes))
        self._nodes[asn] = node
        self._edges[asn] = {}
        for prefix in node.prefixes:
            self._register_prefix(prefix, asn)
        return node

    def _register_prefix(self, prefix: Prefix, asn: int) -> None:
        existing = self._prefix_origin.get(prefix)
        if existing is not None and existing != asn:
            raise TopologyError(
                f"{prefix} already originated by AS{existing}"
            )
        self._prefix_origin[prefix] = asn

    def assign_prefix(self, asn: int, prefix: Prefix) -> None:
        """Give *asn* an additional originated prefix."""
        node = self.node(asn)
        if prefix not in node.prefixes:
            node.prefixes.append(prefix)
        self._register_prefix(prefix, asn)

    def add_link(self, a: int, b: int, rel_of_b_to_a: Relationship) -> None:
        """Connect *a* and *b*; *rel_of_b_to_a* is b's role for a.

        ``add_link(1, 2, Relationship.PROVIDER)`` makes AS2 a provider of
        AS1 (equivalently AS1 a customer of AS2).
        """
        if a == b:
            raise TopologyError(f"self-link on AS{a}")
        for asn in (a, b):
            if asn not in self._nodes:
                raise TopologyError(f"AS{asn} not in graph")
        if b in self._edges[a]:
            raise TopologyError(f"link AS{a}-AS{b} already exists")
        self._edges[a][b] = rel_of_b_to_a
        self._edges[b][a] = rel_of_b_to_a.inverse()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, asn: int) -> ASNode:
        """The node for *asn*; raises TopologyError if missing."""
        try:
            return self._nodes[asn]
        except KeyError:
            raise TopologyError(f"AS{asn} not in graph")

    def ases(self) -> Iterator[int]:
        """All ASNs."""
        return iter(self._nodes)

    def nodes(self) -> Iterator[ASNode]:
        """All nodes."""
        return iter(self._nodes.values())

    def links(self) -> Iterator[Tuple[int, int, Relationship]]:
        """Each link once, as (a, b, role-of-b-for-a) with a < b."""
        for a, neighbors in self._edges.items():
            for b, rel in neighbors.items():
                if a < b:
                    yield a, b, rel

    def neighbors(self, asn: int) -> Iterator[int]:
        """Neighbors of *asn*."""
        if asn not in self._edges:
            raise TopologyError(f"AS{asn} not in graph")
        return iter(self._edges[asn])

    def neighbor_roles(self, asn: int) -> Dict[int, Relationship]:
        """The role each neighbor of *asn* plays for it, in neighbor
        order: the graph's own map, which the caller must not mutate."""
        if asn not in self._edges:
            raise TopologyError(f"AS{asn} not in graph")
        return self._edges[asn]

    def relationship(self, a: int, b: int) -> Relationship:
        """The role *b* plays for *a*; raises if not adjacent."""
        try:
            return self._edges[a][b]
        except KeyError:
            raise TopologyError(f"AS{a} and AS{b} are not adjacent")

    def has_link(self, a: int, b: int) -> bool:
        """True if a and b are adjacent."""
        return b in self._edges.get(a, {})

    def providers(self, asn: int) -> List[int]:
        """ASes that provide transit to *asn*."""
        return self._by_rel(asn, Relationship.PROVIDER)

    def customers(self, asn: int) -> List[int]:
        """Customer ASes of *asn*."""
        return self._by_rel(asn, Relationship.CUSTOMER)

    def peers(self, asn: int) -> List[int]:
        """Settlement-free peers of *asn*."""
        return self._by_rel(asn, Relationship.PEER)

    def _by_rel(self, asn: int, rel: Relationship) -> List[int]:
        if asn not in self._edges:
            raise TopologyError(f"AS{asn} not in graph")
        return [n for n, r in self._edges[asn].items() if r is rel]

    def is_stub(self, asn: int) -> bool:
        """True if the AS has no customers (an edge network)."""
        return not self.customers(asn)

    def degree(self, asn: int) -> int:
        """Number of neighbors."""
        if asn not in self._edges:
            raise TopologyError(f"AS{asn} not in graph")
        return len(self._edges[asn])

    def prefixes(self) -> Iterator[Tuple[Prefix, int]]:
        """All (prefix, origin ASN) pairs."""
        return iter(self._prefix_origin.items())

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def transit_ases(self) -> List[int]:
        """ASes with at least one customer (i.e. non-stubs)."""
        return [asn for asn in self._nodes if not self.is_stub(asn)]

    def stubs(self) -> List[int]:
        """ASes with no customers."""
        return [asn for asn in self._nodes if self.is_stub(asn)]

    def validate(self) -> None:
        """Sanity-check internal consistency; raises TopologyError."""
        for a, neighbors in self._edges.items():
            if a not in self._nodes:
                raise TopologyError(f"edge table references unknown AS{a}")
            for b, rel in neighbors.items():
                back = self._edges.get(b, {}).get(a)
                if back is not rel.inverse():
                    raise TopologyError(
                        f"asymmetric labels on AS{a}-AS{b}: {rel} vs {back}"
                    )
        for prefix, asn in self._prefix_origin.items():
            if asn not in self._nodes:
                raise TopologyError(
                    f"{prefix} originated by unknown AS{asn}"
                )
            if prefix not in self._nodes[asn].prefixes:
                raise TopologyError(
                    f"{prefix} missing from AS{asn}'s prefix list"
                )

    def copy(self) -> "ASGraph":
        """A deep-enough copy (nodes and edge labels; prefixes shared)."""
        clone = ASGraph()
        for node in self._nodes.values():
            clone.add_as(
                node.asn, node.tier, node.name, list(node.prefixes)
            )
        for a, b, rel in self.links():
            clone.add_link(a, b, rel)
        return clone
