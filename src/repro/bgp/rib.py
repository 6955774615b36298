"""Routes, the BGP decision process, and per-speaker RIBs."""

from __future__ import annotations

from collections.abc import ItemsView
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.bgp.messages import Announcement, ASPath
from repro.net.addr import Prefix
from repro.topology.relationships import Relationship


@dataclass(frozen=True, slots=True)
class Route:
    """A route installed in a speaker's Adj-RIB-In (post-import-policy).

    ``neighbor`` is the AS the route was learned from; for self-originated
    routes it equals the local ASN and ``relationship`` is CUSTOMER (so the
    route exports to everyone, like a customer route).
    """

    prefix: Prefix
    as_path: ASPath
    neighbor: int
    relationship: Relationship
    local_pref: int
    med: int = 0
    communities: FrozenSet[Tuple[int, int]] = field(default_factory=frozenset)
    #: AVOID_PROBLEM(X, P) hint carried by the announcement (see
    #: :class:`repro.bgp.messages.Announcement`).
    avoid: FrozenSet[int] = field(default_factory=frozenset)

    @property
    def origin(self) -> int:
        return self.as_path[-1]

    def traverses_avoided(self) -> bool:
        """True if this route crosses an AS its own avoid-hint flags."""
        return any(asn in self.as_path for asn in self.avoid)

    def announcement(self) -> Announcement:
        """Re-materialize the announcement this route was built from."""
        return Announcement(
            prefix=self.prefix,
            as_path=self.as_path,
            med=self.med,
            communities=self.communities,
            avoid=self.avoid,
        )


def preference_key(route: Route) -> Tuple[int, int, int, int]:
    """Sort key for the BGP decision process; *smaller is better*.

    Order: highest local-pref, shortest AS path, lowest MED (MED is only
    meaningful between routes from the same neighbor AS, but including it
    globally here is harmless because local-pref and path length dominate),
    lowest neighbor ASN as the deterministic tiebreak (stands in for
    router-id comparison).
    """
    return (-route.local_pref, len(route.as_path), route.med, route.neighbor)


def best_route(candidates: List[Route]) -> Optional[Route]:
    """Run the decision process over *candidates*.

    AVOID_PROBLEM semantics come first: if any candidate's route avoids
    every AS flagged by the avoid-hints present among the candidates, the
    decision is restricted to those clean routes (the Avoidance
    Property); an AS whose only routes are tainted keeps using them (the
    Backup Property).  With no avoid-hints this is the standard process.
    """
    if not candidates:
        return None
    if not any(route.avoid for route in candidates):
        # Hot path: no avoid-hints in play (the overwhelmingly common
        # case) — skip the frozenset union and path scans entirely.
        return min(candidates, key=preference_key)
    flagged = frozenset().union(*(route.avoid for route in candidates))
    if flagged:
        clean = [
            route
            for route in candidates
            if not any(asn in route.as_path for asn in flagged)
        ]
        if clean:
            candidates = clean
    return min(candidates, key=preference_key)


class RouteTable:
    """Per-speaker routing state for all prefixes.

    Keeps the Adj-RIB-In (one route per (prefix, neighbor)) and the Loc-RIB
    (the selected best route per prefix).  The speaker drives updates and
    asks for the recomputed best.
    """

    def __init__(self) -> None:
        #: prefix -> neighbor ASN -> route
        self._adj_in: Dict[Prefix, Dict[int, Route]] = {}
        #: prefix -> selected best
        self._loc: Dict[Prefix, Route] = {}

    def install(self, route: Route) -> None:
        """Insert/replace the route from ``route.neighbor`` for its prefix."""
        self._adj_in.setdefault(route.prefix, {})[route.neighbor] = route

    def load(
        self,
        prefix: Prefix,
        routes: Dict[int, Route],
        best: Optional[Route],
    ) -> None:
        """Bulk-install solver-computed state for *prefix*.

        Merges *routes* (neighbor ASN -> route) into the Adj-RIB-In and
        pins the Loc-RIB selection without re-running the decision
        process — the caller (:meth:`BGPEngine.warm_start`) guarantees
        *best* is what :func:`best_route` would pick.
        """
        self._adj_in.setdefault(prefix, {}).update(routes)
        if best is not None:
            self._loc[prefix] = best

    def purge_prefix(self, prefix: Prefix) -> None:
        """Drop every Adj-RIB-In row and the Loc-RIB pin for *prefix*.

        The inverse of :meth:`load`, used by the delta path to splice an
        old per-prefix solution out before installing its replacement.
        """
        self._adj_in.pop(prefix, None)
        self._loc.pop(prefix, None)

    def replace_rows(
        self, prefix: Prefix, routes: Optional[Dict[int, Route]]
    ) -> None:
        """Overwrite the whole Adj-RIB-In row set for *prefix*.

        ``None``/empty removes the prefix.  Delta splicing uses this for
        receivers whose rows actually changed; :meth:`load`'s merge
        semantics would leave stale senders behind.  Takes ownership of
        *routes* (installed by reference, not copied): the delta path
        hands over solver-built dicts it never mutates, and any event-
        path activity that would mutate them in place first invalidates
        the analytic state they came from.
        """
        if routes:
            self._adj_in[prefix] = routes
        else:
            self._adj_in.pop(prefix, None)

    def pin_best(self, prefix: Prefix, best: Optional[Route]) -> None:
        """Set (or clear, with None) the Loc-RIB selection for *prefix*
        without re-running the decision process (see :meth:`load`)."""
        if best is not None:
            self._loc[prefix] = best
        else:
            self._loc.pop(prefix, None)

    def withdraw(self, prefix: Prefix, neighbor: int) -> bool:
        """Remove the route from *neighbor*; True if one was present."""
        table = self._adj_in.get(prefix)
        if not table or neighbor not in table:
            return False
        del table[neighbor]
        if not table:
            del self._adj_in[prefix]
        return True

    def reselect(
        self, prefix: Prefix, exclude_neighbors: "Set[int]" = frozenset()
    ) -> Tuple[Optional[Route], bool]:
        """Re-run the decision process for *prefix*.

        Returns (new best or None, changed?) and updates the Loc-RIB.
        *exclude_neighbors* removes routes from those neighbors from
        consideration (flap-damping suppression).
        """
        candidates = [
            route
            for neighbor, route in self._adj_in.get(prefix, {}).items()
            if neighbor not in exclude_neighbors
        ]
        new_best = best_route(candidates)
        old_best = self._loc.get(prefix)
        if new_best is old_best or new_best == old_best:
            return new_best, False
        if new_best is None:
            del self._loc[prefix]
        else:
            self._loc[prefix] = new_best
        return new_best, True

    def best(self, prefix: Prefix) -> Optional[Route]:
        """Current Loc-RIB entry for *prefix*."""
        return self._loc.get(prefix)

    def candidates(self, prefix: Prefix) -> List[Route]:
        """All Adj-RIB-In routes for *prefix*."""
        return list(self._adj_in.get(prefix, {}).values())

    def route_from(self, prefix: Prefix, neighbor: int) -> Optional[Route]:
        """The Adj-RIB-In entry from *neighbor*, if any."""
        return self._adj_in.get(prefix, {}).get(neighbor)

    def prefixes(self) -> Iterator[Prefix]:
        """Prefixes with at least one Adj-RIB-In route."""
        return iter(self._adj_in)

    def loc_rib(self) -> Dict[Prefix, Route]:
        """Snapshot of the Loc-RIB."""
        return dict(self._loc)

    def best_routes(self) -> ItemsView[Prefix, Route]:
        """Live (prefix, best route) view of the Loc-RIB, not a copy:
        for readers done before the next update (the FIB builder)."""
        return self._loc.items()
