"""Routes, the BGP decision process, and per-speaker RIBs."""

from __future__ import annotations

from collections.abc import ItemsView
from typing import (
    Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple,
)

from repro.bgp.messages import ASPath
from repro.net.addr import Prefix
from repro.topology.relationships import Relationship


class Route(NamedTuple):
    """A route installed in a speaker's Adj-RIB-In (post-import-policy).

    ``neighbor`` is the AS the route was learned from; for self-originated
    routes it equals the local ASN and ``relationship`` is CUSTOMER (so the
    route exports to everyone, like a customer route).  A tuple value
    like :class:`~repro.bgp.messages.Announcement`: one is built per
    accepted update and compared per decision and per spliced row.
    """

    prefix: Prefix
    as_path: ASPath
    neighbor: int
    relationship: Relationship
    local_pref: int
    med: int = 0
    communities: FrozenSet[Tuple[int, int]] = frozenset()
    #: AVOID_PROBLEM(X, P) hint carried by the announcement (see
    #: :class:`repro.bgp.messages.Announcement`).
    avoid: FrozenSet[int] = frozenset()

    @property
    def origin(self) -> int:
        return self.as_path[-1]


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
    (the selected best route per prefix).  Invariant: the Loc-RIB entry
    is :func:`best_route` of the prefix's rows not in ``suppressed``.
    :meth:`decide` keeps it one row at a time; :meth:`pin_best` and
    :meth:`replace_rows` install analytic state that satisfies it by
    construction.  A warm-started table may hold a prefix's pinned
    selection before its rows: the owning engine writes them
    (:meth:`BGPEngine.materialize`) before anything reads or mutates
    one.
    """

    def __init__(self) -> None:
        #: prefix -> neighbor ASN -> route
        self._adj_in: Dict[Prefix, Dict[int, Route]] = {}
        #: prefix -> selected best
        self._loc: Dict[Prefix, Route] = {}
        #: (prefix, neighbor) rows flap damping keeps out of the decision;
        #: the speaker adds and discards, then calls :meth:`reselect`.
        self.suppressed: Set[Tuple[Prefix, int]] = set()
        #: True once any row carried an AVOID_PROBLEM hint: from then on
        #: the decision is not a minimum over the rows (a hint on one
        #: row disqualifies others), so :meth:`decide` always rescans.
        #: Only :meth:`decide` can set it — the solver and the delta
        #: gate refuse hints, so loaded and spliced rows never carry one.
        self._avoid_seen = False

    def decide(
        self,
        prefix: Prefix,
        neighbor: int,
        route: Optional[Route],
    ) -> Tuple[Optional[Route], Optional[Route], bool]:
        """Replace *neighbor*'s row for *prefix* (None: remove it) and
        re-decide; returns (best before, best after, changed?).

        The new row is judged against the standing best alone: a row no
        worse than it wins, a worse row from another neighbor changes
        nothing.  Only when the best's own row worsens or leaves — or
        the decision is not a plain minimum over the rows: something is
        suppressed, or an avoid hint was seen — are the rows rescanned.
        """
        rows = self._adj_in.get(prefix)
        old = self._loc.get(prefix)
        plain = not self.suppressed and not self._avoid_seen
        if route is None:
            if not rows or neighbor not in rows:
                return old, old, False
            del rows[neighbor]
            if not rows:
                del self._adj_in[prefix]
            if plain and (old is None or old.neighbor != neighbor):
                return old, old, False
        else:
            if rows is None:
                rows = self._adj_in[prefix] = {}
            rows[neighbor] = route
            if route.avoid:
                self._avoid_seen = True
            elif plain:
                if old is None or (
                    preference_key(route) <= preference_key(old)
                ):
                    if route == old:
                        return old, old, False
                    self._loc[prefix] = route
                    return old, route, True
                if old.neighbor != neighbor:
                    return old, old, False
        return self.reselect(prefix)

    def replace_rows(
        self, prefix: Prefix, routes: Optional[Dict[int, Route]]
    ) -> None:
        """Overwrite the whole Adj-RIB-In row set for *prefix*.

        ``None``/empty removes the prefix.  Takes ownership of *routes*
        (installed by reference, not copied): materialisation hands over
        dicts derived for this table alone, which the event path may
        then mutate in place.
        """
        if routes:
            self._adj_in[prefix] = routes
        else:
            self._adj_in.pop(prefix, None)

    def pin_best(self, prefix: Prefix, best: Optional[Route]) -> None:
        """Set (or clear, with None) the Loc-RIB selection for *prefix*
        without re-running the decision process: the caller guarantees
        *best* is what :func:`best_route` would pick."""
        if best is not None:
            self._loc[prefix] = best
        else:
            self._loc.pop(prefix, None)

    def reselect(
        self, prefix: Prefix
    ) -> Tuple[Optional[Route], Optional[Route], bool]:
        """Re-run the decision process over every unsuppressed row of
        *prefix*; returns (best before, best after, changed?) and
        updates the Loc-RIB."""
        rows = self._adj_in.get(prefix, {})
        if self.suppressed:
            candidates = [
                route
                for neighbor, route in rows.items()
                if (prefix, neighbor) not in self.suppressed
            ]
        else:
            candidates = list(rows.values())
        new_best = best_route(candidates)
        old_best = self._loc.get(prefix)
        if new_best is old_best or new_best == old_best:
            return old_best, old_best, False
        if new_best is None:
            del self._loc[prefix]
        else:
            self._loc[prefix] = new_best
        return old_best, new_best, True

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
