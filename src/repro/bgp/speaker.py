"""One BGP speaker per AS: import processing, selection, export computation.

The speaker is deliberately passive about time: the engine owns the clock,
the sessions and the MRAI timers.  The speaker answers two questions — "what
happened when this update arrived?" and "what should neighbor N currently be
told about prefix P?".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.bgp.messages import Announcement, ASPath, Withdrawal, intern_path
from repro.bgp.policy import PolicyEngine, SpeakerConfig
from repro.bgp.rib import Route, RouteTable
from repro.errors import BGPError
from repro.net.addr import Prefix
from repro.topology.relationships import Relationship

#: Local-pref for self-originated routes; above any learned route.
ORIGIN_LOCAL_PREF = 200

#: Builds a tuple value without its class's Python ``__new__``: the
#: per-message ``Route`` and ``Announcement`` below give every field,
#: and their path is non-empty by construction (the public constructors
#: keep their defaults and checks for every other caller).
_new = tuple.__new__


@dataclass
class OriginEntry:
    """How this speaker originates one prefix.

    ``per_neighbor`` maps neighbor ASN to the AS path announced to it, or
    None to suppress the advertisement entirely (selective advertising /
    selective poisoning).  Neighbors absent from the map get ``default``;
    a ``default`` of None advertises to nobody except listed neighbors.
    """

    prefix: Prefix
    default: Optional[ASPath]
    per_neighbor: Dict[int, Optional[ASPath]]
    med: int = 0
    communities: frozenset = frozenset()
    #: AVOID_PROBLEM(X, P) hint attached to every announcement.
    avoid: frozenset = frozenset()

    def path_for(self, neighbor: int) -> Optional[ASPath]:
        if neighbor in self.per_neighbor:
            return self.per_neighbor[neighbor]
        return self.default


class BGPSpeaker:
    """BGP state machine for one AS."""

    def __init__(
        self,
        asn: int,
        neighbors: Dict[int, Relationship],
        config: Optional[SpeakerConfig] = None,
        config_verdict: Optional[list] = None,
    ) -> None:
        self.asn = asn
        self.neighbors = dict(neighbors)
        #: neighbor -> engine session, in neighbor order; filled in by
        #: the engine that owns the sessions.
        self.sessions: Dict[int, object] = {}
        self.policy = PolicyEngine(asn, self.neighbors, config)
        #: the owning engine's cached verdict on its speakers' configs
        #: (the cell, not the engine: a back-reference would be a
        #: cycle); :meth:`reconfigure` empties it.
        self._config_verdict = config_verdict
        self.table = RouteTable()
        #: times this AS was named in an AVOID_PROBLEM hint it received
        #: (the Notification Property: its operators learn of the issue).
        self.avoid_notifications = 0
        self._origins: Dict[Prefix, OriginEntry] = {}
        # Route-flap damping state (only used when config enables it):
        # (prefix, neighbor) -> [penalty, last-update-time]; the damped
        # keys themselves live in ``table.suppressed``, where the
        # decision skips them.
        self._damping: Dict[Tuple[Prefix, int], Tuple[float, float]] = {}
        self._pending_reuse: List[Tuple[Prefix, int, float]] = []
        #: optional observability bus (duck-typed; see repro.obs.events).
        self.obs = None

    def reconfigure(self, **changes) -> None:
        """Replace the config by a copy with *changes* applied and
        resolve it again — the one way policy changes on a built
        engine.  Routes already installed stay until re-advertised."""
        self.policy = PolicyEngine(
            self.asn, self.neighbors, replace(self.policy.config, **changes)
        )
        if self._config_verdict is not None:
            del self._config_verdict[:]

    # ------------------------------------------------------------------
    # Origination
    # ------------------------------------------------------------------
    def originate(
        self,
        prefix: Prefix,
        path: Optional[ASPath] = None,
        per_neighbor: Optional[Dict[int, Optional[ASPath]]] = None,
        med: int = 0,
        communities: Iterable[Tuple[int, int]] = (),
        avoid: Iterable[int] = (),
    ) -> None:
        """Start (or re-configure) origination of *prefix*.

        The default *path* is a single copy of the local ASN.  Any path
        supplied must begin and end with the local ASN (BGP-Mux style
        poisoning keeps the origin at both ends).
        """
        if path is None and per_neighbor is None:
            path = (self.asn,)
        for candidate in [path] + list((per_neighbor or {}).values()):
            if candidate is None:
                continue
            if not candidate or (
                candidate[0] != self.asn or candidate[-1] != self.asn
            ):
                raise BGPError(
                    f"origin path {candidate} must start and end with "
                    f"AS{self.asn}"
                )
        entry = OriginEntry(
            prefix=prefix,
            default=path,
            per_neighbor=dict(per_neighbor or {}),
            med=med,
            communities=frozenset(communities),
            avoid=frozenset(avoid),
        )
        self._origins[prefix] = entry
        # Keep a Loc-RIB entry so the local data plane can always deliver
        # its own prefix; use the shortest configured variant.
        loop_free = [
            p
            for p in [entry.default] + list(entry.per_neighbor.values())
            if p is not None
        ]
        representative = min(loop_free, key=len) if loop_free else (self.asn,)
        self.table.decide(
            prefix,
            self.asn,
            Route(
                prefix=prefix,
                as_path=representative,
                neighbor=self.asn,
                relationship=Relationship.CUSTOMER,
                local_pref=ORIGIN_LOCAL_PREF,
                med=med,
                communities=entry.communities,
            ),
        )

    def stop_originating(self, prefix: Prefix) -> None:
        """Withdraw a locally-originated prefix everywhere."""
        if prefix in self._origins:
            del self._origins[prefix]
            self.table.decide(prefix, self.asn, None)

    def originates(self, prefix: Prefix) -> bool:
        """True if this speaker originates *prefix*."""
        return prefix in self._origins

    def origin_entry(self, prefix: Prefix) -> Optional[OriginEntry]:
        """The origination config for *prefix*, if any."""
        return self._origins.get(prefix)

    # ------------------------------------------------------------------
    # Import side
    # ------------------------------------------------------------------
    def process(
        self,
        update: Union[Announcement, Withdrawal],
        now: float = 0.0,
    ) -> Tuple[Prefix, Optional[Route], Optional[Route], bool]:
        """Apply one received update at simulation time *now*.

        Returns (prefix, best before, best after, best-route-changed).  A
        filtered announcement acts as an implicit withdrawal of the
        neighbor's previous route — this is precisely how poisoning
        reaches into remote ASes: the poisoned AS filters the update
        (loop!) and thereby loses the path.
        """
        policy = self.policy
        route = None
        if isinstance(update, Withdrawal):
            prefix, neighbor = update
        else:
            prefix, as_path, med, communities, avoid = update
            neighbor = as_path[0]  # its sender, without the property
            resolved = policy.imports.get(neighbor)
            if resolved is None:
                raise BGPError(
                    f"AS{self.asn} got update from non-neighbor AS{neighbor}"
                )
            if avoid and self.asn in avoid:
                self.avoid_notifications += 1
            # Import filter: loop prevention, then the configured checks
            # (pure, so it may run before the damping charge below).
            relationship, local_pref, checks = resolved
            limit = policy.loop_limit
            if limit <= 0 or as_path.count(self.asn) < limit:
                for rejects in checks:
                    if rejects(as_path):
                        break
                else:
                    route = _new(Route, (
                        prefix, as_path, neighbor, relationship,
                        local_pref, med, communities, avoid,
                    ))
        if policy.config.flap_damping:
            self._apply_damping(prefix, neighbor, now)
        return (prefix,) + self.table.decide(prefix, neighbor, route)

    def forget_neighbor(
        self, neighbor: int
    ) -> List[Tuple[Prefix, Optional[Route], Optional[Route]]]:
        """Drop every Adj-RIB-In route learned from *neighbor*.

        This is what a BGP session loss does on the receiving side: all of
        the peer's routes are implicitly withdrawn at once.  Returns
        ``(prefix, old_best, new_best)`` for each prefix whose Loc-RIB
        selection changed, so the engine can log and propagate.
        """
        changed: List[Tuple[Prefix, Optional[Route], Optional[Route]]] = []
        # Canonical prefix order, not table insertion order: a warm-started
        # table (solver load order) and an event-converged one (learning
        # order) hold the same routes in different dict order, and the
        # caller propagates each change as it is returned — iteration
        # order here decides the transmit order of the withdrawal burst.
        for prefix in sorted(self.table.prefixes()):
            old_best, new_best, did_change = self.table.decide(
                prefix, neighbor, None
            )
            if did_change:
                changed.append((prefix, old_best, new_best))
        return changed

    # ------------------------------------------------------------------
    # Route-flap damping (RFC 2439)
    # ------------------------------------------------------------------
    def _current_penalty(
        self, prefix: Prefix, neighbor: int, now: float
    ) -> float:
        entry = self._damping.get((prefix, neighbor))
        if entry is None:
            return 0.0
        penalty, last = entry
        half_life = self.policy.config.damping_half_life
        return penalty * 0.5 ** (max(0.0, now - last) / half_life)

    def _apply_damping(
        self, prefix: Prefix, neighbor: int, now: float
    ) -> None:
        """Charge a flap and suppress the route if over threshold."""
        config = self.policy.config
        penalty = self._current_penalty(prefix, neighbor, now)
        penalty += config.damping_penalty
        self._damping[(prefix, neighbor)] = (penalty, now)
        key = (prefix, neighbor)
        if (
            penalty >= config.damping_suppress_threshold
            and key not in self.table.suppressed
        ):
            self.table.suppressed.add(key)
            # Time for the penalty to decay back to the reuse threshold.
            ratio = penalty / config.damping_reuse_threshold
            delay = config.damping_half_life * math.log2(ratio)
            self._pending_reuse.append((prefix, neighbor, now + delay))
            if self.obs is not None:
                self.obs.emit(
                    "bgp.damping-suppress", now, "bgp.speaker",
                    subject=str(prefix), asn=self.asn, neighbor=neighbor,
                    penalty=round(penalty, 6),
                    reuse_at=round(now + delay, 6),
                )

    def drain_pending_reuse(self) -> List[Tuple[Prefix, int, float]]:
        """Reuse-timer events the engine should schedule (consumed)."""
        pending, self._pending_reuse = self._pending_reuse, []
        return pending

    def release_damped(
        self, prefix: Prefix, neighbor: int, now: float
    ) -> Tuple[Prefix, Optional[Route], Optional[Route], bool]:
        """Attempt to unsuppress a damped route at *now*; returns what
        :meth:`process` does."""
        key = (prefix, neighbor)
        best = self.table.best(prefix)
        if key not in self.table.suppressed:
            return prefix, best, best, False
        config = self.policy.config
        if self._current_penalty(prefix, neighbor, now) > (
            config.damping_reuse_threshold + 1e-9
        ):
            # Not decayed yet (extra flaps landed since): try again later.
            self._pending_reuse.append(
                (prefix, neighbor, now + config.damping_half_life / 4)
            )
            return prefix, best, best, False
        self.table.suppressed.discard(key)
        if self.obs is not None:
            self.obs.emit(
                "bgp.damping-release", now, "bgp.speaker",
                subject=str(prefix), asn=self.asn, neighbor=neighbor,
            )
        return (prefix,) + self.table.reselect(prefix)

    def is_suppressed(self, prefix: Prefix, neighbor: int) -> bool:
        """True while the (prefix, neighbor) route is damped."""
        return (prefix, neighbor) in self.table.suppressed

    # ------------------------------------------------------------------
    # Export side
    # ------------------------------------------------------------------
    def desired_export(
        self, prefix: Prefix, neighbor: int
    ) -> Optional[Announcement]:
        """What *neighbor* should currently be told about *prefix*.

        None means "no route" (a withdrawal if something was previously
        advertised).  Locally-originated prefixes follow the per-neighbor
        origination config; transit prefixes re-advertise the best route
        under Gao-Rexford export policy.
        """
        origin_entry = self._origins.get(prefix)
        if origin_entry is not None:
            path = origin_entry.path_for(neighbor)
            if path is None:
                return None
            return Announcement(
                prefix=prefix,
                as_path=path,
                med=origin_entry.med,
                communities=origin_entry.communities,
                avoid=origin_entry.avoid,
            )
        best = self.table.best(prefix)
        if best is None or best.neighbor == neighbor:
            # Don't echo a route back to the neighbor that supplied it.
            return None
        if neighbor not in self.policy.export_targets(
            best.relationship, best.communities
        ):
            return None
        return self.transit_announcement(best)

    def transit_announcement(self, best: Route) -> Announcement:
        """*best* as this AS re-advertises it — one value for every
        neighbor the export policy admits, so the engine builds it once
        per decision change.  MED resets when crossing an AS;
        AVOID_PROBLEM is transitive by design."""
        return _new(Announcement, (
            best.prefix,
            intern_path((self.asn,) + best.as_path),
            0,
            self.policy.outbound_communities(best.communities),
            best.avoid,
        ))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def best(self, prefix: Prefix) -> Optional[Route]:
        """Loc-RIB best route for *prefix*."""
        return self.table.best(prefix)

    def next_hop_as(self, prefix: Prefix) -> Optional[int]:
        """AS-level next hop toward *prefix* (self if originated)."""
        best = self.table.best(prefix)
        if best is None:
            return None
        return best.neighbor

    def uses_as(self, prefix: Prefix, asn: int) -> bool:
        """True if traffic on the selected route for *prefix* crosses *asn*.

        Poison tails are excluded: an AS whose path is ``(B, O, A, O)``
        does not *use* A even though A appears in the path attribute.
        """
        best = self.table.best(prefix)
        if best is None:
            return False
        from repro.bgp.messages import traversed_ases

        return asn in traversed_ases(best.as_path, best.origin)
