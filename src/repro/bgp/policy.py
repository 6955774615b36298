"""Per-speaker policy configuration: import filters, export rules, quirks.

Besides standard Gao-Rexford behaviour this captures the anomalies §7.1 of
the paper documents, because they matter for poisoning in the wild:

* ``loop_max_occurrences`` — AS286-style "accept my own ASN up to N times"
  (N=0 models networks that disable loop detection entirely, which makes
  them immune to poisoning).
* ``reject_peer_paths_from_customers`` — Cogent-style "drop updates from
  customers whose path contains one of my settlement-free peers", which
  blocks poisons of tier-1s announced through such a network.
* community support: a *target* AS can define action communities
  (e.g. "do not export to peers"); other ASes tag routes.  Some ASes strip
  communities they do not understand, which is why the paper found
  communities unreliable for failure avoidance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.topology.relationships import Relationship, local_pref_for, may_export

#: Community value understood by ASes honouring it: do not export this route
#: to settlement-free peers (modelled on the SAVVIS example in §2.3).
NO_EXPORT_TO_PEERS = 666

#: IANA-reserved / never-allocated ASN ranges (AS 0, AS_TRANS, the
#: documentation and private-use blocks, and the 32-bit private block).
#: Defense-enabled ASes reject paths containing any of these — a poison
#: built from a made-up ASN dies at the first such filter.
RESERVED_ASN_RANGES: Tuple[Tuple[int, int], ...] = (
    (0, 0),
    (23456, 23456),
    (64496, 64511),
    (64512, 65535),
    (4200000000, 4294967295),
)


def is_reserved_asn(asn: int) -> bool:
    """True when *asn* falls in an IANA-reserved/private range."""
    for low, high in RESERVED_ASN_RANGES:
        if low <= asn <= high:
            return True
    return False


def looks_poisoned(as_path: Tuple[int, ...]) -> bool:
    """True when a path carries the poison-sandwich signature.

    A poisoned announcement repeats the origin around the poisoned ASNs
    (``O … X … O``), so after collapsing consecutive prepends some ASN
    appears in two separate runs.  Legitimate Gao-Rexford paths never do:
    prepending repeats an ASN only contiguously.
    """
    previous: Optional[int] = None
    seen: Set[int] = set()
    for hop in as_path:
        if hop == previous:
            continue
        if hop in seen:
            return True
        seen.add(hop)
        previous = hop
    return False


@dataclass(frozen=True)
class SpeakerConfig:
    """Tunable behaviour of one BGP speaker.  Frozen: a speaker resolves
    its config once (:class:`PolicyEngine`), so policy on a built engine
    changes only through :meth:`BGPSpeaker.reconfigure`."""

    #: How many times the local ASN may appear in an accepted path.  The
    #: standard is 1 (any occurrence at all is a loop); 0 disables loop
    #: detection; 2 models multi-site networks that raised the limit.
    loop_max_occurrences: int = 1
    #: Cogent-style filter (see module docstring).
    reject_peer_paths_from_customers: bool = False
    #: If False, communities are stripped from re-advertised routes (the
    #: common tier-1 behaviour the paper measured).
    propagates_communities: bool = True
    #: If True, this AS honours NO_EXPORT_TO_PEERS communities addressed to
    #: it (community tuples are (target_asn, value)).
    honours_communities: bool = False
    #: Local-pref overrides per neighbor ASN (else relationship default).
    local_pref_overrides: dict = field(default_factory=dict)
    #: Route-flap damping (RFC 2439).  Real deployments dampen prefixes
    #: that flap repeatedly — the reason the paper kept each experimental
    #: announcement up for 90 minutes.  Off by default, as on most of
    #: today's Internet.
    flap_damping: bool = False
    damping_penalty: float = 1000.0
    damping_suppress_threshold: float = 2000.0
    damping_reuse_threshold: float = 750.0
    damping_half_life: float = 900.0  # 15 minutes
    #: Anti-poisoning defenses measured in "Withdrawing the BGP
    #: Re-Routing Curtain" / the Peerlock literature.  All default OFF so
    #: an unconfigured speaker behaves exactly as before; the deployment
    #: sweep in :mod:`repro.topology.generate` turns them on tier-biased.
    #
    #: Drop announcements whose AS path has the poison-sandwich shape
    #: (an ASN recurring in two separate runs, e.g. ``O A O``).
    filter_poisoned_paths: bool = False
    #: Drop announcements whose path contains a reserved/private ASN.
    reject_reserved_asns: bool = False
    #: Drop announcements whose AS path exceeds this many hops (0: no
    #: cap).  Real caps sit well above organic path lengths, so only
    #: heavily prepended or deeply poisoned paths trip them.
    as_path_max_length: int = 0
    #: Peerlock: protected big-network ASNs that must never appear in a
    #: customer-learned path (a customer cannot legitimately transit a
    #: tier-1, so such a path is a leak — or a poison).
    peerlock_protected: Tuple[int, ...] = ()
    #: Data-plane fallback: this AS points a default route at a provider,
    #: so losing the BGP route for a prefix does not stop it delivering
    #: traffic — the defense that makes poisons look "successful" at the
    #: control plane while changing nothing for the stub's packets.
    default_route_via_provider: bool = False


def _longer_than(limit: int, as_path: Tuple[int, ...]) -> bool:
    return len(as_path) > limit


def _has_reserved_asn(as_path: Tuple[int, ...]) -> bool:
    return any(is_reserved_asn(hop) for hop in as_path)


def _tail_meets(banned: FrozenSet[int], as_path: Tuple[int, ...]) -> bool:
    # Past the first hop: the customer itself may legitimately be a
    # peer in odd topologies.
    return not banned.isdisjoint(as_path[1:])


#: Gao-Rexford (:func:`may_export`) has two export rows: a route that
#: may go uphill goes to every neighbour, any other only to the
#: neighbours that hear even a provider-learned route.  So a neighbour's
#: relationship fixes (default local-pref, in the second row?) and a
#: route's learned-from relationship fixes which row it takes.
_BY_NEIGHBOR = {
    rel: (local_pref_for(rel), may_export(Relationship.PROVIDER, rel))
    for rel in Relationship
}
_GOES_UPHILL = tuple(
    rel for rel in Relationship if may_export(rel, Relationship.PROVIDER)
)

#: Shared by every speaker built without a config (configs are frozen).
_DEFAULT_CONFIG = SpeakerConfig()


class PolicyEngine:
    """One speaker's import/export policy, resolved once against its
    neighbours: what a config and a relationship fix is looked up per
    update, not re-derived.  Picklable with the engine (checks are
    module-level functions and partials of them)."""

    def __init__(
        self,
        asn: int,
        neighbors: Dict[int, Relationship],
        config: Optional[SpeakerConfig] = None,
    ) -> None:
        self.asn = asn
        self.config = config = config or _DEFAULT_CONFIG
        #: copies of the local ASN at which a path is a loop (0: never).
        self.loop_limit = config.loop_max_occurrences
        # The configured import filters, each ``check(as_path)`` true
        # to reject; a default config has none.
        checks: tuple = ()
        if config.as_path_max_length:
            checks += (partial(_longer_than, config.as_path_max_length),)
        if config.filter_poisoned_paths:
            checks += (looks_poisoned,)
        if config.reject_reserved_asns:
            checks += (_has_reserved_asn,)
        # Customer sessions only: Peerlock (a protected network in the
        # path) and the Cogent filter (a settlement-free peer in it).
        from_customer = checks
        banned = frozenset(config.peerlock_protected)
        if config.reject_peer_paths_from_customers:
            banned |= {
                n for n, rel in neighbors.items()
                if rel is Relationship.PEER
            }
        if banned:
            from_customer += (partial(_tail_meets, banned),)
        overrides = config.local_pref_overrides
        #: neighbour -> (relationship, local-pref, import checks).
        self.imports = imports = {}
        downhill = []
        for neighbor, rel in neighbors.items():
            local_pref, is_downhill = _BY_NEIGHBOR[rel]
            if is_downhill:
                downhill.append(neighbor)
            if overrides and overrides.get(neighbor) is not None:
                local_pref = overrides[neighbor]
            imports[neighbor] = (
                rel,
                local_pref,
                from_customer if rel is Relationship.CUSTOMER else checks,
            )
        #: the two export rows.
        self.everyone = frozenset(neighbors)
        self.downhill = frozenset(downhill)
        #: the community that keeps a route from peers, if honoured.
        self.no_export_tag = (
            (asn, NO_EXPORT_TO_PEERS) if config.honours_communities else None
        )

    def export_targets(
        self,
        learned_from: Relationship,
        communities: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> FrozenSet[int]:
        """The neighbours a route may be exported to: the Gao-Rexford
        rule plus community handling."""
        targets = (
            self.everyone if learned_from in _GOES_UPHILL else self.downhill
        )
        if self.no_export_tag in communities:
            imports = self.imports
            targets = frozenset(
                n for n in targets
                if imports[n][0] is not Relationship.PEER
            )
        return targets

    def outbound_communities(
        self, communities: FrozenSet[Tuple[int, int]]
    ) -> FrozenSet[Tuple[int, int]]:
        """Communities attached to re-advertised routes."""
        if self.config.propagates_communities:
            return communities
        # Strip everything not addressed to the local AS; this is what makes
        # communities unreliable as an Internet-wide signalling channel.
        return frozenset(c for c in communities if c[0] == self.asn)
