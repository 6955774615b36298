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
from typing import FrozenSet, Optional, Set, Tuple

from repro.bgp.messages import Announcement
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


@dataclass
class SpeakerConfig:
    """Tunable behaviour of one BGP speaker."""

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


class PolicyEngine:
    """Applies one speaker's import/export policy.

    Stateless apart from the config; the speaker owns the RIBs.
    """

    def __init__(
        self,
        asn: int,
        config: Optional[SpeakerConfig] = None,
    ) -> None:
        self.asn = asn
        self.config = config or SpeakerConfig()

    # ------------------------------------------------------------------
    # Import
    # ------------------------------------------------------------------
    def accepts(
        self,
        announcement: Announcement,
        relationship: Relationship,
        peer_asns: Set[int],
    ) -> bool:
        """Import filter: loop prevention plus configured quirks."""
        config = self.config
        limit = config.loop_max_occurrences
        if limit > 0 and announcement.as_path.count(self.asn) >= limit:
            return False
        if (
            config.reject_peer_paths_from_customers
            and relationship is Relationship.CUSTOMER
        ):
            # Skip the first hop (the customer itself may legitimately be a
            # peer in odd topologies); any *other* peer in the path trips
            # the filter.
            if any(hop in peer_asns for hop in announcement.as_path[1:]):
                return False
        if (
            config.as_path_max_length
            and len(announcement.as_path) > config.as_path_max_length
        ):
            return False
        if config.filter_poisoned_paths and looks_poisoned(
            announcement.as_path
        ):
            return False
        if config.reject_reserved_asns and any(
            is_reserved_asn(hop) for hop in announcement.as_path
        ):
            return False
        if (
            config.peerlock_protected
            and relationship is Relationship.CUSTOMER
            and any(
                hop in config.peerlock_protected
                for hop in announcement.as_path[1:]
            )
        ):
            return False
        return True

    def local_pref(
        self, neighbor: int, relationship: Relationship
    ) -> int:
        """Local preference assigned to routes from *neighbor*."""
        override = self.config.local_pref_overrides.get(neighbor)
        if override is not None:
            return override
        return local_pref_for(relationship)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def may_export_to(
        self,
        learned_from: Relationship,
        sending_to: Relationship,
        communities: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> bool:
        """Gao-Rexford export rule plus community handling."""
        if not may_export(learned_from, sending_to):
            return False
        if (
            self.config.honours_communities
            and sending_to is Relationship.PEER
            and (self.asn, NO_EXPORT_TO_PEERS) in communities
        ):
            return False
        return True

    def outbound_communities(
        self, communities: FrozenSet[Tuple[int, int]]
    ) -> FrozenSet[Tuple[int, int]]:
        """Communities attached to re-advertised routes."""
        if self.config.propagates_communities:
            return communities
        # Strip everything not addressed to the local AS; this is what makes
        # communities unreliable as an Internet-wide signalling channel.
        return frozenset(c for c in communities if c[0] == self.asn)
