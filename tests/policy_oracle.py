"""The per-message policy decisions ``PolicyEngine`` made through PR 21.

A speaker now resolves its config once into per-neighbour tables
(:class:`repro.bgp.policy.PolicyEngine`); these three functions — the
import filter, the local-pref and the export rule, each re-derived from
the config and the relationship on every call — are the independent
oracle the tests hold the resolved decisions to.  The library does not
import them.
"""

from __future__ import annotations

from repro.bgp.policy import (
    NO_EXPORT_TO_PEERS,
    is_reserved_asn,
    looks_poisoned,
)
from repro.topology.relationships import (
    Relationship,
    local_pref_for,
    may_export,
)


def accepts(asn, config, announcement, relationship, peer_asns):
    """Import filter: loop prevention plus configured quirks."""
    limit = config.loop_max_occurrences
    if limit > 0 and announcement.as_path.count(asn) >= limit:
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


def local_pref(config, neighbor, relationship):
    """Local preference assigned to routes from *neighbor*."""
    override = config.local_pref_overrides.get(neighbor)
    if override is not None:
        return override
    return local_pref_for(relationship)


def may_export_to(
    asn, config, learned_from, sending_to, communities=frozenset()
):
    """Gao-Rexford export rule plus community handling."""
    if not may_export(learned_from, sending_to):
        return False
    if (
        config.honours_communities
        and sending_to is Relationship.PEER
        and (asn, NO_EXPORT_TO_PEERS) in communities
    ):
        return False
    return True
