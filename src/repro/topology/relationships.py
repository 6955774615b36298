"""Gao-Rexford business relationships between ASes.

The label is directional: ``Relationship.PROVIDER`` read as ``rel(a, b)``
means "b is a's provider".  The inverse of PROVIDER is CUSTOMER and PEER is
its own inverse.  Export policy and route preference both key off these
labels (valley-free routing).
"""

from __future__ import annotations

import enum

from repro.errors import PolicyError


class Relationship(enum.Enum):
    """The role the *other* AS plays for this AS."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"
    SIBLING = "sibling"

    # Identity, in C, not Enum's Python hash of the name: relationships
    # key the policy tables on the solver's per-edge path.
    __hash__ = object.__hash__

    def inverse(self) -> "Relationship":
        """The same edge seen from the other end."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return self


#: Default BGP local-preference by relationship of the announcing neighbor.
#: Customers are preferred over peers over providers (they pay us, we pay
#: them); siblings are treated like customers.
DEFAULT_LOCAL_PREF = {
    Relationship.CUSTOMER: 100,
    Relationship.SIBLING: 100,
    Relationship.PEER: 90,
    Relationship.PROVIDER: 80,
}


def local_pref_for(relationship: Relationship) -> int:
    """Default local-preference assigned to routes from a neighbor."""
    try:
        return DEFAULT_LOCAL_PREF[relationship]
    except KeyError:  # pragma: no cover - enum is closed
        raise PolicyError(f"no local-pref for {relationship!r}")


def may_export(learned_from: Relationship, sending_to: Relationship) -> bool:
    """Gao-Rexford export rule.

    A route learned from a customer (or sibling, or originated locally — the
    caller passes CUSTOMER for self-originated routes) is exported to
    everyone; a route learned from a peer or provider is exported only to
    customers (and siblings, which behave like one network).
    """
    if learned_from in (Relationship.CUSTOMER, Relationship.SIBLING):
        return True
    return sending_to in (Relationship.CUSTOMER, Relationship.SIBLING)


def is_valley_free(labels: "list[Relationship]") -> bool:
    """Check a sequence of per-hop labels for valley-freeness.

    ``labels[i]`` is the relationship of hop ``i+1`` as seen from hop ``i``
    while travelling *away* from the traffic source: a valid path climbs
    providers, optionally crosses one peer link, then descends customers.
    Sibling links may appear anywhere.
    """
    # Phases: 0 = climbing (provider links), 1 = crossed the peak.
    phase = 0
    peer_used = False
    for label in labels:
        if label is Relationship.SIBLING:
            continue
        if label is Relationship.PROVIDER:
            if phase != 0:
                return False
        elif label is Relationship.PEER:
            if phase != 0 or peer_used:
                return False
            peer_used = True
            phase = 1
        elif label is Relationship.CUSTOMER:
            phase = 1
        else:  # pragma: no cover - enum is closed
            raise PolicyError(f"unknown relationship {label!r}")
    return True
