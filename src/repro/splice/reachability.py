"""Valley-free reachability over the AS graph.

A valley-free path from a source S to an origin O climbs provider links,
optionally crosses exactly one peer link, then descends customer links.
Whether such a path exists (while avoiding a removed AS) is computed with
three BFS passes in O(V+E) — fast enough to simulate poisoning millions of
(path, transit-AS) cases as §5.1 does.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Set

from repro.topology.as_graph import ASGraph


def _downhill_set(
    graph: ASGraph, origin: int, avoid: Set[int]
) -> Set[int]:
    """ASes that reach *origin* descending only customer links.

    These are origin's providers, their providers, etc. — every AS holding
    a customer route to the origin.  (Traffic flows down; routes flow up.)
    """
    if origin in avoid:
        return set()
    seen = {origin}
    queue = deque([origin])
    while queue:
        current = queue.popleft()
        for upper in graph.providers(current):
            if upper not in seen and upper not in avoid:
                seen.add(upper)
                queue.append(upper)
    return seen


def reachable_set_avoiding(
    graph: ASGraph, origin: int, avoid: Iterable[int] = ()
) -> Set[int]:
    """All ASes with a valley-free route to *origin* avoiding *avoid*.

    The route may not traverse any AS in *avoid* (the origin itself must
    not be avoided, or the result is empty).
    """
    avoid_set = set(avoid)
    if origin in avoid_set:
        return set()
    downhill = _downhill_set(graph, origin, avoid_set)
    # One optional peer hop into the downhill set.
    with_peer: Set[int] = set(downhill)
    for member in downhill:
        for peer in graph.peers(member):
            if peer not in avoid_set:
                with_peer.add(peer)
    # Finally, any AS that can climb (via providers) into that set can
    # reach the origin: traverse provider->customer edges downward.
    reachable = set(with_peer)
    queue = deque(with_peer)
    while queue:
        current = queue.popleft()
        for customer in graph.customers(current):
            if customer not in reachable and customer not in avoid_set:
                reachable.add(customer)
                queue.append(customer)
    return reachable
