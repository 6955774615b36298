"""Valley-free reachability by explicit path search.

An independent oracle for :func:`repro.splice.reachability.
reachable_set_avoiding` (three BFS passes over downhill, peer and uphill
sets): a BFS over ``(asn, phase)`` states that returns the path itself.
The library does not import it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.splice.reachability import reachable_set_avoiding
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship


def valley_free_reachable(
    graph: ASGraph, source: int, origin: int, avoid: Iterable[int] = ()
) -> bool:
    """True if *source* has a valley-free route to *origin* avoiding *avoid*."""
    if source == origin:
        return source not in set(avoid)
    return source in reachable_set_avoiding(graph, origin, avoid)


def valley_free_path(
    graph: ASGraph, source: int, origin: int, avoid: Iterable[int] = ()
) -> Optional[List[int]]:
    """An explicit valley-free AS path from *source* to *origin*, if any.

    BFS over (asn, phase) states where phase 0 = still climbing and phase 1
    = past the peak; returns the hop list including both endpoints, or None.
    Prefers fewer AS hops (BFS), matching how operators think about
    alternates rather than exactly modelling BGP preference.
    """
    avoid_set = set(avoid)
    if source in avoid_set or origin in avoid_set:
        return None
    if source == origin:
        return [source]
    start = (source, 0)
    parents: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {start: None}
    queue = deque([start])
    goal: Optional[Tuple[int, int]] = None
    while queue and goal is None:
        state = queue.popleft()
        asn, phase = state
        for neighbor in graph.neighbors(asn):
            if neighbor in avoid_set:
                continue
            rel = graph.relationship(asn, neighbor)
            if rel is Relationship.PROVIDER or rel is Relationship.SIBLING:
                next_phase = phase if rel is Relationship.SIBLING else 0
                if phase != 0 and rel is Relationship.PROVIDER:
                    continue
                next_state = (neighbor, next_phase)
            elif rel is Relationship.PEER:
                if phase != 0:
                    continue
                next_state = (neighbor, 1)
            else:  # CUSTOMER: descending is always allowed, locks phase 1
                next_state = (neighbor, 1)
            if next_state in parents:
                continue
            parents[next_state] = state
            if neighbor == origin:
                goal = next_state
                break
            queue.append(next_state)
    if goal is None:
        return None
    path: List[int] = []
    cursor: Optional[Tuple[int, int]] = goal
    while cursor is not None:
        path.append(cursor[0])
        cursor = parents[cursor]
    path.reverse()
    return path
