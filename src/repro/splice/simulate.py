"""Topology-scale poisoning simulation (§5.1).

To simulate poisoning AS A on a path from source S to origin O, remove A
(all its links) from the topology and ask whether S still has a
policy-compliant route to O.  The paper ran this over ~10M (path, transit
AS) cases from its BitTorrent + BGP-feed corpus and found alternates in
90%; we run the same procedure over paths harvested from the simulated
control plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runner.core import run_trials
from repro.runner.stats import RunStats
from repro.splice.reachability import reachable_set_avoiding
from repro.topology.as_graph import ASGraph


@dataclass(frozen=True)
class PoisonOutcome:
    """One simulated poisoning case."""

    source: int
    origin: int
    poisoned: int
    alternate_exists: bool


def poisonable_transits(path: Sequence[int]) -> List[int]:
    """Transit ASes on *path* eligible for simulated poisoning.

    Following §5.1: paths of AS-length <= 3 are skipped, and neither the
    origin (last hop) nor the origin's immediate provider (second-to-last)
    nor the source itself is poisoned — a single-homed destination can
    never avoid its provider, and the source trivially "uses" itself.
    """
    collapsed: List[int] = []
    for asn in path:
        if not collapsed or collapsed[-1] != asn:
            collapsed.append(asn)
    if len(collapsed) <= 3:
        return []
    return collapsed[1:-2]


def enumerate_poison_cases(
    paths: Iterable[Sequence[int]],
    max_cases: Optional[int] = None,
) -> List[Tuple[int, int, int]]:
    """Ordered, deduplicated (source, origin, poisoned) cases.

    Each path is read source-first (``path[0]`` is the source AS,
    ``path[-1]`` the origin); every eligible transit AS on every path is
    a case.  Enumeration order is the corpus order, so two runs over the
    same corpus see the same cases regardless of how the reachability
    questions are later scheduled.
    """
    cases: List[Tuple[int, int, int]] = []
    seen: set = set()
    for path in paths:
        source, origin = path[0], path[-1]
        for poisoned in poisonable_transits(path):
            case = (source, origin, poisoned)
            if case in seen:
                continue
            seen.add(case)
            cases.append(case)
            if max_cases is not None and len(cases) >= max_cases:
                return cases
    return cases


def _reachability_worker(
    graph: ASGraph, unit: Tuple[int, int, Tuple[int, ...]]
) -> Tuple[bool, ...]:
    """One (origin, poisoned) BFS; answers for every interested source."""
    origin, poisoned, sources = unit
    reachable = reachable_set_avoiding(graph, origin, avoid=[poisoned])
    return tuple(source in reachable for source in sources)


def simulate_poisonings_over_corpus(
    graph: ASGraph,
    paths: Iterable[Sequence[int]],
    max_cases: Optional[int] = None,
    workers: int = 1,
    stats: Optional[RunStats] = None,
) -> List[PoisonOutcome]:
    """Run the §5.1 large-scale study over an AS-path corpus.

    The unique (origin, poisoned) reachability questions — one BFS each,
    shared by every source on every path toward that origin — are the
    unit of work, fanned across *workers* processes.  Results are
    assembled in case-enumeration order, so any worker count produces
    the identical outcome list.
    """
    cases = enumerate_poison_cases(paths, max_cases=max_cases)
    # Group sources per (origin, poisoned) pair, preserving first-seen
    # order of both the pairs and each pair's sources.
    pair_sources: Dict[Tuple[int, int], List[int]] = {}
    for source, origin, poisoned in cases:
        pair_sources.setdefault((origin, poisoned), []).append(source)
    units = [
        (origin, poisoned, tuple(sources))
        for (origin, poisoned), sources in pair_sources.items()
    ]
    answers = run_trials(
        _reachability_worker,
        units,
        context=graph,
        workers=workers,
        stats=stats,
        label="efficacy",
        chunks_per_worker=4,
    )
    verdicts: Dict[Tuple[int, int, int], bool] = {}
    for (origin, poisoned, sources), flags in zip(units, answers):
        for source, exists in zip(sources, flags):
            verdicts[(source, origin, poisoned)] = exists
    return [
        PoisonOutcome(
            source=source,
            origin=origin,
            poisoned=poisoned,
            alternate_exists=verdicts[(source, origin, poisoned)],
        )
        for source, origin, poisoned in cases
    ]


def fraction_with_alternates(outcomes: Sequence[PoisonOutcome]) -> float:
    """Share of cases where an alternate policy-compliant path existed."""
    if not outcomes:
        return 0.0
    return sum(1 for o in outcomes if o.alternate_exists) / len(outcomes)
