"""Topology-scale poisoning efficacy (§5.1, the simulation half).

The paper simulated poisoning every transit AS on ~10M AS paths from its
BitTorrent + BGP-feed corpus: remove the AS from the topology and test
whether the source retains a policy-compliant route.  90% of cases had an
alternate.  We harvest a path corpus from the simulated control plane
(every AS's selected route to every monitored origin) and run the same
procedure with the valley-free reachability test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.bgp.engine import BGPEngine
from repro.bgp.messages import unique_ases
from repro.runner.baseline import converged_internet
from repro.runner.stats import RunStats
from repro.splice.simulate import (
    PoisonOutcome,
    fraction_with_alternates,
    simulate_poisonings_over_corpus,
)


@dataclass
class EfficacyStudy:
    """Results of the large-scale poisoning simulation."""

    outcomes: List[PoisonOutcome] = field(default_factory=list)
    corpus_paths: int = 0

    @property
    def fraction_with_alternates(self) -> float:
        return fraction_with_alternates(self.outcomes)


def harvest_path_corpus(
    engine: BGPEngine,
    origins: Sequence[int],
    max_paths: Optional[int] = None,
    seed: int = 0,
) -> List[Tuple[int, ...]]:
    """Source-first AS paths from every AS toward each origin's prefix.

    This is the simulation's stand-in for the BitTorrent + BGP-feed
    corpus: real selected paths, heavily overlapping, source-diverse.
    """
    rng = random.Random(seed)
    corpus: List[Tuple[int, ...]] = []
    for origin in origins:
        node = engine.graph.node(origin)
        if not node.prefixes:
            continue
        prefix = node.prefixes[0]
        for asn in engine.graph.ases():
            if asn == origin:
                continue
            path = engine.as_path(asn, prefix)
            if path is None:
                continue
            corpus.append((asn,) + unique_ases(path))
    rng.shuffle(corpus)
    if max_paths is not None:
        corpus = corpus[:max_paths]
    return corpus


def run_topology_efficacy_study(
    scale: str = "medium",
    seed: int = 0,
    num_origins: int = 25,
    max_cases: Optional[int] = None,
    workers: int = 1,
    stats: Optional[RunStats] = None,
) -> Tuple[EfficacyStudy, object]:
    """Build a converged Internet, harvest paths, simulate poisonings.

    The reachability trials fan out across *workers* processes with
    results byte-identical to a serial run.
    """
    stats = stats if stats is not None else RunStats()
    base = converged_internet(scale, seed, stats=stats)
    graph, engine = base.graph, base.engine

    rng = random.Random(seed)
    stubs = graph.stubs()
    rng.shuffle(stubs)
    origins = stubs[:num_origins]
    with stats.timer("efficacy.harvest"):
        corpus = harvest_path_corpus(engine, origins, seed=seed)
    outcomes = simulate_poisonings_over_corpus(
        graph, corpus, max_cases=max_cases, workers=workers, stats=stats
    )
    stats.count("efficacy.cases", len(outcomes))

    study = EfficacyStudy(outcomes=outcomes, corpus_paths=len(corpus))
    return study, graph
