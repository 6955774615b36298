"""Provider diversity: forward-path choice vs. reverse-path selective
poisoning (§2.3 and §5.2's second experiment).

Forward: with five providers (the five university BGP-Muxes), how often
can the origin dodge a silent failure of the last AS link before a
destination by routing out a different provider?  The origin sees each
provider's full BGP path, so this is a question about the candidate routes
in its own Adj-RIB-In.  Paper: 90%.

Reverse: for each feed AS A and each mux M, poison A via every mux except
M.  If for some M, A keeps a route but its first-hop AS link changes, the
link is avoidable by selective poisoning.  Paper: 73%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.bgp.engine import BGPEngine
from repro.bgp.messages import traversed_ases, unique_ases
from repro.bgp.origin import OriginController
from repro.runner.baseline import converged_internet, restore_snapshot
from repro.runner.core import derive_seed, run_trials
from repro.runner.stats import RunStats


@dataclass
class DiversityStudy:
    """Results of both halves of the experiment."""

    num_providers: int = 5
    #: feed AS -> can the origin's forward route avoid the last link?
    forward_avoidable: Dict[int, bool] = field(default_factory=dict)
    #: feed AS -> could selective poisoning move it off its first-hop link?
    reverse_avoidable: Dict[int, bool] = field(default_factory=dict)

    @property
    def forward_fraction(self) -> float:
        if not self.forward_avoidable:
            return 0.0
        return sum(self.forward_avoidable.values()) / len(
            self.forward_avoidable
        )

    @property
    def reverse_fraction(self) -> float:
        if not self.reverse_avoidable:
            return 0.0
        return sum(self.reverse_avoidable.values()) / len(
            self.reverse_avoidable
        )


def _forward_last_link_avoidable(
    engine: BGPEngine, origin_asn: int, feed_asn: int
) -> Optional[bool]:
    """Can the origin route around the last AS link before *feed_asn*?"""
    node = engine.graph.node(feed_asn)
    if not node.prefixes:
        return None
    prefix = node.prefixes[0]
    speaker = engine.speakers[origin_asn]
    engine.materialize()
    candidates = speaker.table.candidates(prefix)
    routes = [r for r in candidates if r.neighbor != origin_asn]
    if not routes:
        return None
    best = min(routes, key=lambda r: (len(r.as_path), r.neighbor))
    path = unique_ases(best.as_path)
    if len(path) < 2:
        return None
    last_link = (path[-2], path[-1])
    for route in routes:
        other = unique_ases(route.as_path)
        pairs = list(zip(other, other[1:]))
        if last_link not in pairs:
            return True
    return False


def run_provider_diversity_study(
    scale: str = "medium",
    seed: int = 0,
    num_providers: int = 5,
    num_feeds: int = 40,
    max_reverse_feeds: Optional[int] = None,
    workers: int = 1,
    stats: Optional[RunStats] = None,
) -> Tuple[DiversityStudy, object]:
    """Run both halves over one multi-provider origin.

    The reverse (selective-poisoning) half runs each feed as an
    independent trial on its own copy of the post-baseline control plane,
    seeded from ``(seed, feed)`` — parallel across *workers* with results
    byte-identical to serial.
    """
    stats = stats if stats is not None else RunStats()
    base = converged_internet(
        scale,
        seed,
        origin_providers=num_providers,
        stats=stats,
    )
    graph, engine, origin_asn = base.graph, base.engine, base.origin_asn
    prefix = graph.node(origin_asn).prefixes[0]

    controller = OriginController(engine, origin_asn, prefix)
    controller.announce_baseline()
    engine.run()
    with stats.timer("diversity.snapshot"):
        snapshot = base.snapshot()

    # Feed ASes model the networks peering with route collectors: a mix
    # of transit providers and edge networks of all sizes (the paper's
    # 114 feeds), not just the well-connected core.
    providers = set(graph.providers(origin_asn))
    rng = random.Random(seed)
    transit_feeds = [
        asn
        for asn in graph.transit_ases()
        if asn not in providers and asn != origin_asn
    ]
    stub_feeds = [
        asn for asn in graph.stubs() if asn != origin_asn
    ]
    rng.shuffle(transit_feeds)
    rng.shuffle(stub_feeds)
    feeds = sorted(
        transit_feeds[: num_feeds // 2]
        + stub_feeds[: num_feeds - num_feeds // 2]
    )

    study = DiversityStudy(num_providers=num_providers)

    # ------------------------------------------------------------------
    # Forward half: inspect the origin's candidate routes per feed AS.
    # ------------------------------------------------------------------
    for feed in feeds:
        verdict = _forward_last_link_avoidable(engine, origin_asn, feed)
        if verdict is not None:
            study.forward_avoidable[feed] = verdict

    # ------------------------------------------------------------------
    # Reverse half: selective poisoning per (feed, spared provider).
    # Each feed runs on its own copy of the post-baseline control plane,
    # so feeds are independent trials and can fan across workers.
    # ------------------------------------------------------------------
    reverse_feeds = feeds if max_reverse_feeds is None else feeds[
        :max_reverse_feeds
    ]
    context = (snapshot, origin_asn, prefix, seed)
    results = run_trials(
        _reverse_worker,
        reverse_feeds,
        context=context,
        workers=workers,
        stats=stats,
        label="diversity",
        chunks_per_worker=2,
    )
    for result in results:
        if result is None:
            continue
        feed, avoided = result
        study.reverse_avoidable[feed] = avoided
    return study, graph


def _reverse_worker(context, feed: int) -> Optional[Tuple[int, bool]]:
    """Selective-poisoning trial for one feed AS on a private engine."""
    snapshot, origin_asn, prefix, master_seed = context
    engine, _ = restore_snapshot(snapshot)
    engine.reseed(derive_seed(master_seed, "diversity-feed", feed))
    controller = OriginController(engine, origin_asn, prefix)
    baseline = engine.best_route(feed, prefix)
    if baseline is None:
        return None
    base_used = traversed_ases(baseline.as_path, origin_asn)
    first_link = (feed, base_used[0] if base_used else None)
    avoided = False
    for spared in controller.providers:
        poisoned_via = [p for p in controller.providers if p != spared]
        controller.poison_selectively(feed, via_providers=poisoned_via)
        engine.run()
        engine.advance_to(engine.now + 60.0)
        after = engine.best_route(feed, prefix)
        if after is not None:
            after_used = traversed_ases(after.as_path, origin_asn)
            new_link = (feed, after_used[0] if after_used else None)
            if new_link != first_link:
                avoided = True
        controller.unpoison()
        engine.run()
        engine.advance_to(engine.now + 60.0)
        if avoided:
            break
    return feed, avoided
