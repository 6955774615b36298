"""The BGP-Mux poisoning study: Fig. 6, §5.1 (in-the-wild half), §5.2 loss.

Mirrors the paper's methodology: announce the prefix, harvest the ASes on
route-collector peers' paths toward it, then poison each harvested AS in
turn — once from a plain ``O`` baseline and once from a prepended
``O-O-O`` baseline — observing per-peer update counts, convergence times,
whether affected peers found alternate routes, and (via control-plane
replay) packet loss during convergence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.loss import ConvergenceLossReplay
from repro.bgp.collectors import PeerConvergence, RouteCollector
from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.messages import make_path, traversed_ases
from repro.net.addr import Prefix
from repro.runner.baseline import converged_internet, restore_snapshot
from repro.runner.core import derive_seed, run_trials
from repro.runner.stats import RunStats

#: Idle gap between experiments so convergence windows never overlap.
EXPERIMENT_GAP = 400.0

#: Each trial owns a slot in the shared experiment timeline: trial *i*
#: starts at ``snapshot + (i + 1) * TRIAL_WINDOW``.  The one-slot lead-in
#: puts every trial far past the initial convergence's MRAI timers (so a
#: trial's behaviour cannot depend on its slot number), and distinct
#: slots keep recorded event times monotonic across the study.
TRIAL_WINDOW = 10_000.0


@dataclass
class PoisonTrial:
    """One (baseline, poisoned AS) experiment."""

    poisoned_asn: int
    prepended_baseline: bool
    event_time: float
    settle_time: float
    #: per-peer convergence records (only peers that emitted updates).
    peer_records: List[PeerConvergence] = field(default_factory=list)
    #: peers routing through the poisoned AS pre-poison.
    affected_peers: Set[int] = field(default_factory=set)
    #: affected peers that ended up with a route avoiding the AS.
    found_alternate: Set[int] = field(default_factory=set)
    #: affected peers left with no route at all.
    cut_off: Set[int] = field(default_factory=set)
    global_convergence: Optional[float] = None
    loss_overall: Optional[float] = None
    loss_max_bin: Optional[float] = None


@dataclass
class ConvergenceStudy:
    """All trials plus the context needed to summarize them."""

    origin_asn: int
    prefix: Prefix
    collector_peers: Set[int] = field(default_factory=set)
    trials: List[PoisonTrial] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Fig. 6 style summaries
    # ------------------------------------------------------------------
    def convergence_records(
        self, prepended: bool, changed: bool
    ) -> List[PeerConvergence]:
        """Per-peer records for one of the four Fig. 6 curves."""
        out: List[PeerConvergence] = []
        for trial in self.trials:
            if trial.prepended_baseline != prepended:
                continue
            for record in trial.peer_records:
                if record.was_affected == changed:
                    out.append(record)
        return out

    def instant_fraction(self, prepended: bool, changed: bool) -> float:
        records = self.convergence_records(prepended, changed)
        if not records:
            return 1.0
        return sum(1 for r in records if r.instant) / len(records)

    def converged_within(
        self, prepended: bool, changed: bool, seconds: float
    ) -> float:
        records = self.convergence_records(prepended, changed)
        if not records:
            return 1.0
        return sum(
            1 for r in records if r.convergence_time <= seconds
        ) / len(records)

    def global_convergence_percentile(
        self, prepended: bool, fraction: float
    ) -> Optional[float]:
        times = sorted(
            t.global_convergence
            for t in self.trials
            if t.prepended_baseline == prepended
            and t.global_convergence is not None
        )
        if not times:
            return None
        index = min(int(fraction * len(times)), len(times) - 1)
        return times[index]

    # ------------------------------------------------------------------
    # §5.1 alternate-route summary
    # ------------------------------------------------------------------
    def alternate_route_fraction(self) -> Tuple[float, int, int]:
        """(fraction, found, total) of affected (peer, poison) cases that
        found an alternate route — the paper's 102/132 = 77%."""
        found = sum(len(t.found_alternate) for t in self.trials)
        total = sum(len(t.affected_peers) for t in self.trials)
        return (found / total if total else 0.0), found, total

    def cutoff_stub_fraction(self, graph) -> float:
        """Of the failures to find alternates, how many were poisons of a
        stub's only provider (the paper's two-thirds)?"""
        failures = 0
        sole_provider = 0
        for trial in self.trials:
            for peer in trial.cut_off:
                failures += 1
                providers = graph.providers(peer)
                if providers == [trial.poisoned_asn]:
                    sole_provider += 1
        return sole_provider / failures if failures else 0.0

    # ------------------------------------------------------------------
    # §5.2 loss summary
    # ------------------------------------------------------------------
    def loss_fractions(
        self, thresholds: Sequence[float] = (0.01, 0.02)
    ) -> Dict[float, float]:
        """Fraction of poisonings with overall loss under each threshold."""
        rates = [
            t.loss_overall
            for t in self.trials
            if t.prepended_baseline and t.loss_overall is not None
        ]
        if not rates:
            return {t: 1.0 for t in thresholds}
        return {
            threshold: sum(1 for r in rates if r < threshold) / len(rates)
            for threshold in thresholds
        }

    def spike_fraction(self, threshold: float = 0.10) -> float:
        """Fraction of poisonings with any 10 s bin above *threshold*."""
        spikes = [
            t.loss_max_bin
            for t in self.trials
            if t.prepended_baseline and t.loss_max_bin is not None
        ]
        if not spikes:
            return 0.0
        return sum(1 for s in spikes if s > threshold) / len(spikes)


def _harvest_poison_candidates(
    engine: BGPEngine,
    collector: RouteCollector,
    prefix: Prefix,
    origin_asn: int,
    exclude: Set[int],
) -> List[int]:
    """ASes appearing on collector-peer paths toward the prefix."""
    harvested: Set[int] = set()
    for peer in collector.peers:
        path = engine.as_path(peer, prefix)
        if path is None:
            continue
        harvested.update(traversed_ases(path, origin_asn))
        harvested.add(peer)
    harvested -= exclude
    return sorted(harvested)


def run_poisoning_convergence_study(
    scale: str = "small",
    seed: int = 0,
    num_collector_peers: int = 40,
    max_poisons: Optional[int] = None,
    measure_loss: bool = True,
    exclude_tier1: bool = True,
    mrai: float = 30.0,
    workers: int = 1,
    stats: Optional[RunStats] = None,
) -> Tuple[ConvergenceStudy, object]:
    """Run the full study; returns (study, graph).

    The origin attaches to a single provider (the Georgia Tech BGP-Mux
    model).  Tier-1 ASes and the origin's provider are excluded from
    poisoning, as in the paper (§5, which excluded tier-1s and Cogent).
    *mrai* sets the per-session announcement rate limit (ablation knob).

    Each (baseline, poisoned AS) trial runs on its own copy of the
    converged control plane with an RNG derived from
    ``(seed, baseline, poisoned AS)``, so trials are independent of one
    another and of execution order — *workers* processes produce results
    byte-identical to a serial run.
    """
    stats = stats if stats is not None else RunStats()
    base = converged_internet(
        scale,
        seed,
        engine_config=EngineConfig(seed=seed, mrai=mrai),
        origin_providers=1,
        stats=stats,
    )
    graph, origin_asn = base.graph, base.origin_asn
    rng = random.Random(seed)
    provider = graph.providers(origin_asn)[0]
    prefix = graph.node(origin_asn).prefixes[0]
    with stats.timer("convergence.snapshot"):
        snapshot = base.snapshot()

    # Route-collector peers: every transit AS plus a sample of stubs.
    transit = [a for a in graph.transit_ases() if a != provider]
    stubs = [a for a in graph.stubs() if a != origin_asn]
    rng.shuffle(stubs)
    peers = set(transit[: num_collector_peers // 2])
    peers.update(stubs[: num_collector_peers - len(peers)])

    exclude = {origin_asn, provider}
    if exclude_tier1:
        exclude.update(n.asn for n in graph.nodes() if n.tier == 1)

    # Announce once, on a throwaway copy, so candidates can be harvested
    # from real collector-peer paths.
    with stats.timer("convergence.restore"):
        probe_engine, _ = restore_snapshot(snapshot)
    with stats.timer("convergence.harvest"):
        probe_collector = RouteCollector(probe_engine, peers)
        probe_engine.originate(
            origin_asn, prefix, path=make_path(origin_asn)
        )
        probe_engine.run()
        candidates = _harvest_poison_candidates(
            probe_engine, probe_collector, prefix, origin_asn, exclude
        )
    # Only transit ASes are worth poisoning (stubs don't carry traffic).
    candidates = [a for a in candidates if not graph.is_stub(a)]
    if max_poisons is not None:
        candidates = candidates[:max_poisons]

    study = ConvergenceStudy(
        origin_asn=origin_asn, prefix=prefix, collector_peers=peers
    )
    units = [
        (index, poisoned, prepended)
        for index, (prepended, poisoned) in enumerate(
            (p, c) for p in (True, False) for c in candidates
        )
    ]
    context = (
        snapshot, tuple(sorted(peers)), origin_asn, prefix, measure_loss,
        seed,
    )
    study.trials.extend(
        run_trials(
            _trial_worker,
            units,
            context=context,
            workers=workers,
            stats=stats,
            label="convergence",
            chunks_per_worker=2,
        )
    )
    return study, graph


def _trial_worker(context, unit) -> PoisonTrial:
    """One (baseline, poisoned AS) trial on a private engine copy."""
    snapshot, peers, origin_asn, prefix, measure_loss, master_seed = context
    index, poisoned, prepended = unit
    engine, _ = restore_snapshot(snapshot)
    engine.reseed(
        derive_seed(master_seed, "convergence-trial", prepended, poisoned)
    )
    engine.advance_to(engine.now + (index + 1) * TRIAL_WINDOW)
    collector = RouteCollector(engine, peers)
    prepend = 3 if prepended else 1

    # Announce the baseline and let everything settle.
    engine.originate(
        origin_asn, prefix, path=make_path(origin_asn, prepend=prepend)
    )
    engine.run()
    engine.advance_to(engine.now + EXPERIMENT_GAP)

    affected = set(collector.peers_using(prefix, poisoned))
    event_time = engine.now
    poison_path = make_path(
        origin_asn, prepend=max(1, prepend - 1), poison=[poisoned]
    )
    engine.originate(origin_asn, prefix, path=poison_path)
    settle_time = engine.run()

    trial = PoisonTrial(
        poisoned_asn=poisoned,
        prepended_baseline=prepended,
        event_time=event_time,
        settle_time=settle_time,
        affected_peers=affected,
    )
    trial.peer_records = collector.convergence_after(
        event_time, prefix, affected=affected
    )
    trial.global_convergence = collector.global_convergence_time(
        event_time, prefix
    )
    for peer in affected:
        path = engine.as_path(peer, prefix)
        if path is None:
            trial.cut_off.add(peer)
        elif poisoned not in traversed_ases(path, origin_asn):
            trial.found_alternate.add(peer)
    if measure_loss:
        replay = ConvergenceLossReplay(collector.changes, prefix)
        sources = sorted(collector.peers)
        window_end = max(settle_time, event_time + 10.0)
        trial.loss_overall = replay.overall_loss_rate(
            sources, event_time, window_end
        )
        trial.loss_max_bin = replay.max_bin_loss_rate(
            sources, event_time, window_end
        )
    return trial
