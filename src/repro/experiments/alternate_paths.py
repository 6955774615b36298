"""Spliced alternate-path existence during outages (§2.2).

The paper issued all-pairs traceroutes between PlanetLab sites for a week,
found ~15,000 outages (3+ consecutive failed rounds in both directions),
and asked: do the measured paths contain a policy-compliant *spliced*
route around the AS where the failing traceroute died?  49% of outages had
one; 83% of outages lasting at least an hour did; and when an alternate
existed in the first round it persisted in 98% of cases.

We harvest the same kind of corpus from the simulated data plane (all-pairs
traceroutes between stub "sites"), inject failures whose AS placement
follows the paper's observation that long-lived failures concentrate in
core transit networks (short blips are more often adjacent to the edge,
where splicing has nothing to work with), and run the §2.2 splice test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.dataplane.fib import build_fibs
from repro.dataplane.forwarding import DataPlane
from repro.runner.baseline import converged_internet
from repro.runner.core import derive_seed, run_trials
from repro.runner.stats import RunStats
from repro.splice.splicer import Hop, PathCorpus, Trace
from repro.topology.routers import RouterTopology
from repro.workloads.outages import generate_outage_trace

ONE_HOUR = 3600.0


@dataclass
class OutageCase:
    """One synthetic outage subjected to the splice test.

    ``alternate_exists`` uses the paper's observed-triple export test (a
    conservative lower bound: a triple unseen in the corpus is rejected
    even if compliant); ``alternate_exists_valley`` uses the ground-truth
    valley-free check over the relationship-labelled graph (the property
    the triple test approximates).  The paper's number sits between the
    two bounds.
    """

    source_site: str
    destination_site: str
    failed_asn: int
    duration: float
    alternate_exists: bool
    alternate_exists_valley: bool = False


@dataclass
class AlternatePathStudy:
    """All cases plus the §2.2 headline fractions."""

    cases: List[OutageCase] = field(default_factory=list)
    corpus_size: int = 0

    @staticmethod
    def _fraction(cases: List[OutageCase], valley: bool) -> float:
        if not cases:
            return 0.0
        if valley:
            return sum(c.alternate_exists_valley for c in cases) / len(cases)
        return sum(c.alternate_exists for c in cases) / len(cases)

    @property
    def overall_fraction(self) -> float:
        return self._fraction(self.cases, valley=False)

    @property
    def overall_fraction_valley(self) -> float:
        return self._fraction(self.cases, valley=True)

    def fraction_for_long_outages(
        self, threshold: float = ONE_HOUR, valley: bool = False
    ) -> float:
        long_cases = [c for c in self.cases if c.duration >= threshold]
        return self._fraction(long_cases, valley=valley)


def _site_traceroute(
    dataplane: DataPlane,
    topo: RouterTopology,
    source_rid: str,
    destination_rid: str,
) -> Optional[Trace]:
    walk = dataplane.forward(
        source_rid, topo.router(destination_rid).address
    )
    if not walk.delivered:
        return None
    hops = tuple(
        Hop(
            address=topo.router(rid).address.value,
            asn=topo.router(rid).asn,
        )
        for rid in walk.hops[1:]
    )
    return Trace(
        source=source_rid, destination=destination_rid, hops=hops
    )


def run_alternate_path_study(
    scale: str = "medium",
    seed: int = 0,
    num_sites: int = 24,
    num_outages: int = 300,
    workers: int = 1,
    stats: Optional[RunStats] = None,
) -> Tuple[AlternatePathStudy, object]:
    """Build the corpus and run the splice test over synthetic outages.

    Outage specs (endpoints, duration, failed AS) are drawn serially with
    a per-attempt RNG derived from ``(seed, attempt)``, so the sampled
    population never depends on scheduling; the expensive splice searches
    then fan across *workers* processes, byte-identical to a serial run.
    """
    stats = stats if stats is not None else RunStats()
    base = converged_internet(scale, seed, stats=stats)
    graph, engine = base.graph, base.engine
    topo = RouterTopology.build(graph, seed=seed)
    dataplane = DataPlane(topo, build_fibs(engine))

    rng = random.Random(seed)
    stubs = graph.stubs()
    rng.shuffle(stubs)
    sites = {
        asn: topo.routers_of(asn)[0] for asn in stubs[:num_sites]
    }

    # All-pairs corpus (the week of traceroutes; paths are stable so one
    # converged round carries the same information).
    with stats.timer("alternate.corpus"):
        corpus = PathCorpus()
        for src_asn, src_rid in sites.items():
            for dst_asn, dst_rid in sites.items():
                if src_asn == dst_asn:
                    continue
                trace = _site_traceroute(dataplane, topo, src_rid, dst_rid)
                if trace is not None:
                    corpus.add(trace)
        # The paper's export-policy check accepts a triple if it appeared
        # in the iPlane/iPlane-Nano measurement corpora [17, 25], which
        # cover far more sources than the PlanetLab mesh itself.  Enrich
        # the triple set the same way: observe the AS-level paths every
        # AS selects toward the monitored sites (splice *legs* still come
        # only from the measured site-to-site traceroutes).
        from repro.bgp.messages import unique_ases

        for node in graph.nodes():
            if not node.prefixes:
                continue
            prefix = node.prefixes[0]
            for asn in graph.ases():
                path = engine.as_path(asn, prefix)
                if path is not None:
                    corpus.triples.observe_path(
                        (asn,) + unique_ases(path)
                    )

    # The §2.2 outage definition is >= 3 consecutive 10-minute rounds of
    # failed traceroutes in both directions, so every outage in the
    # population lasted at least ~30 minutes; sample durations from the
    # calibrated distribution conditioned on that floor.
    durations = [
        d
        for d in generate_outage_trace(seed=seed).durations
        if d >= 1800.0
    ]
    study = AlternatePathStudy(corpus_size=len(corpus))
    site_list = sorted(sites)

    # Draw the outage population.  Each attempt uses its own RNG derived
    # from (seed, attempt), so an attempt's spec — and whether it was
    # rejected by the placement filters — depends only on its index.
    with stats.timer("alternate.sample"):
        specs: List[Tuple[str, str, int, float]] = []
        for attempt in range(num_outages * 10):
            if len(specs) >= num_outages:
                break
            spec = _draw_outage_spec(
                derive_seed(seed, "alternate-outage", attempt),
                site_list, sites, dataplane, topo, durations,
            )
            if spec is not None:
                specs.append(spec)
    stats.count("alternate.specs", len(specs))

    results = run_trials(
        _splice_worker,
        specs,
        context=(corpus, graph),
        workers=workers,
        stats=stats,
        label="alternate",
        chunks_per_worker=4,
    )
    for spec, verdict in zip(specs, results):
        src_rid, dst_rid, failed_asn, duration = spec
        alternate, alternate_valley = verdict
        study.cases.append(
            OutageCase(
                source_site=src_rid,
                destination_site=dst_rid,
                failed_asn=failed_asn,
                duration=duration,
                alternate_exists=alternate,
                alternate_exists_valley=alternate_valley,
            )
        )
    return study, graph


def _draw_outage_spec(
    attempt_seed: int,
    site_list: Sequence[int],
    sites,
    dataplane: DataPlane,
    topo: RouterTopology,
    durations: Sequence[float],
) -> Optional[Tuple[str, str, int, float]]:
    """One sampled outage: (src_rid, dst_rid, failed_asn, duration).

    Returns None when the draw is rejected (unreachable pair, no transit
    AS to fail, or a long-lived duration on a coreless path).
    """
    rng = random.Random(attempt_seed)
    src_asn, dst_asn = rng.sample(list(site_list), 2)
    src_rid, dst_rid = sites[src_asn], sites[dst_asn]
    trace = _site_traceroute(dataplane, topo, src_rid, dst_rid)
    if trace is None:
        return None
    path_ases = [a for a in trace.as_sequence() if a != src_asn]
    transit = [a for a in path_ases if a != dst_asn]
    if not transit:
        return None
    duration = rng.choice(durations)
    # Failure placement: long-lived failures concentrate in the core,
    # away from both edges (§2.2 builds on [13, 20]: long outages are
    # rarely in the edge networks); short blips often hit the AS
    # adjacent to an endpoint, where no splice can help.  This is the
    # mechanism behind the paper's observation that the longer a
    # problem lasted, the likelier alternates existed.
    core = transit[1:-1]
    edge_adjacent = [transit[0], transit[-1]]
    if duration >= ONE_HOUR:
        if not core:
            # Long-lived failures live in transit networks; a path with
            # no middle AS cannot host one — resample.
            return None
        candidates = core
    elif core and rng.random() < 0.45:
        candidates = core
    else:
        candidates = edge_adjacent
    failed_asn = rng.choice(candidates)
    return src_rid, dst_rid, failed_asn, duration


def _splice_worker(context, spec) -> Tuple[bool, bool]:
    """Both splice tests (observed-triple and valley-free) for one spec."""
    corpus, graph = context
    src_rid, dst_rid, failed_asn, _duration = spec
    spliced = corpus.find_splice(src_rid, dst_rid, avoid_asns=[failed_asn])
    spliced_valley = corpus.find_splice(
        src_rid,
        dst_rid,
        avoid_asns=[failed_asn],
        policy_check=_make_valley_check(graph),
    )
    return spliced is not None, spliced_valley is not None


def _make_valley_check(graph):
    """Ground-truth splice policy: the whole spliced AS path must be
    valley-free under the known business relationships."""
    from repro.topology.relationships import is_valley_free

    def check(left, joint, right):
        sequence = list(left) + [joint] + list(right)
        labels = []
        for a, b in zip(sequence, sequence[1:]):
            if a == b:
                continue
            if not graph.has_link(a, b):
                return False
            labels.append(graph.relationship(a, b))
        return is_valley_free(labels)

    return check
