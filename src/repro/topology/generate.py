"""Synthetic Internet-like AS topology generator.

Produces the three-tier structure the paper's experiments depend on: a
tier-1 clique at the top, a layer of regional transit providers, and a large
population of (mostly multihomed) stub networks, with settlement-free
peering sprinkled through the middle of the hierarchy.  Degrees follow a
heavy-tailed distribution via preferential attachment when stubs and
tier-2s pick providers.

Every AS is assigned a /16 derived from its ASN (``asn << 16``), so address
assignment is deterministic and collision-free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.bgp.policy import SpeakerConfig
from repro.errors import TopologyError
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship


@dataclass
class InternetShape:
    """Knobs controlling the generated topology.

    The defaults give a ~500-AS Internet that is small enough for
    event-driven BGP simulation yet rich enough in path diversity that the
    paper's alternate-path statistics are meaningful.
    """

    num_tier1: int = 8
    num_tier2: int = 60
    num_stubs: int = 440
    #: Probability that a tier-2 has 2+ providers (always has at least 1).
    #: The multihoming and peering defaults below are calibrated so that
    #: the §5.1 poisoning simulation reproduces the paper's ~90%
    #: alternate-path availability; the real Internet is heavily
    #: multihomed at both the transit and edge layers.
    tier2_multihome_prob: float = 0.9
    #: Maximum providers a tier-2 attaches to.
    tier2_max_providers: int = 4
    #: Probability a stub is multihomed (2+ providers).
    stub_multihome_prob: float = 0.8
    #: Maximum providers a stub attaches to.
    stub_max_providers: int = 3
    #: Expected number of tier-2 <-> tier-2 peering links per tier-2 AS.
    tier2_peering_degree: float = 4.0
    #: Fraction of stubs that attach directly to a tier-1 (content-like).
    stub_tier1_attach_prob: float = 0.08


def prefix_for_asn(asn: int) -> Prefix:
    """The deterministic /16 originated by *asn*."""
    if not 1 <= asn < (1 << 16):
        raise TopologyError(f"ASN {asn} outside the addressable range")
    return Prefix(asn << 16, 16)


def _weighted_sample(
    rng: random.Random,
    candidates: List[int],
    weights: List[float],
    count: int,
) -> List[int]:
    """Sample *count* distinct candidates with the given weights."""
    chosen: List[int] = []
    pool = list(zip(candidates, weights))
    for _ in range(min(count, len(pool))):
        total = sum(w for _, w in pool)
        pick = rng.random() * total
        acc = 0.0
        for index, (candidate, weight) in enumerate(pool):
            acc += weight
            if pick <= acc:
                chosen.append(candidate)
                pool.pop(index)
                break
        else:  # floating point slop: take the last one
            chosen.append(pool.pop()[0])
    return chosen


def generate_internet(
    shape: Optional[InternetShape] = None, seed: int = 0
) -> ASGraph:
    """Build a synthetic Internet.

    ASNs are assigned contiguously: tier-1s first, then tier-2s, then stubs.
    The graph is guaranteed connected (every non-tier-1 has at least one
    provider chain reaching the clique).
    """
    shape = shape or InternetShape()
    if shape.num_tier1 < 2:
        raise TopologyError("need at least two tier-1 ASes")
    rng = random.Random(seed)
    graph = ASGraph()

    tier1 = list(range(1, shape.num_tier1 + 1))
    tier2 = list(
        range(shape.num_tier1 + 1, shape.num_tier1 + shape.num_tier2 + 1)
    )
    stub_start = shape.num_tier1 + shape.num_tier2 + 1
    stubs = list(range(stub_start, stub_start + shape.num_stubs))

    for asn in tier1:
        graph.add_as(asn, tier=1, prefixes=[prefix_for_asn(asn)])
    for asn in tier2:
        graph.add_as(asn, tier=2, prefixes=[prefix_for_asn(asn)])
    for asn in stubs:
        graph.add_as(asn, tier=3, prefixes=[prefix_for_asn(asn)])

    # Tier-1 clique: everyone peers with everyone.
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            graph.add_link(a, b, Relationship.PEER)

    # Tier-2s buy transit from tier-1s (weighted by current degree so a few
    # tier-1s become very large, mirroring the real Internet).
    for asn in tier2:
        if rng.random() < shape.tier2_multihome_prob:
            count = rng.randint(2, shape.tier2_max_providers)
        else:
            count = 1
        weights = [1.0 + graph.degree(t) for t in tier1]
        for provider in _weighted_sample(rng, tier1, weights, count):
            graph.add_link(asn, provider, Relationship.PROVIDER)

    # Tier-2 peering mesh.
    target_peerings = int(shape.tier2_peering_degree * len(tier2) / 2)
    attempts = 0
    made = 0
    while made < target_peerings and attempts < target_peerings * 20:
        attempts += 1
        a, b = rng.sample(tier2, 2)
        if not graph.has_link(a, b):
            graph.add_link(a, b, Relationship.PEER)
            made += 1

    # Stubs buy transit, preferentially from already-popular tier-2s.  A few
    # attach straight to a tier-1 (large content/eyeball networks).
    for asn in stubs:
        if rng.random() < shape.stub_multihome_prob:
            count = rng.randint(2, shape.stub_max_providers)
        else:
            count = 1
        providers: List[int] = []
        if rng.random() < shape.stub_tier1_attach_prob:
            providers.append(rng.choice(tier1))
        remaining = count - len(providers)
        if remaining > 0:
            weights = [1.0 + graph.degree(t) for t in tier2]
            providers.extend(
                _weighted_sample(rng, tier2, weights, remaining)
            )
        for provider in providers:
            if not graph.has_link(asn, provider):
                graph.add_link(asn, provider, Relationship.PROVIDER)

    graph.validate()
    return graph


def assign_defense_configs(
    graph: ASGraph,
    rate: float,
    seed: int = 0,
    skip: Iterable[int] = (),
) -> Dict[int, SpeakerConfig]:
    """Per-AS anti-poisoning defense configs at deployment rate *rate*.

    Mirrors the tier bias the measurement studies found: path-length caps
    and Peerlock concentrate at tier-1/2 transit networks, poisoned-path
    filters appear throughout the transit layer, and default routes to a
    provider are a stub phenomenon.  Whether a given AS deploys *any*
    defense is decided by a per-AS uniform derived from ``(seed, asn)``,
    so the deployed set grows monotonically with *rate* — the sweep in
    ``experiments/defenses.py`` compares rates on nested populations
    instead of resampling the whole Internet at each point.  ASes in
    *skip* (the LIFEGUARD deployer itself) never defend.

    Returns only the ASes that deploy something; everyone else keeps the
    default :class:`SpeakerConfig`.
    """
    if not 0.0 <= rate <= 1.0:
        raise TopologyError(f"defense rate {rate} outside [0, 1]")
    skip_set = set(skip)
    tier1 = sorted(n.asn for n in graph.nodes() if n.tier == 1)
    configs: Dict[int, SpeakerConfig] = {}
    for node in sorted(graph.nodes(), key=lambda n: n.asn):
        asn = node.asn
        if asn in skip_set:
            continue
        rng = random.Random(f"defense|{seed}|{asn}")
        if rng.random() >= rate:
            continue
        protected = tuple(t for t in tier1 if t != asn)
        if node.tier == 1:
            config = SpeakerConfig(
                peerlock_protected=protected,
                as_path_max_length=rng.choice((10, 12)),
                filter_poisoned_paths=rng.random() < 0.5,
                reject_reserved_asns=True,
            )
        elif node.tier == 2:
            roll = rng.random()
            if roll < 0.40:
                config = SpeakerConfig(
                    filter_poisoned_paths=True,
                    reject_reserved_asns=True,
                )
            elif roll < 0.75:
                config = SpeakerConfig(peerlock_protected=protected)
            else:
                config = SpeakerConfig(
                    as_path_max_length=rng.choice((10, 12))
                )
        else:
            if rng.random() < 0.6:
                config = SpeakerConfig(default_route_via_provider=True)
            else:
                config = SpeakerConfig(
                    filter_poisoned_paths=True,
                    reject_reserved_asns=True,
                )
        configs[asn] = config
    return configs


def generate_multihomed_origin(
    graph: ASGraph,
    num_providers: int,
    seed: int = 0,
    asn: Optional[int] = None,
    tier: int = 3,
) -> int:
    """Attach a fresh origin AS (the LIFEGUARD deployer) to the graph.

    Picks *num_providers* distinct tier-2 providers (the BGP-Mux model: one
    university provider per mux site) and returns the new ASN.
    """
    rng = random.Random(seed)
    if asn is None:
        asn = max(graph.ases()) + 1
    candidates = [n.asn for n in graph.nodes() if n.tier == 2]
    if len(candidates) < num_providers:
        raise TopologyError(
            f"only {len(candidates)} tier-2 ASes for {num_providers} providers"
        )
    graph.add_as(asn, tier=tier, prefixes=[prefix_for_asn(asn)])
    for provider in rng.sample(candidates, num_providers):
        graph.add_link(asn, provider, Relationship.PROVIDER)
    return asn
