"""Seeded gravity-model traffic matrix over stub ASes.

LIFEGUARD's metric of record is user pain, not repair counts, so the
traffic layer needs a population model.  Each stub (eyeball) AS gets a
user population proportional to its assigned prefix space scaled by a
tier bias; each originated prefix attracts traffic proportional to its
address span scaled by a content bias that favours well-connected tiers.
Every stub then spreads its users across a seeded sample of destination
prefixes — the classic gravity model, shrunk to the emulated topology.

Determinism follows the repo-wide content-derived seeding discipline:
per-source randomness comes from ``derive_seed(seed, "traffic", src)``,
and the per-source fan-out goes through :func:`run_trials`, so the same
seed yields byte-identical demands at any worker count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.addr import Address, Prefix
from repro.runner.core import derive_seed, run_trials
from repro.runner.stats import RunStats
from repro.topology.as_graph import ASGraph

#: Content gravity: higher tiers host disproportionately popular prefixes.
DST_TIER_BIAS: Dict[int, float] = {1: 4.0, 2: 2.0, 3: 1.0}

#: Eyeball gravity: stubs carry the users; transit tiers mostly don't.
SRC_TIER_BIAS: Dict[int, float] = {1: 0.25, 2: 0.5, 3: 1.0}


@dataclass(frozen=True)
class Flow:
    """One (src AS, dst prefix) demand, with a concrete probe address."""

    src_asn: int
    dst_prefix: Prefix
    dst_address: Address
    users: int

    def canonical(self) -> str:
        return (
            f"{self.src_asn} {self.dst_prefix} "
            f"{self.dst_address} {self.users}"
        )


@dataclass
class TrafficConfig:
    """Knobs for the gravity model."""

    total_users: int = 1_000_000
    dests_per_src: int = 8


@dataclass
class TrafficMatrix:
    """All flow demands for one topology, in canonical order."""

    flows: List[Flow] = field(default_factory=list)
    total_users: int = 0
    seed: int = 0

    def digest(self) -> str:
        """SHA-256 over canonical flow lines — the determinism witness."""
        h = hashlib.sha256()
        for flow in self.flows:
            h.update(flow.canonical().encode("ascii"))
            h.update(b"\n")
        return h.hexdigest()


def _largest_remainder(total: int, weights: Sequence[float]) -> List[int]:
    """Split *total* integer units across *weights* deterministically."""
    mass = sum(weights)
    if total <= 0 or mass <= 0:
        return [0] * len(weights)
    exact = [total * w / mass for w in weights]
    floors = [int(x) for x in exact]
    short = total - sum(floors)
    # Hand the leftovers to the largest remainders; index breaks ties.
    order = sorted(
        range(len(weights)), key=lambda i: (-(exact[i] - floors[i]), i)
    )
    for i in order[:short]:
        floors[i] += 1
    return floors


def _weighted_sample(
    rng, population: Sequence[int], weights: Sequence[float], k: int
) -> List[int]:
    """Sample *k* distinct indices, probability ∝ weight, order-stable."""
    chosen: List[int] = []
    remaining = list(population)
    pool = list(weights)
    for _ in range(min(k, len(remaining))):
        mass = sum(pool)
        if mass <= 0:
            break
        pick = rng.random() * mass
        acc = 0.0
        idx = len(pool) - 1
        for j, w in enumerate(pool):
            acc += w
            if pick < acc:
                idx = j
                break
        chosen.append(remaining.pop(idx))
        pool.pop(idx)
    return chosen


# ---------------------------------------------------------------------------
# Worker fan-out (module-level so it pickles for process pools)
# ---------------------------------------------------------------------------

#: context: (seed, dests) where dests is a tuple of
#: (origin_asn, prefix_base, prefix_length, attractiveness).
_MatrixContext = Tuple[int, Tuple[Tuple[int, int, int, float], ...]]


def _src_flows(
    context: _MatrixContext, unit: Tuple[int, int, int]
) -> List[Tuple[int, int, int, int, int]]:
    """Flows for one source AS: (src, base, length, addr, users) rows."""
    import random

    seed, dests = context
    src_asn, src_users, dests_per_src = unit
    rng = random.Random(derive_seed(seed, "traffic", src_asn))
    candidates = [
        (i, d) for i, d in enumerate(dests) if d[0] != src_asn
    ]
    if not candidates or src_users <= 0:
        return []
    idxs = [i for i, _ in candidates]
    weights = [d[3] for _, d in candidates]
    picked = _weighted_sample(rng, idxs, weights, dests_per_src)
    picked_dests = [dests[i] for i in picked]
    shares = _largest_remainder(src_users, [d[3] for d in picked_dests])
    rows: List[Tuple[int, int, int, int, int]] = []
    for (origin, base, length, _), users in zip(picked_dests, shares):
        if users <= 0:
            continue
        span = 1 << (32 - length)
        offset = rng.randrange(1, span) if span > 1 else 0
        rows.append((src_asn, base, length, base + offset, users))
    return rows


def build_traffic_matrix(
    graph: ASGraph,
    seed: int,
    config: Optional[TrafficConfig] = None,
    workers: int = 1,
    stats: Optional[RunStats] = None,
) -> TrafficMatrix:
    """Build the gravity-model matrix for *graph* under *seed*.

    Byte-identical at any worker count: source populations and the
    destination table are computed once in the parent, and each source's
    flows depend only on (seed, src) via ``derive_seed``.
    """
    config = config or TrafficConfig()
    stats = stats or RunStats()

    dests: List[Tuple[int, int, int, float]] = []
    for prefix, origin in sorted(
        graph.prefixes(), key=lambda po: (po[0].base, po[0].length)
    ):
        tier = graph.node(origin).tier
        weight = prefix.num_addresses * DST_TIER_BIAS.get(tier, 1.0)
        dests.append((origin, prefix.base, prefix.length, weight))

    sources = sorted(graph.stubs())
    src_weights = []
    for asn in sources:
        node = graph.node(asn)
        space = sum(p.num_addresses for p in node.prefixes) or 1
        src_weights.append(space * SRC_TIER_BIAS.get(node.tier, 1.0))
    populations = _largest_remainder(config.total_users, src_weights)

    context: _MatrixContext = (seed, tuple(dests))
    units = [
        (asn, pop, config.dests_per_src)
        for asn, pop in zip(sources, populations)
    ]
    per_src = run_trials(
        _src_flows,
        units,
        context=context,
        workers=workers,
        stats=stats,
        label="traffic",
    )

    flows = [
        Flow(
            src_asn=src,
            dst_prefix=Prefix(base, length),
            dst_address=Address(addr),
            users=users,
        )
        for rows in per_src
        for (src, base, length, addr, users) in rows
    ]
    total = sum(f.users for f in flows)
    stats.count("traffic.flows", len(flows))
    stats.count("traffic.users", total)
    return TrafficMatrix(flows=flows, total_users=total, seed=seed)
