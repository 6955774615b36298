"""The fuzz case: a pure-data, JSON-round-trippable scenario spec.

A :class:`FuzzCase` fully determines one differential run — topology,
per-AS policy deltas, originations, a perturbation script and stochastic
fault rates — in plain JSON types, so every case the fuzzer finds can be
committed to the regression corpus and replayed bit-for-bit.  The
executor (not the case) decides how both backends consume it; the
shrinker edits cases purely structurally.

Prefixes are stored as ``"a.b.c.d/len"`` strings and AS paths as integer
lists; :meth:`FuzzCase.canonical` is the sorted-key JSON encoding whose
SHA-256 names corpus files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bgp.policy import SpeakerConfig
from repro.bgp.solver import Origination
from repro.errors import SimulationError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.net.addr import Prefix
from repro.runner.core import derive_seed
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship

#: Schema tag written into corpus entries.
CASE_SCHEMA = 1

#: SpeakerConfig fields a case may override (the policy vocabulary the
#: generator draws from; anything else is a malformed case).
POLICY_FIELDS = frozenset(
    {
        "loop_max_occurrences",
        "reject_peer_paths_from_customers",
        "propagates_communities",
        "honours_communities",
        "local_pref_overrides",
        "flap_damping",
        "filter_poisoned_paths",
        "reject_reserved_asns",
        "as_path_max_length",
        "peerlock_protected",
        "default_route_via_provider",
    }
)

_REL_BY_NAME = {rel.value: rel for rel in Relationship}


def _path_json(path: Optional[Tuple[int, ...]]) -> Optional[List[int]]:
    return None if path is None else list(path)


def _path_from(path: Optional[List[int]]) -> Optional[Tuple[int, ...]]:
    return None if path is None else tuple(int(hop) for hop in path)


def _per_neighbor_json(
    per_neighbor: Optional[Dict[int, Optional[Tuple[int, ...]]]],
) -> Optional[Dict[str, Optional[List[int]]]]:
    if per_neighbor is None:
        return None
    return {
        str(nbr): _path_json(path)
        for nbr, path in sorted(per_neighbor.items())
    }


def _per_neighbor_from(
    blob: Optional[Dict[str, Optional[List[int]]]],
) -> Optional[Dict[int, Optional[Tuple[int, ...]]]]:
    if blob is None:
        return None
    return {int(nbr): _path_from(path) for nbr, path in blob.items()}


@dataclass
class OrigSpec:
    """One prefix origination (mirrors :class:`repro.bgp.solver.Origination`).

    ``path`` None with ``per_neighbor`` None means the plain one-hop
    origin path; ``per_neighbor`` maps neighbor ASN to an explicit path
    or None (suppress the advertisement toward that neighbor).
    """

    asn: int
    prefix: str
    path: Optional[Tuple[int, ...]] = None
    per_neighbor: Optional[Dict[int, Optional[Tuple[int, ...]]]] = None
    med: int = 0

    def to_json(self) -> dict:
        return {
            "asn": self.asn,
            "prefix": self.prefix,
            "path": _path_json(self.path),
            "per_neighbor": _per_neighbor_json(self.per_neighbor),
            "med": self.med,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "OrigSpec":
        return cls(
            asn=int(blob["asn"]),
            prefix=str(blob["prefix"]),
            path=_path_from(blob.get("path")),
            per_neighbor=_per_neighbor_from(blob.get("per_neighbor")),
            med=int(blob.get("med", 0)),
        )

    def resolve(self) -> Origination:
        return Origination.make(
            self.asn,
            Prefix(self.prefix),
            path=self.path,
            per_neighbor=self.per_neighbor,
            med=self.med,
        )


@dataclass
class ActionSpec:
    """One scripted perturbation, applied after both baselines converge.

    ``op`` is ``announce`` (re-originate ``prefix`` from ``asn`` with the
    given path config), ``withdraw`` (stop originating) or ``reset``
    (bounce the ``asn``/``peer`` BGP session).
    """

    op: str
    asn: int = 0
    peer: int = 0
    prefix: str = ""
    path: Optional[Tuple[int, ...]] = None
    per_neighbor: Optional[Dict[int, Optional[Tuple[int, ...]]]] = None
    med: int = 0

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "asn": self.asn,
            "peer": self.peer,
            "prefix": self.prefix,
            "path": _path_json(self.path),
            "per_neighbor": _per_neighbor_json(self.per_neighbor),
            "med": self.med,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "ActionSpec":
        return cls(
            op=str(blob["op"]),
            asn=int(blob.get("asn", 0)),
            peer=int(blob.get("peer", 0)),
            prefix=str(blob.get("prefix", "")),
            path=_path_from(blob.get("path")),
            per_neighbor=_per_neighbor_from(blob.get("per_neighbor")),
            med=int(blob.get("med", 0)),
        )


@dataclass
class FuzzCase:
    """One complete differential-fuzzing scenario."""

    #: master seed of this case; the perturbation RNG and fault-injector
    #: streams are derived from it, never shared with engine timing.
    seed: int
    #: seeds both engines' timing RNG (MRAI jitter, delays).
    engine_seed: int
    #: (asn, tier) pairs.
    ases: List[Tuple[int, int]] = field(default_factory=list)
    #: (a, b, relationship-of-b-for-a) triples, e.g. (4, 1, "provider")
    #: meaning AS1 is AS4's provider.
    links: List[Tuple[int, int, str]] = field(default_factory=list)
    #: per-AS policy deltas (kwargs restricted to POLICY_FIELDS).
    policies: Dict[int, dict] = field(default_factory=dict)
    originations: List[OrigSpec] = field(default_factory=list)
    actions: List[ActionSpec] = field(default_factory=list)
    #: stochastic BGP message fault rates, active only during the
    #: perturbation phase (both backends see the same seeded draws).
    drop_rate: float = 0.0
    dup_rate: float = 0.0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema": CASE_SCHEMA,
            "seed": self.seed,
            "engine_seed": self.engine_seed,
            "ases": [[asn, tier] for asn, tier in self.ases],
            "links": [[a, b, rel] for a, b, rel in self.links],
            "policies": {
                str(asn): _policy_json(kwargs)
                for asn, kwargs in sorted(self.policies.items())
            },
            "originations": [org.to_json() for org in self.originations],
            "actions": [act.to_json() for act in self.actions],
            "drop_rate": self.drop_rate,
            "dup_rate": self.dup_rate,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "FuzzCase":
        return cls(
            seed=int(blob["seed"]),
            engine_seed=int(blob["engine_seed"]),
            ases=[(int(a), int(t)) for a, t in blob.get("ases", [])],
            links=[
                (int(a), int(b), str(rel))
                for a, b, rel in blob.get("links", [])
            ],
            policies={
                int(asn): _policy_from(kwargs)
                for asn, kwargs in blob.get("policies", {}).items()
            },
            originations=[
                OrigSpec.from_json(o) for o in blob.get("originations", [])
            ],
            actions=[ActionSpec.from_json(a) for a in blob.get("actions", [])],
            drop_rate=float(blob.get("drop_rate", 0.0)),
            dup_rate=float(blob.get("dup_rate", 0.0)),
        )

    def canonical(self) -> str:
        """Deterministic JSON encoding (corpus identity)."""
        return json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def clone(self) -> "FuzzCase":
        """An independent deep copy (the shrinker edits clones)."""
        return FuzzCase.from_json(self.to_json())

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def build_graph(self) -> ASGraph:
        """The AS graph, *without* registering prefixes on nodes.

        Originations — not node prefix lists — are the source of truth
        for what is announced, so the graph's prefix registry (which
        rejects duplicate owners) never constrains what the fuzzer may
        originate.
        """
        graph = ASGraph()
        for asn, tier in self.ases:
            graph.add_as(asn, tier=tier)
        for a, b, rel_name in self.links:
            rel = _REL_BY_NAME.get(rel_name)
            if rel is None:
                raise SimulationError(
                    f"fuzz case: unknown relationship {rel_name!r}"
                )
            graph.add_link(a, b, rel)
        return graph

    def speaker_configs(self) -> Dict[int, SpeakerConfig]:
        """Fresh SpeakerConfig objects (one set per engine build)."""
        configs: Dict[int, SpeakerConfig] = {}
        for asn, kwargs in self.policies.items():
            bad = set(kwargs) - POLICY_FIELDS
            if bad:
                raise SimulationError(
                    f"fuzz case: unknown policy fields {sorted(bad)}"
                )
            configs[asn] = SpeakerConfig(**kwargs)
        return configs

    def resolved_originations(self) -> List[Origination]:
        return [org.resolve() for org in self.originations]

    def fault_plan(self) -> FaultPlan:
        """The perturbation-phase message-fault schedule."""
        plan = FaultPlan(seed=derive_seed(self.seed, "fuzz-faults"))
        if self.drop_rate > 0:
            plan.add(
                FaultSpec(FaultKind.BGP_MESSAGE_DROP, rate=self.drop_rate)
            )
        if self.dup_rate > 0:
            plan.add(
                FaultSpec(
                    FaultKind.BGP_MESSAGE_DUPLICATE, rate=self.dup_rate
                )
            )
        return plan

    def summary(self) -> str:
        return (
            f"{len(self.ases)} ASes, {len(self.links)} links, "
            f"{len(self.policies)} policies, "
            f"{len(self.originations)} originations, "
            f"{len(self.actions)} actions"
        )


def _policy_json(kwargs: dict) -> dict:
    out = dict(kwargs)
    overrides = out.get("local_pref_overrides")
    if overrides:
        out["local_pref_overrides"] = {
            str(nbr): pref for nbr, pref in sorted(overrides.items())
        }
    protected = out.get("peerlock_protected")
    if protected:
        out["peerlock_protected"] = sorted(int(asn) for asn in protected)
    return out


def _policy_from(kwargs: dict) -> dict:
    out = dict(kwargs)
    overrides = out.get("local_pref_overrides")
    if overrides:
        out["local_pref_overrides"] = {
            int(nbr): int(pref) for nbr, pref in overrides.items()
        }
    protected = out.get("peerlock_protected")
    if protected:
        out["peerlock_protected"] = tuple(int(asn) for asn in protected)
    return out
