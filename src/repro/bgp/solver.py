"""Analytic Gao-Rexford route solver.

Event-driven convergence is the dominant cost of building a baseline
(~13 s at the medium scale), yet under pure Gao-Rexford policy the
converged state is the *unique* stable routing — a pure function of
topology plus origination config, independent of message timing.  This
module computes it directly with the classic three-phase propagation,
O(V + E) per prefix, no events and no MRAI:

1. **up** — customer-learned routes climb provider links.  An AS with any
   customer route always selects one (local-pref 100 dominates), so these
   propagate along uninterrupted customer chains from the origin; a
   bucket queue over path length realises the shortest-path preference
   with the engine's exact ``(med, neighbor)`` tie-break.
2. **across** — an AS whose best route is customer-learned (or the origin
   itself) exports it one hop to settlement-free peers; peer routes
   (local-pref 90) are never re-exported to peers or providers, so this
   phase does not propagate.
3. **down** — every AS holding a customer or peer route exports it to its
   customers; provider-learned routes (local-pref 80) cascade further
   down customer links, again in path-length order.

Loop prevention (the mechanism poisoning exploits) is applied per offer:
a receiver already on the path rejects it, exactly like the engine's
import filter with ``loop_max_occurrences=1``.

A :class:`SolverResult` then materializes per-session wire state and
Adj-RIB-In/Loc-RIB entries; :meth:`BGPEngine.warm_start` installs them
so the engine is at quiescence and behaves identically to an
event-converged one for all subsequent perturbations.

The solver refuses configurations it cannot model exactly —
:func:`solver_unsupported_reason` names the offending feature — and
``runner.baseline`` falls back to event-driven convergence in that case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.messages import Announcement, ASPath, intern_path
from repro.bgp.rib import Route
from repro.errors import SimulationError
from repro.net.addr import Prefix
from repro.topology.relationships import Relationship, local_pref_for


class SolverUnsupported(SimulationError):
    """The configuration has a feature the analytic solver cannot model."""


@dataclass(frozen=True)
class Origination:
    """One prefix origination, mirroring :meth:`BGPSpeaker.originate`.

    ``per_neighbor`` maps neighbor ASN to the path announced to it (None
    suppresses the advertisement); absent neighbors get ``path``.
    """

    asn: int
    prefix: Prefix
    path: Optional[ASPath] = None
    per_neighbor: Optional[Tuple[Tuple[int, Optional[ASPath]], ...]] = None
    med: int = 0

    @staticmethod
    def make(
        asn: int,
        prefix: Prefix,
        path: Optional[ASPath] = None,
        per_neighbor: Optional[Dict[int, Optional[ASPath]]] = None,
        med: int = 0,
    ) -> "Origination":
        if path is None and per_neighbor is None:
            path = (asn,)
        frozen = (
            tuple(sorted(per_neighbor.items()))
            if per_neighbor is not None
            else None
        )
        return Origination(
            asn=asn, prefix=prefix, path=path, per_neighbor=frozen, med=med
        )

    def path_for(self, neighbor: int) -> Optional[ASPath]:
        if self.per_neighbor is not None:
            for asn, path in self.per_neighbor:
                if asn == neighbor:
                    return path
        return self.path

    def per_neighbor_dict(self) -> Optional[Dict[int, Optional[ASPath]]]:
        if self.per_neighbor is None:
            return None
        return dict(self.per_neighbor)


@dataclass
class PrefixSolution:
    """Converged state for one prefix, ready for warm-start installation."""

    prefix: Prefix
    origination: Origination
    #: receiver ASN -> sender ASN -> installed Adj-RIB-In route.
    adj_in: Dict[int, Dict[int, Route]]
    #: receiver ASN -> selected Loc-RIB route (the origin is absent; its
    #: self-route comes from :meth:`BGPSpeaker.originate`).
    best: Dict[int, Route]
    #: directed session -> announcement on the wire (``_Session.sent``).
    sent: Dict[Tuple[int, int], Announcement]


@dataclass
class SolverResult:
    """Solved converged state for a set of originations."""

    originations: List[Origination]
    solutions: List[PrefixSolution]
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def loc_rib(self, prefix: Prefix) -> Dict[int, Route]:
        for solution in self.solutions:
            if solution.prefix == prefix:
                return dict(solution.best)
        return {}


def speaker_config_reason(engine) -> Optional[str]:
    """Why per-speaker policy keeps the analytic model out (None: clean).

    Shared by :func:`solver_unsupported_reason` and the delta gate
    (:func:`repro.bgp.delta.delta_unsupported_reason`): both model only
    default Gao-Rexford decision/export behaviour.
    """
    for asn, speaker in engine.speakers.items():
        config = speaker.policy.config
        if config.loop_max_occurrences != 1:
            return f"AS{asn}: loop_max_occurrences != 1"
        if config.reject_peer_paths_from_customers:
            return f"AS{asn}: reject_peer_paths_from_customers"
        if config.honours_communities:
            return f"AS{asn}: honours_communities"
        if config.local_pref_overrides:
            return f"AS{asn}: local_pref_overrides"
        if config.flap_damping:
            return f"AS{asn}: flap_damping"
        if config.filter_poisoned_paths:
            return f"AS{asn}: filter_poisoned_paths"
        if config.reject_reserved_asns:
            return f"AS{asn}: reject_reserved_asns"
        if config.as_path_max_length:
            return f"AS{asn}: as_path_max_length"
        if config.peerlock_protected:
            return f"AS{asn}: peerlock_protected"
        if Relationship.SIBLING in speaker.neighbors.values():
            return f"AS{asn}: sibling link"
    return None


def solver_unsupported_reason(
    engine, originations: Sequence[Origination]
) -> Optional[str]:
    """Why the analytic solver cannot model this setup (None: it can).

    The solver assumes default Gao-Rexford decision/export behaviour:
    sibling links, local-pref overrides, non-standard loop limits, the
    Cogent peer filter, community-driven export, flap damping and the
    anti-poisoning import filters (poisoned-path/reserved-ASN rejection,
    path-length caps, Peerlock) all change which routing is stable, so
    any of them forces the event engine.  Announcement-level features the engine layers on top
    (communities, AVOID_PROBLEM hints) are likewise out of scope.
    """
    reason = speaker_config_reason(engine)
    if reason is not None:
        return reason
    seen_prefixes = set()
    for org in originations:
        if org.asn not in engine.speakers:
            return f"origination from unknown AS{org.asn}"
        if org.prefix in seen_prefixes:
            # Found by differential fuzzing: the solver solves each
            # origination independently and warm_start merges the
            # solutions (table.load pins blindly), while the event
            # engine computes true anycast routing — so any duplicate
            # prefix (MOAS, or repeated same-AS configs where the
            # engine's last-write-wins) must take the event path.
            return (
                f"multiple originations of {org.prefix} "
                "(anycast/MOAS needs the event engine)"
            )
        seen_prefixes.add(org.prefix)
    if engine.change_log or engine.updates_sent or engine._queue:
        return "engine has prior activity (warm_start needs a fresh one)"
    return None


#: substring -> slug mapping for gate reasons (metrics/budget keys).
_GATE_REASON_SLUGS = (
    ("loop_max_occurrences", "loop_max_occurrences"),
    ("reject_peer_paths_from_customers",
     "reject_peer_paths_from_customers"),
    ("honours_communities", "honours_communities"),
    ("local_pref_overrides", "local_pref_overrides"),
    ("flap_damping", "flap_damping"),
    ("filter_poisoned_paths", "filter_poisoned_paths"),
    ("reject_reserved_asns", "reject_reserved_asns"),
    ("as_path_max_length", "as_path_max_length"),
    ("peerlock_protected", "peerlock_protected"),
    ("sibling link", "sibling_link"),
    ("multiple originations", "duplicate_prefix"),
    ("unknown AS", "unknown_origin"),
    ("prior activity", "prior_activity"),
    # Delta-gate-only reasons (repro.bgp.delta shares this slug table).
    ("not analytic", "not_analytic"),
    ("events pending", "events_pending"),
    ("fault hook", "fault_hook"),
    ("avoid-hint", "avoid_hint"),
    ("communities", "communities"),
    ("invalid origin path", "invalid_path"),
    ("unknown delta change", "unknown_change"),
)


def gate_reason_slug(reason: str) -> str:
    """A stable metrics-key slug for a gate-rejection reason string."""
    for marker, slug in _GATE_REASON_SLUGS:
        if marker in reason:
            return slug
    return "other"


def solve(
    engine,
    originations: Sequence[Origination],
    stats=None,
) -> SolverResult:
    """Compute the converged state the event engine would reach.

    *engine* supplies the topology and per-speaker policy; it is only
    read.  *stats* (duck-typed :class:`~repro.runner.stats.RunStats`)
    receives ``solver.prefixes_solved`` and per-phase timers.
    """
    reason = solver_unsupported_reason(engine, originations)
    if reason is not None:
        raise SolverUnsupported(f"analytic solver cannot model: {reason}")

    adjacency = build_adjacency(engine)
    phase_seconds = {"up": 0.0, "across": 0.0, "down": 0.0, "install": 0.0}
    solutions = [
        solve_prefix(org, adjacency, phase_seconds) for org in originations
    ]
    if stats is not None:
        stats.count("solver.prefixes_solved", len(solutions))
        for phase, seconds in phase_seconds.items():
            stats.add_time(f"solver.phase_{phase}", seconds)
    return SolverResult(
        originations=list(originations),
        solutions=solutions,
        phase_seconds=phase_seconds,
    )


#: (nbr_rel, providers_of, peers_of, customers_of): the per-AS adjacency
#: split by the role each end plays, precomputed once per topology and
#: shared across every prefix (and cached on the engine by the delta path
#: — the topology never changes during a run).
Adjacency = Tuple[
    Dict[int, Dict[int, Relationship]],
    Dict[int, List[int]],
    Dict[int, List[int]],
    Dict[int, List[int]],
]


def build_adjacency(engine) -> Adjacency:
    """Split every speaker's neighbor map by relationship class."""
    nbr_rel: Dict[int, Dict[int, Relationship]] = {
        asn: speaker.neighbors for asn, speaker in engine.speakers.items()
    }
    providers_of: Dict[int, List[int]] = {}
    peers_of: Dict[int, List[int]] = {}
    customers_of: Dict[int, List[int]] = {}
    for asn, rels in nbr_rel.items():
        providers_of[asn] = [
            n for n, rel in rels.items() if rel is Relationship.PROVIDER
        ]
        peers_of[asn] = [
            n for n, rel in rels.items() if rel is Relationship.PEER
        ]
        customers_of[asn] = [
            n for n, rel in rels.items() if rel is Relationship.CUSTOMER
        ]
    return nbr_rel, providers_of, peers_of, customers_of


def solve_prefix(
    org: Origination,
    adjacency: Adjacency,
    phase_seconds: Dict[str, float],
) -> PrefixSolution:
    """Converged state for one origination over *adjacency*.

    The three-phase propagation only ever visits ASes reachable from the
    origin under valley-free export — the prefix's blast-radius cone —
    so this is the unit of work the delta path re-runs per dirty prefix.
    """
    nbr_rel, providers_of, peers_of, customers_of = adjacency
    origin = org.asn
    prefix = org.prefix
    t0 = perf_counter()

    # Seed offers straight from the origination config, split by the
    # relationship class the *receiver* assigns them.  An offer is
    # (med, sender, path); its length is len(path).
    up_pending: Dict[int, Dict[int, List[tuple]]] = {}
    peer_cands: Dict[int, List[tuple]] = {}
    down_pending: Dict[int, Dict[int, List[tuple]]] = {}
    for n in nbr_rel[origin]:
        path = org.path_for(n)
        if path is None or n in path:
            continue
        rel = nbr_rel[n][origin]  # the role the origin plays for n
        offer = (org.med, origin, path)
        if rel is Relationship.CUSTOMER:
            up_pending.setdefault(len(path), {}).setdefault(n, []).append(
                offer
            )
        elif rel is Relationship.PEER:
            peer_cands.setdefault(n, []).append((len(path),) + offer)
        else:
            down_pending.setdefault(len(path), {}).setdefault(n, []).append(
                offer
            )

    # final: ASN -> (sender, path, export_path); split per class below.
    # An AS appears in exactly one class (local-pref dominance).
    up_final: Dict[int, tuple] = {}
    while up_pending:
        level = min(up_pending)
        for receiver, cands in up_pending.pop(level).items():
            if receiver in up_final:
                continue
            _med, sender, path = min(cands)
            export = intern_path((receiver,) + path)
            up_final[receiver] = (sender, path, export)
            for provider in providers_of[receiver]:
                if provider in export:
                    continue
                up_pending.setdefault(level + 1, {}).setdefault(
                    provider, []
                ).append((0, receiver, export))
    t1 = perf_counter()
    phase_seconds["up"] += t1 - t0

    # Phase 2: one-hop exports of customer-learned bests to peers.
    for holder, (_sender, _path, export) in up_final.items():
        for peer in peers_of[holder]:
            if peer in up_final or peer in export:
                continue
            peer_cands.setdefault(peer, []).append(
                (len(export), 0, holder, export)
            )
    peer_final: Dict[int, tuple] = {}
    for receiver, cands in peer_cands.items():
        if receiver in up_final:
            continue
        _length, _med, sender, path = min(cands)
        peer_final[receiver] = (sender, path, intern_path((receiver,) + path))
    t2 = perf_counter()
    phase_seconds["across"] += t2 - t1

    # Phase 3: customer/peer holders export down; provider-learned routes
    # cascade along customer links in path-length order.
    for final in (up_final, peer_final):
        for holder, (_sender, _path, export) in final.items():
            for customer in customers_of[holder]:
                if customer in export:
                    continue
                down_pending.setdefault(len(export), {}).setdefault(
                    customer, []
                ).append((0, holder, export))
    down_final: Dict[int, tuple] = {}
    while down_pending:
        level = min(down_pending)
        for receiver, cands in down_pending.pop(level).items():
            if (
                receiver in down_final
                or receiver in up_final
                or receiver in peer_final
            ):
                continue
            _med, sender, path = min(cands)
            export = intern_path((receiver,) + path)
            down_final[receiver] = (sender, path, export)
            for customer in customers_of[receiver]:
                if customer in export:
                    continue
                down_pending.setdefault(level + 1, {}).setdefault(
                    customer, []
                ).append((0, receiver, export))
    t3 = perf_counter()
    phase_seconds["down"] += t3 - t2

    # Materialize wire/RIB state from the finals.  Announcements and
    # routes are shared: one announcement per exporter, one route per
    # (exporter, receiver-relationship class) — they compare equal to the
    # per-session objects the event engine builds.
    adj_in: Dict[int, Dict[int, Route]] = {}
    sent: Dict[Tuple[int, int], Announcement] = {}

    ann_by_path: Dict[ASPath, Announcement] = {}
    for n in nbr_rel[origin]:
        path = org.path_for(n)
        if path is None:
            continue
        path = intern_path(path)
        ann = ann_by_path.get(path)
        if ann is None:
            ann = ann_by_path[path] = Announcement(
                prefix=prefix, as_path=path, med=org.med
            )
        sent[(origin, n)] = ann
        if n in path:
            continue
        rel = nbr_rel[n][origin]
        adj_in.setdefault(n, {})[origin] = Route(
            prefix=prefix,
            as_path=path,
            neighbor=origin,
            relationship=rel,
            local_pref=local_pref_for(rel),
            med=org.med,
        )

    for finals, customer_only in (
        (up_final, False),
        (peer_final, True),
        (down_final, True),
    ):
        for src, (sender, _path, export) in finals.items():
            ann = None
            routes_by_rel: Dict[Relationship, Route] = {}
            for dst, dst_role in nbr_rel[src].items():
                if dst == sender:
                    continue  # never echo a route back to its supplier
                if customer_only and dst_role is not Relationship.CUSTOMER:
                    continue
                if ann is None:
                    ann = Announcement(prefix=prefix, as_path=export)
                sent[(src, dst)] = ann
                if dst in export:
                    continue
                rel = nbr_rel[dst][src]
                route = routes_by_rel.get(rel)
                if route is None:
                    route = routes_by_rel[rel] = Route(
                        prefix=prefix,
                        as_path=export,
                        neighbor=src,
                        relationship=rel,
                        local_pref=local_pref_for(rel),
                    )
                adj_in.setdefault(dst, {})[src] = route

    best: Dict[int, Route] = {}
    for finals in (up_final, peer_final, down_final):
        for receiver, (sender, _path, _export) in finals.items():
            route = adj_in.get(receiver, {}).get(sender)
            if route is None:  # pragma: no cover - solver invariant
                raise SimulationError(
                    f"solver: AS{receiver} selected a route from "
                    f"AS{sender} that was never exported"
                )
            best[receiver] = route
    phase_seconds["install"] += perf_counter() - t3

    return PrefixSolution(
        prefix=prefix,
        origination=org,
        adj_in=adj_in,
        best=best,
        sent=sent,
    )
