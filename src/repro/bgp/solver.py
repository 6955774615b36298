"""Analytic Gao-Rexford route solver.

Event-driven convergence is the dominant cost of building a baseline
(~1.7 s at the medium scale), yet under pure Gao-Rexford policy the
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

A :class:`PrefixSolution` *is* the prefix's routing state: the
per-receiver finals and the Loc-RIB selection (``best``) they imply.
The Adj-RIB-In rows and per-session wire rows follow from the finals
and are not built by the solve; :func:`derive_rows` derives them, fresh
on every call, in the order the engine stores them.
:meth:`BGPEngine.warm_start` pins the Loc-RIBs and leaves every prefix's
rows pending; :meth:`BGPEngine.materialize` writes them before anything
reads or mutates one, so the engine behaves identically to an
event-converged one for all subsequent perturbations.

The solver refuses configurations it cannot model exactly —
:func:`solver_unsupported_reason` names the offending feature — and
``runner.baseline`` falls back to event-driven convergence in that case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.messages import Announcement, ASPath, intern_path
from repro.bgp.rib import Route
from repro.errors import SimulationError
from repro.net.addr import Prefix
from repro.topology.relationships import Relationship, local_pref_for

#: The role a receiver assigns the AS exporting to it, keyed by the role
#: the exporter assigns the receiver (one edge, seen from its other end).
_RECEIVER_ROLE = {role: role.inverse() for role in Relationship}
#: Local-pref per relationship class of the neighbour a route came from.
_LOCAL_PREF = {role: local_pref_for(role) for role in Relationship}
#: Local-pref of a route a customer hears from its provider.
_PROVIDER_PREF = _LOCAL_PREF[Relationship.PROVIDER]


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


@dataclass
class PrefixSolution:
    """Converged state for one prefix: the source of truth its rows are
    derived from (:func:`derive_rows`)."""

    prefix: Prefix
    origination: Origination
    #: receiver ASN -> (sender, path heard, path exported), in selection
    #: order: the first ``up_count`` are customer-learned, then
    #: peer-learned, then provider-learned.
    final: Dict[int, Tuple[int, ASPath, ASPath]]
    up_count: int
    #: receiver ASN -> selected Loc-RIB route, in ``final`` order (the
    #: origin is absent; its self-route comes from
    #: :meth:`BGPSpeaker.originate`).  The ASes holding Adj-RIB-In rows
    #: are exactly these receivers.
    best: Dict[int, Route]
    #: the adjacency the solve ran over (:func:`derive_rows` reads it).
    adjacency: Adjacency = field(repr=False, compare=False)


@dataclass
class SolverResult:
    """Solved converged state for a set of originations."""

    originations: List[Origination]
    solutions: List[PrefixSolution]
    phase_seconds: Dict[str, float] = field(default_factory=dict)


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
            # origination independently and warm_start pins each
            # solution's selections blindly, while the event
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
    med = org.med
    t0 = perf_counter()

    # Seed offers straight from the origination config, split by the
    # relationship class the *receiver* assigns the origin (the inverse
    # of the origin's role for it).  An offer is (med, sender, path);
    # each pending level keeps a receiver's least offer, compared with
    # ``<`` — the one ``min`` over all of them would pick.
    up_pending: Dict[int, Dict[int, tuple]] = {}
    peer_best: Dict[int, tuple] = {}
    down_pending: Dict[int, Dict[int, tuple]] = {}
    for n, role in nbr_rel[origin].items():
        path = org.path_for(n)
        if path is None or n in path:
            continue
        if role is Relationship.PEER:
            peer_best[n] = (len(path), med, origin, path)
        else:
            pending = (
                up_pending if role is Relationship.PROVIDER else down_pending
            )
            pending.setdefault(len(path), {})[n] = (med, origin, path)

    # final: ASN -> (sender, path, export_path), customer-learned first,
    # then peer-learned, then provider-learned.  An AS appears once
    # (local-pref dominance); an AS already final is skipped when an
    # offer to it is pushed, and when a seed or same-level offer pops.
    final: Dict[int, tuple] = {}
    while up_pending:
        level = min(up_pending)
        pushed = None
        for receiver, (_med, sender, path) in up_pending.pop(level).items():
            if receiver in final:
                continue
            export = intern_path((receiver,) + path)
            final[receiver] = (sender, path, export)
            offer = (0, receiver, export)
            for provider in providers_of[receiver]:
                if provider in final or provider in export:
                    continue
                if pushed is None:
                    pushed = up_pending.setdefault(level + 1, {})
                held = pushed.get(provider)
                if held is None or offer < held:
                    pushed[provider] = offer
    up_count = len(final)
    t1 = perf_counter()
    phase_seconds["up"] += t1 - t0

    # Phase 2: one-hop exports of customer-learned bests to peers.
    for holder, (_sender, _path, export) in final.items():
        offer = (len(export), 0, holder, export)
        for peer in peers_of[holder]:
            if peer in final or peer in export:
                continue
            held = peer_best.get(peer)
            if held is None or offer < held:
                peer_best[peer] = offer
    for receiver, (_length, _med, sender, path) in peer_best.items():
        if receiver not in final:
            final[receiver] = (sender, path, intern_path((receiver,) + path))
    t2 = perf_counter()
    phase_seconds["across"] += t2 - t1

    # Phase 3: customer/peer holders export down; provider-learned routes
    # cascade along customer links in path-length order.
    for holder, (_sender, _path, export) in final.items():
        offer = (0, holder, export)
        pushed = None
        for customer in customers_of[holder]:
            if customer in final or customer in export:
                continue
            if pushed is None:
                pushed = down_pending.setdefault(len(export), {})
            held = pushed.get(customer)
            if held is None or offer < held:
                pushed[customer] = offer
    while down_pending:
        level = min(down_pending)
        pushed = None
        for receiver, (_med, sender, path) in down_pending.pop(level).items():
            if receiver in final:
                continue
            export = intern_path((receiver,) + path)
            final[receiver] = (sender, path, export)
            offer = (0, receiver, export)
            for customer in customers_of[receiver]:
                if customer in final or customer in export:
                    continue
                if pushed is None:
                    pushed = down_pending.setdefault(level + 1, {})
                held = pushed.get(customer)
                if held is None or offer < held:
                    pushed[customer] = offer
    t3 = perf_counter()
    phase_seconds["down"] += t3 - t2

    # Install: each receiver's selection, read straight off its final;
    # the rows behind it are left to derive_rows.  A transit sender
    # tells every receiver of one relationship class the same route,
    # so those selections share one object, as the rows do.
    best: Dict[int, Route] = {}
    shared: Dict[tuple, Route] = {}
    for receiver, (sender, path, _export) in final.items():
        rel = _RECEIVER_ROLE[nbr_rel[sender][receiver]]
        if sender == origin:
            best[receiver] = Route(
                prefix, intern_path(path), origin, rel, _LOCAL_PREF[rel], med
            )
            continue
        route = shared.get((sender, rel))
        if route is None:
            route = shared[sender, rel] = Route(
                prefix, path, sender, rel, _LOCAL_PREF[rel]
            )
        best[receiver] = route
    phase_seconds["install"] += perf_counter() - t3

    return PrefixSolution(
        prefix=prefix,
        origination=org,
        final=final,
        up_count=up_count,
        best=best,
        adjacency=adjacency,
    )


def derive_rows(
    solution: PrefixSolution,
) -> Tuple[Dict[int, Dict[int, Route]], Dict[int, Dict[int, Announcement]]]:
    """The Adj-RIB-In and wire rows *solution*'s finals imply, as
    ``(adj_in, sent)``: receiver -> sender -> route and exporter ->
    receiver -> announcement.

    Built exporter by exporter, in the layout and insertion order the
    engine stores them, into new dicts on every call: the caller owns
    them (:meth:`BGPEngine.materialize` installs them by reference).
    Announcements and routes are shared: one announcement per exporter,
    one route per (exporter, receiver relationship class), and that
    route is the very ``best`` object of the receivers that selected it
    (a Loc-RIB entry and its Adj-RIB-In row are one object, as when the
    event engine selects a row) — they compare equal to the per-session
    objects the event engine builds.
    """
    nbr_rel, _providers_of, _peers_of, customers_of = solution.adjacency
    org = solution.origination
    origin = org.asn
    prefix = solution.prefix
    med = org.med
    best = solution.best
    adj_in: Dict[int, Dict[int, Route]] = {}
    sent: Dict[int, Dict[int, Announcement]] = {}

    row: Dict[int, Announcement] = {}
    ann_by_path: Dict[ASPath, Announcement] = {}
    for n, role in nbr_rel[origin].items():
        path = org.path_for(n)
        if path is None:
            continue
        path = intern_path(path)
        ann = ann_by_path.get(path)
        if ann is None:
            ann = ann_by_path[path] = Announcement(prefix, path, med)
        row[n] = ann
        if n not in path:
            route = best.get(n)
            if route is None or route.neighbor != origin:
                rel = _RECEIVER_ROLE[role]
                route = Route(prefix, path, origin, rel, _LOCAL_PREF[rel], med)
            adj_in[n] = {origin: route}
    if row:
        sent[origin] = row

    # What a transit exporter tells one relationship class is the route
    # those of its receivers that selected it hold: reuse that object.
    selected = {
        (route.neighbor, route.relationship): route for route in best.values()
    }
    finals = iter(solution.final.items())
    # Customer-learned: told to every neighbour but the supplier.
    for src, (sender, _path, export) in islice(finals, solution.up_count):
        roles = nbr_rel[src]
        row = dict.fromkeys(roles, Announcement(prefix, export))
        del row[sender]  # never echo a route back to its supplier
        if row:
            sent[src] = row
        routes: Dict[Relationship, Route] = {}
        for dst, role in roles.items():
            if dst == sender or dst in export:
                continue
            rel = _RECEIVER_ROLE[role]
            route = routes.get(rel)
            if route is None:
                route = selected.get((src, rel))
                if route is None:
                    route = Route(prefix, export, src, rel, _LOCAL_PREF[rel])
                routes[rel] = route
            rows = adj_in.get(dst)
            if rows is None:
                adj_in[dst] = {src: route}
            else:
                rows[src] = route
    # Peer- and provider-learned: told to customers only, which never
    # include the supplier and hear it from their provider.
    for src, (_sender, _path, export) in finals:
        customers = customers_of[src]
        if not customers:
            continue
        sent[src] = dict.fromkeys(customers, Announcement(prefix, export))
        route = None
        for dst in customers:
            if dst in export:
                continue
            if route is None:
                route = selected.get((src, Relationship.PROVIDER))
                if route is None:
                    route = Route(
                        prefix, export, src, Relationship.PROVIDER,
                        _PROVIDER_PREF,
                    )
            rows = adj_in.get(dst)
            if rows is None:
                adj_in[dst] = {src: route}
            else:
                rows[src] = route
    return adj_in, sent
