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
import filter with ``loop_max_occurrences=1``.  The solve builds no path
to do so: a path is its AS, that AS's sender chain (all final already)
and the seed path the origin announced to the chain's first hop, so the
check is membership in the finals or in that seed.

A :class:`PrefixSolution` *is* the prefix's routing state: the Loc-RIB
selection (``best``) of every receiver, in selection order.  A path is
built only for an AS some receiver selected (the path of their route);
the per-session wire rows, the Adj-RIB-In rows and the path of an
exporter nobody selected are not built by the solve: :func:`derive_wire`
derives the wire rows and :func:`derive_rows` the Adj-RIB-In rows from
them, fresh on every call, in the order the engine stores them.
:meth:`BGPEngine.warm_start` pins the Loc-RIBs and leaves every prefix's
rows pending; :meth:`BGPEngine.materialize` writes a prefix's rows before
anything reads or mutates one, so the engine behaves identically to an
event-converged one for all subsequent perturbations.

The solver refuses configurations it cannot model exactly —
:func:`solver_unsupported_reason` returns a :class:`Refusal` naming the
offending feature and its slug — and ``runner.baseline`` falls back to
event-driven convergence in that case.  This module is the one gate:
the splice gate in :mod:`repro.bgp.delta` calls its checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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


class SolverUnsupported(SimulationError):
    """The configuration has a feature the analytic solver cannot model."""


class Refusal(NamedTuple):
    """Why the analytic model cannot describe a configuration: a metrics
    ``slug`` named at the refusing check, and the ``reason`` (its str)."""

    slug: str
    reason: str

    def __str__(self) -> str:
        return self.reason


def count_refusal(stats, scope: str, refusal: Refusal) -> None:
    """Count *refusal* as ``<scope>.fallbacks`` and ``.fallbacks.<slug>``
    (scope ``solver`` for a baseline, ``solver.delta`` for a splice)."""
    stats.count(f"{scope}.fallbacks")
    stats.count(f"{scope}.fallbacks.{refusal.slug}")


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
    #: receiver ASN -> selected Loc-RIB route, in selection order: the
    #: first ``up_count`` are customer-learned, then peer-learned, then
    #: provider-learned.  The origin is absent (its self-route comes from
    #: :meth:`BGPSpeaker.originate`).  A receiver's route names its
    #: sender, and the path it exports is itself, then that route's
    #: path: held as its receivers' route path if it is a sender, built
    #: only when rows are derived if not.  The ASes holding Adj-RIB-In
    #: rows are exactly these receivers.
    best: Dict[int, Route]
    up_count: int
    #: the adjacency the solve ran over (the row derivations read it).
    adjacency: Adjacency = field(repr=False, compare=False)


@dataclass
class SolverResult:
    """Solved converged state for a set of originations."""

    originations: List[Origination]
    solutions: List[PrefixSolution]
    phase_seconds: Dict[str, float] = field(default_factory=dict)


#: Speaker-config fields any set value of which changes which routing
#: is stable, in check order; each field name is its own slug.
_POLICY_FLAGS = (
    "reject_peer_paths_from_customers", "honours_communities",
    "local_pref_overrides", "flap_damping", "filter_poisoned_paths",
    "reject_reserved_asns", "as_path_max_length", "peerlock_protected",
)


def speaker_config_reason(engine) -> Optional[Refusal]:
    """Why per-speaker policy keeps the analytic model out (None: clean).

    Shared by :func:`solver_unsupported_reason` and the delta gate
    (:func:`repro.bgp.delta.delta_unsupported_reason`): both model only
    default Gao-Rexford decision/export behaviour.
    """
    for asn, speaker in engine.speakers.items():
        config = speaker.policy.config
        if config.loop_max_occurrences != 1:
            return Refusal(
                "loop_max_occurrences", f"AS{asn}: loop_max_occurrences != 1"
            )
        for flag in _POLICY_FLAGS:
            if getattr(config, flag):
                return Refusal(flag, f"AS{asn}: {flag}")
        if Relationship.SIBLING in speaker.neighbors.values():
            return Refusal("sibling_link", f"AS{asn}: sibling link")
    return None


def unknown_origin_reason(engine, org: Origination) -> Optional[Refusal]:
    """Refuses an origination from an AS the engine lacks (both gates)."""
    if org.asn in engine.speakers:
        return None
    return Refusal("unknown_origin", f"origination from unknown AS{org.asn}")


def duplicate_prefix_reason(prefix: Prefix) -> Refusal:
    """The refusal of a second origination of *prefix* (found by
    differential fuzzing: each solution is solved and pinned on its own,
    while the event engine computes true anycast routing).  A cold solve
    refuses any repeat, a splice one another AS already originates."""
    return Refusal(
        "duplicate_prefix",
        f"multiple originations of {prefix} "
        "(anycast/MOAS needs the event engine)",
    )


def solver_unsupported_reason(
    engine, originations: Sequence[Origination]
) -> Optional[Refusal]:
    """Why the analytic solver cannot model this setup (None: it can).

    The solver assumes default Gao-Rexford decision/export behaviour:
    sibling links, local-pref overrides, non-standard loop limits, the
    Cogent peer filter, community-driven export, flap damping and the
    anti-poisoning import filters (poisoned-path/reserved-ASN rejection,
    path-length caps, Peerlock) all change which routing is stable, so
    any of them forces the event engine.  Announcement-level features
    the engine layers on top (communities, AVOID_PROBLEM hints) are
    likewise out of scope.
    """
    refusal = speaker_config_reason(engine)
    if refusal is not None:
        return refusal
    seen_prefixes = set()
    for org in originations:
        refusal = unknown_origin_reason(engine, org)
        if refusal is not None:
            return refusal
        if org.prefix in seen_prefixes:
            return duplicate_prefix_reason(org.prefix)
        seen_prefixes.add(org.prefix)
    if engine.changes or engine.updates_sent or engine._queue:
        return Refusal(
            "prior_activity",
            "engine has prior activity (warm_start needs a fresh one)",
        )
    return None


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
    refusal = solver_unsupported_reason(engine, originations)
    if refusal is not None:
        raise SolverUnsupported(f"analytic solver cannot model: {refusal}")

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
    # of the origin's role for it).  An offer is (med, sender), or
    # (length, med, sender) among peers; each pending level keeps a
    # receiver's least offer, compared with ``<`` — the one ``min`` over
    # all of them would pick.  A receiver never hears one sender twice,
    # so no comparison needs the path.
    seeds: Dict[int, ASPath] = {}
    up_pending: Dict[int, Dict[int, tuple]] = {}
    peer_best: Dict[int, tuple] = {}
    down_pending: Dict[int, Dict[int, tuple]] = {}
    for n, role in nbr_rel[origin].items():
        path = org.path_for(n)
        if path is None or n in path:
            continue
        seeds[n] = path
        if role is Relationship.PEER:
            peer_best[n] = (len(path), med, origin)
        else:
            pending = (
                up_pending if role is Relationship.PROVIDER else down_pending
            )
            pending.setdefault(len(path), {})[n] = (med, origin)

    # Per final AS, customer-learned first, then peer-learned, then
    # provider-learned: its sender, the seed its chain starts from and
    # (for the holders phase 3 seeds from) the length of the path it
    # exports.  That path is the AS, its sender chain, then the seed.
    # Every AS on the chain is final, so an offer loops exactly when its
    # receiver is final or in the seed (and the origin, which every seed
    # holds, is never final).  An AS appears once (local-pref
    # dominance); an AS already final is skipped when an offer to it is
    # pushed, and when a seed or same-level offer pops.
    sender_of: Dict[int, int] = {}
    length: Dict[int, int] = {}
    seed_of: Dict[int, ASPath] = {}
    while up_pending:
        level = min(up_pending)
        pushed = None
        for receiver, (_med, sender) in up_pending.pop(level).items():
            if receiver in sender_of:
                continue
            seed = seeds[receiver] if sender == origin else seed_of[sender]
            sender_of[receiver] = sender
            length[receiver] = level + 1
            seed_of[receiver] = seed
            offer = (0, receiver)
            for provider in providers_of[receiver]:
                if provider in sender_of or provider in seed:
                    continue
                if pushed is None:
                    pushed = up_pending.setdefault(level + 1, {})
                held = pushed.get(provider)
                if held is None or offer < held:
                    pushed[provider] = offer
    up_count = len(sender_of)
    t1 = perf_counter()
    phase_seconds["up"] += t1 - t0

    # Phase 2: one-hop exports of customer-learned bests to peers.
    for holder, seed in seed_of.items():
        offer = (length[holder], 0, holder)
        for peer in peers_of[holder]:
            if peer in sender_of or peer in seed:
                continue
            held = peer_best.get(peer)
            if held is None or offer < held:
                peer_best[peer] = offer
    for receiver, (length_heard, _med, sender) in peer_best.items():
        if receiver not in sender_of:
            sender_of[receiver] = sender
            length[receiver] = length_heard + 1
            seed_of[receiver] = (
                seeds[receiver] if sender == origin else seed_of[sender]
            )
    t2 = perf_counter()
    phase_seconds["across"] += t2 - t1

    # Phase 3: customer/peer holders export down; provider-learned routes
    # cascade along customer links in path-length order.
    for holder, seed in seed_of.items():
        offer = (0, holder)
        pushed = None
        for customer in customers_of[holder]:
            if customer in sender_of or customer in seed:
                continue
            if pushed is None:
                pushed = down_pending.setdefault(length[holder], {})
            held = pushed.get(customer)
            if held is None or offer < held:
                pushed[customer] = offer
    while down_pending:
        level = min(down_pending)
        pushed = None
        for receiver, (_med, sender) in down_pending.pop(level).items():
            if receiver in sender_of:
                continue
            seed = seeds[receiver] if sender == origin else seed_of[sender]
            sender_of[receiver] = sender
            seed_of[receiver] = seed
            offer = (0, receiver)
            for customer in customers_of[receiver]:
                if customer in sender_of or customer in seed:
                    continue
                if pushed is None:
                    pushed = down_pending.setdefault(level + 1, {})
                held = pushed.get(customer)
                if held is None or offer < held:
                    pushed[customer] = offer
    t3 = perf_counter()
    phase_seconds["down"] += t3 - t2

    # Install: each receiver's selection, in selection order; the rows
    # behind it are left to derive_rows.  A path is built only for a
    # sender, from its own selection (a sender is final before any of
    # its receivers), and a transit sender tells every receiver of one
    # relationship class the same route, so those selections share one
    # object, as the rows do.
    best: Dict[int, Route] = {}
    shared: Dict[tuple, Route] = {}
    for receiver, sender in sender_of.items():
        rel = _RECEIVER_ROLE[nbr_rel[sender][receiver]]
        if sender == origin:
            best[receiver] = Route(
                prefix, intern_path(seeds[receiver]), origin, rel,
                _LOCAL_PREF[rel], med,
            )
            continue
        route = shared.get((sender, rel))
        if route is None:
            route = shared[sender, rel] = Route(
                prefix, intern_path((sender,) + best[sender].as_path),
                sender, rel, _LOCAL_PREF[rel],
            )
        best[receiver] = route
    phase_seconds["install"] += perf_counter() - t3

    return PrefixSolution(
        prefix=prefix,
        origination=org,
        best=best,
        up_count=up_count,
        adjacency=adjacency,
    )


def derive_wire(
    solution: PrefixSolution,
) -> Dict[int, Dict[int, Announcement]]:
    """The wire rows *solution* implies: exporter -> receiver ->
    announcement, the one statement of what a converged prefix's
    sessions carry.

    Built exporter by exporter — the origin, then every receiver in
    selection order — each row in its neighbor order, into new dicts
    on every call: the caller owns them.  An exporter's path is built
    here from its own selection (interned, so a sender's is the object
    its receivers' selections carry), and one announcement stands for
    all of an exporter's receivers (per path, at the origin).  They
    compare equal to the per-session objects the event engine builds.
    """
    nbr_rel, _providers_of, _peers_of, customers_of = solution.adjacency
    org = solution.origination
    origin = org.asn
    prefix = solution.prefix
    sent: Dict[int, Dict[int, Announcement]] = {}

    row: Dict[int, Announcement] = {}
    ann_by_path: Dict[ASPath, Announcement] = {}
    for n in nbr_rel[origin]:
        path = org.path_for(n)
        if path is None:
            continue
        path = intern_path(path)
        ann = ann_by_path.get(path)
        if ann is None:
            ann = ann_by_path[path] = Announcement(prefix, path, org.med)
        row[n] = ann
    if row:
        sent[origin] = row

    entries = iter(solution.best.items())
    # Customer-learned: told to every neighbour but the supplier.
    for src, heard in islice(entries, solution.up_count):
        row = dict.fromkeys(
            nbr_rel[src],
            Announcement(prefix, intern_path((src,) + heard.as_path)),
        )
        del row[heard.neighbor]  # never echo a route back to its supplier
        if row:
            sent[src] = row
    # Peer- and provider-learned: told to customers only, which never
    # include the supplier.
    for src, heard in entries:
        customers = customers_of[src]
        if customers:
            sent[src] = dict.fromkeys(
                customers,
                Announcement(prefix, intern_path((src,) + heard.as_path)),
            )
    return sent


def derive_rows(
    solution: PrefixSolution,
) -> Tuple[Dict[int, Dict[int, Route]], Dict[int, Dict[int, Announcement]]]:
    """The Adj-RIB-In and wire rows *solution* implies, as
    ``(adj_in, sent)``: receiver -> sender -> route and
    :func:`derive_wire`'s exporter -> receiver -> announcement.

    Each announcement a receiver does not reject as a loop is its row
    from that exporter, in the layout and insertion order the engine
    stores them, in new dicts on every call: the caller owns them
    (:meth:`BGPEngine.materialize` installs them by reference).  Routes
    are shared: one per (exporter, receiver relationship class), and
    that route is the very ``best`` object of the receivers that
    selected it (a Loc-RIB entry and its Adj-RIB-In row are one object,
    as when the event engine selects a row) — they compare equal to the
    per-session objects the event engine builds.
    """
    sent = derive_wire(solution)
    nbr_rel = solution.adjacency[0]
    org = solution.origination
    origin = org.asn
    prefix = solution.prefix
    best = solution.best
    adj_in: Dict[int, Dict[int, Route]] = {}

    # What a transit exporter tells one relationship class is the route
    # those of its receivers that selected it hold: reuse that object.
    selected = {
        (route.neighbor, route.relationship): route for route in best.values()
    }
    for src, row in sent.items():
        roles = nbr_rel[src]
        routes: Dict[Relationship, Route] = {}
        for dst, ann in row.items():
            path = ann.as_path
            if dst in path:
                continue  # the receiver's loop check rejects it
            rel = _RECEIVER_ROLE[roles[dst]]
            if src == origin:
                route = best.get(dst)
                if route is None or route.neighbor != origin:
                    route = Route(
                        prefix, path, origin, rel, _LOCAL_PREF[rel], org.med
                    )
            else:
                route = routes.get(rel)
                if route is None:
                    route = selected.get((src, rel))
                    if route is None:
                        route = Route(prefix, path, src, rel, _LOCAL_PREF[rel])
                    routes[rel] = route
            rows = adj_in.get(dst)
            if rows is None:
                adj_in[dst] = {src: route}
            else:
                rows[src] = route
    return adj_in, sent
