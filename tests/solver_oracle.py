"""The per-prefix solve ``repro.bgp.solver`` ran before its one-pass
install, and the eager warm start that loaded its rows.

:func:`repro.bgp.solver.solve_prefix` keeps one best offer per
receiver and leaves rows to :func:`repro.bgp.solver.derive_rows`, which
groups wire rows by exporter; :func:`oracle_solve_prefix` is the
list-and-``min`` propagation and the ``(src, dst)``-keyed
materialisation it replaced, kept as the independent oracle the tests
hold its values and dict insertion order to.  :func:`eager_warm_start`
installs those rows the way ``BGPEngine.warm_start`` did before rows
became lazy — every Adj-RIB-In and wire row up front — so a test can
hold a materialised engine to it.  The library does not import either.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bgp.messages import Announcement, ASPath, intern_path
from repro.bgp.rib import Route
from repro.bgp.solver import build_adjacency
from repro.errors import SimulationError
from repro.topology.relationships import Relationship, local_pref_for


def oracle_solve_prefix(org, adjacency):
    """``(adj_in, best, sent)`` for one origination over *adjacency*;
    ``sent`` is keyed by the directed session ``(src, dst)``."""
    nbr_rel, providers_of, peers_of, customers_of = adjacency
    origin = org.asn
    prefix = org.prefix

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
    return adj_in, best, sent


def eager_warm_start(engine, originations) -> None:
    """Install the converged state of *originations* into the fresh
    *engine* with every row written: the originations, then per
    prefix each receiver's Adj-RIB-In rows and selection and each
    session's announcement, in :func:`oracle_solve_prefix`'s order."""
    speakers = engine.speakers
    for org in originations:
        speakers[org.asn].originate(
            org.prefix,
            path=org.path,
            per_neighbor=org.per_neighbor_dict(),
            med=org.med,
        )
    adjacency = build_adjacency(engine)
    for org in originations:
        adj_in, best, sent = oracle_solve_prefix(org, adjacency)
        for receiver, routes in adj_in.items():
            table = speakers[receiver].table
            table.replace_rows(org.prefix, dict(routes))
            table.pin_best(org.prefix, best[receiver])
        for (src, dst), announcement in sent.items():
            speakers[src].sessions[dst].sent[org.prefix] = announcement
