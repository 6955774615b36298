"""Small one-world studies: each builds one scenario and measures it.

The ablations of the historical atlas, AVOID_PROBLEM and sentinel
styles, §5.2's selective poisoning, §5.4's atlas refresh, §6's case
study and §7.1's anomalies each need a world of their own rather than
a sweep of trials.  Every function here builds that world at its
paper-table arguments and returns what the table reports;
:mod:`repro.experiments.tables` renders it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.messages import make_path, traversed_ases
from repro.bgp.policy import SpeakerConfig
from repro.control.sentinel import SentinelManager, SentinelStyle
from repro.dataplane.failures import ASForwardingFailure
from repro.dataplane.probes import Prober
from repro.isolation.isolator import FailureIsolator
from repro.measure.atlas import AtlasRefresher, PathAtlas
from repro.net.addr import Prefix
from repro.topology.generate import (
    generate_multihomed_origin,
    prefix_for_asn,
)
from repro.topology.relationships import Relationship
from repro.workloads.scenarios import (
    build_demo_scenario,
    build_deployment,
    build_internet,
)

HOUR = 3600.0
#: §6: the outage began 8:15 pm and the network fixed it just after 4 am.
OUTAGE_START = 20.25 * HOUR
REPAIR_TIME = 28.08 * HOUR

#: Probe budget available to the measurement infrastructure, packets/sec.
#: 225 paths/min at (10 option + ~30 traceroute) probes/path ~= 150 pps,
#: the rate-limit-bounded budget the paper's deployment worked within.
PROBE_BUDGET_PPS = 150.0


def atlas_ablation() -> Dict[str, float]:
    """Reverse-path isolation with a primed atlas (depth 3 and 1) and
    with none: the correct-blame fraction of each, over one injected
    failure of the first reverse transit of every target."""
    scenario = build_deployment(
        scale="small", seed=19, num_providers=2, num_helper_vps=6,
        num_targets=6,
    )
    lifeguard = scenario.lifeguard
    lifeguard.prime_atlas(now=0.0)
    cases = []
    for target in scenario.targets:
        transits = scenario.reverse_transits(target)
        if transits:
            cases.append((target, transits[0]))

    def correct_fraction(atlas, depth):
        isolator = FailureIsolator(
            lifeguard.prober,
            scenario.vantage_points,
            atlas,
            lifeguard.responsiveness,
            historical_depth=depth,
        )
        correct = 0
        for target, bad_asn in cases:
            failure = ASForwardingFailure(
                asn=bad_asn, toward=prefix_for_asn(scenario.origin_asn)
            )
            lifeguard.dataplane.failures.add(failure)
            result = isolator.isolate("origin", target, now=100.0)
            lifeguard.dataplane.failures.remove(failure)
            if result.blamed_asn == bad_asn:
                correct += 1
        return correct / max(1, len(cases))

    return {
        "cases": len(cases),
        "with_atlas": correct_fraction(lifeguard.atlas, 3),
        "without_atlas": correct_fraction(PathAtlas(), 3),
        "shallow": correct_fraction(lifeguard.atlas, 1),
    }


def avoid_problem_comparison() -> List[Dict[str, object]]:
    """For each of 12 non-tier-1 transit ASes: who is cut off and who
    reroutes under poisoning vs under the idealized AVOID_PROBLEM."""
    graph, _shape = build_internet("small", seed=29)
    origin = generate_multihomed_origin(graph, num_providers=1, seed=29)
    provider = graph.providers(origin)[0]
    prefix = graph.node(origin).prefixes[0]
    engine = BGPEngine(graph, EngineConfig(seed=29))
    for node in graph.nodes():
        for node_prefix in node.prefixes:
            if node.asn != origin:
                engine.originate(node.asn, node_prefix)
    engine.run()
    engine.originate(origin, prefix, path=make_path(origin, prepend=3))
    engine.run()

    def cut_off():
        return sum(
            1
            for asn in graph.ases()
            if asn != origin and engine.as_path(asn, prefix) is None
        )

    def avoiding(users, target):
        return sum(
            1
            for asn in users
            if engine.as_path(asn, prefix) is not None
            and target not in traversed_ases(
                engine.as_path(asn, prefix), origin
            )
        )

    candidates = [
        asn
        for asn in graph.transit_ases()
        if asn not in (origin, provider)
        and graph.node(asn).tier != 1
    ][:12]
    rows = []
    for target in candidates:
        users = set(engine.ases_using(prefix, target))
        engine.originate(
            origin, prefix, path=make_path(origin, prepend=2,
                                           poison=[target])
        )
        engine.run()
        poisoned_cut, poisoned_avoiding = cut_off(), avoiding(users, target)
        engine.originate(
            origin, prefix, path=make_path(origin, prepend=3),
            avoid={target},
        )
        engine.run()
        rows.append({
            "target": target,
            "users": len(users),
            "poisoned_cut": poisoned_cut,
            "poisoned_avoiding": poisoned_avoiding,
            "avoid_cut": cut_off(),
            "avoid_avoiding": avoiding(users, target),
            "notified": engine.avoid_notifications().get(target, 0) > 0,
        })
        # Reset to the clean baseline for the next target.
        engine.originate(
            origin, prefix, path=make_path(origin, prepend=3)
        )
        engine.run()
    return rows


def sentinel_styles() -> List[Tuple[str, bool, bool, bool]]:
    """Poison the single provider of a captive stub, then read what each
    sentinel style offers: (style, captive keeps the covering route,
    repair detectable, backup property)."""
    scenario = build_deployment(scale="small", seed=17, num_providers=2)
    graph = scenario.graph
    engine = scenario.engine
    lifeguard = scenario.lifeguard
    production = scenario.production_prefix

    # Find a transit AS with a single-homed customer (the captive).
    for stub in graph.stubs():
        providers = graph.providers(stub)
        if len(providers) == 1 and not graph.is_stub(providers[0]):
            path = engine.as_path(stub, production)
            if path is None:
                continue
            if providers[0] in path and providers[0] not in graph.providers(
                scenario.origin_asn
            ):
                captive, poisoned = stub, providers[0]
                break
    else:
        raise LookupError("topology has no captive stub to poison")
    # Only routes are read below, so the data plane is not refreshed.
    lifeguard.origin.poison([poisoned])
    engine.run()

    origin_router = scenario.topo.routers_of(scenario.origin_asn)[0]
    prober = Prober(lifeguard.dataplane)
    sentinel = lifeguard.sentinel_manager.sentinel
    less_specific = SentinelManager(
        prober, origin_router, production,
        style=SentinelStyle.LESS_SPECIFIC,
    )
    disjoint = SentinelManager(
        prober, origin_router, production,
        style=SentinelStyle.DISJOINT,
        disjoint_prefix=Prefix("198.51.0.0/16"),
    )
    none = SentinelManager(
        prober, origin_router, production, style=SentinelStyle.NONE,
    )
    return [
        (
            "less-specific",
            engine.as_path(captive, production) is None
            and engine.as_path(captive, sentinel) is not None,
            less_specific.can_detect_repair,
            less_specific.provides_backup_route,
        ),
        ("disjoint", False, disjoint.can_detect_repair,
         disjoint.provides_backup_route),
        ("none", False, none.can_detect_repair,
         none.provides_backup_route),
    ]


def selective_poisoning() -> Dict[str, object]:
    """§5.2's Internet2 experiment on a two-provider origin: poison the
    first target (by degree) that keeps a route when poisoned toward one
    provider only, and count the unrelated ASes whose path moved."""
    scenario = build_deployment(scale="small", seed=13, num_providers=2)
    engine = scenario.engine
    graph = scenario.graph
    origin = scenario.origin_asn
    prefix = scenario.production_prefix
    controller = scenario.lifeguard.origin
    provider_a, provider_b = controller.providers

    candidates = []
    for asn in graph.transit_ases():
        if asn in (provider_a, provider_b, origin):
            continue
        best = engine.best_route(asn, prefix)
        if best is None:
            continue
        used = traversed_ases(best.as_path, origin)
        if provider_a in used or provider_b in used:
            candidates.append((asn, used))
    candidates.sort(key=lambda c: -graph.degree(c[0]))
    peers = [a for a in graph.transit_ases() if a != origin]
    before = {peer: engine.as_path(peer, prefix) for peer in peers}

    # Selective poisoning needs the target to reach the two providers
    # over disjoint paths (§3.1.2) — the paper chose Internet2 because
    # UWash and UWisc met exactly that condition.  Try candidates until
    # one keeps its route under the selective poison.
    for target, used in candidates:
        poisoned_provider = provider_a if provider_a in used else provider_b
        clean_provider = (
            provider_b if poisoned_provider == provider_a else provider_a
        )
        controller.poison_selectively(target, [poisoned_provider])
        engine.run()
        target_route = engine.best_route(target, prefix)
        if target_route is not None:
            break
        controller.unpoison()
        engine.run()
    else:
        raise LookupError("no target with disjoint provider paths")

    unrelated_changed = 0
    unrelated_total = 0
    for peer in peers:
        if peer == target:
            continue
        was, now = before[peer], engine.as_path(peer, prefix)
        if was is not None and target in traversed_ases(was, origin):
            continue  # peers through the target legitimately move
        unrelated_total += 1
        if (was is None) != (now is None) or (
            was is not None
            and traversed_ases(was, origin) != traversed_ases(now, origin)
        ):
            unrelated_changed += 1
    target_used = traversed_ases(target_route.as_path, origin)
    return {
        "clean_egress": bool(
            target_used and target_used[-1] == clean_provider
        ),
        "unrelated_changed": unrelated_changed,
        "unrelated_total": unrelated_total,
    }


def atlas_refresh() -> Dict[str, float]:
    """One steady-state atlas refresh after a from-scratch pass: option
    and total probes per refreshed path, and the paths per minute the
    probe budget affords."""
    scenario = build_deployment(
        scale="small", seed=31, num_providers=2,
        num_helper_vps=6, num_targets=8,
    )
    refresher = AtlasRefresher(
        Prober(scenario.lifeguard.dataplane),
        scenario.vantage_points,
        PathAtlas(),
    )
    refresher.refresh_all(scenario.targets, now=0.0)
    stats = refresher.refresh_all(scenario.targets, now=600.0)
    paths = max(1, stats.paths_refreshed)
    probes_per_path = (
        stats.option_probes + stats.traceroute_probes
    ) / paths
    return {
        "paths_refreshed": stats.paths_refreshed,
        "option_probes_per_path": stats.option_probes / paths,
        "probes_per_path": probes_per_path,
        "paths_per_minute": PROBE_BUDGET_PPS * 60.0 / probes_per_path,
    }


def case_study():
    """§6 re-enacted: a reverse-path failure toward the sentinel from
    8:15 pm to just after 4 am, and LIFEGUARD running through it.
    Returns the failed AS's repair record and the AS."""
    scenario, bad_asn = build_demo_scenario(
        seed=21, scale="small", fail_start=OUTAGE_START, fail_end=REPAIR_TIME
    )
    scenario.run(30.0 * HOUR, start=OUTAGE_START)
    record = next(
        r for r in scenario.lifeguard.records if r.poisoned_asn == bad_asn
    )
    return record, bad_asn


def anomalies() -> Dict[str, object]:
    """§7.1 on one engine: whether a network with loop detection off and
    one with maxas-limit 2 keep their route after a single and a double
    poison, then how many ASes keep a route before and after the origin
    poisons a tier-1 peer of its Cogent-like provider."""
    graph, _shape = build_internet("small", seed=37)
    # Georgia Tech's provider was Cogent, a tier-1 whose settlement-free
    # peers are the other tier-1s: attach the origin directly to one.
    origin = max(graph.ases()) + 1
    graph.add_as(origin, tier=3, prefixes=[prefix_for_asn(origin)])
    provider = next(n.asn for n in graph.nodes() if n.tier == 1)
    graph.add_link(origin, provider, Relationship.PROVIDER)
    prefix = graph.node(origin).prefixes[0]

    transits = [
        asn
        for asn in graph.transit_ases()
        if asn not in (origin, provider) and graph.node(asn).tier != 1
    ]
    no_loop_detect, maxas_two = transits[0], transits[1]
    configs = {
        no_loop_detect: SpeakerConfig(loop_max_occurrences=0),
        maxas_two: SpeakerConfig(loop_max_occurrences=2),
        # The Cogent-like filter sits on the origin's (tier-1) provider.
        provider: SpeakerConfig(reject_peer_paths_from_customers=True),
    }
    engine = BGPEngine(graph, EngineConfig(seed=37),
                       speaker_configs=configs)
    for node in graph.nodes():
        for node_prefix in node.prefixes:
            if node.asn != origin:
                engine.originate(node.asn, node_prefix)
    engine.run()
    clean = make_path(origin, prepend=3)
    engine.originate(origin, prefix, path=clean)
    engine.run()

    def routed_after(poison):
        engine.originate(
            origin, prefix, path=make_path(origin, prepend=2, poison=poison)
        )
        engine.run()
        return {
            asn
            for asn in graph.ases()
            if asn != origin and engine.as_path(asn, prefix) is not None
        }

    quirks = {}
    for label, target in (
        ("disabled", no_loop_detect), ("maxas-2", maxas_two)
    ):
        single = target in routed_after([target])
        double = target in routed_after([target, target])
        quirks[label] = (single, double)
        engine.originate(origin, prefix, path=clean)
        engine.run()

    tier1_peer = next(
        n for n in graph.peers(provider) if graph.node(n).tier == 1
    )
    before = sum(
        1
        for asn in graph.ases()
        if asn != origin and engine.as_path(asn, prefix) is not None
    )
    after = len(routed_after([tier1_peer]))
    engine.originate(origin, prefix, path=clean)
    engine.run()
    return {"loop_quirks": quirks, "cogent_filter": (before, after)}
