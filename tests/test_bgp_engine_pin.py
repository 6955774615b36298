"""What "digest-neutral" means for the event engine, pinned.

Each case is driven through the event engine alone with an
:class:`EventBus` on the engine and every speaker and an ``on_change``
recorder: originate everything, ``run(until=now + 0.5)``, ``run()``,
``consume_fib_dirty()``, then the fuzz executor's perturbation script
(settle, reseed, faults, actions).  The fingerprint covers every
observable the engine has — bus bytes, recorded Loc-RIB changes in
order, update counters, both clocks, the RNG stream position, the dirty
FIB rows and the whole converged state — so a change that moves one
event, one ordering or one random draw fails here.

The constants were recorded at commit ``598883b`` (the parent of the PR
that rewrote the event loop) and pass there unchanged.  The "decorated"
group adds what fuzz cases never carry: AVOID_PROBLEM hints, communities
(honoured, stripped) and flap damping on every AS that takes a policy.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.policy import NO_EXPORT_TO_PEERS, SpeakerConfig
from repro.fuzz.diff import canonical_blob, capture_state
from repro.fuzz.executor import _perturb
from repro.fuzz.gen import generate_case
from repro.obs.events import EventBus


def _path(route):
    return None if route is None else tuple(route.as_path)


def _decorations(case):
    """Deterministic extras for the decorated group: speaker configs
    and per-origination (communities, avoid)."""
    rng = random.Random(case.seed)
    asns = sorted(asn for asn, _tier in case.ases)
    configs = case.speaker_configs()
    for asn in rng.sample(asns, min(4, len(asns))):
        roll = rng.random()
        if roll < 0.4:
            change = {"flap_damping": True}
        elif roll < 0.7:
            change = {"honours_communities": True}
        else:
            change = {"propagates_communities": False}
        configs[asn] = replace(configs.get(asn, SpeakerConfig()), **change)
    extras = {}
    for org in case.originations:
        others = [asn for asn in asns if asn != org.asn]
        communities = avoid = ()
        if others and rng.random() < 0.6:
            communities = (
                (rng.choice(others), NO_EXPORT_TO_PEERS),
                (org.asn, 7),
            )
        if others and rng.random() < 0.5:
            avoid = tuple(rng.sample(others, min(2, len(others))))
        extras[(org.asn, org.prefix)] = (communities, avoid)
    return configs, extras


def fingerprint(case, decorate=False):
    """Everything observable about one event-engine run of *case*."""
    configs, extras = (
        _decorations(case) if decorate else (case.speaker_configs(), {})
    )
    engine = BGPEngine(
        case.build_graph(), EngineConfig(seed=case.engine_seed), configs
    )
    bus = EventBus()
    engine.obs = bus
    for speaker in engine.speakers.values():
        speaker.obs = bus
    seen = []
    engine.on_change.append(seen.append)
    for spec in case.originations:
        org = spec.resolve()
        communities, avoid = extras.get((spec.asn, spec.prefix), ((), ()))
        engine.originate(
            org.asn, org.prefix, path=org.path,
            per_neighbor=org.per_neighbor_dict(), med=org.med,
            communities=communities, avoid=avoid,
        )
    mid = engine.run(until=engine.now + 0.5)
    engine.run()
    cold_dirty = engine.consume_fib_dirty()
    _perturb(engine, case)
    dirty = engine.consume_fib_dirty()
    assert len(seen) == engine.changes
    changes = [
        (
            c.time, c.asn, c.prefix.base, c.prefix.length,
            _path(c.old), _path(c.new),
            None if c.new is None else (
                c.new.neighbor, c.new.local_pref, c.new.med
            ),
            None if c.old is None else (
                c.old.neighbor, c.old.local_pref, c.old.med
            ),
        )
        for c in seen
    ]
    rows = sorted(
        (asn, sorted((p.base, p.length) for p in prefixes))
        for asn, prefixes in dirty.items()
    )
    parts = (
        bus.digest(), bus.total, changes,
        sorted(engine.updates_sent.items()),
        repr(mid), repr(engine.now), engine._rng.getstate(),
        cold_dirty, rows, engine.session_resets,
        sorted(engine.avoid_notifications().items()),
        canonical_blob(capture_state(engine)),
    )
    digest = hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
    return digest, bus.total, sum(engine.updates_sent.values())


def group_fingerprint(scale, indices, decorate=False):
    """(digest over the per-case digests, events, updates sent)."""
    outer = hashlib.sha256()
    events = updates = 0
    for index in indices:
        digest, n_events, n_updates = fingerprint(
            generate_case(0, index, scale), decorate
        )
        outer.update(digest.encode("ascii"))
        events += n_events
        updates += n_updates
    return outer.hexdigest(), events, updates


PINNED = {
    # (scale, first, count, decorated): (digest, bus events, updates)
    ("small", 0, 40, False): (
        "3d3a64bc454df06be18535c5550fe671e1c4e2c81ff47595f79e65f8fac98dff",
        11152, 5923,
    ),
    ("medium", 0, 10, False): (
        "c63c3b5701b9bf26f8bd1657d7961b548d0fdd312f0aa9c0d4ec61a493c86d52",
        19248, 10905,
    ),
    ("small", 40, 20, True): (
        "e2e97d8cb6b6e76e4aad8fae7887f82242fe93ff2c404f39e2d4bc07c792c501",
        4952, 2677,
    ),
    ("medium", 10, 6, True): (
        "27a0b170dbb5f54ed96e2bafdede170a46a7cec0e34b331fdff0ffacf8399c18",
        10964, 6345,
    ),
}


@pytest.mark.parametrize("group", sorted(PINNED))
def test_engine_fingerprint_is_the_parents(group):
    scale, first, count, decorate = group
    assert group_fingerprint(
        scale, range(first, first + count), decorate
    ) == PINNED[group]
