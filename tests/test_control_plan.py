"""The repair policy, checked without a deployment.

:mod:`repro.control.plan` is pure functions of records, verdicts, graphs
and numbers, so every decision the controller makes between an isolation
and an announcement runs here on drawn inputs — hypothesis over records,
isolation verdicts and tiny generated AS graphs — with no engine, prober
or data plane built (the fixture below fails the test that builds one).
BGPFuzz's method, pointed at the controller instead of the router.
"""

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bgp.engine import BGPEngine
from repro.control import plan
from repro.control.guard import BreakerState
from repro.control.record import (
    IN_FLIGHT,
    LADDER_STRATEGIES,
    RepairRecord,
    RepairState,
    fold,
    ledger_key,
)
from repro.isolation.direction import FailureDirection
from repro.isolation.isolator import IsolationResult
from repro.measure.monitor import OutageRecord
from repro.net.addr import Address
from repro.splice.reachability import reachable_set_avoiding
from repro.topology.generate import (
    InternetShape,
    generate_internet,
    generate_multihomed_origin,
)

SETTINGS = settings(max_examples=300, deadline=None)


@pytest.fixture(autouse=True)
def no_deployment(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the policy is tested without an engine")

    monkeypatch.setattr(BGPEngine, "__init__", refuse)


# ----------------------------------------------------------------------
# Drawn inputs
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _world(tier1, tier2, stubs, providers, seed):
    """A tiny Internet with a multihomed origin: (graph, origin ASN)."""
    graph = generate_internet(
        InternetShape(num_tier1=tier1, num_tier2=tier2, num_stubs=stubs),
        seed=seed,
    )
    origin = generate_multihomed_origin(graph, providers, seed=seed)
    return graph, origin


@st.composite
def worlds(draw):
    tier2 = draw(st.integers(min_value=3, max_value=6))
    return _world(
        draw(st.integers(min_value=2, max_value=3)),
        tier2,
        draw(st.integers(min_value=3, max_value=8)),
        draw(st.integers(min_value=1, max_value=min(3, tier2))),
        draw(st.integers(min_value=0, max_value=7)),
    )


@st.composite
def blames(draw):
    """(graph, origin, target AS, blamed AS) — any two ASes of a world,
    the edges of the pair included."""
    graph, origin = draw(worlds())
    ases = sorted(graph.ases())
    target = draw(st.sampled_from([a for a in ases if a != origin]))
    blamed = draw(st.sampled_from(ases))
    return graph, origin, target, blamed


def _reachable(graph, origin, blamed):
    return {blamed: reachable_set_avoiding(graph, origin, avoid=[blamed])}


@st.composite
def records(draw, states=st.sampled_from(list(RepairState))):
    step = draw(st.integers(min_value=0, max_value=len(LADDER_STRATEGIES) + 1))
    blamed = draw(st.none() | st.integers(min_value=1, max_value=40))
    isolation = None
    if draw(st.booleans()):
        isolation = IsolationResult(
            vp_name="origin",
            destination=Address("10.9.0.1"),
            direction=draw(st.sampled_from(list(FailureDirection))),
            blamed_asn=blamed,
            confidence=draw(st.floats(min_value=0.01, max_value=1.0)),
        )
    start = draw(st.floats(min_value=0.0, max_value=1e6))
    return RepairRecord(
        outage=OutageRecord(
            vp_name=draw(st.sampled_from(["origin", "vp1", "vp2"])),
            destination=Address("10.9.0.1"),
            start=start,
            detected=start + 110.0,
        ),
        state=draw(states),
        isolation=isolation,
        ladder_step=step,
        poisoned_asn=blamed,
    )


breaker_states = st.sampled_from(list(BreakerState))
asns = st.integers(min_value=1, max_value=65000)
failure_counts = st.integers(min_value=0, max_value=9)


def _gives_up(outcome):
    """A give-up settles NOT_POISONED exactly once and says why."""
    if outcome is None or outcome[0] != "give-up":
        return False
    (commits,) = outcome[1:]
    states = [f for kind, f in commits if kind == "state"]
    notes = [f for kind, f in commits if kind == "note"]
    return (
        len(states) == 1
        and states[0]["state"] == RepairState.NOT_POISONED.value
        and len(notes) == 1
        and {kind for kind, _ in commits} == {"state", "note"}
    )


# ----------------------------------------------------------------------
# May a poison go out: the pacer before the isolation, the breaker after
# ----------------------------------------------------------------------
class TestAdmission:
    @given(st.booleans())
    def test_a_spent_budget_defers_before_the_isolation(self, pacer_allows):
        outcome = plan.pace(pacer_allows)
        if pacer_allows:
            assert outcome is None
        else:
            assert outcome[:2] == ("defer", "pacing")
            assert outcome[2]  # the note says why

    @SETTINGS
    @given(asns, breaker_states, failure_counts)
    def test_gate_order(self, asn, breaker, failures):
        outcome = plan.admit(asn, breaker, failures)
        if breaker is BreakerState.OPEN:
            # An open breaker never yields a poison.
            assert _gives_up(outcome)
            assert outcome == plan.breaker_open(asn, failures)
        elif breaker is BreakerState.BACKOFF:
            assert outcome[:2] == ("defer", "breaker-backoff")
            assert outcome[3] is True  # the charge is refunded
        else:
            assert outcome == ("poison", asn)

    @SETTINGS
    @given(asns, breaker_states, failure_counts)
    def test_a_rolled_back_record_waits_out_the_backoff(
        self, asn, breaker, failures
    ):
        outcome = plan.retry(asn, breaker, failures)
        if breaker is BreakerState.OPEN:
            assert _gives_up(outcome)
        elif breaker is BreakerState.BACKOFF:
            assert outcome is None
        else:
            assert outcome[0] == "re-isolate" and outcome[1]


# ----------------------------------------------------------------------
# Is the verdict one to act on: discount, confidence, suspect, poisonable
# ----------------------------------------------------------------------
class TestVerdict:
    @SETTINGS
    @given(
        blames(),
        st.floats(min_value=0.0, max_value=2000.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.booleans(),
    )
    def test_gate_order(self, blame, elapsed, confidence, suspect):
        graph, origin, target, blamed = blame
        blamed = blamed if suspect else None
        reachable = _reachable(graph, origin, blamed) if suspect else {}
        verdict = IsolationResult(
            vp_name="origin",
            destination=Address("10.9.0.1"),
            direction=FailureDirection.REVERSE,
            blamed_asn=blamed,
            confidence=confidence,
            elapsed_seconds=elapsed,
        )
        discount, outcome = plan.judge_verdict(
            verdict, origin, target, reachable
        )
        # A pure function: the discount is returned, not applied.
        assert verdict.confidence == confidence
        if elapsed > plan.ISOLATION_TIMEOUT:
            factor, why = discount
            assert factor == plan.TIMEOUT_DISCOUNT and "timeout" in why
            confidence *= factor
        else:
            assert discount is None
        if confidence < plan.MIN_CONFIDENCE:
            # Thin evidence defers, and the charge stays spent: a later
            # run may learn more.
            assert outcome[:2] == ("defer", "low-confidence")
            assert outcome[3] is False
        elif blamed is None:
            assert _gives_up(outcome)
        elif blamed in (origin, target):
            assert _gives_up(outcome)
        elif target not in reachable[blamed]:
            assert _gives_up(outcome)
        else:
            assert outcome is None

    @SETTINGS
    @given(blames())
    def test_unpoisonable_reads_the_memo_for_transit_only(self, blame):
        graph, origin, target, blamed = blame
        if blamed in (origin, target):
            # An empty memo: the edge test must not look anything up.
            why = plan.unpoisonable(blamed, origin, target, {})
            assert f"edge AS{blamed}" in why
        else:
            why = plan.unpoisonable(
                blamed, origin, target, _reachable(graph, origin, blamed)
            )
            avoiding = reachable_set_avoiding(graph, origin, avoid=[blamed])
            assert (why is None) == (target in avoiding)

    @SETTINGS
    @given(
        records(),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=5),
    )
    def test_the_isolation_budget_is_bounded(self, record, charge, limit):
        fold(record, {"event": "isolation-spend", "t": 0.0, "used": charge})
        used, spent = plan.charge_isolation(record, limit)
        assert record.isolation_charge == charge
        if charge >= limit:
            assert used == charge and _gives_up(spent)
        else:
            assert used == charge + 1 and spent is None

    @SETTINGS
    @given(records(), st.booleans())
    def test_only_an_escalated_rung_reuses_its_verdict(self, record, ladder):
        reuses = plan.reuses_verdict(record, ladder)
        if reuses:
            assert ladder and record.ladder_step > 0
            assert record.isolation.blamed_asn is not None
        if not ladder or record.ladder_step == 0:
            assert not reuses


# ----------------------------------------------------------------------
# The remediation for a rung, and the next rung
# ----------------------------------------------------------------------
@st.composite
def poisonable_blames(draw):
    graph, origin, target, blamed = draw(blames())
    assume(blamed not in (origin, target))
    assume(target in reachable_set_avoiding(graph, origin, avoid=[blamed]))
    return graph, origin, target, blamed


class TestRemediation:
    @SETTINGS
    @given(poisonable_blames())
    def test_deep_poison_set(self, blame):
        graph, origin, target, blamed = blame
        chosen = plan.deep_poison_set(blamed, graph, origin, target)
        assert chosen[0] == blamed
        assert origin not in chosen and target not in chosen
        assert len(set(chosen)) == len(chosen)
        assert len(chosen) <= 1 + plan.MAX_EXTRA_POISONS
        neighborhood = set(graph.providers(blamed)) | set(graph.peers(blamed))
        assert set(chosen[1:]) <= neighborhood
        # The ladder never poisons itself into unreachability.
        assert target in reachable_set_avoiding(graph, origin, avoid=chosen)

    @SETTINGS
    @given(
        poisonable_blames(),
        records(),
        st.data(),
    )
    def test_remediation_keeps_the_prefix_announced(self, blame, record, data):
        graph, origin, target, blamed = blame
        providers = sorted(graph.providers(origin))
        suppressed = set(
            data.draw(st.lists(st.sampled_from(providers), unique=True))
        )
        # Other repairs never withhold the prefix from every provider
        # (OriginController.suppress_providers refuses to).
        assume(suppressed < set(providers))
        best_path = data.draw(
            st.none()
            | st.lists(st.sampled_from(sorted(graph.ases())), max_size=5)
            | st.sampled_from(
                [(blamed, via, origin, origin, origin) for via in providers]
            )
        )
        mode, poisoned, via = plan.remediation(
            record, blamed,
            graph=graph, origin_asn=origin, target_asn=target,
            providers=providers, suppressed=suppressed,
            best_path=best_path,
        )
        step = min(record.ladder_step, plan.LADDER_TOP_STEP)
        if mode == "poison":
            assert via == () and poisoned[0] == blamed
            assert origin not in poisoned
            if LADDER_STRATEGIES[step] == "poison":
                assert poisoned == (blamed,)
        else:
            assert mode in ("prepend", "suppress") and poisoned == ()
            assert LADDER_STRATEGIES[step] in (
                "prepend", "selective-advertise"
            )
            assert via and set(via) <= set(providers)
            if mode == "suppress":
                # No remediation suppresses every provider.
                assert suppressed | set(via) < set(providers)
                assert LADDER_STRATEGIES[step] == "selective-advertise"

    @SETTINGS
    @given(poisonable_blames(), st.data())
    def test_entry_provider_is_read_off_the_best_path(self, blame, data):
        graph, origin, target, blamed = blame
        providers = sorted(graph.providers(origin))
        via = data.draw(st.sampled_from(providers))
        assert plan.entry_providers(via, origin, providers, None) == (via,)
        if blamed not in providers:
            path = (blamed, via, origin, origin, origin)
            assert plan.entry_providers(
                blamed, origin, providers, path
            ) == (via,)
            assert plan.entry_providers(
                blamed, origin, providers, None
            ) == (providers[0],)


class TestLadder:
    @SETTINGS
    @given(records(), st.booleans(), st.none() | asns)
    def test_next_rung_is_monotone_and_stops_at_the_top(
        self, record, ladder, asn
    ):
        climbed = 0
        while True:
            before = record.ladder_step
            rung = plan.next_rung(record, ladder, asn)
            if rung is None:
                break
            step, strategy, commits = rung
            assert ladder and record.state is RepairState.ROLLED_BACK
            assert step == before + 1 <= plan.LADDER_TOP_STEP
            assert strategy == LADDER_STRATEGIES[step]
            # What it says to journal is what the fold climbs by.
            assert [kind for kind, _ in commits] == ["escalate", "note"]
            for kind, fields in commits:
                fold(record, {"event": kind, "t": 0.0, **fields})
            assert record.ladder_step == step
            assert record.fallback_strategy == strategy
            climbed += 1
        assert climbed <= plan.LADDER_TOP_STEP
        if ladder and record.state is RepairState.ROLLED_BACK:
            assert record.ladder_step >= plan.LADDER_TOP_STEP
        else:
            assert climbed == 0

    def test_the_ladder_constants(self):
        assert plan.LADDER_TOP_STEP == len(LADDER_STRATEGIES) - 1 == 3
        assert plan.MAX_EXTRA_POISONS == 2


# ----------------------------------------------------------------------
# After a crash: what the origin should be announcing
# ----------------------------------------------------------------------
class TestIntendedLedger:
    @SETTINGS
    @given(st.lists(records(), max_size=6, unique_by=lambda r: r.key))
    def test_exactly_the_in_flight_poisons(self, drawn):
        for index, record in enumerate(drawn):
            if index % 2:
                fold(record, {
                    "event": "poison", "t": 0.0, "mode": "prepend",
                    "asns": [], "providers": [7], "step": 2, "control": [],
                })
        ledger = plan.intended_ledger(drawn)
        in_flight = [r for r in drawn if r.state in IN_FLIGHT]
        assert len(ledger) == len(in_flight)
        for record in in_flight:
            if record.poison_intent is None:
                # A journal from before intents were recorded: the
                # plain poison of the AS the record names.
                assert ledger[ledger_key(record.key)] == (
                    "poison", (record.poisoned_asn,)
                )
            else:
                assert ledger[ledger_key(record.key, 2)] == (
                    "prepend", (7,)
                )
