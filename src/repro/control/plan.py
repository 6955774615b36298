"""The policy: what to do about an outage, as pure functions of values.

LIFEGUARD's remediation is a policy — wait out the residual-duration
rule (§4.2, :mod:`repro.control.decision`), blame an AS only where
poisoning can route around it, poison, and where filters drop the poison
climb to deeper poisons, prepend-only steering and selective
advertisement (§3.1.2).  Every such decision has its one definition
here.  The functions take records, verdicts, graphs and numbers; they
hold no deployment, probe nothing, announce nothing and journal nothing,
so they run on drawn inputs by the thousand (``tests/test_control_plan.py``)
without a converged Internet.  :mod:`repro.control.lifeguard` gathers
what they need, and carries out what they return.

An *outcome* is a plain tuple naming what the controller does next:

``("poison", asn)``
    announce the remediation for *asn* (``Lifeguard._poison``);
``("defer", why, note, refund)``
    leave the record OBSERVED for a later round (``Lifeguard._defer``);
    *refund* says whether this run's isolation charge is handed back —
    it is when the deferral is no fault of the measurement, since a
    retry would learn nothing new;
``("give-up", commits)``
    settle the record NOT_POISONED by journaling *commits*, an ordered
    tuple of ``(kind, fields)`` for ``Lifeguard._commit``;
``("re-isolate", reason)``
    a rolled-back record goes back to OBSERVED.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.control.guard import BREAKER_MAX_FAILURES, BreakerState
from repro.control.record import (
    IN_FLIGHT,
    LADDER_STRATEGIES,
    RepairRecord,
    RepairState,
    ledger_key,
)
from repro.errors import RetryExhausted
from repro.faults.injector import RetryBudget
from repro.isolation.isolator import IsolationResult
from repro.splice.reachability import reachable_set_avoiding
from repro.topology.as_graph import ASGraph

#: refuse to poison below this isolation confidence; the outage is
#: re-isolated on later ticks instead (poisoning the wrong AS breaks
#: working paths, so thin evidence defers, it does not act).
MIN_CONFIDENCE = 0.5
#: an isolation run whose serialized measurement schedule exceeds this
#: many seconds keeps only :data:`TIMEOUT_DISCOUNT` of its confidence.
ISOLATION_TIMEOUT = 600.0
#: isolation runs per outage before giving up (NOT_POISONED).
MAX_ISOLATION_ATTEMPTS = 3


@dataclass
class LifeguardConfig:
    """The settings a deployment varies; every other operating value is
    a constant beside the code that reads it."""

    monitor_interval: float = 30.0
    #: rollbacks of the same (pair, ASN) before the breaker opens.
    breaker_max_failures: int = BREAKER_MAX_FAILURES
    #: escalate rolled-back repairs along
    #: :data:`~repro.control.record.LADDER_STRATEGIES` (deeper poison ->
    #: prepend-only steering -> selective advertisement) instead of
    #: retrying the same poison until the breaker opens.  Off by
    #: default: the ladder spends announcement budget and breaker
    #: headroom that plain deployments may not want.
    fallback_ladder: bool = False
    #: incremental-convergence mode for announcements ("off"/"auto").
    #: In "auto", poisons, unpoisons and escalation rungs splice their
    #: blast radius into the analytic converged state instead of
    #: replaying the whole event engine, and FIB refreshes rebuild only
    #: the dirty ASes.
    delta_mode: str = "off"


#: highest ladder rung the controller climbs to: all of them.
LADDER_TOP_STEP = len(LADDER_STRATEGIES) - 1
#: extra ASNs (beyond the blamed one) the "multi-poison" rung may add
#: to cover the blamed AS's transit neighborhood.  (How many copies the
#: "prepend" rung adds is :data:`repro.bgp.origin.PREPEND_EXTRA`.)
MAX_EXTRA_POISONS = 2
#: confidence left to an isolation that overran its timeout.
TIMEOUT_DISCOUNT = 0.5

Outcome = Tuple[Any, ...]
Remediation = Tuple[str, Tuple[int, ...], Tuple[int, ...]]


def give_up(*commits: Tuple[str, Dict[str, Any]]) -> Outcome:
    """Settle NOT_POISONED by journaling *commits* in this order."""
    return ("give-up", commits)


def _settled(reason: Optional[str]) -> Tuple[str, Dict[str, Any]]:
    return (
        "state",
        {"state": RepairState.NOT_POISONED.value, "reason": reason},
    )


def _note(note: str) -> Tuple[str, Dict[str, Any]]:
    return ("note", {"note": note})


# ----------------------------------------------------------------------
# Before the isolation: may a poison go out at all, is there a verdict
# already, is there budget left
# ----------------------------------------------------------------------
def pace(pacer_allows: bool) -> Optional[Outcome]:
    """Defer while the announcement budget is spent (None: it is not).

    The flap-damping guard of §6: one more announcement now risks
    walking the prefix into damping penalty at a suppressing neighbor;
    withdrawals stay exempt.  Asked before the isolation, because a
    verdict that may not be acted on this round buys nothing: a paced
    round sends no probes and takes no isolation charge.
    """
    if pacer_allows:
        return None
    return (
        "defer",
        "pacing",
        "announcement budget exhausted: poisoning deferred "
        "(flap-damping guard)",
        True,
    )


def reuses_verdict(record: RepairRecord, ladder: bool) -> bool:
    """Escalated ladder rungs reuse the isolation verdict that blamed
    the AS in the first place: the outage has not moved, a fresh
    isolation run would spend the retry budget the deeper rungs need,
    and the verdict is already journaled."""
    return (
        ladder
        and record.ladder_step > 0
        and record.isolation is not None
        and record.isolation.blamed_asn is not None
    )


def charge_isolation(
    record: RepairRecord, limit: int
) -> Tuple[int, Optional[Outcome]]:
    """Charge one isolation run to the outage's retry budget: the new
    charge, and the give-up once the budget is spent."""
    trial = RetryBudget(limit, record.isolation_charge)
    try:
        trial.spend(
            "isolation",
            vp=record.outage.vp_name,
            target=str(record.outage.destination),
        )
    except RetryExhausted as exc:
        return trial.used, give_up(
            _settled(str(exc)), _note(f"not poisoning: {exc}")
        )
    return trial.used, None


# ----------------------------------------------------------------------
# After the isolation: is the verdict one to act on, may we act now
# ----------------------------------------------------------------------
def unpoisonable(
    blamed: int,
    origin_asn: int,
    target_asn: Optional[int],
    reachable: Mapping[int, Set[int]],
) -> Optional[str]:
    """Why poisoning *blamed* cannot route around it (None: it can).

    *reachable* maps a blamed AS to the ASes that still reach the origin
    over policy-compliant paths avoiding it; it is read only for an AS
    that is not an edge of the monitored pair.
    """
    if blamed in (origin_asn, target_asn):
        return (
            f"failure inside edge AS{blamed}: local repair, not poisoning"
        )
    if target_asn not in reachable[blamed]:
        return (
            f"no policy-compliant path avoiding AS{blamed}: not poisoning"
        )
    return None


def judge_verdict(
    isolation: IsolationResult,
    origin_asn: int,
    target_asn: Optional[int],
    reachable: Mapping[int, Set[int]],
) -> Tuple[Optional[Tuple[float, str]], Optional[Outcome]]:
    """Is a fresh isolation verdict one to act on?

    Returns ``(discount, outcome)``.  *discount* is ``(factor, reason)``
    for ``IsolationResult.discount`` when the run overran the isolation
    timeout, and the gates below read the discounted confidence.
    *outcome* defers thin evidence (poisoning the wrong AS breaks
    working paths, and transiently injected faults may have cleared by
    a later round — the charge stays spent), gives up on a verdict with
    no suspect or one poisoning cannot route around, and is None when
    the verdict stands.
    """
    discount, confidence = None, isolation.confidence
    if isolation.elapsed_seconds > ISOLATION_TIMEOUT:
        discount = (
            TIMEOUT_DISCOUNT,
            f"isolation ran {isolation.elapsed_seconds:.0f}s, past "
            f"the {ISOLATION_TIMEOUT:.0f}s timeout",
        )
        confidence *= TIMEOUT_DISCOUNT
    if confidence < MIN_CONFIDENCE:
        return discount, (
            "defer",
            "low-confidence",
            f"degraded isolation (confidence {confidence:.2f} < "
            f"{MIN_CONFIDENCE:.2f}): deferring poisoning",
            False,
        )
    blamed = isolation.blamed_asn
    if blamed is None:
        reason = "isolation produced no suspect AS"
        return discount, give_up(_settled(reason), _note(reason))
    why_not = unpoisonable(blamed, origin_asn, target_asn, reachable)
    if why_not is not None:
        return discount, give_up(_note(why_not), _settled(None))
    return discount, None


def breaker_open(asn: int, failures: int) -> Outcome:
    """The breaker has given up on poisoning *asn* for this pair."""
    reason = (
        f"circuit breaker open after {failures} ineffective "
        f"poisons of AS{asn}"
    )
    return give_up(_settled(reason), _note(f"not poisoning: {reason}"))


def admit(asn: int, breaker: BreakerState, failures: int) -> Outcome:
    """May a poison of *asn* go out this round?

    An open breaker never poisons; a breaker in backoff defers with the
    isolation charge refunded.  The announcement budget was asked
    before the isolation (:func:`pace`).
    """
    if breaker is BreakerState.OPEN:
        return breaker_open(asn, failures)
    if breaker is BreakerState.BACKOFF:
        return (
            "defer",
            "breaker-backoff",
            f"rollback backoff for AS{asn} pending: poisoning deferred",
            True,
        )
    return ("poison", asn)


def retry(
    asn: int, breaker: BreakerState, failures: int
) -> Optional[Outcome]:
    """A rolled-back record: give up once the breaker is open,
    re-isolate once its backoff has elapsed, wait (None) until then."""
    if breaker is BreakerState.OPEN:
        return breaker_open(asn, failures)
    if breaker is BreakerState.CLOSED:
        return ("re-isolate", "rollback backoff elapsed: re-isolating")
    return None


# ----------------------------------------------------------------------
# The remediation for the current rung, and the next rung
# ----------------------------------------------------------------------
def remediation(
    record: RepairRecord,
    asn: int,
    *,
    graph: ASGraph,
    origin_asn: int,
    target_asn: Optional[int],
    providers: Sequence[int],
    suppressed: Set[int],
    best_path: Optional[Sequence[int]],
) -> Remediation:
    """``(mode, asns, providers)`` for the record's current rung.

    *providers* are the origin's, *suppressed* those other repairs
    already withhold the prefix from, *best_path* the blamed AS's
    selected path to the production prefix.  Degrades gracefully: a rung
    that cannot act on this topology (single-provider origin, no
    suppressible provider left) falls back to the plain poison rather
    than stalling the repair.
    """
    step = min(record.ladder_step, LADDER_TOP_STEP)
    strategy = LADDER_STRATEGIES[step]
    if strategy == "multi-poison":
        return (
            "poison",
            deep_poison_set(asn, graph, origin_asn, target_asn),
            (),
        )
    if strategy in ("prepend", "selective-advertise"):
        via = entry_providers(asn, origin_asn, providers, best_path)
        if strategy == "selective-advertise" and via:
            if suppressed | set(via) < set(providers):
                return ("suppress", (), via)
            # Withdrawing would darken the prefix entirely; steer
            # with prepends instead.
        if via:
            return ("prepend", (), via)
    return ("poison", (asn,), ())


def deep_poison_set(
    asn: int, graph: ASGraph, origin_asn: int, target_asn: Optional[int]
) -> Tuple[int, ...]:
    """The blamed AS plus nearby transit: a wider poison for routes
    that sneak back through the blamed AS's immediate neighborhood.

    Extra ASNs are admitted (sorted, bounded by
    :data:`MAX_EXTRA_POISONS`) only while a policy-compliant path from
    the origin to the target still exists avoiding the whole set — the
    ladder must never poison itself into unreachability."""
    chosen = [asn]
    candidates = sorted(set(graph.providers(asn)) | set(graph.peers(asn)))
    for candidate in candidates:
        if len(chosen) > MAX_EXTRA_POISONS:
            break
        if candidate in (origin_asn, target_asn) or candidate in chosen:
            continue
        trial = chosen + [candidate]
        if target_asn in reachable_set_avoiding(
            graph, origin_asn, avoid=trial
        ):
            chosen = trial
    return tuple(chosen)


def entry_providers(
    asn: int,
    origin_asn: int,
    providers: Sequence[int],
    best_path: Optional[Sequence[int]],
) -> Tuple[int, ...]:
    """The origin provider whose announcements reach the blamed AS.

    Steering (or withdrawing) that provider's announcement moves
    traffic off every path entering through it — the selective
    poisoning/advertising insight of §3.1.2, applied without
    inserting a poisonable ASN.  When the blamed AS *is* one of the
    origin's providers the answer is itself; otherwise it is the hop
    just before the origin run on the blamed AS's best path."""
    if asn in providers:
        return (asn,)
    for index, hop in enumerate(best_path or ()):
        if hop == origin_asn and index > 0:
            via = best_path[index - 1]
            if via in providers:
                return (via,)
            break
    return (providers[0],) if providers else ()


def next_rung(
    record: RepairRecord, ladder: bool, asn: Optional[int]
) -> Optional[Tuple[int, str, Tuple[Tuple[str, Dict[str, Any]], ...]]]:
    """``(step, strategy, commits)`` for the rung a rolled-back record
    climbs to (journaled write-ahead of the next attempt), None when
    the ladder is off, the breaker settled the record, or it already
    stands on the top rung."""
    if (
        not ladder
        or record.state is not RepairState.ROLLED_BACK
        or record.ladder_step >= LADDER_TOP_STEP
    ):
        return None
    step = record.ladder_step + 1
    strategy = LADDER_STRATEGIES[step]
    return step, strategy, (
        ("escalate", {"step": step, "strategy": strategy, "asn": asn}),
        _note(
            f"escalating repair of AS{asn} to fallback "
            f"'{strategy}' (ladder step {step})"
        ),
    )


# ----------------------------------------------------------------------
# After a crash: what the origin should be announcing
# ----------------------------------------------------------------------
def intended_ledger(
    records: Iterable[RepairRecord],
) -> Dict[str, Tuple[str, Tuple[int, ...]]]:
    """The origin ledger *records* imply, ``{owner: (mode, value)}``:
    the last journaled intent of every record whose poison is in flight.
    Recovery re-asserts it, which converges as a no-op when the network
    still carries it."""
    ledger = {}
    for record in records:
        if record.state not in IN_FLIGHT:
            continue
        mode, asns, providers, step = record.poison_intent or (
            "poison", (), (), 0
        )
        if mode in ("prepend", "suppress"):
            value = providers
        else:
            value = asns or (record.poisoned_asn,)
        ledger[ledger_key(record.key, step)] = (mode, value)
    return ledger
