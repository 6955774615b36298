"""The fold: one outage's repair state and the reducers that change it.

A :class:`RepairRecord` *is* the per-outage state of the controller —
the lifecycle, the isolation verdict, the ladder position, and the
bookkeeping that paces its stages (isolation charge, last repair check,
last poison intent).  It changes in exactly one way: :func:`fold`
applies one journal entry through :data:`RECORD_REDUCERS`, called by the
live loop right after the entry is journaled and by crash recovery for
every journaled entry, so both run the same state machine.  Nothing here
probes, announces or journals; what to journal is decided in
:mod:`repro.control.plan`, and :mod:`repro.control.lifeguard` does it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.control.journal import (
    OutageKey,
    key_from_json,
    outage_key,
    owner_of,
)
from repro.isolation.direction import FailureDirection
from repro.isolation.isolator import IsolationResult
from repro.measure.monitor import OutageRecord
from repro.net.addr import Address


class RepairState(enum.Enum):
    """Lifecycle of one outage under LIFEGUARD's care."""

    OBSERVED = "observed"
    ISOLATED = "isolated"
    NOT_POISONED = "not-poisoned"      # decided against (or unable)
    #: poison announced and converged; awaiting post-poison verification.
    VERIFYING = "verifying"
    POISONED = "poisoned"
    #: the poison was ineffective or harmful and has been withdrawn.
    ROLLED_BACK = "rolled-back"
    UNPOISONED = "unpoisoned"


#: The fallback escalation ladder (§ defenses): when post-poison
#: verification shows a repair did not propagate — typically because
#: defense filters dropped the poisoned announcement — the next attempt
#: escalates one rung.  Step 0 is the ordinary single-ASN poison; deeper
#: rungs trade precision (and announcement size) for deliverability,
#: ending at selective advertisement, a true withdrawal no import filter
#: can ignore.
LADDER_STRATEGIES: Tuple[str, ...] = (
    "poison",
    "multi-poison",
    "prepend",
    "selective-advertise",
)

#: The repair stage each unsettled state waits on: a record in *state*
#: is served by ``Lifeguard.stage_<name>``.  States absent from the
#: table (NOT_POISONED, UNPOISONED, the transient ISOLATED) are settled.
STAGE_FOR_STATE: Dict[RepairState, str] = {
    RepairState.OBSERVED: "isolate",
    RepairState.VERIFYING: "verify",
    RepairState.ROLLED_BACK: "retry",
    RepairState.POISONED: "check",
}

#: Every stage :func:`stage_of` can return, in the order the service
#: daemon journals a round's deadline breaches.
STAGES: Tuple[str, ...] = ("isolate", "verify", "retry", "check")

#: States whose poison is on the wire right now.
IN_FLIGHT = (RepairState.VERIFYING, RepairState.POISONED)


def stage_of(record: "RepairRecord") -> Optional[str]:
    """The one staging rule: the stage *record* waits on, None if done.

    Read by :meth:`Lifeguard.tick` and by the service daemon's backlog,
    budgets, drain test and report (all named after the stage).  Once
    the outage has healed there is no failure left to isolate and a
    withdrawn poison is not worth retrying; a poison still on the wire
    is verified and checked regardless — the monitor's pings travel the
    *poisoned* path, so its recovery says nothing about the failure.
    """
    healed = record.outage.end is not None
    if healed and record.state in (
        RepairState.OBSERVED, RepairState.ROLLED_BACK
    ):
        return None
    return STAGE_FOR_STATE.get(record.state)


#: RepairRecord fields a ``state`` entry may carry.
_STATE_FIELDS = (
    "poisoned_asn",
    "poison_time",
    "verified_time",
    "repair_detected_time",
    "unpoison_time",
    "poison_set",
    "fallback_providers",
)


@dataclass
class RepairRecord:
    """Everything that happened to one outage, and everything the
    controller remembers about it between stages."""

    outage: OutageRecord
    state: RepairState = RepairState.OBSERVED
    isolation: Optional[IsolationResult] = None
    poisoned_asn: Optional[int] = None
    poison_time: Optional[float] = None
    #: ``(poison time, seconds to converge)`` of every poison, oldest
    #: first.
    convergences: List[Tuple[float, float]] = field(default_factory=list)
    repair_detected_time: Optional[float] = None
    unpoison_time: Optional[float] = None
    #: isolation runs consumed out of the per-outage retry budget.
    isolation_attempts: int = 0
    #: when the first isolation run was charged, and when the latest
    #: verdict was journaled.
    isolation_start: Optional[float] = None
    isolated_time: Optional[float] = None
    #: ``(t, why)`` of every deferral back to OBSERVED.
    deferrals: List[Tuple[float, str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: destinations reachable immediately before the poison — the control
    #: set the post-poison verification re-probes for collateral damage.
    control_set: Tuple[str, ...] = ()
    #: when post-poison verification promoted VERIFYING -> POISONED.
    verified_time: Optional[float] = None
    #: ``(t, asn, reason, breaker failures)`` of every poison of this
    #: outage the guard withdrew.
    rollbacks: List[Tuple[float, Optional[int], Optional[str], int]] = (
        field(default_factory=list)
    )
    #: current rung on :data:`LADDER_STRATEGIES` (0: plain poison).
    ladder_step: int = 0
    #: strategy of the current rung when the ladder escalated (None while
    #: still on the plain poison).
    fallback_strategy: Optional[str] = None
    #: ``(t, step, strategy, blamed asn)`` of every ladder escalation.
    escalations: List[Tuple[float, int, str, Optional[int]]] = field(
        default_factory=list
    )
    #: ASNs carried by the current/last poison announcement.
    poison_set: Tuple[int, ...] = ()
    #: providers steered (prepend) or withheld (selective-advertise) by
    #: the current/last fallback announcement.
    fallback_providers: Tuple[int, ...] = ()
    #: isolation runs charged to the retry budget right now: a deferral
    #: that was no fault of the measurement takes its charge back, so
    #: this can trail :attr:`isolation_attempts`.
    isolation_charge: int = 0
    #: when the sentinel was last probed for repair; a record rolled
    #: back and re-poisoned schedules its checks off the latest poison.
    last_repair_check: float = float("-inf")
    #: when the first repair check ran, how many ran, and how many of
    #: those were skipped for want of a responsive router.
    first_repair_check: Optional[float] = None
    repair_checks: int = 0
    skipped_repair_checks: int = 0
    #: ``(t, reason)`` of the give-up that settled the record
    #: NOT_POISONED.
    gave_up: Optional[Tuple[float, Optional[str]]] = None
    #: the monitor's end of the outage has reached the journal.
    end_journaled: bool = False
    #: last poison intent, ``(mode, asns, providers, step)``: what
    #: recovery re-asserts for a record whose poison is in flight.
    poison_intent: Optional[
        Tuple[str, Tuple[int, ...], Tuple[int, ...], int]
    ] = None

    @property
    def convergence_seconds(self) -> Optional[float]:
        """How long the latest poison took to converge."""
        return self.convergences[-1][1] if self.convergences else None

    @property
    def key(self) -> OutageKey:
        """Stable identity of the underlying outage (survives restarts —
        unlike ``id()``, which the allocator recycles)."""
        return outage_key(
            self.outage.vp_name, self.outage.destination, self.outage.start
        )

    @property
    def pair(self) -> Tuple[str, str]:
        """Breaker identity: the monitored pair, *without* the outage start.

        A harmful poison can end the outage record (the target briefly
        recovers) and the re-broken pair then opens a fresh outage; keying
        the breaker by pair keeps those failure counts accumulating instead
        of resetting with every re-detection."""
        return (self.outage.vp_name, str(self.outage.destination))

    def fingerprint(self) -> Tuple:
        """Canonical serializable state, one value per field, compared
        byte-for-byte by the crash-recovery property tests."""
        return tuple(
            _canonical(getattr(self, spec.name)) for spec in fields(self)
        )


def ledger_key(key: OutageKey, step: int = 0) -> str:
    """The name a repair's announcement goes by in the origin's ledger
    (and the subject its events carry on the bus)."""
    vp, dst, start = key
    # Full float precision: '{:g}' keeps 6 significant digits, which
    # collides distinct outage starts in long runs (1.2096e+07 covers
    # a 30 s-spaced pair), cross-wiring two repairs' ledger entries.
    base = f"{vp}|{dst}|{start!r}"
    if step:
        # Each ladder rung owns its own ledger entry, so withdrawing
        # a multi-ASN fallback never disturbs (or depends on) the
        # original single-ASN attempt's bookkeeping.  Step 0 keeps
        # the historical key format: journals written before the
        # ladder existed replay unchanged.
        return f"{base}|step{step}"
    return base


def ledger_outage(name: str) -> Optional[OutageKey]:
    """The outage a step-0 ledger key (a bus subject) names — the inverse
    of :func:`ledger_key`; None for any other string."""
    parts = name.split("|")
    if len(parts) != 3:
        return None
    try:
        return (parts[0], parts[1], float(parts[2]))
    except ValueError:
        return None


def _canonical(value: Any) -> Any:
    if isinstance(value, OutageRecord):
        return (
            outage_key(value.vp_name, value.destination, value.start),
            value.detected,
            value.end,
        )
    if isinstance(value, IsolationResult):
        # The evidence behind a verdict dies with the process; what the
        # journal carries across a restart is the verdict.
        return (
            value.direction.value,
            value.blamed_asn,
            round(value.confidence, 9),
        )
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, list):
        return tuple(value)
    return value


def observe(
    entry: Dict[str, Any], live: Optional[OutageRecord] = None
) -> RepairRecord:
    """The record an ``observed`` entry opens.  *live* is the monitor's
    own outage (the running process adopts it, so the monitor's later
    ``end`` is seen); recovery rebuilds one from the entry."""
    if live is None:
        vp_name, destination, start = key_from_json(entry["outage"])
        live = OutageRecord(
            vp_name=vp_name,
            destination=Address(destination),
            start=start,
            detected=entry.get("detected", entry["t"]),
        )
    return RepairRecord(outage=live)


# -- reducers: (record, entry, live-only value or None) -----------------
def _on_outage_ended(record, entry, live) -> None:
    record.outage.end = entry["t"]
    record.end_journaled = True


def _on_note(record, entry, live) -> None:
    record.notes.append(entry["note"])


def _on_isolation_spend(record, entry, live) -> None:
    record.isolation_charge = entry["used"]
    if record.isolation_start is None:
        record.isolation_start = entry["t"]


def _on_isolated(record, entry, live) -> None:
    if live is None:
        live = IsolationResult(
            vp_name=record.outage.vp_name,
            destination=record.outage.destination,
            direction=FailureDirection(entry["direction"]),
            blamed_asn=entry.get("blamed_asn"),
            confidence=entry.get("confidence", 1.0),
        )
    record.isolation = live
    record.isolation_attempts = entry.get(
        "attempts", record.isolation_attempts
    )
    record.isolated_time = entry["t"]
    if record.isolation_start is None:
        record.isolation_start = entry["t"]
    record.state = RepairState.ISOLATED


def _on_isolation_discount(record, entry, live) -> None:
    if record.isolation is not None:
        record.isolation.confidence = entry["confidence"]


def _on_deferred(record, entry, live) -> None:
    # Back to OBSERVED so ongoing_outages() revisits the record on
    # a later tick (ISOLATED is never re-ticked).
    record.state = RepairState.OBSERVED
    record.deferrals.append((entry["t"], entry["why"]))


def _on_poison(record, entry, live) -> None:
    record.control_set = tuple(entry.get("control", ()))
    record.poison_intent = (
        entry.get("mode", "poison"),
        tuple(entry.get("asns", ())),
        tuple(entry.get("providers", ())),
        entry.get("step", 0),
    )


def _on_escalate(record, entry, live) -> None:
    record.ladder_step = entry["step"]
    record.fallback_strategy = entry["strategy"]
    record.escalations.append(
        (entry["t"], entry["step"], entry["strategy"], entry.get("asn"))
    )


def _on_rollback(record, entry, live) -> None:
    record.rollbacks.append(
        (entry["t"], entry.get("asn"), entry.get("reason"), entry["failures"])
    )


def _on_repair_check(record, entry, live) -> None:
    record.last_repair_check = entry["t"]
    if record.first_repair_check is None:
        record.first_repair_check = entry["t"]
    record.repair_checks += 1
    if entry.get("skipped"):
        record.skipped_repair_checks += 1


def _on_state(record, entry, live) -> None:
    for name in _STATE_FIELDS:
        if name in entry:
            value = entry[name]
            if isinstance(value, list):
                value = tuple(value)  # JSON round-trips tuples as lists
            setattr(record, name, value)
    if "convergence_seconds" in entry:
        record.convergences.append(
            (entry["poison_time"], entry["convergence_seconds"])
        )
    record.state = RepairState(entry["state"])
    if record.state is RepairState.NOT_POISONED:
        record.gave_up = (entry["t"], entry.get("reason"))
    if "poison_time" in entry:
        # Later repair-check entries overwrite this in order.
        record.last_repair_check = entry["poison_time"]


def _on_marker(record, entry, live) -> None:
    """An intent marker: written ahead of the effect, carries no state."""


#: entry kind -> reducer, for every kind whose whole effect is on the
#: record of the outage it names.  (``observed`` opens a record and
#: ``rollback`` also charges the breaker; the controller's own table
#: adds those, and the kinds that name no outage.)
RECORD_REDUCERS: Dict[
    str, Callable[[RepairRecord, Dict[str, Any], Any], None]
] = {
    "outage-ended": _on_outage_ended,
    "note": _on_note,
    "isolation-spend": _on_isolation_spend,
    "isolated": _on_isolated,
    "isolation-discount": _on_isolation_discount,
    "deferred": _on_deferred,
    "poison": _on_poison,
    "escalate": _on_escalate,
    "rollback": _on_rollback,
    "repair-check": _on_repair_check,
    "state": _on_state,
    "unpoison": _on_marker,
}


def fold(record: RepairRecord, entry: Dict[str, Any], live=None) -> None:
    """Apply one journal entry to the record of the outage it names.

    *live* is the value only the running process holds (the full
    isolation evidence) for the reducer to adopt where recovery rebuilds
    one from the entry's fields.
    """
    RECORD_REDUCERS[entry["event"]](record, entry, live)


def fold_records(entries: Iterable[Dict[str, Any]]) -> List[RepairRecord]:
    """The records *entries* build, in detection order: the record half
    of the controller's fold, for a reader with no controller (``repro
    trace`` folds the entries the controller mirrored onto the bus).

    An ``observed`` entry opens a record and a record kind folds into
    the record it names; one naming an outage never observed is passed
    over, as the controller passes it over.
    """
    records: Dict[OutageKey, RepairRecord] = {}
    for entry in entries:
        owner = owner_of(entry["event"])
        if "outage" not in entry:
            continue
        key = key_from_json(entry["outage"])
        record = records.get(key)
        if record is None:
            if entry["event"] == "observed":
                records[key] = observe(entry)
        elif owner == "record":
            fold(record, entry)
    return list(records.values())
