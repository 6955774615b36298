"""The top-level LIFEGUARD system: monitor -> isolate -> decide -> repair.

One :class:`Lifeguard` instance plays the role of the deployed system: it
owns the vantage points, the background atlas, the isolation engine, the
origin's announcement controller, and the sentinel.  Drive it with
:meth:`tick` every monitoring round (30 s of simulation time); it walks
each outage through the state machine

    observed -> isolated -> verifying -> poisoned -> repaired-and-unpoisoned
                                  |
                                  +-> rolled-back -> (retry | not-poisoned)

recording everything in :class:`RepairRecord` entries that the evaluation
benches read.

With ``fallback_ladder`` enabled, a rolled-back repair does not simply
retry the same poison: each rollback climbs one rung of
:data:`LADDER_STRATEGIES` (deeper multi-ASN poison, prepend-only
steering, selective advertisement), so repairs that fail to propagate
through defense filters (see :mod:`repro.bgp.policy`) escalate toward
mechanisms no import filter can drop.

Safety machinery around the repair itself lives in
:mod:`repro.control.guard` (post-poison verification, rollback circuit
breaker) and :mod:`repro.control.journal` (the write-ahead journal).
The controller is event-sourced: the only way its state changes is
:meth:`Lifeguard.apply` folding one journal entry through the reducer
table, so the live loop (append an entry, then apply it) and
:meth:`Lifeguard.recover` (apply every journaled entry, then reconcile
in-flight poisons into the origin controller and hand ongoing outages
back to the monitor) run the same state machine — a restart resumes
repairs idempotently instead of forgetting them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.bgp.engine import BGPEngine
from repro.bgp.origin import AnnouncementPacer, OriginController
from repro.control.decision import PoisonDecision, ResidualDurationModel
from repro.control.guard import (
    BreakerState,
    RepairGuard,
    PoisonBreaker,
    VerifyVerdict,
)
from repro.control.journal import (
    SERVICE_KINDS,
    OutageKey,
    RepairJournal,
    key_from_json,
    outage_key,
)
from repro.control.sentinel import SentinelManager, SentinelStyle
from repro.dataplane.failures import FailureSet
from repro.dataplane.fib import build_fibs
from repro.dataplane.forwarding import DataPlane
from repro.dataplane.probes import Prober
from repro.errors import ControlError, DegradedError, RetryExhausted
from repro.faults.injector import RetryBudget
from repro.isolation.direction import FailureDirection
from repro.isolation.isolator import FailureIsolator, IsolationResult
from repro.measure.atlas import AtlasRefresher, PathAtlas
from repro.measure.monitor import OutageRecord, PingMonitor
from repro.measure.responsiveness import ResponsivenessDB
from repro.measure.vantage import VantageSet
from repro.net.addr import Address, Prefix
from repro.splice.reachability import reachable_set_avoiding
from repro.topology.routers import RouterTopology


class OperatingMode(enum.Enum):
    """How much of the deployment's own infrastructure is healthy."""

    NORMAL = "normal"
    #: some vantage points are down: isolation runs on thinner evidence
    #: and poisoning defers until confidence recovers.
    DEGRADED = "degraded"


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

#: States whose poison is on the wire right now.
_IN_FLIGHT = (RepairState.VERIFYING, RepairState.POISONED)


def stage_of(record: "RepairRecord") -> Optional[str]:
    """The one staging rule: the stage *record* waits on, None if done.

    Read by :meth:`Lifeguard.tick` and by the service daemon's queues,
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
    "convergence_seconds",
    "verified_time",
    "repair_detected_time",
    "unpoison_time",
    "poison_set",
    "fallback_providers",
)


@dataclass
class RepairRecord:
    """Everything that happened to one outage."""

    outage: OutageRecord
    state: RepairState = RepairState.OBSERVED
    isolation: Optional[IsolationResult] = None
    decision: Optional[PoisonDecision] = None
    poisoned_asn: Optional[int] = None
    poison_time: Optional[float] = None
    convergence_seconds: Optional[float] = None
    repair_detected_time: Optional[float] = None
    unpoison_time: Optional[float] = None
    #: isolation runs consumed out of the per-outage retry budget.
    isolation_attempts: int = 0
    notes: List[str] = field(default_factory=list)
    #: destinations reachable immediately before the poison — the control
    #: set the post-poison verification re-probes for collateral damage.
    control_set: Tuple[str, ...] = ()
    #: when post-poison verification promoted VERIFYING -> POISONED.
    verified_time: Optional[float] = None
    #: poisons of this outage withdrawn by the guard.
    rollbacks: int = 0
    #: current rung on :data:`LADDER_STRATEGIES` (0: plain poison).
    ladder_step: int = 0
    #: strategy of the current rung when the ladder escalated (None while
    #: still on the plain poison).
    fallback_strategy: Optional[str] = None
    #: how many times the ladder escalated for this outage.
    escalations: int = 0
    #: ASNs carried by the current/last poison announcement.
    poison_set: Tuple[int, ...] = ()
    #: providers steered (prepend) or withheld (selective-advertise) by
    #: the current/last fallback announcement.
    fallback_providers: Tuple[int, ...] = ()

    @property
    def key(self) -> OutageKey:
        """Stable identity of the underlying outage (survives restarts —
        unlike ``id()``, which the allocator recycles)."""
        return outage_key(
            self.outage.vp_name, self.outage.destination, self.outage.start
        )

    def fingerprint(self) -> Tuple:
        """Canonical serializable state, compared byte-for-byte by the
        crash-recovery property test."""
        isolation = None
        if self.isolation is not None:
            isolation = (
                self.isolation.direction.value,
                self.isolation.blamed_asn,
                round(self.isolation.confidence, 9),
            )
        return (
            self.key,
            self.outage.detected,
            self.outage.end,
            self.state.value,
            isolation,
            self.poisoned_asn,
            self.poison_time,
            self.convergence_seconds,
            self.verified_time,
            self.repair_detected_time,
            self.unpoison_time,
            self.rollbacks,
            self.isolation_attempts,
            tuple(self.control_set),
            tuple(self.notes),
            self.ladder_step,
            self.fallback_strategy,
            self.escalations,
            tuple(self.poison_set),
            tuple(self.fallback_providers),
        )


@dataclass
class LifeguardConfig:
    """Operating parameters of the deployment."""

    monitor_interval: float = 30.0
    #: outage age before poisoning is considered (§4.2 waits ~5 minutes).
    min_persistence: float = 300.0
    #: expected remediation cost used by the decision rule.
    remediation_time: float = 120.0
    #: how often to probe the sentinel for repair while poisoned.
    repair_check_interval: float = 600.0
    sentinel_style: SentinelStyle = SentinelStyle.LESS_SPECIFIC
    #: prepend count for the baseline announcement (O-O-O).
    prepend: int = 3
    #: remediate with the idealized AVOID_PROBLEM(X, P) primitive instead
    #: of BGP poisoning.  Requires protocol support no deployed router
    #: has (§3) — available in simulation to quantify the gap.
    use_avoid_problem: bool = False
    #: refuse to poison below this isolation confidence; the outage is
    #: re-isolated on later ticks instead (poisoning the wrong AS breaks
    #: working paths, so thin evidence defers, it does not act).
    min_confidence: float = 0.5
    #: give up on an isolation run whose serialized measurement schedule
    #: exceeds this many seconds; counts as a failed attempt.
    isolation_timeout: float = 600.0
    #: isolation runs per outage before giving up (NOT_POISONED).
    max_isolation_attempts: int = 3
    #: rollbacks of the same (pair, ASN) before the breaker opens.
    breaker_max_failures: int = 3
    #: base backoff after a rollback; doubles per subsequent failure.
    breaker_backoff: float = 600.0
    #: announcement pacing budget (flap-damping guard, §6): at most
    #: ``announce_budget`` announcements inside any ``announce_window``
    #: seconds; new poisons defer when the budget is spent (withdrawals
    #: are never blocked — safety beats pacing).
    announce_window: float = 5400.0
    announce_budget: int = 6
    #: escalate rolled-back repairs along :data:`LADDER_STRATEGIES`
    #: (deeper poison -> prepend-only steering -> selective
    #: advertisement) instead of retrying the same poison until the
    #: breaker opens.  Off by default: the ladder spends announcement
    #: budget and breaker headroom that plain deployments may not want.
    fallback_ladder: bool = False
    #: highest ladder rung the controller may climb to.
    fallback_max_step: int = 3
    #: extra origin prepends the "prepend" rung adds at the steered
    #: provider.
    fallback_prepend_extra: int = 3
    #: extra ASNs (beyond the blamed one) the "multi-poison" rung may
    #: add to cover the blamed AS's transit neighborhood.
    fallback_max_extra_poisons: int = 2
    #: incremental-convergence mode for announcements ("off"/"auto").
    #: In "auto", poisons, unpoisons and escalation rungs splice their
    #: blast radius into the analytic converged state instead of
    #: replaying the whole event engine, and FIB refreshes rebuild only
    #: the dirty ASes.
    delta_mode: str = "off"


class Lifeguard:
    """The deployed system bound to one origin AS."""

    def __init__(
        self,
        engine: BGPEngine,
        topo: RouterTopology,
        origin_asn: int,
        vantage_points: VantageSet,
        targets: Iterable[Union[str, Address]],
        duration_history: Sequence[float],
        config: Optional[LifeguardConfig] = None,
        journal: Optional[RepairJournal] = None,
    ) -> None:
        self.engine = engine
        self.topo = topo
        self.origin_asn = origin_asn
        self.config = config or LifeguardConfig()
        self.vantage_points = vantage_points
        self.targets = [Address(t) for t in targets]

        node = engine.graph.node(origin_asn)
        if not node.prefixes:
            raise ControlError(f"AS{origin_asn} originates no prefix")
        self.production_prefix: Prefix = node.prefixes[0]

        self.dataplane = DataPlane(topo, build_fibs(engine))
        # Start next-hop dirtiness tracking at the snapshot just taken.
        engine.consume_fib_dirty()
        self.prober = Prober(self.dataplane)
        self.atlas = PathAtlas()
        self.responsiveness = ResponsivenessDB()
        self.refresher = AtlasRefresher(
            self.prober, vantage_points, self.atlas, self.responsiveness
        )
        self.monitor = PingMonitor(self.prober, vantage_points, self.targets)
        self.isolator = FailureIsolator(
            self.prober, vantage_points, self.atlas, self.responsiveness
        )
        self.decision_model = ResidualDurationModel(duration_history)

        origin_router = topo.routers_of(origin_asn)[0]
        self.sentinel_manager = SentinelManager(
            self.prober,
            origin_router,
            self.production_prefix,
            style=self.config.sentinel_style,
        )
        self.origin = OriginController(
            engine,
            origin_asn,
            self.production_prefix,
            sentinel_prefix=self.sentinel_manager.sentinel,
            prepend=self.config.prepend,
            prepend_extra=self.config.fallback_prepend_extra,
            pacer=AnnouncementPacer(
                window=self.config.announce_window,
                max_announcements=self.config.announce_budget,
            ),
            delta_mode=self.config.delta_mode,
        )
        self.journal = journal if journal is not None else RepairJournal()
        self.guard = RepairGuard(
            self.prober,
            vantage_points,
            breaker=PoisonBreaker(
                max_failures=self.config.breaker_max_failures,
                backoff=self.config.breaker_backoff,
            ),
        )
        self.records: List[RepairRecord] = []
        self._records_by_outage: Dict[OutageKey, RepairRecord] = {}
        self._last_repair_check: Dict[OutageKey, float] = {}
        #: isolation runs charged to each outage's retry budget.
        self._isolation_used: Dict[OutageKey, int] = {}
        self._journaled_ends: Set[OutageKey] = set()
        #: last poison intent per outage: (mode, asns, providers, step).
        self._poison_intents: Dict[
            OutageKey, Tuple[str, Tuple[int, ...], Tuple[int, ...], int]
        ] = {}
        #: (graph, {blamed asn: ASes that reach the origin avoiding it});
        #: the sets are dropped if the engine's graph is ever another.
        self._reachable_avoiding: Tuple[Any, Dict[int, Set[int]]] = (
            engine.graph, {},
        )
        #: optional :class:`~repro.faults.FaultInjector`; set by attach().
        self.injector = None
        #: optional observability bus (duck-typed; see repro.obs.events).
        self.obs = None

    @property
    def mode(self) -> OperatingMode:
        """DEGRADED while any of our own vantage points is down."""
        if self.vantage_points.down_names():
            return OperatingMode.DEGRADED
        return OperatingMode.NORMAL

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def attach_observer(self, bus) -> None:
        """Wire an :class:`~repro.obs.events.EventBus` through every
        instrumented subsystem.

        Each component holds a duck-typed ``obs`` attribute, so none of
        them imports ``repro.obs``; this is the single place the wiring
        happens.  Call any time — before :meth:`announce` to capture the
        baseline announcements too.
        """
        self.obs = bus
        self.engine.obs = bus
        for speaker in self.engine.speakers.values():
            speaker.obs = bus
        self.prober.obs = bus
        self.monitor.obs = bus
        self.isolator.obs = bus
        self.guard.obs = bus
        self.guard.breaker.obs = bus
        self.origin.obs = bus

    def announce(self) -> None:
        """Announce the baseline (prepended) production + sentinel prefixes."""
        self._commit("announce-baseline", None, self.engine.now)
        self.origin.announce_baseline()
        self.engine.run()
        self.refresh_dataplane()

    def prime_atlas(self, now: float) -> None:
        """Populate the background path atlas for every monitored pair."""
        self.dataplane.now = now
        self.refresher.refresh_all(self.targets, now)

    def refresh_dataplane(self) -> None:
        """Re-snapshot FIBs after any control-plane change.

        Incremental: only ASes whose forwarding next hop changed since
        the last refresh are rebuilt (the engine tracks them); clean
        ASes share their FIB maps — and the interval tables compiled
        from them — with the previous snapshot.
        """
        self.dataplane.fibs = build_fibs(
            self.engine,
            previous=self.dataplane.fibs,
            dirty_asns=self.engine.consume_fib_dirty(),
        )

    # ------------------------------------------------------------------
    # The journal: commit an entry, fold it into controller state
    # ------------------------------------------------------------------
    def _commit(
        self,
        kind: str,
        key: Optional[OutageKey],
        now: float,
        live=None,
        **fields,
    ) -> None:
        """Journal one entry (write-ahead), mirror it, then apply it.

        *live* is the value only the running process holds (the
        monitor's outage, the full isolation evidence) for the reducer
        to adopt where recovery rebuilds one from the entry's fields.
        """
        if kind not in self._REDUCERS:
            raise ControlError(f"unknown journal entry kind {kind!r}")
        entry = self.journal.append(kind, now, key=key, **fields)
        if self.obs is not None:
            # Mirror the write-ahead journal onto the event bus: one
            # control.* event per journal entry, with the outage's ledger
            # key as the subject so the tracer can thread a repair's
            # lifecycle back together.
            self.obs.emit(
                f"control.{kind}", now, "control.lifeguard",
                subject=self._ledger_key(key) if key else None,
                **fields,
            )
        self.apply(entry, live)

    def apply(self, entry: Dict[str, object], live=None) -> None:
        """Fold one journal entry into controller state.

        The single writer of the records, the isolation budgets, the
        repair-check clocks, the breaker charges and the pacer slots:
        the live loop calls it through :meth:`_commit`, recovery calls
        it on every journaled entry.
        """
        kind = entry["event"]
        reducer = self._REDUCERS.get(kind)
        if reducer is None:
            if kind in SERVICE_KINDS:
                return  # the service daemon folds its own entries
            raise ControlError(f"unknown journal entry kind {kind!r}")
        record = None
        if "outage" in entry:
            record = self.record(key_from_json(entry["outage"]))
        if record is not None or kind in self._UNSCOPED:
            reducer(self, entry, record, live)

    def _set_state(
        self,
        record: RepairRecord,
        state: RepairState,
        now: float,
        reason: Optional[str] = None,
        **fields,
    ) -> None:
        self._commit(
            "state", record.key, now,
            state=state.value, reason=reason, **fields,
        )

    def _note(self, record: RepairRecord, now: float, note: str) -> None:
        self._commit("note", record.key, now, note=note)

    def _note_once(self, record: RepairRecord, note: str) -> None:
        if note not in record.notes:
            self._note(record, self.engine.now, note)

    # -- reducers: (entry, record or None, live-only value or None) -----
    def _on_announced(self, entry, record, live) -> None:
        # The only code that takes pacer slots: one at the journaled
        # time of each announcement, or the slots a compaction kept.
        for slot in entry.get("times", (entry["t"],)):
            self.origin.pacer.record(slot)

    def _on_breaker(self, entry, record, live) -> None:
        self.guard.breaker.restore(
            (entry["vp"], entry["dst"]),
            entry["asn"],
            entry["failures"],
            entry["last_failure"],
        )

    def _on_observed(self, entry, record, live) -> None:
        key = key_from_json(entry["outage"])
        if record is None:
            if live is None:
                live = OutageRecord(
                    vp_name=key[0],
                    destination=Address(key[1]),
                    start=key[2],
                    detected=entry.get("detected", entry["t"]),
                )
            record = RepairRecord(outage=live)
            self._records_by_outage[key] = record
            self.records.append(record)

    def _on_outage_ended(self, entry, record, live) -> None:
        record.outage.end = entry["t"]
        self._journaled_ends.add(record.key)

    def _on_note(self, entry, record, live) -> None:
        record.notes.append(entry["note"])

    def _on_isolation_spend(self, entry, record, live) -> None:
        self._isolation_used[record.key] = entry["used"]

    def _on_isolated(self, entry, record, live) -> None:
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
        record.state = RepairState.ISOLATED

    def _on_isolation_discount(self, entry, record, live) -> None:
        if record.isolation is not None:
            record.isolation.confidence = entry["confidence"]

    def _on_deferred(self, entry, record, live) -> None:
        # Back to OBSERVED so ongoing_outages() revisits the record on
        # a later tick (ISOLATED is never re-ticked).
        record.state = RepairState.OBSERVED

    def _on_poison(self, entry, record, live) -> None:
        record.control_set = tuple(entry.get("control", ()))
        self._poison_intents[record.key] = (
            entry.get("mode", "poison"),
            tuple(entry.get("asns", ())),
            tuple(entry.get("providers", ())),
            entry.get("step", 0),
        )

    def _on_escalate(self, entry, record, live) -> None:
        record.ladder_step = entry["step"]
        record.fallback_strategy = entry["strategy"]
        record.escalations += 1

    def _on_rollback(self, entry, record, live) -> None:
        # Idempotent over the charge the live rollback just recorded.
        self.guard.breaker.restore(
            self._pair_key(record),
            entry["asn"],
            entry["failures"],
            entry["t"],
        )
        record.rollbacks += 1

    def _on_repair_check(self, entry, record, live) -> None:
        self._last_repair_check[record.key] = entry["t"]

    def _on_state(self, entry, record, live) -> None:
        for name in _STATE_FIELDS:
            if name in entry:
                value = entry[name]
                if isinstance(value, list):
                    value = tuple(value)  # JSON round-trips tuples as lists
                setattr(record, name, value)
        record.state = RepairState(entry["state"])
        if "poison_time" in entry:
            # A record rolled back and re-poisoned schedules its repair
            # checks off the *latest* poison; later repair-check entries
            # overwrite this in order.
            self._last_repair_check[record.key] = entry["poison_time"]

    def _on_marker(self, entry, record, live) -> None:
        """Intent and bookkeeping markers carry no controller state."""

    #: entry kind -> reducer.  Every kind the controller journals is
    #: here; committing or loading any other kind is an error.
    _REDUCERS = {
        "announce-baseline": _on_announced,
        "announced": _on_announced,
        "pacer": _on_announced,
        "breaker": _on_breaker,
        "observed": _on_observed,
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
        "recovered": _on_marker,
        "compacted": _on_marker,
    }
    #: kinds folded without a known record (every other reducer skips an
    #: entry whose outage was never observed).
    _UNSCOPED = frozenset(
        ("announce-baseline", "announced", "pacer", "breaker", "observed",
         "recovered", "compacted")
    )

    @staticmethod
    def _ledger_key(key: OutageKey, step: int = 0) -> str:
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

    @staticmethod
    def _pair_key(record: RepairRecord) -> Tuple[str, str]:
        """Breaker identity: the monitored pair, *without* the outage start.

        A harmful poison can end the outage record (the target briefly
        recovers) and the re-broken pair then opens a fresh outage; keying
        the breaker by pair keeps those failure counts accumulating instead
        of resetting with every re-detection."""
        return (record.outage.vp_name, str(record.outage.destination))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def begin_round(self, now: float) -> None:
        """Advance the world and take one monitoring round — no repair
        work.  The repair stages below are separate entry points so the
        service daemon can feed records through bounded queues with its
        own budgets; :meth:`tick` composes them inline for one-shot runs.
        """
        if self.engine.now < now:
            self.engine.advance_to(now)
        self.dataplane.now = now
        if self.injector is not None:
            applied = self.injector.apply(self, now)
            if applied.bgp_changed:
                # A session reset queued withdrawals and a re-advertisement
                # burst; converge and re-snapshot before measuring.
                self.engine.run()
                self.refresh_dataplane()
        self.monitor.run_round(now)
        self._journal_ended_outages()

    def observed_records(self) -> List[RepairRecord]:
        """Ongoing-outage records awaiting isolation, in detection order."""
        waiting = []
        for outage in self.monitor.ongoing_outages():
            record = self._record_for(outage)
            if record.state is RepairState.OBSERVED:
                waiting.append(record)
        return waiting

    def run_stage(self, record: RepairRecord, now: float) -> None:
        """Run the stage *record*'s state waits on (none once settled).

        The method is looked up by name on every call, so a wrapper
        installed on the class (the benchmark's span tracer) is seen.
        """
        stage = stage_of(record)
        if stage is not None:
            getattr(self, f"stage_{stage}")(record, now)

    def tick(self, now: float) -> None:
        """One monitoring round plus any due control actions."""
        self.begin_round(now)
        for record in self.observed_records():
            self.run_stage(record, now)
        # Verification, repair checks and rollback retries follow the
        # record, not the monitor's list of ongoing outages.
        for record in self.records:
            if record.state is not RepairState.OBSERVED:
                self.run_stage(record, now)

    def run(self, start: float, end: float) -> None:
        """Tick from *start* to *end* at the monitor interval."""
        now = start
        while now <= end:
            self.tick(now)
            now += self.config.monitor_interval

    def _journal_ended_outages(self) -> None:
        for record in self.records:
            end = record.outage.end
            if end is None:
                continue
            key = record.key
            if key not in self._journaled_ends:
                self._commit("outage-ended", key, end)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _record_for(self, outage: OutageRecord) -> RepairRecord:
        key = outage_key(outage.vp_name, outage.destination, outage.start)
        if key not in self._records_by_outage:
            self._commit(
                "observed", key, outage.detected,
                live=outage, detected=outage.detected,
            )
        return self._records_by_outage[key]

    def _defer(
        self,
        record: RepairRecord,
        now: float,
        why: str,
        note: str,
        refund: Optional[int] = None,
    ) -> None:
        """Leave *record* OBSERVED for a later tick.  *refund* is the
        isolation charge to take back when the deferral is no fault of
        the measurement (nothing was learned that a retry would not
        learn again)."""
        if refund is not None:
            self._commit(
                "isolation-spend", record.key, now, used=refund - 1
            )
        self._commit("deferred", record.key, now, why=why)
        self._note_once(record, note)

    def stage_isolate(self, record: RepairRecord, now: float) -> None:
        """Isolation → poison decision for one OBSERVED record."""
        elapsed = now - record.outage.start
        decision = self.decision_model.decide(
            elapsed,
            remediation_time=self.config.remediation_time,
            min_elapsed=self.config.min_persistence,
        )
        record.decision = decision
        if not decision.poison:
            return  # re-evaluated next tick while the outage persists
        key = record.key
        vp_name = record.outage.vp_name
        target = str(record.outage.destination)
        if not self.vantage_points.is_up(vp_name):
            # The observing vantage point is down.  Deferral costs no
            # retry budget: nothing was attempted, and the outage itself
            # may be an artifact of the dead VP.
            self._defer(
                record, now, "vp-down",
                f"vantage point {vp_name} down: isolation deferred",
            )
            return
        # Escalated ladder rungs reuse the isolation verdict that blamed
        # the AS in the first place: the outage has not moved, a fresh
        # isolation run would spend the retry budget the deeper rungs
        # need, and the verdict is already journaled.
        reuse_isolation = (
            self.config.fallback_ladder
            and record.ladder_step > 0
            and record.isolation is not None
            and record.isolation.blamed_asn is not None
        )
        # This run's isolation charge (None: verdict reused, no charge).
        used: Optional[int] = None
        if reuse_isolation:
            isolation = record.isolation
            record.state = RepairState.ISOLATED
        else:
            # The charge is held here until its journal entry applies it.
            trial = RetryBudget(
                self.config.max_isolation_attempts,
                self._isolation_used.get(key, 0),
            )
            try:
                trial.spend("isolation", vp=vp_name, target=target)
            except RetryExhausted as exc:
                self._set_state(
                    record, RepairState.NOT_POISONED, now, reason=str(exc)
                )
                self._note(record, now, f"not poisoning: {exc}")
                return
            used = trial.used
            try:
                isolation = self.isolator.isolate(
                    vp_name, record.outage.destination, now
                )
            except DegradedError as exc:
                # VP died between the health check and the measurement.
                self._defer(
                    record, now, "vp-died-mid-measurement",
                    f"isolation deferred: {exc}", refund=used,
                )
                return
            self._commit("isolation-spend", key, now, used=used)
            self._commit(
                "isolated", key, now,
                live=isolation,
                direction=isolation.direction.value,
                blamed_asn=isolation.blamed_asn,
                confidence=isolation.confidence,
                attempts=used,
            )
            if isolation.elapsed_seconds > self.config.isolation_timeout:
                isolation.discount(
                    0.5,
                    f"isolation ran {isolation.elapsed_seconds:.0f}s, past "
                    f"the {self.config.isolation_timeout:.0f}s timeout",
                )
                self._commit(
                    "isolation-discount", key, now,
                    confidence=isolation.confidence,
                )
            if isolation.confidence < self.config.min_confidence:
                # DEGRADED path: re-isolate on a later tick — transiently
                # injected faults (lost probes, a crashed helper) may
                # have cleared by then.
                self._defer(
                    record, now, "low-confidence",
                    f"degraded isolation (confidence "
                    f"{isolation.confidence:.2f} < "
                    f"{self.config.min_confidence:.2f}): deferring "
                    f"poisoning",
                )
                return
            if isolation.blamed_asn is None:
                self._set_state(
                    record, RepairState.NOT_POISONED, now,
                    reason="isolation produced no suspect AS",
                )
                self._note(record, now, "isolation produced no suspect AS")
                return
            if not self._poisonable(isolation, record, now):
                self._set_state(record, RepairState.NOT_POISONED, now)
                return
        asn = isolation.blamed_asn
        breaker_state = self.guard.breaker.state(
            self._pair_key(record), asn, now
        )
        if breaker_state is BreakerState.OPEN:
            self._breaker_open(record, asn, now)
        elif breaker_state is BreakerState.BACKOFF:
            self._defer(
                record, now, "breaker-backoff",
                f"rollback backoff for AS{asn} pending: "
                f"poisoning deferred",
                refund=used,
            )
        elif not self.origin.pacer.allows(now):
            # Flap-damping guard (§6): adding another announcement now
            # risks walking the prefix into damping penalty at a
            # suppressing neighbor.  Withdrawals stay exempt.
            self._defer(
                record, now, "pacing",
                "announcement budget exhausted: poisoning deferred "
                "(flap-damping guard)",
                refund=used,
            )
        else:
            self._poison(record, asn, now)

    def _breaker_open(
        self, record: RepairRecord, asn: int, now: float
    ) -> None:
        """The breaker has given up on poisoning *asn* for this pair."""
        failures = self.guard.breaker.failures(self._pair_key(record), asn)
        reason = (
            f"circuit breaker open after {failures} ineffective "
            f"poisons of AS{asn}"
        )
        self._set_state(record, RepairState.NOT_POISONED, now, reason=reason)
        self._note(record, now, f"not poisoning: {reason}")

    def _poisonable(
        self, isolation: IsolationResult, record: RepairRecord, now: float
    ) -> bool:
        blamed = isolation.blamed_asn
        target_asn = self._asn_of_address(record.outage.destination)
        if blamed in (self.origin_asn, target_asn):
            self._note(
                record, now,
                f"failure inside edge AS{blamed}: local repair, "
                f"not poisoning",
            )
            return False
        graph, reachable = self._reachable_avoiding
        if graph is not self.engine.graph:
            graph, reachable = self.engine.graph, {}
            self._reachable_avoiding = graph, reachable
        if blamed not in reachable:
            reachable[blamed] = reachable_set_avoiding(
                graph, self.origin_asn, avoid=[blamed]
            )
        if target_asn not in reachable[blamed]:
            self._note(
                record, now,
                f"no policy-compliant path avoiding AS{blamed}: "
                f"not poisoning",
            )
            return False
        return True

    # ------------------------------------------------------------------
    # Poison / verify / rollback
    # ------------------------------------------------------------------
    def _announce(self, key: Optional[OutageKey], now: float, change) -> float:
        """The one door a changed announcement leaves by.

        *change* applies an intent to the origin controller and says
        whether anything went out (a redundant same-union poison is a
        no-op on the wire); ``announced`` is journaled iff it did — the
        pacer counts effects, not intents.  Returns the convergence time.
        """
        if change():
            self._commit("announced", key, now)
        converged_at = self.engine.run()
        self.refresh_dataplane()
        return converged_at

    def _poison(self, record: RepairRecord, asn: int, now: float) -> None:
        control = self.guard.snapshot_control(
            record.outage.vp_name,
            self.targets,
            record.outage.destination,
            now,
        )
        if self.config.use_avoid_problem:
            mode, asns, providers = "avoid", (asn,), ()
        else:
            mode, asns, providers = self._fallback_plan(record, asn)
        # Write-ahead: the intent hits the journal before the network.
        self._commit(
            "poison", record.key, now,
            asn=asn, mode=mode, control=list(control),
            step=record.ladder_step,
            asns=list(asns), providers=list(providers),
        )
        ledger_key = self._ledger_key(record.key, record.ladder_step)
        if mode == "avoid":
            send, value = self.origin.avoid_problem, asns
        elif mode == "prepend":
            send, value = self.origin.steer_prepend, providers
        elif mode == "suppress":
            send, value = self.origin.suppress_providers, providers
        else:
            send, value = self.origin.poison, asns
        converged_at = self._announce(
            record.key, now, lambda: send(value, key=ledger_key)
        )
        convergence = max(0.0, converged_at - now)
        if self.obs is not None:
            self.obs.observe("repair.convergence_seconds", convergence)
        self._set_state(
            record, RepairState.VERIFYING, now,
            poisoned_asn=asn,
            poison_time=now,
            convergence_seconds=convergence,
            poison_set=tuple(asns),
            fallback_providers=tuple(providers),
        )

    # ------------------------------------------------------------------
    # Fallback escalation ladder
    # ------------------------------------------------------------------
    def _fallback_plan(
        self, record: RepairRecord, asn: int
    ) -> Tuple[str, Tuple[int, ...], Tuple[int, ...]]:
        """``(mode, asns, providers)`` for the record's current rung.

        Degrades gracefully: a rung that cannot act on this topology
        (single-provider origin, no suppressible provider left) falls
        back to the plain poison rather than stalling the repair.
        """
        step = record.ladder_step
        strategy = LADDER_STRATEGIES[min(step, len(LADDER_STRATEGIES) - 1)]
        if strategy == "multi-poison":
            return ("poison", self._deep_poison_set(record, asn), ())
        if strategy in ("prepend", "selective-advertise"):
            providers = self._entry_providers(asn)
            if strategy == "selective-advertise" and providers:
                suppressed = set()
                for mode, value in self.origin.active_poisons().values():
                    if mode == "suppress":
                        suppressed.update(value)
                keep = suppressed | set(providers)
                if keep < set(self.origin.providers):
                    return ("suppress", (), providers)
                # Withdrawing would darken the prefix entirely; steer
                # with prepends instead.
            if providers:
                return ("prepend", (), providers)
        return ("poison", (asn,), ())

    def _deep_poison_set(
        self, record: RepairRecord, asn: int
    ) -> Tuple[int, ...]:
        """The blamed AS plus nearby transit: a wider poison for routes
        that sneak back through the blamed AS's immediate neighborhood.

        Extra ASNs are admitted (sorted, bounded by
        ``fallback_max_extra_poisons``) only while a policy-compliant
        path from the origin to the target still exists avoiding the
        whole set — the ladder must never poison itself into
        unreachability."""
        graph = self.engine.graph
        target_asn = self._asn_of_address(record.outage.destination)
        chosen: List[int] = [asn]
        candidates = sorted(
            set(graph.providers(asn)) | set(graph.peers(asn))
        )
        for candidate in candidates:
            if len(chosen) > self.config.fallback_max_extra_poisons:
                break
            if candidate in (self.origin_asn, target_asn) or (
                candidate in chosen
            ):
                continue
            trial = chosen + [candidate]
            reachable = reachable_set_avoiding(
                graph, self.origin_asn, avoid=trial
            )
            if target_asn in reachable:
                chosen = trial
        return tuple(chosen)

    def _entry_providers(self, asn: int) -> Tuple[int, ...]:
        """The origin provider whose announcements reach the blamed AS.

        Steering (or withdrawing) that provider's announcement moves
        traffic off every path entering through it — the selective
        poisoning/advertising insight of §3.1.2, applied without
        inserting a poisonable ASN.  When the blamed AS *is* one of the
        origin's providers the answer is itself; otherwise it is the hop
        just before the origin run on the blamed AS's best path."""
        providers = self.origin.providers
        if asn in providers:
            return (asn,)
        route = self.engine.best_route(asn, self.production_prefix)
        if route is not None:
            path = route.as_path
            for index, hop in enumerate(path):
                if hop == self.origin_asn and index > 0:
                    via = path[index - 1]
                    if via in providers:
                        return (via,)
                    break
        return (providers[0],) if providers else ()

    def _maybe_escalate(
        self, record: RepairRecord, asn: Optional[int], now: float
    ) -> None:
        """Climb one ladder rung after a rollback (write-ahead journaled)."""
        top = min(self.config.fallback_max_step, len(LADDER_STRATEGIES) - 1)
        if (
            not self.config.fallback_ladder
            or record.state is not RepairState.ROLLED_BACK
            or record.ladder_step >= top
        ):
            return
        next_step = record.ladder_step + 1
        strategy = LADDER_STRATEGIES[next_step]
        self._commit(
            "escalate", record.key, now,
            step=next_step, strategy=strategy, asn=asn,
        )
        self._note(
            record, now,
            f"escalating repair of AS{asn} to fallback "
            f"'{strategy}' (ladder step {next_step})",
        )
        self.guard.note_fallback(
            self._ledger_key(record.key), next_step, strategy, asn, now
        )

    def stage_verify(self, record: RepairRecord, now: float) -> None:
        """Post-poison verification for one VERIFYING record."""
        if record.poison_time is None or now <= record.poison_time:
            return  # converged this very tick; verify on the next one
        outcome = self.guard.verify(
            record.outage.vp_name,
            record.outage.destination,
            record.control_set,
            now,
        )
        if outcome.verdict is VerifyVerdict.DEFERRED:
            self._note_once(
                record,
                "verification deferred: observing vantage point down",
            )
            return
        if outcome.rollback_needed:
            self._rollback(record, now, outcome.describe())
            return
        self._set_state(
            record, RepairState.POISONED, now, verified_time=now
        )
        self._note(
            record, now,
            f"poison of AS{record.poisoned_asn} verified: destination "
            f"reachable, {len(record.control_set)} control destinations "
            f"intact",
        )

    def _rollback(
        self, record: RepairRecord, now: float, reason: str
    ) -> None:
        """Withdraw a poison that verification judged ineffective/harmful."""
        asn = record.poisoned_asn
        pair = self._pair_key(record)
        failures = self.guard.breaker.record_failure(pair, asn, now)
        self._commit(
            "rollback", record.key, now,
            asn=asn, reason=reason, failures=failures,
        )
        ledger_key = self._ledger_key(record.key, record.ladder_step)
        if ledger_key in self.origin.active_poisons():
            self._announce(
                record.key, now,
                lambda: self.origin.unpoison(key=ledger_key),
            )
        self._set_state(
            record, RepairState.ROLLED_BACK, now, reason=reason
        )
        self._note(
            record, now,
            f"rolled back poison of AS{asn}: {reason} "
            f"(failure {failures}/{self.config.breaker_max_failures})",
        )
        if failures >= self.config.breaker_max_failures:
            self._breaker_open(record, asn, now)
        # With the ineffective rung fully withdrawn (and only if the
        # breaker left the record retryable), climb the ladder: the next
        # attempt — after the breaker's backoff and re-isolation — uses
        # the escalated strategy.
        self._maybe_escalate(record, asn, now)

    def stage_retry(self, record: RepairRecord, now: float) -> None:
        """Breaker-gated re-poison for one ROLLED_BACK record."""
        if stage_of(record) != "retry":
            return  # the pair recovered; ROLLED_BACK is terminal here
        asn = record.poisoned_asn
        state = self.guard.breaker.state(self._pair_key(record), asn, now)
        if state is BreakerState.OPEN:
            self._breaker_open(record, asn, now)
        elif state is BreakerState.CLOSED:
            self._set_state(
                record, RepairState.OBSERVED, now,
                reason="rollback backoff elapsed: re-isolating",
            )

    # ------------------------------------------------------------------
    # Repair detection / unpoison
    # ------------------------------------------------------------------
    def stage_check(self, record: RepairRecord, now: float) -> None:
        """Repair-detection probe (and unpoison) for one POISONED record."""
        if not self.sentinel_manager.can_detect_repair:
            return
        last = self._last_repair_check.get(record.key, float("-inf"))
        if now - last < self.config.repair_check_interval:
            return
        test_destinations = [
            self.topo.router(rid).address
            for rid in self.topo.routers_of(record.poisoned_asn)
            if self.topo.router(rid).responds_to_ping
        ]
        if not test_destinations:
            # No responsive router in the poisoned AS: a zero-probe check
            # would "detect" repair out of thin air.  Skip, note it, and
            # keep the poison until evidence exists.
            self._commit("repair-check", record.key, now, skipped=True)
            self._note_once(
                record,
                f"no responsive routers in AS{record.poisoned_asn}: "
                f"repair check skipped",
            )
            return
        self._commit("repair-check", record.key, now)
        check = self.sentinel_manager.check_repair(test_destinations, now)
        if check.repaired:
            self.unpoison(record, now, repair_detected_time=now)

    def unpoison(
        self,
        record: RepairRecord,
        now: float,
        repair_detected_time: Optional[float] = None,
    ) -> None:
        """Withdraw the poison and return to the baseline announcement.

        Only this record's ledger entry is withdrawn; poisons owned by
        concurrent repairs stay on the announcement.
        """
        self._commit("unpoison", record.key, now)
        ledger_key = self._ledger_key(record.key, record.ladder_step)
        if ledger_key not in self.origin.active_poisons():
            ledger_key = None  # legacy/externally-applied: full reset
        self._announce(
            record.key, now, lambda: self.origin.unpoison(key=ledger_key)
        )
        self._set_state(
            record, RepairState.UNPOISONED, now,
            unpoison_time=now,
            repair_detected_time=repair_detected_time,
        )

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        journal: RepairJournal,
        *,
        engine: BGPEngine,
        topo: RouterTopology,
        origin_asn: int,
        vantage_points: VantageSet,
        targets: Iterable[Union[str, Address]],
        duration_history: Sequence[float],
        config: Optional[LifeguardConfig] = None,
        now: float = 0.0,
        reprime_atlas: bool = True,
        failures: Optional[FailureSet] = None,
    ) -> "Lifeguard":
        """Rebuild a controller that died, from its write-ahead journal.

        The *engine*, *topo*, *vantage_points* — and *failures*, the
        ground-truth data-plane failure set — are the surviving world: a
        controller crash does not withdraw announcements, restart routers,
        or repair the failures it was trying to route around.
        Folding the journal through :meth:`apply` reconstructs every
        record (and the breaker, pacer, isolation-budget and repair-check
        bookkeeping behind it) exactly as the live loop built it; the origin
        controller is then reconciled so its intended announcement state —
        the union of in-flight poisons — is re-asserted, which converges
        as a no-op when the network still carries it.  Ongoing outages are
        re-adopted by the monitor so their records resume instead of being
        re-detected as fresh outages.
        """
        lifeguard = cls(
            engine=engine,
            topo=topo,
            origin_asn=origin_asn,
            vantage_points=vantage_points,
            targets=targets,
            duration_history=duration_history,
            config=config,
            journal=journal,
        )
        if failures is not None:
            lifeguard.dataplane.failures = failures
        lifeguard.dataplane.now = now
        lifeguard._replay(journal, now)
        if reprime_atlas:
            # The atlas died with the old process; re-measure the
            # background paths (over the *current*, possibly-poisoned
            # routing — exactly what a restarted deployment would see).
            lifeguard.prime_atlas(now)
        return lifeguard

    def _replay(self, journal: RepairJournal, now: float) -> None:
        for entry in journal:
            self.apply(entry)
        # Reconcile origin intent: re-assert the union of in-flight
        # poisons (no-op convergence when the network already has them).
        ledger = {}
        for record in self.in_flight_records():
            key = record.key
            mode, asns, providers, step = self._poison_intents.get(
                key, ("poison", (), (), 0)
            )
            if mode in ("prepend", "suppress"):
                value = providers
            else:
                value = asns or (record.poisoned_asn,)
            ledger[self._ledger_key(key, step)] = (mode, value)
        # The reconcile re-announcement takes a pacer slot like any
        # other (and so survives a second crash too).
        self._announce(
            None, self.engine.now, lambda: self.origin.restore(ledger)
        )
        # Ongoing outages survive the controller, not the other way round:
        # hand them back to the monitor so detection state resumes.
        adopted = 0
        for record in self.records:
            if record.outage.end is None:
                self.monitor.adopt_outage(record.outage)
                adopted += 1
        self._commit(
            "recovered", None, now,
            records=len(self.records),
            active_poisons=len(ledger),
            adopted_outages=adopted,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _asn_of_address(self, address: Address) -> Optional[int]:
        router = self.topo.router_by_address(address)
        if router is not None:
            return router.asn
        return self.dataplane.fibs.origin_for(address)

    def record(self, key: OutageKey) -> Optional[RepairRecord]:
        """The record of the outage identified by *key*, if observed."""
        return self._records_by_outage.get(key)

    def in_flight_records(self) -> List[RepairRecord]:
        """Records whose poison is on the wire right now."""
        return [r for r in self.records if r.state in _IN_FLIGHT]

    def poisoned_records(self) -> List[RepairRecord]:
        """Records that reached the POISONED (or later) state."""
        reached = _IN_FLIGHT + (RepairState.UNPOISONED,)
        return [r for r in self.records if r.state in reached]
