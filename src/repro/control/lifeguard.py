"""The top-level LIFEGUARD system: monitor -> isolate -> decide -> repair.

One :class:`Lifeguard` instance plays the role of the deployed system: it
owns the vantage points, the background atlas, the isolation engine, the
origin's announcement controller, and the sentinel.  Drive it with
:meth:`tick` every monitoring round (30 s of simulation time); it walks
each outage through the state machine

    observed -> isolated -> verifying -> poisoned -> repaired-and-unpoisoned
                                  |
                                  +-> rolled-back -> (retry | not-poisoned)

recording everything in :class:`~repro.control.record.RepairRecord`
entries that the evaluation benches read.

This module is the *shell* of three parts.  The *fold*
(:mod:`repro.control.record`) is the per-outage state and the reducers
that change it; the *policy* (:mod:`repro.control.plan`) is pure
functions deciding what to journal and whether to poison, defer, give
up or climb the fallback ladder.  Here the deployment is wired
together, and each ``stage_*`` method gathers what a plan function
reads, commits what it returns, and runs at most one effect — an
isolation, an announcement, or a probe.

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

from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.bgp.engine import BGPEngine
from repro.bgp.origin import OriginController
from repro.control import plan
from repro.control.decision import ResidualDurationModel
from repro.control.guard import PoisonBreaker, RepairGuard, VerifyVerdict
from repro.control.journal import (
    KINDS,
    OutageKey,
    RepairJournal,
    commit,
    key_from_json,
    outage_key,
    reducer_of,
)
from repro.control.plan import MAX_ISOLATION_ATTEMPTS, LifeguardConfig
from repro.control.record import (
    IN_FLIGHT,
    RECORD_REDUCERS,
    RepairRecord,
    RepairState,
    fold,
    ledger_key,
    observe,
    stage_of,
)
from repro.control.sentinel import SentinelManager
from repro.dataplane.failures import FailureSet
from repro.dataplane.fib import build_fibs
from repro.dataplane.forwarding import DataPlane
from repro.dataplane.probes import Prober
from repro.errors import ControlError, DegradedError
from repro.isolation.isolator import FailureIsolator
from repro.measure.atlas import AtlasRefresher, PathAtlas
from repro.measure.monitor import OutageRecord, PingMonitor
from repro.measure.responsiveness import ResponsivenessDB
from repro.measure.vantage import VantageSet
from repro.net.addr import Address, Prefix
from repro.splice.reachability import reachable_set_avoiding
from repro.topology.routers import RouterTopology

#: how often a poisoned record probes the sentinel for repair.
REPAIR_CHECK_INTERVAL = 600.0


class _ReachableAvoiding(dict):
    """``{blamed asn: ASes that reach the origin avoiding it}`` on one
    graph, each set walked the first time a plan function reads it (one
    ground-truth failure is blamed by every pair behind it)."""

    def __init__(self, graph, origin_asn: int) -> None:
        super().__init__()
        self.graph = graph
        self.origin_asn = origin_asn

    def __missing__(self, blamed: int) -> Set[int]:
        found = self[blamed] = reachable_set_avoiding(
            self.graph, self.origin_asn, avoid=[blamed]
        )
        return found


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
            self.prober, origin_router, self.production_prefix
        )
        self.origin = OriginController(
            engine,
            origin_asn,
            self.production_prefix,
            sentinel_prefix=self.sentinel_manager.sentinel,
            delta_mode=self.config.delta_mode,
        )
        self.journal = journal if journal is not None else RepairJournal()
        self.guard = RepairGuard(
            self.prober,
            vantage_points,
            breaker=PoisonBreaker(
                max_failures=self.config.breaker_max_failures
            ),
        )
        #: every outage's record, in detection order; a record is the
        #: whole per-outage state, and this index the only keyed view.
        self.records: List[RepairRecord] = []
        self._records_by_outage: Dict[OutageKey, RepairRecord] = {}
        self._reachable = _ReachableAvoiding(engine.graph, origin_asn)
        #: optional :class:`~repro.faults.FaultInjector`; set by attach().
        self.injector = None
        #: optional observability bus (duck-typed; see repro.obs.events).
        self.obs = None

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
        """Journal one entry (write-ahead) and apply it, then mirror it.

        *live* is the value only the running process holds (the
        monitor's outage, the full isolation evidence) for the reducer
        to adopt where recovery rebuilds one from the entry's fields.
        """
        commit(self.journal, self.apply, kind, now, key, live, **fields)
        if self.obs is not None:
            # Mirror the write-ahead journal onto the event bus: one
            # control.* event per journal entry, with the outage's ledger
            # key as the subject so the tracer can thread a repair's
            # lifecycle back together.
            self.obs.emit(
                f"control.{kind}", now, "control.lifeguard",
                subject=ledger_key(key) if key else None,
                **fields,
            )

    def apply(self, entry: Dict[str, object], live=None) -> None:
        """Fold one journal entry into controller state.

        The single writer of the records, the breaker charges and the
        pacer slots: the live loop calls it through :meth:`_commit`,
        recovery calls it on every journaled entry.
        """
        kind = entry["event"]
        reducer = reducer_of(self._REDUCERS, kind)
        if reducer is None:
            return  # the service daemon folds its own entries
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

    def _commit_all(self, record: RepairRecord, now: float, commits) -> None:
        for kind, fields in commits:
            self._commit(kind, record.key, now, **fields)

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
        if record is None:
            record = observe(entry, live)
            self._records_by_outage[record.key] = record
            self.records.append(record)

    def _on_rollback(self, entry, record, live) -> None:
        # Idempotent over the charge the live rollback just recorded.
        self.guard.breaker.restore(
            record.pair,
            entry["asn"],
            entry["failures"],
            entry["t"],
        )
        fold(record, entry, live)

    def _on_record(self, entry, record, live) -> None:
        fold(record, entry, live)

    def _on_marker(self, entry, record, live) -> None:
        """Bookkeeping markers carry no controller state."""

    #: entry kind -> reducer, for every record, controller and journal
    #: kind (:data:`~repro.control.journal.KINDS`).  Most change only
    #: the record of the outage they name.
    _REDUCERS = {
        **dict.fromkeys(RECORD_REDUCERS, _on_record),
        "announce-baseline": _on_announced,
        "announced": _on_announced,
        "pacer": _on_announced,
        "breaker": _on_breaker,
        "observed": _on_observed,
        "rollback": _on_rollback,
        "recovered": _on_marker,
        "compacted": _on_marker,
    }
    #: kinds folded without a known record (a record kind's reducer skips
    #: an entry whose outage was never observed).
    _UNSCOPED = frozenset(k for k, o in KINDS.items() if o != "record")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def begin_round(self, now: float) -> None:
        """Advance the world and take one monitoring round — no repair
        work.  The repair stages below are separate entry points so the
        service daemon can feed records through its backlog under its
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

    def _journal_ended_outages(self) -> None:
        for record in self.records:
            end = record.outage.end
            if end is not None and not record.end_journaled:
                self._commit("outage-ended", record.key, end)

    # ------------------------------------------------------------------
    # State machine: each stage gathers, asks repro.control.plan, commits
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

    def _carry_out(
        self,
        record: RepairRecord,
        now: float,
        outcome: plan.Outcome,
        charge: Optional[int] = None,
    ) -> None:
        """Do what a plan function decided; *charge* is the isolation
        charge this stage run took (None: none taken)."""
        verb, *args = outcome
        if verb == "poison":
            self._poison(record, *args, now)
        elif verb == "defer":
            why, note, refund = args
            self._defer(
                record, now, why, note, refund=charge if refund else None
            )
        elif verb == "re-isolate":
            self._set_state(record, RepairState.OBSERVED, now, *args)
        else:  # "give-up": the commits settle the record NOT_POISONED
            self._commit_all(record, now, *args)

    def _reachable_avoiding(self) -> _ReachableAvoiding:
        """The reachable-set memo plan functions read; what was
        remembered is dropped if the engine's graph is ever another."""
        if self._reachable.graph is not self.engine.graph:
            self._reachable = _ReachableAvoiding(
                self.engine.graph, self.origin_asn
            )
        return self._reachable

    def stage_isolate(self, record: RepairRecord, now: float) -> None:
        """Isolation (the effect) → poison decision for one OBSERVED
        record."""
        decision = self.decision_model.decide(now - record.outage.start)
        if not decision.poison:
            return  # re-evaluated next tick while the outage persists
        key = record.key
        vp_name = record.outage.vp_name
        if not self.vantage_points.is_up(vp_name):
            # The observing vantage point is down.  Deferral costs no
            # retry budget: nothing was attempted, and the outage itself
            # may be an artifact of the dead VP.
            self._defer(
                record, now, "vp-down",
                f"vantage point {vp_name} down: isolation deferred",
            )
            return
        # A verdict no poison may follow this round is not worth its
        # probes, so the pacer is asked first.
        paced = plan.pace(self.origin.pacer.allows(now))
        if paced is not None:
            self._carry_out(record, now, paced)
            return
        # This run's isolation charge (None: verdict reused, no charge).
        charge: Optional[int] = None
        if plan.reuses_verdict(record, self.config.fallback_ladder):
            isolation = record.isolation
        else:
            # The charge is held here until its journal entry applies it.
            charge, spent = plan.charge_isolation(
                record, MAX_ISOLATION_ATTEMPTS
            )
            if spent is not None:
                self._carry_out(record, now, spent)
                return
            try:
                isolation = self.isolator.isolate(
                    vp_name, record.outage.destination, now
                )
            except DegradedError as exc:
                # VP died between the health check and the measurement.
                self._defer(
                    record, now, "vp-died-mid-measurement",
                    f"isolation deferred: {exc}", refund=charge,
                )
                return
            self._commit("isolation-spend", key, now, used=charge)
            self._commit(
                "isolated", key, now,
                live=isolation,
                direction=isolation.direction.value,
                blamed_asn=isolation.blamed_asn,
                confidence=isolation.confidence,
                attempts=charge,
            )
            discount, rejected = plan.judge_verdict(
                isolation,
                self.origin_asn,
                self._asn_of_address(record.outage.destination),
                self._reachable_avoiding(),
            )
            if discount is not None:
                isolation.discount(*discount)
                self._commit(
                    "isolation-discount", key, now,
                    confidence=isolation.confidence,
                )
            if rejected is not None:
                self._carry_out(record, now, rejected, charge)
                return
        asn = isolation.blamed_asn
        pair = record.pair
        self._carry_out(
            record, now,
            plan.admit(
                asn,
                self.guard.breaker.state(pair, asn, now),
                self.guard.breaker.failures(pair, asn),
            ),
            charge,
        )

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
        """Announce the current rung's remediation for *asn* (the
        effect), journaled write-ahead."""
        control = self.guard.snapshot_control(
            record.outage.vp_name,
            self.targets,
            record.outage.destination,
            now,
        )
        suppressed: Set[int] = set()
        for mode, value in self.origin.active_poisons().values():
            if mode == "suppress":
                suppressed.update(value)
        route = self.engine.best_route(asn, self.production_prefix)
        mode, asns, providers = plan.remediation(
            record,
            asn,
            graph=self.engine.graph,
            origin_asn=self.origin_asn,
            target_asn=self._asn_of_address(record.outage.destination),
            providers=self.origin.providers,
            suppressed=suppressed,
            best_path=route.as_path if route is not None else None,
        )
        # Write-ahead: the intent hits the journal before the network.
        self._commit(
            "poison", record.key, now,
            asn=asn, mode=mode, control=list(control),
            step=record.ladder_step,
            asns=list(asns), providers=list(providers),
        )
        owner = ledger_key(record.key, record.ladder_step)
        if mode == "prepend":
            send, value = self.origin.steer_prepend, providers
        elif mode == "suppress":
            send, value = self.origin.suppress_providers, providers
        else:
            send, value = self.origin.poison, asns
        converged_at = self._announce(
            record.key, now, lambda: send(value, key=owner)
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

    def stage_verify(self, record: RepairRecord, now: float) -> None:
        """Post-poison verification (one probe round, the effect) for
        one VERIFYING record."""
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
        pair = record.pair
        failures = self.guard.breaker.record_failure(pair, asn, now)
        self._commit(
            "rollback", record.key, now,
            asn=asn, reason=reason, failures=failures,
        )
        owner = ledger_key(record.key, record.ladder_step)
        if owner in self.origin.active_poisons():
            self._announce(
                record.key, now, lambda: self.origin.unpoison(key=owner)
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
            self._carry_out(record, now, plan.breaker_open(asn, failures))
        # With the ineffective rung fully withdrawn (and only if the
        # breaker left the record retryable), climb the ladder: the next
        # attempt — after the breaker's backoff and re-isolation — uses
        # the escalated strategy.
        rung = plan.next_rung(record, self.config.fallback_ladder, asn)
        if rung is not None:
            step, strategy, commits = rung
            self._commit_all(record, now, commits)
            self.guard.note_fallback(
                ledger_key(record.key), step, strategy, asn, now
            )

    def stage_retry(self, record: RepairRecord, now: float) -> None:
        """Breaker-gated re-poison for one ROLLED_BACK record."""
        if stage_of(record) != "retry":
            return  # the pair recovered; ROLLED_BACK is terminal here
        asn = record.poisoned_asn
        pair = record.pair
        outcome = plan.retry(
            asn,
            self.guard.breaker.state(pair, asn, now),
            self.guard.breaker.failures(pair, asn),
        )
        if outcome is not None:
            self._carry_out(record, now, outcome)

    # ------------------------------------------------------------------
    # Repair detection / unpoison
    # ------------------------------------------------------------------
    def stage_check(self, record: RepairRecord, now: float) -> None:
        """Repair-detection probe (the effect), and the unpoison it may
        justify, for one POISONED record."""
        since_last = now - record.last_repair_check
        if since_last < REPAIR_CHECK_INTERVAL:
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
        concurrent repairs stay on the announcement.  A record with no
        ledger entry is an error (:class:`ControlError`).
        """
        self._commit("unpoison", record.key, now)
        owner = ledger_key(record.key, record.ladder_step)
        self._announce(
            record.key, now, lambda: self.origin.unpoison(key=owner)
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
        record (and the breaker and pacer bookkeeping beside them)
        exactly as the live loop built it; the origin
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
        ledger = plan.intended_ledger(self.records)
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
        return [r for r in self.records if r.state in IN_FLIGHT]
