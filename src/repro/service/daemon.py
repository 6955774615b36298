"""Lifeguard-as-a-service: the continuous-operation repair daemon.

:class:`LifeguardService` turns the one-shot experiment harness into the
system the paper actually describes (§5.3 sizes update load against
*continuous* operation over thousands of monitored prefixes): a
deterministic long-running daemon that streams ground-truth outages from
the calibrated arrival process in :mod:`repro.workloads.outages` into a
:class:`~repro.control.lifeguard.Lifeguard`, routing every repair through
bounded per-stage queues with explicit backpressure, watermark-driven
admission control, per-stage deadlines with retry-and-requeue, and a
four-tier graceful-degradation ladder (see :mod:`repro.service.admission`).

Everything the service decides is journaled through the controller's
write-ahead journal (``service-plan``, ``service-arrival``,
``service-tier``, ``service-shed``, ``service-defer``,
``service-timeout``, ``traffic-plan``, ``traffic-sample`` entries) and
applied through one reducer table, live and on restore alike, so a
crashed daemon recovers — records, queues, arrival cursor, degradation
tier and impact ledger — byte-identically, which the sustained-load
determinism property test pins via the event-bus SHA-256 digest.

The simulation clock is the only clock: one :meth:`run_round` per
monitor interval, every decision a pure function of simulation state, so
a run is reproducible across hosts, workers, and crash/recover cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.control.journal import OutageKey, RepairJournal
from repro.control.lifeguard import (
    Lifeguard,
    RepairRecord,
    RepairState,
    stage_of,
)
from repro.errors import ControlError
from repro.service.admission import (
    AdmissionController,
    OverloadSignals,
    ServiceTier,
    Watermarks,
)
from repro.service.queues import Stage, StageQueue
from repro.traffic.impact import ImpactLedger
from repro.traffic.matrix import TrafficConfig, build_traffic_matrix
from repro.workloads.outages import (
    OutageArrivalConfig,
    ScheduledOutage,
    generate_outage_schedule,
)
from repro.workloads.scenarios import DeploymentScenario

#: Default streaming workload: Poisson arrivals, one outage per ten
#: minutes on average, durations sampled from the paper's Fig. 1 mixture.
DEFAULT_ARRIVALS = OutageArrivalConfig(first_arrival=1000.0, rate=1 / 600.0)

#: Histogram bounds for time-to-repair (sim seconds).
TTR_BUCKETS: Tuple[float, ...] = (
    300.0, 600.0, 900.0, 1200.0, 1800.0, 2700.0, 3600.0, 7200.0, 14400.0
)


@dataclass
class ServiceConfig:
    """Operating parameters of the daemon."""

    #: sim seconds of arrival workload (drain may run past this).
    duration: float = 43200.0
    arrivals: OutageArrivalConfig = field(
        default_factory=lambda: DEFAULT_ARRIVALS
    )
    #: explicit arrival count; None derives it from duration x rate.
    num_outages: Optional[int] = None
    #: seed for the arrival schedule (and recovery duration history).
    seed: int = 0
    #: per-stage queue bound — the backpressure point.
    queue_capacity: int = 256
    #: per-round work budgets per stage.
    isolate_budget: int = 8
    verify_budget: int = 32
    retry_budget: int = 8
    check_budget: int = 32
    #: max sim seconds an item may wait in one stage queue before its
    #: journaled timeout-and-requeue.
    stage_deadline: float = 1800.0
    watermarks: Watermarks = field(default_factory=Watermarks)
    #: extra sim seconds granted after the last arrival to drain
    #: in-flight repairs before shutdown.
    drain: float = 21600.0
    #: crash the controller at this sim time (tests / chaos CI) ...
    crash_at: Optional[float] = None
    #: ... and recover it from the journal after this long down.
    crash_downtime: float = 300.0
    #: gravity-model traffic knobs (users, fan-out); None = defaults.
    traffic: Optional[TrafficConfig] = None


@dataclass
class ServiceReport:
    """What one service run did, for the CLI table and the bench."""

    duration: float
    rounds: int
    monitored_pairs: int
    arrivals: int
    records: int
    repaired: int
    completed: int
    settled: int
    pending: int
    abandoned: int
    shed: int
    deferred: int
    timeouts: int
    backpressure: int
    crashes: int
    tier_transitions: int
    final_tier: str
    ttr_p50: Optional[float]
    ttr_p95: Optional[float]
    ttr_p99: Optional[float]
    queue_peaks: Dict[str, int]
    journal_entries: int
    journal_rotations: int
    drained: bool
    #: gravity-model users behind the deployment — the SLO denominator.
    users_total: int = 0
    #: users behind an unrepaired outage at run end (should be 0).
    users_affected: int = 0
    #: most users simultaneously stranded at any round.
    peak_users_affected: int = 0
    #: integrated user impact over the whole run (minutes).
    affected_user_minutes: float = 0.0
    digest: Optional[str] = None
    #: forwarding walks served from / added to the data plane's memo:
    #: how the run was computed, not what it did — not compared, not
    #: serialized (a recovered controller starts a fresh memo).
    walk_hits: int = field(default=0, compare=False)
    walk_misses: int = field(default=0, compare=False)

    def as_dict(self) -> Dict[str, object]:
        blob = {
            f.name: getattr(self, f.name) for f in fields(self) if f.compare
        }
        blob["queue_peaks"] = dict(sorted(self.queue_peaks.items()))
        blob["affected_user_minutes"] = round(self.affected_user_minutes, 6)
        return blob


def _localized_first(scenario: DeploymentScenario):
    """Sort key for the service's ground-truth plan: edge before core.

    Of a target's avoidable on-path transit ASes the plan fails the
    lowest-degree one: failing a well-connected core AS toward the
    sentinel would black-hole most of the monitored population at once
    (and overlapping core failures are unrepairable by single-AS
    poisoning), whereas the paper's partial outages are localized near
    the edge.  The origin's direct providers rank last the same way —
    every monitored path crosses one, so failing a provider is a mass
    outage — but remain the fallback on topologies (e.g. tiny) where
    the whole path is origin, providers and the target itself.
    """
    providers = set(scenario.graph.providers(scenario.origin_asn))
    degree = scenario.graph.degree
    return lambda asn: (asn in providers, degree(asn), asn)


def _percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of *values* (not assumed sorted)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


class LifeguardService:
    """The daemon: drives one deployment over a streaming workload."""

    def __init__(
        self,
        scenario: DeploymentScenario,
        config: Optional[ServiceConfig] = None,
        obs=None,
        injector=None,
    ) -> None:
        self.scenario = scenario
        self.config = config or ServiceConfig()
        self.obs = obs
        self.injector = injector
        self.admission = AdmissionController(self.config.watermarks)
        self.queues: Dict[Stage, StageQueue] = {
            stage: StageQueue(
                stage,
                self.config.queue_capacity,
                self.config.stage_deadline,
            )
            for stage in Stage
        }
        self.schedule: List[ScheduledOutage] = self._build_schedule()
        #: (target_str, true_asn) per poisonable target; journaled.
        self.plan: List[Tuple[str, int]] = []
        self.cursor = 0
        self.rounds = 0
        self.crashes = 0
        self.shed = 0
        self.deferred = 0
        self.backpressure = 0
        #: RouteChanges dropped from ``engine.change_log``: nothing in the
        #: control loop reads the log, so a daemon keeps one round of it.
        self.changes_dropped = 0
        self.ttr: List[float] = []
        self._ttr_done: set = set()
        self._shed_logged: set = set()
        self._probes_prev = self.lifeguard.prober.probes_sent
        self._last_outage_end = 0.0
        self._crashed = False
        self._started = False
        self._drained = True
        #: user-impact accounting: the matrix is a pure function of
        #: (graph, seed, traffic config), so recovery rebuilds it and
        #: restores only the accumulators from the journal.
        self.ledger = ImpactLedger(self._build_matrix())

    def _build_matrix(self):
        return build_traffic_matrix(
            self.scenario.graph,
            seed=self.config.seed,
            config=self.config.traffic,
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def lifeguard(self) -> Lifeguard:
        return self.scenario.lifeguard

    @property
    def journal(self) -> RepairJournal:
        return self.lifeguard.journal

    @property
    def monitored_pairs(self) -> int:
        return len(self.scenario.vantage_points) * len(
            self.scenario.targets
        )

    def _build_schedule(self) -> List[ScheduledOutage]:
        arrivals = self.config.arrivals
        count = self.config.num_outages
        if count is None:
            span = max(0.0, self.config.duration - arrivals.first_arrival)
            if arrivals.spacing is not None:
                count = int(span / arrivals.spacing) + 1
            else:
                count = int(span * arrivals.rate) + 1
        schedule = generate_outage_schedule(
            count, arrivals, seed=self.config.seed
        )
        return [s for s in schedule if s.start <= self.config.duration]

    def _metrics(self):
        if self.obs is not None:
            return self.obs.metrics
        return None

    def _emit(self, kind: str, t: float, **fields) -> None:
        if self.obs is not None:
            self.obs.emit(kind, t, "service", **fields)

    def _gauge(self, name: str, value: float) -> None:
        metrics = self._metrics()
        if metrics is not None:
            metrics.set_gauge(name, value)

    def _count(self, name: str, amount: float = 1) -> None:
        metrics = self._metrics()
        if metrics is not None:
            metrics.inc(name, amount)

    # ------------------------------------------------------------------
    # The journal: commit an entry, fold it into service state
    # ------------------------------------------------------------------
    def _commit(
        self,
        kind: str,
        now: float,
        key: Optional[OutageKey] = None,
        **values,
    ) -> None:
        """Journal one service entry (write-ahead), then apply it —
        through the reducer :meth:`_restore_from_journal` folds with."""
        if kind not in self._REDUCERS:
            raise ControlError(f"unknown journal entry kind {kind!r}")
        entry = self.journal.append(kind, now, key=key, **values)
        self._REDUCERS[kind](self, entry)

    def _on_plan(self, entry) -> None:
        self.plan = [(target, asn) for target, asn in entry["targets"]]

    def _on_arrival(self, entry) -> None:
        self.cursor += 1
        self._last_outage_end = max(self._last_outage_end, entry["end"])

    def _on_compacted(self, entry) -> None:
        # Arrivals a compaction dropped still count toward the cursor.
        self.cursor += entry.get("event_counts", {}).get(
            "service-arrival", 0
        )

    def _on_tier(self, entry) -> None:
        self.admission.restore(ServiceTier(entry["tier"]))

    def _on_traffic(self, entry) -> None:
        # The plan carries the pristine-FIB baseline (post-crash FIBs
        # carry poisons, so it is replayed, never recomputed); samples
        # carry cumulative accumulators, so the latest alone restores.
        self.ledger.restore_state(entry)

    def _on_audit(self, entry) -> None:
        """Dispositions journaled for the record; no service state."""

    #: entry kind -> reducer, for every kind the service journals
    #: (:data:`repro.control.journal.SERVICE_KINDS`) plus the
    #: compaction marker.
    _REDUCERS = {
        "service-plan": _on_plan,
        "service-arrival": _on_arrival,
        "service-tier": _on_tier,
        "service-shed": _on_audit,
        "service-defer": _on_audit,
        "service-timeout": _on_audit,
        "traffic-plan": _on_traffic,
        "traffic-sample": _on_traffic,
        "compacted": _on_compacted,
    }

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Prime the atlas and journal the ground-truth target plan.

        The plan is evaluated once per target on the pristine converged
        baseline, before any failure is injected — a pure function of
        the deployment, independent of when (or whether) the controller
        crashed.
        """
        self.lifeguard.prime_atlas(now=0.0)
        plan = []
        prefer = _localized_first(self.scenario)
        for target in self.scenario.targets:
            asn = self.scenario.avoidable_transit(target, prefer=prefer)
            if asn is not None:
                plan.append((str(target), asn))
        self._commit(
            "service-plan",
            0.0,
            targets=[[t, a] for t, a in plan],
            monitored_pairs=self.monitored_pairs,
        )
        # Fix the impact baseline against the pristine FIBs.
        unroutable = self.ledger.prime(self.lifeguard.dataplane.fibs)
        self._commit(
            "traffic-plan",
            0.0,
            flows=len(self.ledger.matrix.flows),
            users=self.ledger.matrix.total_users,
            digest=self.ledger.matrix.digest(),
            baseline_unroutable=list(
                self.ledger.state_json()["baseline_unroutable"]
            ),
        )
        self._emit(
            "traffic.plan",
            0.0,
            flows=len(self.ledger.matrix.flows),
            users=self.ledger.matrix.total_users,
            unroutable=unroutable,
        )
        self._gauge("traffic.users_total", self.ledger.matrix.total_users)
        self._probes_prev = self.lifeguard.prober.probes_sent
        self._started = True

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------
    def run_round(self, now: float) -> None:
        self.rounds += 1
        self._inject_due_arrivals(now)
        self.lifeguard.begin_round(now)
        timeouts = self._expire_deadlines(now)
        tier = self._update_tier(now)
        shed, deferred = self._admit(now)
        processed = self._process_stages(now, tier)
        self._harvest_ttr(now)
        self._sample_impact(now)
        self._publish(now, tier, shed, deferred, timeouts, processed)

    def _sample_impact(self, now: float) -> None:
        """Integrate affected-user-minutes against the live FIBs.

        Journaled write-ahead every round (cumulative accumulators, so
        the latest entry alone restores the ledger after a crash) and
        published as the service's SLO denominator: users behind an
        outage over users modeled."""
        sample = self.ledger.observe(
            now,
            self.lifeguard.dataplane.fibs,
            self.lifeguard.dataplane.failures,
        )
        state = self.ledger.state_json()
        state.pop("baseline_unroutable")  # journaled once in the plan
        self._commit("traffic-sample", now, **state)
        self._gauge("service.users_behind_outage", sample.affected_users)
        self._gauge("traffic.users_affected", sample.affected_users)
        self._gauge(
            "traffic.affected_user_minutes",
            round(self.ledger.user_minutes, 6),
        )
        self._emit(
            "traffic.impact",
            now,
            affected=sample.affected_users,
            delivered=sample.delivered_users,
            outages=len(sample.by_key),
            user_minutes=round(self.ledger.user_minutes, 6),
        )

    def _inject_due_arrivals(self, now: float) -> None:
        if not self.plan:
            return
        while (
            self.cursor < len(self.schedule)
            and self.schedule[self.cursor].start <= now
        ):
            scheduled = self.schedule[self.cursor]
            target, asn = self.plan[scheduled.index % len(self.plan)]
            self.scenario.fail_transit(asn, scheduled.start, scheduled.end)
            self._commit(
                "service-arrival",
                now,
                index=scheduled.index,
                target=target,
                asn=asn,
                start=scheduled.start,
                end=scheduled.end,
            )
            self._emit(
                "service.arrival",
                now,
                subject=target,
                index=scheduled.index,
                asn=asn,
                outage_duration=scheduled.duration,
            )
            self._count("service.arrivals")

    def _expire_deadlines(self, now: float) -> int:
        breached = 0
        for stage, queue in self.queues.items():
            for item in queue.expire(now):
                breached += 1
                self._commit(
                    "service-timeout",
                    now,
                    key=item.key,
                    stage=stage.value,
                    attempts=item.attempts,
                )
                self._count("service.timeouts")
        return breached

    def _signals(self, now: float) -> OverloadSignals:
        inflight = len(self.lifeguard.in_flight_records())
        probes = self.lifeguard.prober.probes_sent
        utilisation = (probes - self._probes_prev) / max(
            1, self.config.watermarks.probe_budget_per_round
        )
        self._probes_prev = probes
        return OverloadSignals(
            inflight=inflight,
            probe_utilisation=utilisation,
            journal_lag=self.journal.lag,
            queue_occupancy=max(
                queue.occupancy for queue in self.queues.values()
            ),
        )

    def _update_tier(self, now: float) -> ServiceTier:
        before = self.admission.tier
        tier = self.admission.evaluate(self._signals(now))
        if tier is not before:
            self._commit(
                "service-tier", now, tier=int(tier), name=tier.name
            )
            self._emit(
                "service.tier",
                now,
                tier=tier.name,
                previous=before.name,
            )
        self._gauge("service.tier", int(tier))
        return tier

    def _admit(self, now: float) -> Tuple[int, int]:
        """Feed newly observed outages into the isolate queue."""
        shed = deferred = 0
        isolate = self.queues[Stage.ISOLATE]
        for record in self.lifeguard.observed_records():
            key = record.key
            if key in isolate:
                continue
            if not self.admission.admitting:
                shed += 1
                self._count("service.shed")
                if key not in self._shed_logged:
                    self._shed_logged.add(key)
                    self._commit(
                        "service-shed",
                        now,
                        key=key,
                        tier=self.admission.tier.name,
                    )
                continue
            if not isolate.offer(key, now):
                # Queue full: backpressure.  The record stays OBSERVED
                # and is re-offered every round until a slot opens.
                deferred += 1
                self._count("service.deferred")
                if key not in self._shed_logged:
                    self._shed_logged.add(key)
                    self._commit(
                        "service-defer", now, key=key, why="queue-full"
                    )
        self.shed += shed
        self.deferred += deferred
        return shed, deferred

    def _queue_for(self, record: RepairRecord) -> Optional[StageQueue]:
        """The queue of the stage *record* waits on, None once settled."""
        name = stage_of(record)
        return self.queues[Stage(name)] if name is not None else None

    def _budget(self, stage: Stage, tier: ServiceTier) -> int:
        """Per-round work budget; only the forward stage degrades.

        Overload comes from *new* work, so the isolate budget scales
        with the tier down to zero at PAUSED, while the safety stages
        (verify / retry / check) keep their full budgets: in-flight
        poisons are announced state in other networks and must keep
        being verified, checked and — if harmful — rolled back.
        """
        budget = getattr(self.config, f"{stage.value}_budget")
        if stage is Stage.ISOLATE:
            budget = int(budget * self.admission.budget_scale())
        return budget

    _STAGE_ORDER = (Stage.VERIFY, Stage.RETRY, Stage.CHECK, Stage.ISOLATE)

    def _process_stages(self, now: float, tier: ServiceTier) -> int:
        processed = 0
        for stage in self._STAGE_ORDER:
            processed += self._drain_stage(stage, now, tier)
        return processed

    def _drain_stage(
        self, stage: Stage, now: float, tier: ServiceTier
    ) -> int:
        queue = self.queues[stage]
        budget = self._budget(stage, tier)
        processed = 0
        # Mis-staged items (their record moved on while queued) are
        # re-routed for free; only real stage work spends budget.
        visits = len(queue)
        while processed < budget and len(queue) and visits > 0:
            visits -= 1
            item = queue.take(1)[0]
            record = self.lifeguard.record(item.key)
            if record is None:
                continue
            if self._queue_for(record) is queue:
                self.lifeguard.run_stage(record, now)
                processed += 1
            self._route(queue, record, item, now)
        return processed

    def _route(self, queue: StageQueue, record, item, now: float) -> None:
        """Put an item taken from *queue* wherever its record now
        belongs (nowhere, if it settled while waiting or being served)."""
        target = self._queue_for(record)
        if target is None:
            return
        if target is queue:
            queue.requeue(item, now)
            return
        if not target.offer(item.key, now):
            # Downstream stage is full: hold the item here — explicit
            # backpressure between stages, never a drop.
            self.backpressure += 1
            self._count("service.backpressure")
            queue.requeue(item, now)

    def _harvest_ttr(self, now: float) -> None:
        for record in self.lifeguard.records:
            key = record.key
            if key in self._ttr_done or record.verified_time is None:
                continue
            self._ttr_done.add(key)
            ttr = max(0.0, record.verified_time - record.outage.detected)
            self.ttr.append(ttr)
            if self.obs is not None:
                metrics = self._metrics()
                if metrics is not None:
                    metrics.histogram(
                        "service.ttr_seconds", TTR_BUCKETS
                    ).observe(ttr)

    def _publish(
        self,
        now: float,
        tier: ServiceTier,
        shed: int,
        deferred: int,
        timeouts: int,
        processed: int,
    ) -> None:
        depths = {
            stage.value: len(queue)
            for stage, queue in self.queues.items()
        }
        inflight = len(self.lifeguard.in_flight_records())
        for stage, depth in depths.items():
            self._gauge(f"service.queue_depth.{stage}", depth)
        self._gauge("service.repairs_in_flight", inflight)
        self._gauge("service.journal_lag", self.journal.lag)
        self._gauge("service.monitored_pairs", self.monitored_pairs)
        dataplane = self.lifeguard.dataplane
        self._gauge("dataplane.walk_memo.hits", dataplane.walk_hits)
        self._gauge("dataplane.walk_memo.misses", dataplane.walk_misses)
        fibs = dataplane.fibs  # rows re-read vs whole-column fallbacks
        self._gauge("dataplane.fib.rows_patched", fibs.rows_patched)
        self._gauge("dataplane.fib.columns_compiled", fibs.columns_compiled)
        self._gauge("dataplane.fib.axis_regrown", fibs.axis_regrown)
        change_log = self.lifeguard.engine.change_log
        self.changes_dropped += len(change_log)
        change_log.clear()
        self._gauge("bgp.change_log.dropped", self.changes_dropped)
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            value = _percentile(self.ttr, q)
            if value is not None:
                self._gauge(f"service.ttr_{name}", value)
        self._count("service.rounds")
        self._emit(
            "service.round",
            now,
            tier=tier.name,
            inflight=inflight,
            processed=processed,
            shed=shed,
            deferred=deferred,
            timeouts=timeouts,
            depths=depths,
            arrivals=self.cursor,
        )

    # ------------------------------------------------------------------
    # Crash / recover
    # ------------------------------------------------------------------
    def _recover(self, now: float) -> None:
        """Bring the controller back, then the service state around it."""
        lifeguard = self.scenario.recover(
            now, injector=self.injector, obs=self.obs
        )
        self._restore_from_journal(lifeguard.journal, now)
        self._emit(
            "service.recovered",
            now,
            records=len(lifeguard.records),
            cursor=self.cursor,
            tier=self.admission.tier.name,
        )

    def _restore_from_journal(
        self, journal: RepairJournal, now: float
    ) -> None:
        """Service-level state: fold the service's own entries (plan,
        cursor, tier, impact-ledger accumulators), then rebuild what
        derives from the recovered records (queues, TTR)."""
        # The matrix is deterministic from (graph, seed, config); only
        # the accumulators and the baseline come from the journal.
        self.ledger = ImpactLedger(self._build_matrix())
        self.cursor = 0
        for entry in journal:
            reducer = self._REDUCERS.get(entry["event"])
            if reducer is not None:
                reducer(self, entry)
        for queue in self.queues.values():
            while len(queue):
                queue.take(1)
        for record, queue in self._unsettled():
            # OBSERVED records re-enter through admission control.
            if queue.stage is not Stage.ISOLATE:
                queue.offer(record.key, now)
        self.ttr = []
        self._ttr_done = set()
        self._harvest_ttr(now)
        self._probes_prev = self.lifeguard.prober.probes_sent

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def _active_work(self, now: float) -> bool:
        if self.cursor < len(self.schedule):
            return True
        if now <= self._last_outage_end + 150.0:
            return True  # failures still open / detection in flight
        if any(len(queue) for queue in self.queues.values()):
            return True
        return bool(self._unsettled())

    def run(self) -> ServiceReport:
        """Drive the workload to completion; returns the report."""
        if not self._started:
            self.start()
        interval = self.lifeguard.config.monitor_interval
        end = self.config.duration
        deadline = end + self.config.drain
        now = interval
        down_until: Optional[float] = None
        while now <= end or (
            now <= deadline
            and (down_until is not None or self._active_work(now))
        ):
            if down_until is not None:
                if now < down_until:
                    # Nobody is watching: the network keeps evolving,
                    # poisons stay announced, outages keep aging.
                    self.scenario.engine.advance_to(now)
                    now += interval
                    continue
                self._recover(now)
                down_until = None
            if (
                self.config.crash_at is not None
                and now >= self.config.crash_at
                and not self._crashed
            ):
                self._crashed = True
                self.crashes += 1
                self.scenario.crash()
                down_until = now + self.config.crash_downtime
                continue
            self.run_round(now)
            now += interval
        if down_until is not None:
            self._recover(max(now, down_until))
        self._drained = not self._active_work(now)
        return self.report(min(now, deadline))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _unsettled(self) -> List[Tuple[RepairRecord, StageQueue]]:
        """Every record a stage still waits on, with that stage's queue."""
        waiting = []
        for record in self.lifeguard.records:
            queue = self._queue_for(record)
            if queue is not None:
                waiting.append((record, queue))
        return waiting

    def report(self, now: float) -> ServiceReport:
        records = self.lifeguard.records
        repaired = sum(r.poisoned_asn is not None for r in records)
        completed = sum(
            r.state is RepairState.UNPOISONED for r in records
        )
        # Abandoned: a repair with no disposition — unsettled, not
        # queued, and not waiting on admission (OBSERVED records re-enter
        # every round, and shed/deferred ones are journaled).
        # Structurally this must be zero — the queues requeue instead of
        # dropping — and the CI smoke job asserts it stays that way.
        pending = abandoned = 0
        for record, queue in self._unsettled():
            pending += 1
            if queue.stage is not Stage.ISOLATE and record.key not in queue:
                abandoned += 1
        return ServiceReport(
            duration=now,
            rounds=self.rounds,
            monitored_pairs=self.monitored_pairs,
            arrivals=self.cursor,
            records=len(records),
            repaired=repaired,
            completed=completed,
            settled=len(records) - pending,
            pending=pending,
            abandoned=abandoned,
            shed=self.shed,
            deferred=self.deferred,
            timeouts=sum(q.timeouts for q in self.queues.values()),
            backpressure=self.backpressure,
            crashes=self.crashes,
            tier_transitions=self.admission.transitions,
            final_tier=self.admission.tier.name,
            ttr_p50=_percentile(self.ttr, 0.50),
            ttr_p95=_percentile(self.ttr, 0.95),
            ttr_p99=_percentile(self.ttr, 0.99),
            queue_peaks={
                stage.value: queue.peak
                for stage, queue in self.queues.items()
            },
            journal_entries=len(self.journal),
            journal_rotations=self.journal.rotations,
            drained=self._drained,
            users_total=self.ledger.matrix.total_users,
            users_affected=self.ledger.affected_users,
            peak_users_affected=self.ledger.peak_affected,
            affected_user_minutes=self.ledger.user_minutes,
            digest=self.obs.digest() if self.obs is not None else None,
            walk_hits=self.lifeguard.dataplane.walk_hits,
            walk_misses=self.lifeguard.dataplane.walk_misses,
        )
