"""Lifeguard-as-a-service: the continuous-operation repair daemon.

:class:`LifeguardService` turns the one-shot experiment harness into the
system the paper actually describes (§5.3 sizes update load against
*continuous* operation over thousands of monitored prefixes): a
deterministic long-running daemon that streams ground-truth outages from
the calibrated arrival process in :mod:`repro.workloads.outages` into a
:class:`~repro.control.lifeguard.Lifeguard`, feeding every repair
through one outage-keyed :class:`Backlog` of waiting work served under
per-stage budgets and deadlines, behind watermark-driven admission
control and a four-tier graceful-degradation ladder (see
:mod:`repro.service.admission`).

Everything the service decides is journaled through the controller's
write-ahead journal (``service-plan``, ``service-arrival``,
``service-tier``, ``service-shed``, ``service-defer``,
``service-timeout``, ``traffic-plan``, ``traffic-sample`` entries) and
applied through one reducer table, live and on restore alike, so a
crashed daemon recovers — records, backlog, arrival cursor, degradation
tier and impact ledger — byte-identically, which the sustained-load
determinism property test pins via the event-bus SHA-256 digest.

The simulation clock is the only clock: one :meth:`run_round` per
monitor interval, every decision a pure function of simulation state, so
a run is reproducible across hosts, workers, and crash/recover cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Tuple

from repro.control.journal import (
    OutageKey,
    RepairJournal,
    commit,
    reducer_of,
)
from repro.control.lifeguard import Lifeguard, RepairState, stage_of
from repro.control.record import STAGES
from repro.service.admission import (
    PROBE_BUDGET_PER_ROUND,
    AdmissionController,
    OverloadSignals,
    ServiceTier,
)
from repro.traffic.impact import ImpactLedger
from repro.traffic.matrix import TrafficConfig, build_traffic_matrix
from repro.workloads.outages import (
    OutageArrivalConfig,
    ScheduledOutage,
    generate_outage_schedule,
)
from repro.workloads.scenarios import CRASH_DOWNTIME, DeploymentScenario

#: Default streaming workload: Poisson arrivals, one outage per ten
#: minutes on average, durations sampled from the paper's Fig. 1 mixture.
DEFAULT_ARRIVALS = OutageArrivalConfig(first_arrival=1000.0, rate=1 / 600.0)

#: Histogram bounds for time-to-repair (sim seconds).
TTR_BUCKETS: Tuple[float, ...] = (
    300.0, 600.0, 900.0, 1200.0, 1800.0, 2700.0, 3600.0, 7200.0, 14400.0
)

#: Per-round work budget of each stage, in the order a round serves
#: them; only the isolate budget scales with the tier.
BUDGETS: Dict[str, int] = {
    "verify": 32, "retry": 8, "check": 32, "isolate": 8
}
#: Waiting isolations admitted at most — the one door with a capacity,
#: and the denominator of the queue-occupancy signal.
QUEUE_CAPACITY = 256
#: Sim seconds an item may wait in one stage before its journaled
#: timeout moves it to the front.
STAGE_DEADLINE = 1800.0


@dataclass
class ServiceConfig:
    """Operating parameters of the daemon."""

    #: sim seconds of arrival workload (drain may run past this).
    duration: float = 43200.0
    arrivals: OutageArrivalConfig = field(
        default_factory=lambda: DEFAULT_ARRIVALS
    )
    #: seed for the arrival schedule (and recovery duration history).
    seed: int = 0
    #: extra sim seconds granted after the last arrival to drain
    #: in-flight repairs before shutdown.
    drain: float = 21600.0
    #: crash the controller at this sim time (tests / chaos CI).
    crash_at: Optional[float] = None
    #: gravity-model traffic knobs (users, fan-out); None = defaults.
    traffic: Optional[TrafficConfig] = None


@dataclass
class QueueItem:
    """One outage's place in the backlog; its stage is its record's."""

    key: OutageKey
    #: breach => journaled timeout + move-to-front retry, never a drop.
    deadline: float
    #: times the item was served and stayed, or breached its deadline.
    attempts: int = 0


class Backlog:
    """The daemon's waiting repair work: one ordered map keyed by outage.

    An item's stage is never stored — *stage* reads it off the record
    (``stage_of``) — so per-stage depth, occupancy and peak are counts
    of live items, and settled work leaves by :meth:`drop_settled`.
    Every move is to one end of the map, which never reorders two items
    of the same stage: each stage is a FIFO.
    """

    def __init__(self, stage: Callable[[OutageKey], Optional[str]]) -> None:
        self.stage = stage
        self.items: "OrderedDict[OutageKey, QueueItem]" = OrderedDict()
        #: high-water mark of each stage's depth (raised by depths()).
        self.peaks: Dict[str, int] = dict.fromkeys(STAGES, 0)
        #: deadline breaches (each one moved to the front, none dropped).
        self.timeouts = 0

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, key: OutageKey) -> bool:
        return key in self.items

    def depths(self) -> Dict[str, int]:
        """Waiting items per stage; raises the peaks to match."""
        depths = dict.fromkeys(STAGES, 0)
        for key in self.items:
            depths[self.stage(key)] += 1
        for stage, depth in depths.items():
            self.peaks[stage] = max(self.peaks[stage], depth)
        return depths

    def push(self, key: OutageKey, now: float) -> None:
        """Enter *key* at the tail as a fresh item of its stage."""
        self.items.pop(key, None)
        self.items[key] = QueueItem(key, now + STAGE_DEADLINE)

    def admit(self, keys: List[OutageKey], now: float) -> List[OutageKey]:
        """Queue *keys* for isolation while there is room; returns the
        refused ones (backpressure)."""
        room = max(0, QUEUE_CAPACITY - self.depths()["isolate"])
        for key in keys[:room]:
            self.push(key, now)
        self.depths()  # for the peaks
        return keys[room:]

    def drop_settled(self) -> None:
        for key in [k for k in self.items if self.stage(k) is None]:
            del self.items[key]

    def expire(self, now: float) -> List[Tuple[str, QueueItem]]:
        """Move deadline-breached items to the front with a fresh
        deadline and an attempt; returns ``(stage, item)`` per breach,
        stage by stage, for the caller to journal."""
        breached = [i for i in self.items.values() if now > i.deadline]
        for item in reversed(breached):
            item.attempts += 1
            item.deadline = now + STAGE_DEADLINE
            self.items.move_to_end(item.key, last=False)
        self.timeouts += len(breached)
        staged = [(self.stage(item.key), item) for item in breached]
        return sorted(staged, key=lambda pair: STAGES.index(pair[0]))

    def serve(
        self,
        stage: str,
        budget: int,
        now: float,
        run: Callable[[OutageKey], None],
    ) -> int:
        """Run up to *budget* items waiting on *stage*, oldest first.

        A served record that stays in its stage goes to the tail with an
        attempt and a fresh deadline, one that moved on goes to the tail
        as a fresh item, and a settled one leaves.
        """
        served = [k for k in self.items if self.stage(k) == stage][:budget]
        for key in served:
            run(key)
            after = self.stage(key)
            if after is None:
                del self.items[key]
            elif after != stage:
                self.push(key, now)
            else:
                item = self.items[key]
                item.attempts += 1
                item.deadline = now + STAGE_DEADLINE
                self.items.move_to_end(key)
        self.depths()  # for the peaks
        return len(served)


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
    ) -> None:
        self.scenario = scenario
        self.config = config or ServiceConfig()
        self.obs = obs
        self.admission = AdmissionController()
        self.backlog = Backlog(
            lambda key: stage_of(self.lifeguard.record(key))
        )
        self.schedule: List[ScheduledOutage] = self._build_schedule()
        #: (target_str, true_asn) per poisonable target; journaled.
        self.plan: List[Tuple[str, int]] = []
        self.cursor = 0
        self.rounds = 0
        self.crashes = 0
        self.shed = 0
        self.deferred = 0
        self.ttr: List[float] = []
        self._ttr_done: set = set()
        self._shed_logged: set = set()
        #: probes the last round's stages sent (the monitor's are not
        #: discretionary, so they are no load signal).
        self._discretionary = 0
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
        """Journal one service entry (write-ahead), then apply it."""
        commit(self.journal, self._apply, kind, now, key, **values)

    def _apply(self, entry, live=None) -> None:
        """Fold one journal entry into service state — on a live commit
        and for every entry :meth:`_restore_from_journal` replays."""
        reducer = reducer_of(self._REDUCERS, entry["event"])
        if reducer is not None:
            reducer(self, entry)

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

    #: entry kind -> reducer, for every service kind
    #: (:data:`repro.control.journal.KINDS`) plus the compaction marker.
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
        self._started = True

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------
    def run_round(self, now: float) -> None:
        self.rounds += 1
        self._inject_due_arrivals(now)
        self.lifeguard.begin_round(now)
        monitored = self.lifeguard.prober.probes_sent
        self.backlog.drop_settled()  # free, and in every tier
        timeouts = self._expire_deadlines(now)
        tier = self._update_tier(now)
        shed, deferred = self._admit(now)
        processed = self._process_stages(now)
        self._discretionary = self.lifeguard.prober.probes_sent - monitored
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
        breached = self.backlog.expire(now)
        for stage, item in breached:
            self._commit(
                "service-timeout",
                now,
                key=item.key,
                stage=stage,
                attempts=item.attempts,
            )
            self._count("service.timeouts")
        return len(breached)

    def _signals(self, now: float) -> OverloadSignals:
        return OverloadSignals(
            inflight=len(self.lifeguard.in_flight_records()),
            probe_utilisation=self._discretionary / PROBE_BUDGET_PER_ROUND,
            queue_occupancy=max(self.backlog.depths().values())
            / QUEUE_CAPACITY,
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
        """Queue newly observed outages for isolation, or shed them.

        Refused work (shed by the tier, or deferred by a full isolate
        stage — backpressure) stays OBSERVED and is offered again every
        round; its first refusal is journaled."""
        waiting = [
            record.key
            for record in self.lifeguard.observed_records()
            if record.key not in self.backlog
        ]
        if self.admission.admitting:
            refused = self.backlog.admit(waiting, now)
            shed, deferred = 0, len(refused)
            kind, counter = "service-defer", "service.deferred"
            why = {"why": "queue-full"}
        else:
            refused = waiting
            shed, deferred = len(refused), 0
            kind, counter = "service-shed", "service.shed"
            why = {"tier": self.admission.tier.name}
        for key in refused:
            self._count(counter)
            if key not in self._shed_logged:
                self._shed_logged.add(key)
                self._commit(kind, now, key=key, **why)
        self.shed += shed
        self.deferred += deferred
        return shed, deferred

    def _process_stages(self, now: float) -> int:
        """Serve each stage up to its budget.  Overload comes from *new*
        work, so only the isolate budget scales with the tier (to zero
        at PAUSED); in-flight poisons are announced state in other
        networks and keep being verified, checked and rolled back."""
        lifeguard = self.lifeguard
        processed = 0
        for stage, budget in BUDGETS.items():
            if stage == "isolate":
                budget = int(budget * self.admission.budget_scale())
            processed += self.backlog.serve(
                stage,
                budget,
                now,
                lambda key: lifeguard.run_stage(lifeguard.record(key), now),
            )
        return processed

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
        depths = self.backlog.depths()
        inflight = len(self.lifeguard.in_flight_records())
        for stage, depth in depths.items():
            self._gauge(f"service.queue_depth.{stage}", depth)
        self._gauge("service.repairs_in_flight", inflight)
        self._gauge("service.monitored_pairs", self.monitored_pairs)
        dataplane = self.lifeguard.dataplane
        self._gauge("dataplane.walk_memo.hits", dataplane.walk_hits)
        self._gauge("dataplane.walk_memo.misses", dataplane.walk_misses)
        # The ledger's failure-free walks (one per FIB snapshot) and the
        # samples that reused the last classification whole.
        self._gauge("traffic.ledger.walks", self.ledger.walks)
        self._gauge(
            "traffic.ledger.classify_reused", self.ledger.classify_reused
        )
        fibs = dataplane.fibs  # rows re-read, axes regrown under them
        self._gauge("dataplane.fib.rows_patched", fibs.rows_patched)
        self._gauge("dataplane.fib.axis_regrown", fibs.axis_regrown)
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
        lifeguard = self.scenario.recover(now)
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
        derives from the recovered records (backlog, TTR)."""
        # The matrix is deterministic from (graph, seed, config); only
        # the accumulators and the baseline come from the journal.
        self.ledger = ImpactLedger(self._build_matrix())
        self.cursor = 0
        for entry in journal:
            self._apply(entry)
        self.backlog.items.clear()
        for record in self.lifeguard.records:
            # OBSERVED records re-enter through admission control.
            if stage_of(record) not in (None, "isolate"):
                self.backlog.push(record.key, now)
        self.backlog.depths()  # for the peaks
        self.ttr = []
        self._ttr_done = set()
        self._harvest_ttr(now)
        self._discretionary = 0

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def _active_work(self, now: float) -> bool:
        if self.cursor < len(self.schedule):
            return True
        if now <= self._last_outage_end + 150.0:
            return True  # failures still open / detection in flight
        # A degraded tier descends one calm round at a time, so the
        # daemon is not done until it is back at NORMAL.
        return bool(self._pending()) or (
            self.admission.tier is not ServiceTier.NORMAL
        )

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
                down_until = now + CRASH_DOWNTIME
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
    def _pending(self) -> int:
        """Records a stage still waits on."""
        return sum(stage_of(r) is not None for r in self.lifeguard.records)

    def report(self, now: float) -> ServiceReport:
        records = self.lifeguard.records
        repaired = sum(r.poisoned_asn is not None for r in records)
        completed = sum(
            r.state is RepairState.UNPOISONED for r in records
        )
        pending = self._pending()
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
            # Both 0 by construction: a record that leaves isolation
            # enters the backlog on the spot, whatever its stage's depth,
            # so no unsettled record is ever unqueued and nothing waits
            # between stages.  Kept because the benchmark reads them.
            abandoned=0,
            shed=self.shed,
            deferred=self.deferred,
            timeouts=self.backlog.timeouts,
            backpressure=0,
            crashes=self.crashes,
            tier_transitions=self.admission.transitions,
            final_tier=self.admission.tier.name,
            ttr_p50=_percentile(self.ttr, 0.50),
            ttr_p95=_percentile(self.ttr, 0.95),
            ttr_p99=_percentile(self.ttr, 0.99),
            queue_peaks=dict(self.backlog.peaks),
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
