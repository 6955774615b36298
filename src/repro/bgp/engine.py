"""Discrete-event BGP propagation engine.

Models message latency, per-update processing delay and per-session MRAI
batching — the ingredients that produce the convergence-time and
path-exploration behaviour Figure 6 of the paper measures.  The engine owns
a single priority queue; speakers are pure state machines.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bgp.messages import (
    Announcement,
    ASPath,
    Withdrawal,
    clear_interned_paths,
)
from repro.bgp.policy import SpeakerConfig
from repro.bgp.rib import Route
from repro.bgp.solver import derive_rows
from repro.bgp.speaker import BGPSpeaker
from repro.errors import SimulationError
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph

#: Event codes, the third field of a ``(time, seq, code, a, b, c)`` heap
#: entry (*seq* is unique, so nothing after it is ever compared):
#: DELIVER a=receiving ASN b=update; MRAI_EXPIRE a=session b=prefix;
#: DAMPING_REUSE a=ASN b=prefix c=neighbor.
EVENT_DELIVER, EVENT_MRAI_EXPIRE, EVENT_DAMPING_REUSE = range(3)

#: Builds a tuple value without its class's Python ``__new__`` (the
#: per-message :class:`Withdrawal`; every field given, nothing to check).
_new = tuple.__new__


@dataclass
class EngineConfig:
    """Timing model knobs (seconds)."""

    #: Inter-AS one-way message latency range.
    link_delay_min: float = 0.01
    link_delay_max: float = 0.12
    #: Per-update processing delay range at the receiver.
    proc_delay_min: float = 0.002
    proc_delay_max: float = 0.05
    #: MRAI: minimum spacing between successive announcements of the same
    #: prefix on one session.  Real routers default to ~30 s with jitter.
    mrai: float = 30.0
    #: Jitter factor range applied per session (cisco-style 0.75-1.0).
    mrai_jitter_min: float = 0.75
    mrai_jitter_max: float = 1.0
    seed: int = 0


@dataclass(slots=True)
class RouteChange:
    """One Loc-RIB change, as :attr:`BGPEngine.on_change` listeners hear
    it (a route collector records them; the engine keeps none)."""

    time: float
    asn: int
    prefix: Prefix
    old: Optional[Route]
    new: Optional[Route]


class _Session:
    """Directed adjacency state (MRAI + last advertisement sent)."""

    __slots__ = (
        "key", "mrai", "floor", "last_sent_time", "sent", "timer_pending",
        "updates",
    )

    def __init__(self, key: Tuple[int, int], mrai: float) -> None:
        #: (src, dst) ASNs.  No speaker reference: speakers index their
        #: sessions, and a cycle would leave every discarded engine to
        #: the cyclic collector.
        self.key = key
        self.mrai = mrai
        #: the latest delivery time scheduled so far; arrivals are
        #: clamped to it so updates on one session are delivered in send
        #: order (BGP runs over TCP — a later withdrawal must never
        #: overtake an earlier announcement).  Differential fuzzing found
        #: the reordering artifact: stale Adj-RIB-In entries left by
        #: crossed messages get re-selected into the Loc-RIB when a
        #: perturbation withdraws the best route.
        self.floor = 0.0
        #: prefix -> time of last announcement sent on this session.
        self.last_sent_time: Dict[Prefix, float] = {}
        #: prefix -> last Announcement (or None for withdrawal/state unsent).
        self.sent: Dict[Prefix, Optional[Announcement]] = {}
        #: prefixes with an MRAI expiry event already queued.
        self.timer_pending: Set[Prefix] = set()
        #: updates (announcements + withdrawals) sent on this session.
        self.updates = 0


class BGPEngine:
    """Runs BGP over an :class:`ASGraph` until quiescence."""

    def __init__(
        self,
        graph: ASGraph,
        config: Optional[EngineConfig] = None,
        speaker_configs: Optional[Dict[int, SpeakerConfig]] = None,
    ) -> None:
        self.graph = graph
        self.config = config = config or EngineConfig()
        for name, low, high in (
            ("link_delay", config.link_delay_min, config.link_delay_max),
            ("proc_delay", config.proc_delay_min, config.proc_delay_max),
            ("mrai_jitter", config.mrai_jitter_min, config.mrai_jitter_max),
            ("mrai", 0.0, config.mrai),
        ):
            if not 0 <= low <= high:
                raise SimulationError(
                    f"EngineConfig.{name}: need 0 <= min <= max, "
                    f"got ({low}, {high})"
                )
        self._rng = random.Random(config.seed)
        self.now = 0.0
        self._queue: List[tuple] = []
        self._seq = itertools.count()
        self.speakers: Dict[int, BGPSpeaker] = {}
        #: (src, dst) -> session.  A reader of ``sent`` rows calls
        #: :meth:`materialize` first: a warm start leaves them pending.
        self._session_map: Dict[Tuple[int, int], _Session] = {}
        #: Loc-RIB changes made over the engine's life (the solver
        #: gate's and warm_start's witness of prior activity).
        self.changes = 0
        #: listeners called with a :class:`RouteChange` on every Loc-RIB
        #: change, in attach order; none by default, and a pickled
        #: snapshot carries none (:meth:`__getstate__`).
        self.on_change: List[Callable[[RouteChange], None]] = []
        #: optional chaos hook consulted per transmitted update; returns
        #: None (deliver normally), "drop" or "duplicate".  Wired up by
        #: :class:`repro.faults.injector.FaultInjector`.
        self.fault_hook: Optional[Callable[[int, int, object],
                                           Optional[str]]] = None
        #: BGP session resets performed (chaos accounting).
        self.session_resets = 0
        #: optional observability bus (duck-typed; see repro.obs.events).
        self.obs = None
        #: prefix -> PrefixSolution while the state is *analytic*
        #: (installed by warm_start / apply_delta and not since perturbed
        #: by event-path activity).  None: the delta path must fall back.
        self._analytic: Optional[Dict[Prefix, object]] = None
        #: prefix -> PrefixSolution for the analytic prefixes whose
        #: Adj-RIB-In and wire rows are not written yet (their Loc-RIB
        #: is): :meth:`materialize` writes them.  A dict, not a set, so
        #: a pickled engine restores it in the same order.
        self._rows_pending: Dict[Prefix, object] = {}
        #: adjacency index cached for repro.bgp.delta (topology is
        #: immutable for the engine's lifetime).
        self._delta_adjacency = None
        #: cached speaker-config gate verdict for repro.bgp.delta: empty
        #: until computed, then ``[reason or None]``; shared with the
        #: speakers, whose ``reconfigure`` empties it.
        self._config_verdict: list = []
        #: origination -> PrefixSolution memo for repro.bgp.delta
        #: (solutions are pure in the origination once the topology is
        #: fixed); cleared with the analytic flag.
        self._delta_solutions: Dict[object, object] = {}
        #: asn -> prefixes whose forwarding next hop changed since the
        #: last consume_fib_dirty().  None: unknown — rebuild everything.
        self._fib_dirty: Optional[Dict[int, Set[Prefix]]] = None
        #: the two per-delivery delay draws' low ends and spans, the
        #: terms of ``Random.uniform``'s arithmetic (:meth:`_send`).
        self._delay_terms = (
            config.proc_delay_min,
            config.proc_delay_max - config.proc_delay_min,
            config.link_delay_min,
            config.link_delay_max - config.link_delay_min,
        )
        speaker_configs = speaker_configs or {}
        session_map, mrai = self._session_map, config.mrai
        # One ``Random.uniform`` draw per session, spelled out.
        jitter_min = config.mrai_jitter_min
        jitter_span = config.mrai_jitter_max - jitter_min
        rand = self._rng.random
        for asn in graph.ases():
            neighbor_rels = graph.neighbor_roles(asn)
            speaker = self.speakers[asn] = BGPSpeaker(
                asn, neighbor_rels, speaker_configs.get(asn),
                self._config_verdict,
            )
            sessions = speaker.sessions
            for neighbor in neighbor_rels:
                key = (asn, neighbor)
                session = session_map[key] = sessions[neighbor] = _Session(
                    key, mrai * (jitter_min + jitter_span * rand())
                )

    @property
    def updates_sent(self) -> Dict[Tuple[int, int], int]:
        """Updates (announcements + withdrawals) sent so far per directed
        session, for the sessions that sent any (a new dict per read)."""
        return {
            key: session.updates
            for key, session in self._session_map.items()
            if session.updates
        }

    def __getstate__(self) -> dict:
        """Pickle state without the ``on_change`` listeners: a restored
        snapshot is an engine that nobody listens to yet."""
        state = self.__dict__.copy()
        state["on_change"] = []
        return state

    # ------------------------------------------------------------------
    # Event queue plumbing
    # ------------------------------------------------------------------
    def _push(self, time: float, code: int, a, b, c=None) -> None:
        if time < self.now - 1e-9:
            raise SimulationError(
                f"event scheduled in the past ({time} < {self.now})"
            )
        heappush(self._queue, (time, next(self._seq), code, a, b, c))

    def reseed(self, seed: int) -> None:
        """Replace the engine's RNG stream (timing jitter draws).

        Trial runners call this on a restored snapshot so each trial's
        message/processing delays flow from its own derived seed instead
        of continuing whichever stream the snapshot froze — the property
        that makes trial results independent of execution order.  The
        AS-path intern table is reset for the same reason: interned
        tuples must not leak object sharing (and thereby pickle-level
        byte differences) across trial boundaries.
        """
        self._rng = random.Random(seed)
        clear_interned_paths()

    # ------------------------------------------------------------------
    # Driving the simulation
    # ------------------------------------------------------------------
    def originate(
        self,
        asn: int,
        prefix: Prefix,
        path: Optional[ASPath] = None,
        per_neighbor: Optional[Dict[int, Optional[ASPath]]] = None,
        communities=(),
        avoid=(),
        med: int = 0,
    ) -> None:
        """(Re-)announce *prefix* from *asn* with the given path config.

        Call between :meth:`run` invocations; the change is injected at the
        current simulation time and flushed to all of the origin's sessions.
        *avoid* attaches an AVOID_PROBLEM(X, P) hint (the idealized
        primitive; see :mod:`repro.bgp.messages`).
        """
        self._invalidate_analytic(prefix)
        speaker = self.speakers[asn]
        old_best = speaker.best(prefix)
        speaker.originate(
            prefix, path=path, per_neighbor=per_neighbor, med=med,
            communities=communities, avoid=avoid,
        )
        new_best = speaker.best(prefix)
        if new_best != old_best:
            self._log_change(asn, prefix, old_best, new_best)
        self._flush_all_sessions(speaker, prefix, new_best)

    def withdraw_origin(self, asn: int, prefix: Prefix) -> None:
        """Stop originating *prefix* at *asn*."""
        self._invalidate_analytic(prefix)
        speaker = self.speakers[asn]
        speaker.stop_originating(prefix)
        # Logged without its old route: the FIB row counts as moved even
        # when no route is left (None against None says nothing).
        best = speaker.best(prefix)
        self._log_change(asn, prefix, None, best, True)
        self._flush_all_sessions(speaker, prefix, best)

    def reset_session(self, as_a: int, as_b: int) -> bool:
        """Tear down and re-establish the BGP session between two ASes.

        Both sides forget everything learned from the other (the implicit
        withdrawals of a session loss), propagate any resulting best-route
        changes, then the fresh session re-advertises each side's full
        desired export from scratch — the re-advertisement burst real
        resets produce.  Call :meth:`run` afterwards to quiesce.  Returns
        False (no-op) if the ASes are not BGP neighbors.
        """
        sessions = self._session_map
        if (as_a, as_b) not in sessions:
            return False
        self._invalidate_analytic()
        pair = (sessions[(as_a, as_b)], sessions[(as_b, as_a)])
        for session in pair:
            session.last_sent_time.clear()
            session.sent.clear()
            # Pending MRAI expiries for the old session may still fire;
            # _flush_session is idempotent so they become no-ops.
            session.timer_pending.clear()
        for session in pair:
            src, dst = session.key
            receiver = self.speakers[dst]
            for prefix, old_best, new_best in receiver.forget_neighbor(src):
                self._log_change(dst, prefix, old_best, new_best)
                self._flush_all_sessions(receiver, prefix, new_best)
        for session in pair:
            # Locally-originated prefixes are installed in the table too,
            # so its prefix list is the complete desired-export universe.
            for prefix in sorted(
                self.speakers[session.key[0]].table.prefixes()
            ):
                self._flush_session(session, prefix)
        self.session_resets += 1
        if self.obs is not None:
            self.obs.emit(
                "bgp.session-reset", self.now, "bgp.engine",
                subject=f"AS{as_a}<->AS{as_b}", as_a=as_a, as_b=as_b,
            )
        return True

    def warm_start(self, result) -> None:
        """Install a solver-computed converged state (no events run).

        *result* is a :class:`repro.bgp.solver.SolverResult`.  Afterwards
        the engine is at quiescence and routes exactly as event-driven
        convergence of the same originations would: the originations and
        every Loc-RIB selection are installed here, and each prefix's
        Adj-RIB-In and wire rows are left pending — its
        :class:`~repro.bgp.solver.PrefixSolution` stands for them until
        :meth:`materialize` writes them, which happens before the event
        path or an out-of-band reader touches a row.  So every
        subsequent perturbation (new originations, poisons, session
        resets) behaves identically.  The clock stays at its current
        value and ``last_sent_time`` stays empty — the converged
        announcements were "sent long ago", so no MRAI timer gates the
        first post-warm-start update, just as a long-quiesced event
        engine behaves.  The convergence process itself is not
        simulated, so ``changes``/``updates_sent`` count nothing for it
        and no ``on_change`` listener hears it.

        Requires a fresh engine: nothing originated, no events run or
        queued, no analytic state installed before.
        """
        if (
            self._queue
            or self.changes
            or self.updates_sent
            or self._analytic is not None
            or any(speaker._origins for speaker in self.speakers.values())
        ):
            raise SimulationError(
                "warm_start requires a fresh engine (prior originations, "
                "events or analytic state)"
            )
        for org in result.originations:
            # State-only origination: no change log, no session flush —
            # the solution stands for the session state.
            self.speakers[org.asn].originate(
                org.prefix,
                path=org.path,
                per_neighbor=org.per_neighbor_dict(),
                med=org.med,
            )
        speakers = self.speakers
        for solution in result.solutions:
            prefix = solution.prefix
            for receiver, route in solution.best.items():
                speakers[receiver].table.pin_best(prefix, route)
        self._analytic = {s.prefix: s for s in result.solutions}
        self._rows_pending = dict(self._analytic)
        self._fib_dirty = None
        if self.obs is not None:
            self.obs.emit(
                "bgp.warm-start", self.now, "bgp.engine",
                subject=f"{len(result.solutions)} prefixes",
                prefixes=len(result.solutions),
            )

    def materialize(self, prefix: Optional[Prefix] = None) -> None:
        """Write the Adj-RIB-In and wire rows of *prefix* if it is
        pending, or of every pending prefix when *prefix* is None
        (:func:`repro.bgp.solver.derive_rows`).

        The one door to a row: the event path passes through it (via
        :meth:`_invalidate_analytic`) before it touches one — for the
        one prefix an origination or withdrawal touches, for every
        prefix on a session reset — and so do out-of-band readers of
        Adj-RIB-In or wire state.  Each prefix's rows are new dicts
        this engine owns — never the solution's or the solution memo's,
        which other engines may share.  Loc-RIB is not written: it was
        pinned when the solution was installed.
        """
        pending = self._rows_pending
        if not pending:
            return
        if prefix is None:
            for held, solution in pending.items():
                self._write_rows(held, solution)
            pending.clear()
        elif prefix in pending:
            self._write_rows(prefix, pending.pop(prefix))

    def _write_rows(self, prefix: Prefix, solution) -> None:
        speakers = self.speakers
        adj_in, sent = derive_rows(solution)
        for receiver, routes in adj_in.items():
            speakers[receiver].table.replace_rows(prefix, routes)
        for src, row in sent.items():
            sessions = speakers[src].sessions
            for dst, announcement in row.items():
                sessions[dst].sent[prefix] = announcement

    def advance_to(self, time: float) -> None:
        """Move the idle engine clock forward to *time*.

        Lets an external controller (LIFEGUARD's loop) keep the BGP clock
        in sync with measurement time between routing events.  Only legal
        while the event queue is empty.
        """
        if self._queue:
            raise SimulationError("cannot advance clock with pending events")
        if time < self.now:
            raise SimulationError(
                f"cannot move clock backwards ({time} < {self.now})"
            )
        self.now = time

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or *until* is reached).

        Returns the simulation time afterwards.  BGP under Gao-Rexford
        policies (even with poisoned paths) converges, so the queue always
        drains; a safety valve raises if it does not.
        """
        processed = 0
        queue, speakers = self._queue, self.speakers
        pop = heappop
        while queue:
            time = queue[0][0]
            if until is not None and time > until:
                self.now = until
                return until
            # Heap order yields equal times in sequence (push) order.
            _, _, code, a, b, c = pop(queue)
            self.now = time
            if code == EVENT_MRAI_EXPIRE:
                a.timer_pending.discard(b)
                if self.obs is not None:
                    self.obs.emit(
                        "bgp.mrai-flush", time, "bgp.engine",
                        subject=str(b), src=a.key[0], dst=a.key[1],
                    )
                self._flush_session(a, b)
            else:
                speaker = speakers[a]
                if code == EVENT_DELIVER:
                    outcome = speaker.process(b, time)
                else:  # EVENT_DAMPING_REUSE
                    outcome = speaker.release_damped(b, c, time)
                prefix, old, new, changed = outcome
                if speaker._pending_reuse:
                    for p, neighbor, when in speaker.drain_pending_reuse():
                        self._push(
                            max(when, time), EVENT_DAMPING_REUSE,
                            a, p, neighbor,
                        )
                if changed:
                    self._log_change(a, prefix, old, new)
                    self._flush_all_sessions(speaker, prefix, new)
            processed += 1
            if processed > 5_000_000:
                raise SimulationError(
                    "BGP simulation did not quiesce (possible policy "
                    "dispute wheel)"
                )
        return self.now

    def _log_change(
        self,
        asn: int,
        prefix: Prefix,
        old: Optional[Route],
        new: Optional[Route],
        moved: bool = False,
    ) -> None:
        self.changes += 1
        if self._fib_dirty is not None:
            old_nh = old.neighbor if old is not None else None
            new_nh = new.neighbor if new is not None else None
            if moved or old_nh != new_nh:
                # Only a next-hop change alters the AS's FIB row; a
                # path-only change keeps its interval table valid.
                self._fib_dirty.setdefault(asn, set()).add(prefix)
        if self.obs is not None:
            self.obs.emit(
                "bgp.decision-change", self.now, "bgp.engine",
                subject=str(prefix), asn=asn,
                old_path=old.as_path if old else None,
                new_path=new.as_path if new else None,
            )
        if self.on_change:
            change = RouteChange(self.now, asn, prefix, old, new)
            for listener in self.on_change:
                listener(change)

    # ------------------------------------------------------------------
    # Session flushing with MRAI
    # ------------------------------------------------------------------
    def _flush_all_sessions(
        self, speaker: BGPSpeaker, prefix: Prefix, best: Optional[Route]
    ) -> None:
        """Tell every neighbor of *speaker* what it should now hear about
        *prefix*, *best* being the speaker's Loc-RIB entry for it."""
        if prefix in speaker._origins:
            for session in speaker.sessions.values():
                self._flush_session(session, prefix)
            return
        if best is None:
            # No route: every neighbor that still holds one is told to
            # withdraw it (desired_export is None throughout).
            for session in speaker.sessions.values():
                if session.sent.get(prefix) is not None:
                    self._send(session, prefix, None)
            return
        # A transit route is told identically to every neighbor the
        # export policy admits (desired_export's rules, in its order):
        # one announcement per decision change.
        targets = speaker.policy.export_targets(
            best.relationship, best.communities
        )
        supplier = best.neighbor
        shared = None
        for neighbor, session in speaker.sessions.items():
            desired = None
            if neighbor in targets and neighbor != supplier:
                if shared is None:
                    shared = speaker.transit_announcement(best)
                desired = shared
            if desired != session.sent.get(prefix):
                self._send(session, prefix, desired)

    def _flush_session(self, session: _Session, prefix: Prefix) -> None:
        src, dst = session.key
        desired = self.speakers[src].desired_export(prefix, dst)
        if desired != session.sent.get(prefix):
            self._send(session, prefix, desired)

    def _send(
        self,
        session: _Session,
        prefix: Prefix,
        desired: Optional[Announcement],
    ) -> None:
        """Transmit *desired*, which differs from what *session* last
        sent for *prefix* — or arm the MRAI timer that will.
        Withdrawals are conventionally not rate-limited (WRATE off).
        Both pushes skip :meth:`_push`'s check: an MRAI expiry lies
        ahead of now, and so does an arrival (the delays are >= 0)."""
        now = self.now
        if desired is not None:
            last = session.last_sent_time.get(prefix)
            if last is not None and now < last + session.mrai:
                if prefix not in session.timer_pending:
                    session.timer_pending.add(prefix)
                    heappush(self._queue, (
                        last + session.mrai, next(self._seq),
                        EVENT_MRAI_EXPIRE, session, prefix, None,
                    ))
                return
        session.sent[prefix] = desired
        session.last_sent_time[prefix] = now
        session.updates += 1
        src, dst = session.key
        if self.obs is not None:
            self.obs.emit(
                "bgp.update-sent", now, "bgp.engine",
                subject=str(prefix), src=src, dst=dst,
                update="withdraw" if desired is None else "announce",
                path=list(desired.as_path) if desired is not None else None,
            )
        update = desired
        if desired is None:
            update = _new(Withdrawal, (prefix, src))
        deliveries = 1
        if self.fault_hook is not None:
            action = self.fault_hook(src, dst, update)
            if action == "drop":
                # The sender believes the update went out (session state
                # already says so); the receiver never sees it.  The
                # resulting RIB inconsistency persists until the next
                # update or session reset — exactly a real silent loss.
                return
            if action == "duplicate":
                deliveries = 2
        rand = self._rng.random
        proc_min, proc_span, link_min, link_span = self._delay_terms
        queue, seq = self._queue, self._seq
        for _ in range(deliveries):
            # Two ``Random.uniform`` draws spelled out, processing first
            # (the stream order every digest was recorded under).  FIFO
            # per session: equal timestamps keep heap sequence order,
            # which is send order.
            arrival = (
                now
                + (proc_min + proc_span * rand())
                + (link_min + link_span * rand())
            )
            if arrival < session.floor:
                arrival = session.floor
            session.floor = arrival
            heappush(queue, (
                arrival, next(seq), EVENT_DELIVER, dst, update, None,
            ))

    # ------------------------------------------------------------------
    # Incremental convergence (repro.bgp.delta)
    # ------------------------------------------------------------------
    def _invalidate_analytic(self, prefix: Optional[Prefix] = None) -> None:
        """Event-path activity on *prefix* (None: on every prefix): write
        its pending rows first (the event path reads and mutates them;
        its messages carry that prefix alone), then drop the analytic
        state map — crossed messages can leave artifacts the per-prefix
        solutions do not describe, so the delta gate must refuse from
        now on.  The solution memo goes with it: only a splice reads
        it."""
        self.materialize(prefix)
        self._analytic = None
        self._delta_solutions.clear()

    def consume_fib_dirty(self) -> Optional[Dict[int, Set[Prefix]]]:
        """The FIB rows that moved since the last call (then reset):
        asn -> the prefixes whose next hop changed there.

        Returns None when the engine cannot bound the change set (cold
        start, or state installed wholesale by :meth:`warm_start`) — the
        caller must rebuild every FIB, after which tracking restarts.
        """
        dirty = self._fib_dirty
        self._fib_dirty = {}
        return dirty

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def best_route(self, asn: int, prefix: Prefix) -> Optional[Route]:
        """Loc-RIB best at *asn* for exactly *prefix*."""
        return self.speakers[asn].best(prefix)

    def as_path(self, asn: int, prefix: Prefix) -> Optional[ASPath]:
        """Selected AS path from *asn* for *prefix* (None if unreachable)."""
        best = self.speakers[asn].best(prefix)
        return best.as_path if best else None

    def ases_using(self, prefix: Prefix, via: int) -> List[int]:
        """ASes whose selected route for *prefix* traverses AS *via*."""
        return [
            asn
            for asn, speaker in self.speakers.items()
            if asn != via and speaker.uses_as(prefix, via)
        ]

    def forwarding_next_hops(self, prefix: Prefix) -> Dict[int, int]:
        """AS-level next hop per AS for *prefix* (origin maps to itself)."""
        out: Dict[int, int] = {}
        for asn, speaker in self.speakers.items():
            best = speaker.best(prefix)
            if best is not None:
                out[asn] = best.neighbor
        return out

    def avoid_notifications(self) -> Dict[int, int]:
        """Per-AS count of received AVOID_PROBLEM hints naming that AS."""
        return {
            asn: speaker.avoid_notifications
            for asn, speaker in self.speakers.items()
            if speaker.avoid_notifications
        }
