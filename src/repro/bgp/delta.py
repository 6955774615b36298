"""Incremental convergence: blast-radius delta recomputation.

Every LIFEGUARD repair step — poison, unpoison, verification replay,
service round — perturbs the origination config of a handful of prefixes
while the rest of the converged Internet is untouched.  Yet the event
engine replays the whole message storm, O(V + E) wall work per step.
Under pure Gao-Rexford policy a routing change can only affect the
*dirty cone*: the set of ASes reachable from the change site under
valley-free export.  This module recomputes exactly that.

**Dirty-cone computation.**  A change set (re-origination, withdrawal,
session reset) is collapsed to a per-prefix "last config wins" map,
exactly like sequential ``engine.originate`` calls.  For each dirty
prefix the analytic per-prefix solver (:func:`repro.bgp.solver
.solve_prefix`) re-runs its three-phase propagation; the propagation
itself only ever visits ASes that can hear the prefix, so the solve *is*
the cone traversal — no separate reachability pass, and its cost is
O(blast radius), not O(topology).  Clean prefixes are never touched.

**Splice-back invariant.**  The engine tracks the
:class:`~repro.bgp.solver.PrefixSolution` behind every prefix while its
state is *analytic* (installed by ``warm_start`` or this module, never
perturbed by event-path activity), and the solution *is* the prefix's
routing state: its Adj-RIB-In and wire rows are derived from it only
when ``BGPEngine.materialize`` writes them.  So a splice of a prefix
whose rows are still pending is a swap — the new solution replaces the
old one and stays pending — followed by the Loc-RIB pass: every AS
whose selection changed is pinned and logged, in sorted order.  A
prefix whose rows were already written has them dropped first (the old
solution's receivers and exporters name every one) and becomes pending
again.  There is no row or wire diff.  The resulting engine state is
identical — ``fuzz.diff.capture_state`` over every prefix returns an
equal row set — to a cold full re-run of the solver on the new
origination set.  The equality is pinned four ways: the post-poison /
post-unpoison sweeps in ``tests/test_bgp_solver.py``, the dedicated
cycle tests in ``tests/test_bgp_delta.py``, the capture / splice /
capture ladder in ``tests/test_bgp_materialize.py``, and a third
differential arm in the fuzz executor.

**The gate.**  Like the solver, the delta path refuses anything it
cannot model exactly — event-perturbed engines (stale Adj-RIB-In
artifacts from message crossing make splice bounds unsound), attached
fault hooks (faults need transmitted messages), avoid-hints/communities,
invalid paths, plus the solver's own policy, origin and MOAS checks.
:func:`try_apply_delta` turns a refusal into an accounted fallback
(``solver.delta.fallbacks[.<slug>]``) so callers take the event path.

A clean session reset is modelled as a routing no-op: Gao-Rexford
convergence is unique, so with no message faults the event engine
returns to the pre-reset fixpoint and re-advertises exactly the analytic
wire state (the fuzz arm exercises this equivalence on every ``reset``
action).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bgp.rib import Route
from repro.bgp.solver import (
    Origination,
    PrefixSolution,
    Refusal,
    SolverUnsupported,
    build_adjacency,
    count_refusal,
    duplicate_prefix_reason,
    solve_prefix,
    speaker_config_reason,
    unknown_origin_reason,
)
from repro.net.addr import Prefix

#: Per-engine solution memo bound; a repair ladder cycles through a
#: handful of announcement shapes, so the memo is cleared wholesale on
#: overflow rather than tracking recency.
_SOLUTION_MEMO_CAP = 64


@dataclass(frozen=True)
class DeltaChange:
    """One element of a change set.

    ``kind`` is ``originate`` (re-announce ``origination``), ``withdraw``
    (AS ``asn`` stops originating ``prefix``) or ``reset`` (bounce the
    ``asn``/``peer`` session).  ``communities``/``avoid`` are carried
    only so the gate can refuse them — the analytic model has no
    announcement attributes.
    """

    kind: str
    origination: Optional[Origination] = None
    asn: int = 0
    prefix: Optional[Prefix] = None
    peer: int = 0
    communities: Tuple = ()
    avoid: frozenset = frozenset()

    @staticmethod
    def originate(
        asn: int,
        prefix: Prefix,
        path=None,
        per_neighbor=None,
        med: int = 0,
        communities=(),
        avoid=(),
    ) -> "DeltaChange":
        return DeltaChange(
            kind="originate",
            origination=Origination.make(
                asn, prefix, path=path, per_neighbor=per_neighbor, med=med
            ),
            asn=asn,
            prefix=prefix,
            communities=tuple(communities),
            avoid=frozenset(avoid),
        )

    @staticmethod
    def withdraw(asn: int, prefix: Prefix) -> "DeltaChange":
        return DeltaChange(kind="withdraw", asn=asn, prefix=prefix)

    @staticmethod
    def reset(asn: int, peer: int) -> "DeltaChange":
        return DeltaChange(kind="reset", asn=asn, peer=peer)


@dataclass
class DeltaResult:
    """What one :func:`apply_delta` call touched."""

    #: prefixes whose state was re-derived, in application order.
    dirty_prefixes: List[Prefix] = field(default_factory=list)
    #: union of ASes whose per-prefix state was removed or installed.
    cone_asns: Set[int] = field(default_factory=set)
    #: ASes whose forwarding next hop actually changed (⊆ cone).
    rerouted_asns: Set[int] = field(default_factory=set)
    #: session resets absorbed as fixpoint no-ops.
    resets: int = 0
    #: dirty prefixes whose solution came from the per-engine memo.
    solve_cache_hits: int = 0
    solve_seconds: float = 0.0
    splice_seconds: float = 0.0

    @property
    def cone_size(self) -> int:
        return len(self.cone_asns)


def delta_unsupported_reason(
    engine, changes: Sequence[DeltaChange]
) -> Optional[Refusal]:
    """Why *changes* cannot be delta-applied to *engine* (None: they can).

    The splice counterpart of
    :func:`~repro.bgp.solver.solver_unsupported_reason`: it checks the
    engine's state and the change set itself, and takes the speaker
    config, unknown-origin and duplicate-prefix checks from the solver.
    """
    analytic = getattr(engine, "_analytic", None)
    if analytic is None:
        return Refusal(
            "not_analytic",
            "engine state is not analytic "
            "(cold start or event-path activity)",
        )
    if engine._queue:
        return Refusal(
            "events_pending", "events pending (delta needs a quiescent engine)"
        )
    if engine.fault_hook is not None:
        return Refusal(
            "fault_hook",
            "fault hook attached (message faults need the event engine)",
        )
    # A speaker's config changes only through its ``reconfigure``, which
    # empties this cell, so the config sweep is cached (the gate runs
    # on every repair announcement).
    verdict = engine._config_verdict
    if not verdict:
        verdict.append(speaker_config_reason(engine))
    if verdict[0] is not None:
        return verdict[0]
    owners: Dict[Prefix, int] = {}
    for change in changes:
        if change.kind == "originate":
            if change.avoid:
                return Refusal(
                    "avoid_hint",
                    "avoid-hint announcements need the event engine",
                )
            if change.communities:
                return Refusal(
                    "communities", "communities need the event engine"
                )
            org = change.origination
            refusal = unknown_origin_reason(engine, org)
            if refusal is not None:
                return refusal
            paths = [org.path]
            if org.per_neighbor is not None:
                paths.extend(path for _, path in org.per_neighbor)
            for path in paths:
                if path is None:
                    continue
                if not path or path[0] != org.asn or path[-1] != org.asn:
                    return Refusal(
                        "invalid_path",
                        f"invalid origin path {path} for AS{org.asn} "
                        "(the event engine raises)",
                    )
            owner = owners.get(org.prefix)
            if owner is None:
                existing = analytic.get(org.prefix)
                owner = existing.origination.asn if existing else org.asn
            if owner != org.asn:
                return duplicate_prefix_reason(org.prefix)
            owners[org.prefix] = org.asn
        elif change.kind not in ("withdraw", "reset"):
            return Refusal(
                "unknown_change", f"unknown delta change kind {change.kind!r}"
            )
    return None


def apply_delta(
    engine, changes: Sequence[DeltaChange], stats=None
) -> DeltaResult:
    """Splice *changes* into *engine*'s analytic converged state.

    Raises :class:`~repro.bgp.solver.SolverUnsupported` when the gate
    refuses; use :func:`try_apply_delta` for the accounted-fallback
    variant.  On success the engine is at the exact state a cold
    ``solve`` + ``warm_start`` of the post-change origination set would
    produce, with one Loc-RIB change reported per AS whose selection
    changed (sorted per prefix, so the ``on_change`` listeners and the
    ``bgp.decision-change`` events hear them in a deterministic order).
    """
    refusal = delta_unsupported_reason(engine, changes)
    if refusal is not None:
        raise SolverUnsupported(
            f"delta recomputation cannot model: {refusal}"
        )
    analytic: Dict[Prefix, PrefixSolution] = engine._analytic
    adjacency = engine._delta_adjacency
    if adjacency is None:
        adjacency = engine._delta_adjacency = build_adjacency(engine)
    solutions: Dict[Origination, PrefixSolution] = engine._delta_solutions

    # Collapse the batch: the last origination config per prefix wins,
    # exactly like sequential engine.originate calls; a withdraw only
    # takes effect when the withdrawing AS currently owns the prefix.
    dirty: Dict[Prefix, Optional[Origination]] = {}
    result = DeltaResult()
    for change in changes:
        if change.kind == "originate":
            dirty[change.origination.prefix] = change.origination
        elif change.kind == "withdraw":
            if change.prefix in dirty:
                pending = dirty[change.prefix]
                owner = pending.asn if pending is not None else None
            else:
                solution = analytic.get(change.prefix)
                owner = solution.origination.asn if solution else None
            if owner == change.asn:
                dirty[change.prefix] = None
        else:  # reset: the unique fixpoint is unchanged by a clean bounce
            if (change.asn, change.peer) in engine._session_map:
                result.resets += 1
                engine.session_resets += 1
                if engine.obs is not None:
                    engine.obs.emit(
                        "bgp.session-reset", engine.now, "bgp.engine",
                        subject=f"AS{change.asn}<->AS{change.peer}",
                        as_a=change.asn, as_b=change.peer,
                    )

    splice_start = perf_counter()
    phase_seconds = {"up": 0.0, "across": 0.0, "down": 0.0, "install": 0.0}
    speakers = engine.speakers
    pending = engine._rows_pending
    for prefix, org in dirty.items():
        old = analytic.get(prefix)
        if org is None and old is None:
            continue
        if old is not None and org == old.origination:
            # Idempotent re-announce: the event engine would transmit
            # nothing and end in value-identical state.
            continue
        result.dirty_prefixes.append(prefix)

        # Capture the outgoing selections.  ``best`` excludes origin
        # self-routes (they come from BGPSpeaker.originate), so the
        # origin's entry is read from the live table before it changes.
        old_best: Dict[int, Route] = {}
        origin_asns = set()
        if old is not None:
            if prefix not in pending:
                _drop_rows(speakers, prefix, old)
            old_best = dict(old.best)
            origin_asns.add(old.origination.asn)
            origin_self = speakers[old.origination.asn].best(prefix)
            if origin_self is not None:
                old_best[old.origination.asn] = origin_self
            result.cone_asns.update(old.best)

        # Re-solve the prefix; propagation itself is cone-bounded.
        new_best: Dict[int, Route] = {}
        if org is None:
            speakers[old.origination.asn].stop_originating(prefix)
            del analytic[prefix]
            pending.pop(prefix, None)
        else:
            # A solution is a pure function of (origination, adjacency),
            # so repair ladders that revisit a config — every unpoison
            # returns to the baseline, every steer announces the same
            # shape — splice the memoized solution without re-solving.
            # Event-path activity clears the memo with the analytic flag.
            solution = solutions.get(org)
            if solution is None:
                t0 = perf_counter()
                solution = solve_prefix(org, adjacency, phase_seconds)
                result.solve_seconds += perf_counter() - t0
                if len(solutions) >= _SOLUTION_MEMO_CAP:
                    solutions.clear()
                solutions[org] = solution
            else:
                result.solve_cache_hits += 1
            # State-only origination: updates the origin's spec, its
            # self-route and its Loc-RIB selection, no session flush.
            speakers[org.asn].originate(
                prefix,
                path=org.path,
                per_neighbor=org.per_neighbor_dict(),
                med=org.med,
            )
            # The swap: the solution stands for the prefix's rows until
            # engine.materialize writes them.
            analytic[prefix] = pending[prefix] = solution
            new_best = dict(solution.best)
            new_best[org.asn] = speakers[org.asn].best(prefix)
            origin_asns.add(org.asn)
            result.cone_asns.update(solution.best)
        result.cone_asns.update(origin_asns)

        # Pin changed Loc-RIB selections and account them.  Origin ASes
        # are already pinned by originate/stop_originating's reselect.
        for asn in sorted(old_best.keys() | new_best.keys()):
            old_route = old_best.get(asn)
            new_route = new_best.get(asn)
            if old_route == new_route:
                continue
            if asn not in origin_asns:
                speakers[asn].table.pin_best(prefix, new_route)
            old_nh = old_route.neighbor if old_route is not None else None
            new_nh = new_route.neighbor if new_route is not None else None
            if old_nh != new_nh:
                result.rerouted_asns.add(asn)
            engine._log_change(asn, prefix, old_route, new_route)

    result.splice_seconds = (
        perf_counter() - splice_start - result.solve_seconds
    )
    if stats is not None:
        stats.count("solver.delta.applied")
        stats.count("solver.delta.prefixes", len(result.dirty_prefixes))
        if result.solve_cache_hits:
            stats.count(
                "solver.delta.solve_cache_hits", result.solve_cache_hits
            )
        stats.add_time("solver.delta.solve", result.solve_seconds)
        stats.add_time("solver.delta.splice", result.splice_seconds)
    if engine.obs is not None:
        engine.obs.emit(
            "bgp.delta", engine.now, "bgp.engine",
            subject=f"{len(result.dirty_prefixes)} prefixes",
            prefixes=len(result.dirty_prefixes),
            cone=result.cone_size,
            rerouted=len(result.rerouted_asns),
            resets=result.resets,
        )
        engine.obs.observe(
            "solver.delta.cone_size", float(result.cone_size)
        )
        engine.obs.observe(
            "solver.delta.splice_seconds", result.splice_seconds
        )
    return result


def _drop_rows(speakers, prefix: Prefix, solution: PrefixSolution) -> None:
    """Remove the rows ``engine.materialize`` wrote for *solution*: the
    Adj-RIB-In rows at its receivers (its ``best`` ASes) and the wire
    rows its exporters (the origin and those receivers) hold."""
    for asn in solution.best:
        speakers[asn].table.replace_rows(prefix, None)
    for asn in (solution.origination.asn, *solution.best):
        for session in speakers[asn].sessions.values():
            session.sent.pop(prefix, None)


def try_apply_delta(
    engine, changes: Sequence[DeltaChange], stats=None
) -> Optional[DeltaResult]:
    """:func:`apply_delta`, or None with fallback accounting.

    A gate refusal emits a ``bgp.delta-fallback`` event (subject: the
    refusal's slug) and counts ``solver.delta.fallbacks`` plus
    ``solver.delta.fallbacks.<slug>`` so dashboards can see how often
    the full replay path still runs.
    """
    refusal = delta_unsupported_reason(engine, changes)
    if refusal is None:
        return apply_delta(engine, changes, stats=stats)
    if stats is not None:
        count_refusal(stats, "solver.delta", refusal)
    obs = engine.obs
    if obs is not None:
        obs.emit(
            "bgp.delta-fallback", engine.now, "bgp.engine",
            subject=refusal.slug, reason=refusal.reason,
        )
        metrics = getattr(obs, "metrics", None)
        if metrics is not None:
            metrics.counter("solver.delta.fallbacks").inc()
    return None
