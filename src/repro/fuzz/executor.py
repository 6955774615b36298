"""The differential executor: one case, two backends, one verdict.

Protocol (mirrors the solver's poison-equivalence tests):

1. Gate — :func:`~repro.bgp.solver.solver_unsupported_reason` on a fresh
   engine.  A rejection is a *budget* entry (conservative by design),
   not a failure; the result carries the refusal's reason and slug.
2. Baselines — solver side: ``solve`` + ``warm_start`` on that fresh
   engine; event side: a second fresh engine (same ``engine_seed``, so
   identical construction-time MRAI jitter draws) originates everything
   and runs to quiescence.  No faults are active here: the solver sends
   no messages, so message faults during baseline convergence would be
   a legitimate, uninteresting divergence.
3. Align — both engines ``advance_to(now + 61)`` (past every 30 s MRAI
   window) and ``reseed`` with the same case-derived seed, making their
   subsequent timing-draw streams identical.  Converged state carries no
   absolute timestamps, so the differing clocks are unobservable.
4. Perturb — the case's action script runs on both sides, each action
   followed by ``run()``; the case's message-fault plan is attached to
   both engines through identically-seeded
   :class:`~repro.faults.injector.FaultInjector` instances, so drops
   and duplicates hit the same transmissions on both sides.
5. Diff — :func:`~repro.fuzz.diff.capture_state` of everything both
   engines hold, compared by exact equality (``==`` on the two
   co-resident snapshots; no digest, no strings).  Only a mismatch
   expands rows: every differing one becomes the string key / JSON
   value triple corpus files carry, counted and sampled in one pass.

When the case carries no message faults, a **third arm** replays the
action script through :mod:`repro.bgp.delta` on another warm-started
engine — per action, the delta gate either splices or skips the whole
arm (a skip is budget, like a gate rejection) — and its final state must
hold exactly the event engine's rows.  This is the standing CI check
for the splice-back invariant over arbitrary fuzzer-generated inputs,
not just the curated workloads.

``inject_divergence=True`` is the end-to-end test hook: it unpins one
solver-computed Loc-RIB selection after warm-start, which must surface
as a divergence, shrink to a minimal case and land in the corpus.

A *stats* object handed to :func:`run_case` also receives the oracle's
own cost, off every digest path: ``fuzz.capture`` / ``fuzz.compare``
wall timers and a ``fuzz.capture_rows`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Tuple

from repro.bgp.delta import (
    DeltaChange,
    apply_delta,
    delta_unsupported_reason,
)
from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.solver import solve, solver_unsupported_reason
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.fuzz.case import FuzzCase
from repro.fuzz.diff import capture_state, diff_states
from repro.net.addr import Prefix
from repro.runner.core import derive_seed

VERDICT_EQUAL = "equal"
VERDICT_DIVERGENCE = "divergence"
VERDICT_GATE_REJECTED = "gate-rejected"
VERDICT_CRASH = "crash"

#: Clock advance before perturbing: safely past the longest possible
#: MRAI window (30 s * jitter <= 1.0), so no timer from the baseline
#: phase gates the first perturbation update on either side.
SETTLE_SECONDS = 61.0


@dataclass
class CaseResult:
    """Outcome of one differential execution."""

    verdict: str
    #: gate reason, or ``ExcType: message`` for crashes.
    reason: Optional[str] = None
    #: the gate refusal's slug (gate-rejected results only).
    slug: Optional[str] = None
    #: which side crashed or diverged when it was not the solver-vs-event
    #: pair: "solver", "event", "setup" or "delta".
    crash_side: Optional[str] = None
    #: first differing keys as (key, solver value, event value).
    diff: List[Tuple[str, Optional[str], Optional[str]]] = field(
        default_factory=list
    )
    #: total number of differing keys (diff holds only the first few).
    diff_count: int = 0
    #: third-arm outcome: "equal" (delta state matched the event
    #: engine's), "skipped: <gate reason>", or None (arm not run — a
    #: fault plan was active, there were no actions, or the run ended
    #: before the arm).
    delta_arm: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.verdict in (VERDICT_DIVERGENCE, VERDICT_CRASH)

    def signature(self) -> Tuple[str, Optional[str], Optional[str]]:
        """What the shrinker must preserve: the failure mode, not the
        exact diff (shrinking legitimately changes which keys differ)."""
        crash_type = None
        if self.verdict == VERDICT_CRASH and self.reason:
            crash_type = self.reason.split(":", 1)[0]
        return (self.verdict, self.crash_side, crash_type)


def run_case(
    case: FuzzCase,
    *,
    inject_divergence: bool = False,
    stats=None,
    diff_limit: int = 8,
) -> CaseResult:
    """Run both backends on *case* and compare their row sets."""
    try:
        graph = case.build_graph()
        originations = case.resolved_originations()
        for action in case.actions:
            if action.prefix and action.op in ("announce", "withdraw"):
                Prefix(action.prefix)  # malformed: a set-up crash too
    except Exception as exc:
        return CaseResult(
            VERDICT_CRASH, reason=_crash_reason(exc), crash_side="setup"
        )

    solver_engine = BGPEngine(
        graph, EngineConfig(seed=case.engine_seed), case.speaker_configs()
    )
    refusal = solver_unsupported_reason(solver_engine, originations)
    if refusal is not None:
        return CaseResult(
            VERDICT_GATE_REJECTED, reason=refusal.reason, slug=refusal.slug
        )

    try:
        solution = solve(solver_engine, originations, stats=stats)
        solver_engine.warm_start(solution)
        if inject_divergence:
            _tamper(solver_engine, solution)
        _perturb(solver_engine, case)
        solver_state = _capture(solver_engine, stats)
    except Exception as exc:
        return CaseResult(
            VERDICT_CRASH, reason=_crash_reason(exc), crash_side="solver"
        )

    try:
        event_engine = BGPEngine(
            graph,
            EngineConfig(seed=case.engine_seed),
            case.speaker_configs(),
        )
        for org in originations:
            event_engine.originate(
                org.asn,
                org.prefix,
                path=org.path,
                per_neighbor=org.per_neighbor_dict(),
                med=org.med,
            )
        event_engine.run()
        _perturb(event_engine, case)
        event_state = _capture(event_engine, stats)
    except Exception as exc:
        return CaseResult(
            VERDICT_CRASH, reason=_crash_reason(exc), crash_side="event"
        )

    mismatch = _compare(solver_state, event_state, stats, diff_limit)
    if mismatch is not None:
        diff, total = mismatch
        return CaseResult(VERDICT_DIVERGENCE, diff=diff, diff_count=total)
    result = CaseResult(VERDICT_EQUAL)
    if case.actions and case.fault_plan().is_null:
        arm = _delta_arm(
            case,
            graph,
            solution,
            event_state,
            stats=stats,
            diff_limit=diff_limit,
        )
        if isinstance(arm, CaseResult):
            return arm
        result.delta_arm = arm
    return result


def _capture(engine, stats):
    """``capture_state`` of everything *engine* holds, timed and
    row-counted into *stats* if given."""
    start = perf_counter()
    state = capture_state(engine)
    if stats is not None:
        stats.add_time("fuzz.capture", perf_counter() - start)
        stats.count("fuzz.capture_rows", len(state))
    return state


def _compare(state, event_state, stats, diff_limit: int):
    """None when the two captures hold equal row sets; otherwise
    ``(diff sample, diff_count)`` from one pass over the differing
    rows, *state*'s side first."""
    start = perf_counter()
    mismatch = None
    if state != event_state:
        rows = diff_states(state, event_state, limit=None)
        mismatch = (rows[:diff_limit], len(rows))
    if stats is not None:
        stats.add_time("fuzz.compare", perf_counter() - start)
    return mismatch


def _delta_arm(
    case: FuzzCase,
    graph,
    solution,
    event_state,
    *,
    stats=None,
    diff_limit: int = 8,
):
    """Replay the action script through ``repro.bgp.delta``.

    Returns the ``delta_arm`` string for an equal or skipped run, or a
    full :class:`CaseResult` (verdict crash/divergence, side "delta")
    when the arm fails.  Faulty plans never reach here: message faults
    are exactly what the delta gate exists to refuse.

    The arm warm-starts from *solution*, the solver arm's own result:
    ``solve`` is pure in graph, configs and originations, each engine
    materialises rows of its own from it, and the divergence hook
    corrupts the solver arm's engine, not the solution.
    """
    try:
        engine = BGPEngine(
            graph,
            EngineConfig(seed=case.engine_seed),
            case.speaker_configs(),
        )
        engine.warm_start(solution)
        engine.advance_to(engine.now + SETTLE_SECONDS)
        engine.reseed(derive_seed(case.seed, "fuzz-perturb"))
        for action in case.actions:
            change = _delta_change(action)
            refusal = delta_unsupported_reason(engine, [change])
            if refusal is not None:
                if stats is not None:
                    stats.count("fuzz.delta_arm_skips")
                return f"skipped: {refusal}"
            apply_delta(engine, [change], stats=stats)
        delta_state = _capture(engine, stats)
    except Exception as exc:
        return CaseResult(
            VERDICT_CRASH, reason=_crash_reason(exc), crash_side="delta"
        )
    if stats is not None:
        stats.count("fuzz.delta_arm_runs")
    mismatch = _compare(delta_state, event_state, stats, diff_limit)
    if mismatch is None:
        return "equal"
    diff, total = mismatch
    return CaseResult(
        VERDICT_DIVERGENCE,
        crash_side="delta",
        diff=diff,
        diff_count=total,
        delta_arm="divergence",
    )


def _delta_change(action) -> DeltaChange:
    if action.op == "announce":
        return DeltaChange.originate(
            action.asn,
            Prefix(action.prefix),
            path=action.path,
            per_neighbor=action.per_neighbor,
            med=action.med,
        )
    if action.op == "withdraw":
        return DeltaChange.withdraw(action.asn, Prefix(action.prefix))
    if action.op == "reset":
        return DeltaChange.reset(action.asn, action.peer)
    raise SimulationError(f"fuzz case: unknown action {action.op!r}")


def _perturb(engine: BGPEngine, case: FuzzCase) -> None:
    """Steps 3-4 of the protocol, identical on both sides."""
    engine.advance_to(engine.now + SETTLE_SECONDS)
    engine.reseed(derive_seed(case.seed, "fuzz-perturb"))
    plan = case.fault_plan()
    if not plan.is_null:
        FaultInjector(plan).attach_engine(engine)
    try:
        for action in case.actions:
            if action.op == "announce":
                engine.originate(
                    action.asn,
                    Prefix(action.prefix),
                    path=action.path,
                    per_neighbor=action.per_neighbor,
                    med=action.med,
                )
            elif action.op == "withdraw":
                engine.withdraw_origin(action.asn, Prefix(action.prefix))
            elif action.op == "reset":
                engine.reset_session(action.asn, action.peer)
            else:
                raise SimulationError(
                    f"fuzz case: unknown action {action.op!r}"
                )
            engine.run()
    finally:
        engine.fault_hook = None


def _tamper(engine, solution) -> None:
    """Corrupt a warm-started engine deterministically (the
    known-divergence test hook): unpin the highest-ASN Loc-RIB selection
    of the first prefix that has one — in the engine, never in
    *solution*, which the delta arm goes on to share.  Minimal surviving
    case: one link, one origination — well under the 8-AS shrink-quality
    bar."""
    for solved in solution.solutions:
        if solved.best:
            victim = max(solved.best)
            engine.speakers[victim].table.pin_best(solved.prefix, None)
            return


def _crash_reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"
