"""Campaign orchestration: generate, execute, shrink, persist, report.

Cases are fanned out over :func:`~repro.runner.core.run_trials` (the
same deterministic process pool every experiment uses); workers receive
only the campaign context plus a case *index* and regenerate the case
from its content-derived seed, so results are byte-identical at any
worker count and only failing cases ship their JSON back.  Failures are
shrunk serially in the parent (shrinking is a predicate-guided search,
inherently sequential) and written to the corpus.

Observability: each case emits a ``fuzz.case`` event and each failure a
``fuzz.divergence`` event on the optional bus; counters land in the
stats registry (``fuzz.cases``, ``fuzz.equal``, ``fuzz.divergence``,
``fuzz.crash``, ``fuzz.gate_rejected``, ``fuzz.gate_rejections.<slug>``
and ``fuzz.shrink_runs``).  The per-reason gate counters are the
"conservative rejection budget" the report surfaces, keyed by the slug
the gate's refusal carried.  Every case also ships back its wall time
(``fuzz.run_case``) and what :func:`run_case` recorded about its own
cost (solver phases, ``fuzz.capture`` / ``fuzz.compare`` wall timers,
``fuzz.capture_rows``); the campaign merges them and sets the
``fuzz.verify_share`` gauge — capture plus compare as a fraction of the
time spent inside ``run_case`` — so a metrics snapshot says what the
oracle cost without a profiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fuzz.case import FuzzCase
from repro.fuzz.corpus import make_entry, write_entry
from repro.fuzz.executor import (
    VERDICT_CRASH,
    VERDICT_DIVERGENCE,
    VERDICT_EQUAL,
    VERDICT_GATE_REJECTED,
    run_case,
)
from repro.fuzz.gen import generate_case
from repro.fuzz.shrink import DEFAULT_SHRINK_BUDGET, shrink_case
from repro.runner.core import run_trials
from repro.runner.stats import RunStats


@dataclass
class CampaignFailure:
    """One divergence or crash, with its shrunk reproducer."""

    index: int
    verdict: str
    reason: Optional[str]
    crash_side: Optional[str]
    diff_sample: List[list]
    case: FuzzCase
    shrunk: FuzzCase
    shrink_runs: int
    corpus_path: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "verdict": self.verdict,
            "reason": self.reason,
            "crash_side": self.crash_side,
            "diff_sample": self.diff_sample,
            "case_digest": self.case.digest()[:12],
            "shrunk_digest": self.shrunk.digest()[:12],
            "shrunk_summary": self.shrunk.summary(),
            "shrink_runs": self.shrink_runs,
            "corpus_path": self.corpus_path,
        }


@dataclass
class CampaignReport:
    """Aggregate outcome of one fuzzing campaign."""

    seed: int
    scale: str
    cases: int
    equal: int = 0
    divergences: int = 0
    crashes: int = 0
    gate_rejected: int = 0
    #: the conservative-rejection budget: reason slug -> case count.
    gate_reasons: Dict[str, int] = field(default_factory=dict)
    failures: List[CampaignFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergences == 0 and self.crashes == 0

    def as_dict(self) -> dict:
        """Deterministic summary (worker-count-independence tests)."""
        return {
            "seed": self.seed,
            "scale": self.scale,
            "cases": self.cases,
            "equal": self.equal,
            "divergences": self.divergences,
            "crashes": self.crashes,
            "gate_rejected": self.gate_rejected,
            "gate_reasons": dict(sorted(self.gate_reasons.items())),
            "failures": [f.as_dict() for f in self.failures],
        }


def _case_worker(context, index: int) -> dict:
    """Pool worker: regenerate case *index* and run it differentially.

    Ships the full case JSON back only for failures; everything else is
    a small verdict record plus the case's own timers and counters.
    """
    master_seed, scale, inject = context
    case = generate_case(master_seed, index, scale)
    stats = RunStats()
    with stats.timer("fuzz.run_case"):
        result = run_case(case, inject_divergence=inject, stats=stats)
    row = {
        "index": index,
        "verdict": result.verdict,
        "reason": result.reason,
        "slug": result.slug,
        "crash_side": result.crash_side,
        "stats": stats.as_dict(),
    }
    if result.failed:
        row["diff_sample"] = [list(d) for d in result.diff[:5]]
        row["case"] = case.to_json()
    return row


def run_campaign(
    *,
    seed: int,
    cases: int,
    scale: str = "small",
    workers: int = 1,
    shrink: bool = True,
    shrink_budget: int = DEFAULT_SHRINK_BUDGET,
    corpus_dir: Optional[str] = None,
    inject_divergence: bool = False,
    stats: Optional[RunStats] = None,
    bus=None,
) -> CampaignReport:
    """Run *cases* differential cases; shrink and persist any failure."""
    stats = stats if stats is not None else RunStats()
    rows = run_trials(
        _case_worker,
        list(range(cases)),
        context=(seed, scale, inject_divergence),
        workers=workers,
        stats=stats,
        label="fuzz",
    )

    report = CampaignReport(seed=seed, scale=scale, cases=cases)
    for row in rows:
        verdict = row["verdict"]
        stats.count("fuzz.cases")
        stats.merge_dict(row["stats"])
        if bus is not None:
            bus.emit(
                "fuzz.case",
                float(row["index"]),
                "fuzz.campaign",
                subject=f"case {row['index']}",
                verdict=verdict,
                reason=row["reason"],
            )
        if verdict == VERDICT_EQUAL:
            report.equal += 1
            stats.count("fuzz.equal")
        elif verdict == VERDICT_GATE_REJECTED:
            report.gate_rejected += 1
            slug = row["slug"]
            report.gate_reasons[slug] = report.gate_reasons.get(slug, 0) + 1
            stats.count("fuzz.gate_rejected")
            stats.count(f"fuzz.gate_rejections.{slug}")
        elif verdict == VERDICT_DIVERGENCE:
            report.divergences += 1
            stats.count("fuzz.divergence")
        elif verdict == VERDICT_CRASH:
            report.crashes += 1
            stats.count("fuzz.crash")
    timers = stats.timers
    if timers.get("fuzz.run_case"):
        verify = timers.get("fuzz.capture", 0.0) + timers.get(
            "fuzz.compare", 0.0
        )
        stats.registry.set_gauge(
            "fuzz.verify_share", verify / timers["fuzz.run_case"]
        )

    for row in rows:
        if row["verdict"] not in (VERDICT_DIVERGENCE, VERDICT_CRASH):
            continue
        failure = _handle_failure(
            row,
            inject_divergence=inject_divergence,
            shrink=shrink,
            shrink_budget=shrink_budget,
            corpus_dir=corpus_dir,
            stats=stats,
        )
        report.failures.append(failure)
        if bus is not None:
            bus.emit(
                "fuzz.divergence",
                float(failure.index),
                "fuzz.campaign",
                subject=f"case {failure.index}",
                verdict=failure.verdict,
                reason=failure.reason,
                shrunk=failure.shrunk.summary(),
                corpus_path=failure.corpus_path,
            )
    return report


def _handle_failure(
    row: dict,
    *,
    inject_divergence: bool,
    shrink: bool,
    shrink_budget: int,
    corpus_dir: Optional[str],
    stats: RunStats,
) -> CampaignFailure:
    case = FuzzCase.from_json(row["case"])
    original = run_case(case, inject_divergence=inject_divergence)
    signature = original.signature()

    def still_fails(candidate: FuzzCase) -> bool:
        result = run_case(candidate, inject_divergence=inject_divergence)
        return result.failed and result.signature() == signature

    if shrink:
        shrunk, runs = shrink_case(
            case, still_fails, budget=shrink_budget
        )
        stats.count("fuzz.shrink_runs", runs)
    else:
        shrunk, runs = case, 0

    found = run_case(shrunk, inject_divergence=inject_divergence)
    failure = CampaignFailure(
        index=row["index"],
        verdict=row["verdict"],
        reason=row["reason"],
        crash_side=row["crash_side"],
        diff_sample=row.get("diff_sample", []),
        case=case,
        shrunk=shrunk,
        shrink_runs=runs,
    )
    if corpus_dir is not None:
        note = (
            "deliberately-injected divergence (test hook); expectation "
            "documents the healthy state"
            if inject_divergence
            else f"found by fuzz campaign (case index {row['index']})"
        )
        entry = make_entry(shrunk, note=note, found=found)
        failure.corpus_path = write_entry(corpus_dir, entry)
    return failure
