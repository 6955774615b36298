"""Differential fuzzing of the analytic solver vs. the event engine.

The repo carries two independent implementations of BGP convergence —
the analytic Gao-Rexford solver (:mod:`repro.bgp.solver`) and the
discrete-event engine (:mod:`repro.bgp.engine`).  Under every
configuration the :func:`~repro.bgp.solver.solver_unsupported_reason`
gate clears, both must produce identical Loc-RIB, forwarding and
advertised wire state (equal row sets, :mod:`repro.fuzz.diff`) —
including after arbitrary perturbations (poisons, withdrawals, session
resets, message drops).  This package generates random cases, runs both
backends, diffs the results, shrinks any divergence to a minimal
reproducer and writes it to a replayable JSON corpus.  See DESIGN.md
(fuzzing architecture) for the protocol.
"""

from repro.fuzz.case import ActionSpec, FuzzCase, OrigSpec
from repro.fuzz.campaign import CampaignReport, run_campaign
from repro.fuzz.executor import (
    VERDICT_CRASH,
    VERDICT_DIVERGENCE,
    VERDICT_EQUAL,
    VERDICT_GATE_REJECTED,
    CaseResult,
    run_case,
)
from repro.fuzz.gen import FUZZ_SCALES, generate_case
from repro.fuzz.shrink import shrink_case, single_reductions

__all__ = [
    "ActionSpec",
    "CampaignReport",
    "CaseResult",
    "FUZZ_SCALES",
    "FuzzCase",
    "OrigSpec",
    "VERDICT_CRASH",
    "VERDICT_DIVERGENCE",
    "VERDICT_EQUAL",
    "VERDICT_GATE_REJECTED",
    "generate_case",
    "run_campaign",
    "run_case",
    "shrink_case",
    "single_reductions",
]
