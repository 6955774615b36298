"""Replayable JSON corpus of shrunk fuzzer findings.

Every failing (or gate-pinning) case the fuzzer keeps becomes one
``fuzz-<digest12>.json`` file: the full case, what the fuzzer observed
when it found it, and what a healthy tree must observe on replay
(``expect``).  ``tests/test_fuzz_corpus.py`` replays every committed
entry on both backends each run, so a fixed bug stays fixed.

``expect`` values:

* ``"equal"`` — both backends must hold equal row sets (the normal pin
  for a fixed divergence);
* ``"gate-reject"`` — :func:`~repro.bgp.solver.solver_unsupported_reason`
  must refuse the case, with ``reason_contains`` (optional) naming a
  fragment of the refusal's reason text (the pin for a gate gap the
  fuzzer exposed).
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from repro.fuzz.case import CASE_SCHEMA, FuzzCase
from repro.fuzz.executor import (
    VERDICT_EQUAL,
    VERDICT_GATE_REJECTED,
    CaseResult,
    run_case,
)

EXPECT_EQUAL = "equal"
EXPECT_GATE_REJECT = "gate-reject"


def make_entry(
    case: FuzzCase,
    *,
    expect: str = EXPECT_EQUAL,
    reason_contains: Optional[str] = None,
    note: str = "",
    found: Optional[CaseResult] = None,
) -> dict:
    entry = {
        "schema": CASE_SCHEMA,
        "expect": expect,
        "note": note,
        "case": case.to_json(),
    }
    if reason_contains is not None:
        entry["reason_contains"] = reason_contains
    if found is not None:
        entry["found"] = {
            "verdict": found.verdict,
            "reason": found.reason,
            "crash_side": found.crash_side,
            "diff_count": found.diff_count,
            "diff_sample": [list(row) for row in found.diff[:5]],
            "delta_arm": found.delta_arm,
        }
    return entry


def entry_filename(case: FuzzCase) -> str:
    return f"fuzz-{case.digest()[:12]}.json"


def write_entry(corpus_dir: str, entry: dict) -> str:
    """Write one entry; returns its path (stable per case content)."""
    os.makedirs(corpus_dir, exist_ok=True)
    case = FuzzCase.from_json(entry["case"])
    path = os.path.join(corpus_dir, entry_filename(case))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_entries(corpus_dir: str) -> List[Tuple[str, dict]]:
    """Every (path, entry) under *corpus_dir*, sorted by filename."""
    if not os.path.isdir(corpus_dir):
        return []
    out: List[Tuple[str, dict]] = []
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(corpus_dir, name)
        with open(path, "r", encoding="utf-8") as handle:
            out.append((path, json.load(handle)))
    return out


def replay_entry(entry: dict) -> Tuple[bool, str]:
    """Replay one corpus entry against its expectation.

    Returns (ok, detail) — detail carries the observed verdict plus the
    first diff rows, so a failing replay is directly actionable.
    """
    case = FuzzCase.from_json(entry["case"])
    result = run_case(case)
    expect = entry.get("expect", EXPECT_EQUAL)
    detail = f"verdict={result.verdict}"
    if result.reason:
        detail += f" reason={result.reason!r}"
    if result.diff:
        detail += f" diff={result.diff[:3]!r}"
    if expect == EXPECT_EQUAL:
        return result.verdict == VERDICT_EQUAL, detail
    if expect == EXPECT_GATE_REJECT:
        fragment = entry.get("reason_contains", "")
        ok = result.verdict == VERDICT_GATE_REJECTED and (
            fragment in (result.reason or "")
        )
        return ok, detail
    return False, f"unknown expectation {expect!r} ({detail})"
