"""Replayable JSON corpus of shrunk fuzzer findings.

Every failing (or gate-pinning) case the fuzzer keeps becomes one
``fuzz-<digest12>.json`` file: the full case, what the fuzzer observed
when it found it, and what a healthy tree must observe on replay
(``expect``).  ``tests/test_fuzz_corpus.py`` replays every committed
entry on both backends each run (``tests/corpus_replay.py`` reads and
judges them), so a fixed bug stays fixed.

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
from typing import Optional

from repro.fuzz.case import CASE_SCHEMA, FuzzCase
from repro.fuzz.executor import CaseResult

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
