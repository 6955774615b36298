"""Reading and replaying a fuzz corpus directory (the committed one in
``tests/corpus/fuzz`` and the ones a campaign test writes).

The library writes entries (:mod:`repro.fuzz.corpus`); only tests read
them back, so the reader and the replay judge live here.
"""

from __future__ import annotations

import json
import os
from typing import List, Tuple

from repro.fuzz.case import FuzzCase
from repro.fuzz.corpus import EXPECT_EQUAL, EXPECT_GATE_REJECT
from repro.fuzz.executor import (
    VERDICT_EQUAL,
    VERDICT_GATE_REJECTED,
    run_case,
)


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
