"""Compare two result documents written by ``run.py --out``.

    python3 bench/compare.py PARENT.json CHANGE.json

One row per (workload, end-to-end metric) with the metric's direction
and bound from ``BENCHMARK.json`` and a verdict:

``worse``       the change's median is worse than the parent's by more
                than the bound;
``better``      every run of the change beats every run of the parent
                and the medians differ by more than the parent's spread;
``unresolved``  the runs of the two sides interleave and one side's
                spread is wider than the bound — the data cannot say;
                run more repeats on a quieter machine;
``same``        anything else.

Three more rows per workload carry no timing.  ``failed_fraction`` is
``worse`` when it rose.  ``behaviour`` counts the simulated outcomes
(``BEHAVIOUR``: repair records, the time-to-repair list, affected
user-minutes, announcements, fuzz verdicts) that differ between the two
sides' runs of the same seed and reads ``changed`` when there is one: a
change that moves them changed what the program does, and its timings
are not comparable with the parent's; ``unpaired`` when the documents
share no seed.  A workload only one document has reads ``missing``.

Exits non-zero on any ``worse``, ``changed``, ``unpaired`` or
``missing``.  Two documents from the same commit must produce none.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Guard entries that are outcomes of the simulation rather than of how
#: it was computed; they repeat exactly for one (workload, seed).
BEHAVIOUR = (
    "records", "repaired", "ttr", "affected_user_minutes",
    "announcements", "verdicts",
)


def spread(values: List[float]) -> float:
    """Quartile distance (range below four values) over the median."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        width = max(values) - min(values)
    else:
        quartiles = statistics.quantiles(values, n=4)
        width = quartiles[2] - quartiles[0]
    return width / abs(statistics.median(values))


def verdict(
    parent: List[float], change: List[float], better: str, bound: float
) -> Tuple[str, float]:
    """(verdict, worsening as a share of the parent's median)."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worsening = sign * (statistics.median(change) - base) / abs(base)
    all_better = all(sign * c < sign * p for c in change for p in parent)
    all_worse = all(sign * c > sign * p for c in change for p in parent)
    interleave = not (all_better or all_worse)
    if interleave and max(spread(parent), spread(change)) > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if all_better and -worsening > spread(parent):
        return "better", worsening
    return "same", worsening


def failed_fraction(runs: List[Dict[str, Any]]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted


def behaviour_changes(
    runs_a: List[Dict[str, Any]], runs_b: List[Dict[str, Any]]
) -> Optional[List[str]]:
    """``BEHAVIOUR`` entries that differ between the two sides' runs of
    the same seed; None when no seed was run on both sides."""
    by_seed = {run["seed"]: run["guard"] for run in runs_a}
    changed = set()
    paired = False
    for run in runs_b:
        if run["seed"] not in by_seed:
            continue
        paired = True
        guard_a, guard_b = by_seed[run["seed"]], run["guard"]
        changed.update(
            key
            for key in BEHAVIOUR
            if guard_a.get(key) != guard_b.get(key)
        )
    return sorted(changed) if paired else None


def plain_row(
    workload: str, metric: str, parent: float, change: float, verdict: str
) -> Dict[str, Any]:
    """A row that is a count or a share, not a bounded measurement."""
    return {
        "workload": workload,
        "metric": metric,
        "unit": "1",
        "better": "lower",
        "bound": 0.0,
        "parent": parent,
        "change": change,
        "worsening": change - parent,
        "spread": 0.0,
        "verdict": verdict,
    }


def compare(
    parent: Dict[str, Any], change: Dict[str, Any], spec: Dict[str, Any]
) -> Tuple[List[Dict[str, Any]], bool]:
    """Rows for every workload, and whether the change passes."""
    rows: List[Dict[str, Any]] = []
    passed = True
    for workload in sorted(set(parent["results"]) | set(change["results"])):
        runs_a = parent["results"].get(workload, [])
        runs_b = change["results"].get(workload, [])
        if not runs_a or not runs_b:
            passed = False
            rows.append(plain_row(
                workload, "runs", len(runs_a), len(runs_b), "missing"
            ))
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [r["metrics"][name]["value"] for r in runs_a]
            values_b = [r["metrics"][name]["value"] for r in runs_b]
            outcome, worsening = verdict(
                values_a, values_b, metric["better"], metric["bound"]
            )
            passed = passed and outcome != "worse"
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": statistics.median(values_a),
                "change": statistics.median(values_b),
                "worsening": worsening,
                "spread": max(spread(values_a), spread(values_b)),
                "verdict": outcome,
            })
        failed_a = failed_fraction(runs_a)
        failed_b = failed_fraction(runs_b)
        rose = failed_b > failed_a
        rows.append(plain_row(
            workload, "failed_fraction", failed_a, failed_b,
            "worse" if rose else "same",
        ))
        changed = behaviour_changes(runs_a, runs_b)
        if changed:
            sys.stderr.write(
                f"{workload}: behaviour changed: {', '.join(changed)}\n"
            )
        if changed is None:
            outcome = "unpaired"
        else:
            outcome = "changed" if changed else "same"
        rows.append(plain_row(
            workload, "behaviour", 0, len(changed or ()), outcome
        ))
        passed = passed and not rose and outcome == "same"
    return rows, passed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(args.parent) as fh:
        parent = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    rows, passed = compare(parent, change, spec)
    print(
        f"{'workload':16s} {'metric':16s} {'better':6s} {'bound':>6s} "
        f"{'parent':>11s} {'change':>11s} {'worse by':>9s} "
        f"{'spread':>7s}  verdict"
    )
    for row in rows:
        # Counts and shares move by a difference, measurements by a
        # share of the parent's median.
        moved = "+9.3g" if row["unit"] == "1" else "+9.1%"
        print(
            f"{row['workload']:16s} {row['metric']:16s} "
            f"{row['better']:6s} {row['bound']:6.0%} "
            f"{row['parent']:11.5g} {row['change']:11.5g} "
            f"{row['worsening']:{moved}} {row['spread']:7.1%}  "
            f"{row['verdict']}"
        )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
