"""Smoke tests of the benchmark itself (not part of tier-1):

    PYTHONPATH=src python -m pytest bench -q

Every workload runs at a fraction of its size; the numbers mean
nothing here, only that each piece does what ``README.md`` says.
"""

from __future__ import annotations

import copy
import json
import re

import pytest

import compare
import run
import worker
import workloads

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: episode size factor for the smoke runs.
SMALL = 0.04


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    names = (
        WORKLOADS
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["bound"] <= setup[0]["bound"]
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_exactly_the_declared_metrics(workload, trace):
    result = run.run_workload(
        workload, 0, 0.0, bool(trace), SPEC, size=SMALL
    )
    failed = [c for c in result["checks"] if not c["ok"]]
    assert result["correct"], failed
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    line = json.loads(run.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_the_layers_each_workload_is_about_show_up():
    def layers(workload):
        return worker.run_episode(
            workload, 0, trace=True, size=SMALL
        )["layers"]

    steady = layers("monitor_steady")
    assert steady["dataplane.forward_n"] > steady["measure.pings_n"] > 0
    assert steady["dataplane.fib_lookup_n"] > 0
    assert steady["obs.events_n"] > 0 and steady["fuzz.run_case_s"] == 0
    assert steady["control.recover_records_n"] > 0
    ladder = layers("repair_ladder")
    assert ladder["bgp.announce_n"] > 0 and ladder["bgp.converge_s"] > 0
    assert ladder["dataplane.build_fibs_n"] > ladder["bgp.announce_n"]
    assert ladder["measure.pings_n"] == 0
    assert 0 < ladder["bgp.memo_hit_ratio"] < 1
    fuzz = layers("fuzz_medium")
    assert fuzz["fuzz.capture_n"] > 0 and fuzz["bgp.solve_s"] > 0
    assert fuzz["dataplane.forward_n"] == 0
    for traced in (steady, ladder, fuzz):
        assert traced["harness.unaccounted_fraction"] <= 0.15


def test_spans_nest_and_wrappers_are_removed(tmp_path):
    from repro.dataplane.fib import build_fibs
    from repro.dataplane.forwarding import DataPlane
    from repro.traffic.lpm import FlatLPM
    import repro.control.lifeguard as lifeguard_module

    forward = DataPlane.forward
    compile_ = vars(FlatLPM)["compile"]
    path = tmp_path / "spans.jsonl"
    record = worker.run_episode(
        "monitor_steady", 1, trace=True, size=SMALL, trace_out=str(path)
    )
    assert DataPlane.forward is forward
    assert vars(FlatLPM)["compile"] is compile_
    assert lifeguard_module.build_fibs is build_fibs

    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(spans) == record["spans"] > 1000
    covered = [0.0] * len(spans)
    for index, (_name, start, end, parent, op) in enumerate(spans):
        assert end >= start and parent < index and op >= -1
        if parent >= 0:
            _pname, pstart, pend, _pp, _pop = spans[parent]
            assert pstart <= start and end <= pend
            covered[parent] += end - start
    self_times = [
        (end - start) - covered[index]
        for index, (_name, start, end, _p, _op) in enumerate(spans)
    ]
    assert min(self_times) > -1e-6
    wall = max(s[2] for s in spans) - min(s[1] for s in spans)
    assert sum(self_times) <= wall * (1 + 1e-9)
    # Timed rounds are fully covered by the service.run_round span.
    assert record["layers"]["harness.unaccounted_fraction"] < 0.01
    rounds = {s[4] for s in spans if s[0] == "service.run_round"}
    assert rounds == set(range(len(record["durations"])))


def test_child_environment_is_scrubbed(monkeypatch):
    monkeypatch.setenv("REPRO_DELTA_MODE", "off")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/nonexistent")
    env = run.child_environment()
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"].split(":")[0].endswith("src")


def _document(scale=1.0, failed=0, ttr=(600.0, 720.0)):
    runs = []
    for jitter in (0.99, 1.0, 1.01):
        metrics = {}
        for metric in SPEC["end_to_end"]:
            worse = scale if metric["better"] == "lower" else 1 / scale
            metrics[metric["name"]] = {
                "value": 10.0 * jitter * worse, "unit": metric["unit"],
            }
        runs.append({
            "seed": 0,
            "metrics": metrics,
            "attempted": 100,
            "failed": failed,
            "guard": {
                "digest": f"{scale}", "records": 100, "repaired": 2,
                "ttr": list(ttr), "affected_user_minutes": 1234.5,
            },
        })
    return {"results": {"monitor_steady": runs}}


def _verdicts(rows):
    return {r["metric"]: r["verdict"] for r in rows}


def test_compare_passes_identical_and_flags_a_regression(tmp_path):
    rows, passed = compare.compare(_document(), _document(), SPEC)
    assert passed and set(_verdicts(rows).values()) == {"same"}

    rows, passed = compare.compare(_document(), _document(1.5), SPEC)
    assert not passed
    bounded = {m["name"] for m in SPEC["end_to_end"]}
    assert {
        r["verdict"] for r in rows if r["metric"] in bounded
    } == {"worse"}

    # A 20% regression is flagged on every metric bounded below 20%.
    rows, passed = compare.compare(_document(), _document(1.2), SPEC)
    assert not passed
    for metric in SPEC["end_to_end"]:
        expected = "worse" if metric["bound"] < 0.19 else "same"
        assert _verdicts(rows)[metric["name"]] == expected
    assert _verdicts(rows)["peak_rss_mb"] == "worse"

    rows, passed = compare.compare(_document(), _document(0.7), SPEC)
    assert passed and all(
        r["verdict"] == "better" for r in rows if r["metric"] in bounded
    )

    rows, passed = compare.compare(_document(), _document(failed=1), SPEC)
    assert not passed and _verdicts(rows)["failed_fraction"] == "worse"

    noisy = copy.deepcopy(_document())
    values = iter((7.0, 10.0, 13.0))
    for one in noisy["results"]["monitor_steady"]:
        one["metrics"]["op_ms_p50"]["value"] = next(values)
    rows, passed = compare.compare(_document(), noisy, SPEC)
    assert passed and _verdicts(rows)["op_ms_p50"] == "unresolved"

    parent, change = tmp_path / "a.json", tmp_path / "b.json"
    parent.write_text(json.dumps(_document()))
    change.write_text(json.dumps(_document(1.2)))
    assert compare.main([str(parent), str(parent)]) == 0
    assert compare.main([str(parent), str(change)]) == 1


def test_compare_fails_changed_behaviour_and_missing_workloads():
    # Same timings, one repair took longer: not the same program.
    moved = _document(ttr=(600.0, 840.0))
    rows, passed = compare.compare(_document(), moved, SPEC)
    assert not passed and _verdicts(rows)["behaviour"] == "changed"
    bounded = {m["name"] for m in SPEC["end_to_end"]}
    assert {
        r["verdict"] for r in rows if r["metric"] in bounded
    } == {"same"}

    # The event digest is how the outcome was computed, not the outcome.
    rows, passed = compare.compare(_document(), _document(1.01), SPEC)
    assert passed and _verdicts(rows)["behaviour"] == "same"

    other_seed = copy.deepcopy(_document())
    for one in other_seed["results"]["monitor_steady"]:
        one["seed"] = 1
    rows, passed = compare.compare(_document(), other_seed, SPEC)
    assert not passed and _verdicts(rows)["behaviour"] == "unpaired"

    both = copy.deepcopy(_document())
    both["results"]["fuzz_medium"] = both["results"]["monitor_steady"]
    for parent, change in ((both, _document()), (_document(), both)):
        rows, passed = compare.compare(parent, change, SPEC)
        assert not passed
        missing = [r for r in rows if r["verdict"] == "missing"]
        assert [r["workload"] for r in missing] == ["fuzz_medium"]
