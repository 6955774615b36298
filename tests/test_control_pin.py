"""The control loop, pinned the way ``test_bgp_engine_pin.py`` pins the
event engine.

Every constant below was recorded at ``bde2619`` — the commit *before*
the staging rule, the announcement door, the ground-truth picker, the
crash/recover path and the outage-stream harness each became one
definition — by running this file's drivers against that commit.  A
refactor of ``control/``, ``service/``, ``workloads/scenarios.py`` or the
robustness / defense studies that is meant to move no behaviour must
pass it unedited.
"""

import hashlib
import itertools
import json
from types import SimpleNamespace

import pytest

from repro.control.lifeguard import (
    STAGE_FOR_STATE,
    LifeguardConfig,
    RepairState,
    stage_of,
)
from repro.control.record import STAGES
from repro.experiments.defenses import run_defense_study
from repro.experiments.robustness import run_robustness_study
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.service import LifeguardService, ServiceConfig
from repro.traffic import TrafficConfig
from repro.workloads.outages import OutageArrivalConfig
from repro.workloads.scenarios import build_deployment, run_demo_scenario

DEMO_DIGEST = (
    "97269386a5a7ce965414429b57c52e85"
    "e4e6ad29052e0c245217c2a1dd570dd2"
)
DEMO_JOURNAL_ENTRIES = 43

#: injected, detected, repaired, completed, false poisons, deferrals,
#: retry-exhausted, rollbacks, breaker opens, crashes, recovered records,
#: users, peak users affected, affected user-minutes.
ROBUSTNESS = {
    3: (3, 3, 2, 2, 0, 2, 0, 4, 0, 1, 3, 1000000, 9440, 1283840.0),
    5: (3, 3, 1, 1, 0, 3, 0, 0, 0, 1, 4, 1000000, 3401, 833245.0),
}
#: injected, detected, repaired, escalations, ladder repairs, rollbacks,
#: breaker opens, abandoned, crashes, recovered records, repair times,
#: users, peak users affected, affected user-minutes.
DEFENSES = {
    3: (3, 3, 3, 9, 1, 11, 2, 0, 1, 9, (330.0, 600.0, 5730.0),
        1000000, 9440, 1719504.0),
    5: (3, 3, 1, 12, 1, 16, 4, 0, 1, 8, (2250.0,),
        1000000, 3401, 942077.0),
}
SERVICE_CRASH_REPORT = {
    "duration": 2430.0, "rounds": 70, "monitored_pairs": 20,
    "arrivals": 4, "records": 6, "repaired": 2, "completed": 2,
    "settled": 6, "pending": 0, "abandoned": 0, "shed": 0,
    "deferred": 0, "timeouts": 0, "backpressure": 0, "crashes": 1,
    "tier_transitions": 0, "final_tier": "NORMAL", "ttr_p50": 240.0,
    "ttr_p95": 240.0, "ttr_p99": 240.0,
    "queue_peaks": {"check": 1, "isolate": 5, "retry": 0, "verify": 1},
    "journal_entries": 142, "journal_rotations": 0, "drained": True,
    "users_total": 1000000, "users_affected": 0,
    "peak_users_affected": 8143, "affected_user_minutes": 54270.0,
    "digest": (
        "3e5d35e6338a01b394ae4d358d83c94e"
        "cc7312ea82594df25830669c9c6122ce"
    ),
}
#: The ground-truth plan of the CI service deployment (small, seed 0,
#: 125 targets, 9 helper VPs): SHA-256 of its JSON, and the four targets
#: where the two orderings of ``avoidable_transit`` disagree, as
#: ``target: (first avoidable AS on the path, the plan's choice)``.
SERVICE_PLAN_ENTRIES = 123
SERVICE_PLAN_SHA256 = (
    "a29931064eb45ee9fea9ad15a2f3f3ea"
    "dcfc898bad6d077ab618fb44a4da433f"
)
SERVICE_PLAN_DECIDED_BY_ORDER = {
    "0.34.0.1": (5, 1),
    "0.61.0.1": (12, 2),
    "0.61.0.2": (12, 2),
    "0.72.0.1": (5, 1),
}


def robustness_scoreboard(seed):
    study = run_robustness_study(
        scale="tiny", seed=seed, intensities=(0.1,), num_outages=3,
        crash_controller=True,
    )
    (p,) = study.points
    return (
        p.injected, p.detected, p.repaired, p.completed, p.false_poisons,
        p.deferrals, p.retry_exhausted, p.rollbacks, p.breaker_opens,
        p.controller_crashes, p.recovered_records, p.users_total,
        p.peak_users_affected, round(p.affected_user_minutes, 6),
    )


def defense_scoreboard(seed):
    study = run_defense_study(
        scale="tiny", seed=seed, rates=(1.0,), num_outages=3,
        crash_controller=True, ladder_arms=(True,),
    )
    (p,) = study.points
    return (
        p.injected, p.detected, p.repaired, p.escalations,
        p.ladder_repairs, p.rollbacks, p.breaker_opens, p.abandoned,
        p.controller_crashes, p.recovered_records,
        tuple(p.repair_times), p.users_total, p.peak_users_affected,
        round(p.affected_user_minutes, 6),
    )


def service_crash_report():
    """The small 40-round episode of ``test_service.py``'s read-path
    pin, with the controller killed at round 20."""
    obs = EventBus(metrics=MetricsRegistry())
    scenario = build_deployment(
        scale="small", seed=3, num_helper_vps=3, num_targets=5,
        obs=obs, baseline_mode="auto",
        lifeguard_config=LifeguardConfig(delta_mode="off"),
    )
    config = ServiceConfig(
        duration=1200.0,
        arrivals=OutageArrivalConfig(
            first_arrival=150.0, spacing=300.0, duration=900.0
        ),
        seed=3,
        drain=1500.0,
        traffic=TrafficConfig(),
        crash_at=600.0,
    )
    return LifeguardService(scenario, config, obs=obs).run().as_dict()


def service_plan():
    """``(scenario, plan)`` of the CI service line's deployment."""
    scenario = build_deployment(
        scale="small", seed=0, num_helper_vps=9, num_targets=125
    )
    service = LifeguardService(scenario, ServiceConfig(seed=0))
    service.start()
    (entry,) = [
        e for e in service.journal if e["event"] == "service-plan"
    ]
    return scenario, [tuple(pair) for pair in entry["targets"]]


class TestBehaviourPin:
    def test_demo_scenario(self):
        obs = EventBus()
        scenario, _bad_asn = run_demo_scenario(seed=5, scale="tiny", obs=obs)
        assert obs.digest() == DEMO_DIGEST
        assert len(scenario.lifeguard.journal) == DEMO_JOURNAL_ENTRIES

    @pytest.mark.parametrize("seed", sorted(ROBUSTNESS))
    def test_robustness_cell_with_a_crash(self, seed):
        assert robustness_scoreboard(seed) == ROBUSTNESS[seed]

    @pytest.mark.parametrize("seed", sorted(DEFENSES))
    def test_defense_cell_with_a_crash(self, seed):
        assert defense_scoreboard(seed) == DEFENSES[seed]

    def test_service_crash_run(self):
        assert service_crash_report() == SERVICE_CRASH_REPORT

    def test_service_plan_orderings(self):
        """Both orderings of ``avoidable_transit``: the studies' first
        on the path, the plan's lowest-degree / providers-last."""
        scenario, plan = service_plan()
        assert len(plan) == SERVICE_PLAN_ENTRIES
        blob = json.dumps(plan).encode()
        assert hashlib.sha256(blob).hexdigest() == SERVICE_PLAN_SHA256
        planned = dict(plan)
        disagree = {
            str(target): (
                scenario.avoidable_transit(target), planned[str(target)]
            )
            for target in scenario.targets
            if str(target) in planned
            and scenario.avoidable_transit(target) != planned[str(target)]
        }
        assert disagree == SERVICE_PLAN_DECIDED_BY_ORDER


class TestStageOfIsTotal:
    def test_every_state_maps_to_a_stage_or_none(self):
        stages = set(STAGES)
        for state, end in itertools.product(RepairState, (None, 1234.0)):
            record = SimpleNamespace(
                state=state, outage=SimpleNamespace(end=end)
            )
            assert stage_of(record) in stages | {None}, (state, end)

    def test_healed_outage_settles_the_forward_states(self):
        for state in RepairState:
            ongoing = stage_of(
                SimpleNamespace(state=state, outage=SimpleNamespace(end=None))
            )
            healed = stage_of(
                SimpleNamespace(state=state, outage=SimpleNamespace(end=9.0))
            )
            assert ongoing == STAGE_FOR_STATE.get(state)
            if state in (RepairState.OBSERVED, RepairState.ROLLED_BACK):
                assert healed is None
            else:
                assert healed == ongoing
