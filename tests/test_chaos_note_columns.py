"""The chaos table counts the controller's notes by their words.

The robustness study's deferral and retry-exhaustion columns
(``RobustnessPoint.count_notes``, which ``_run_point`` calls) and the
stream scoreboard's breaker-open column (``StreamScore.tally``) match
substrings of the notes the controller journals.  Here every note the
controller writes for one of those events is produced by the code that
writes it, and it must count in its own column and in no other: a
reworded note fails here instead of silently moving ``robustness.txt``.
"""

from types import SimpleNamespace

import pytest

from repro.control import plan
from repro.control.guard import BreakerState, VerifyVerdict
from repro.control.lifeguard import Lifeguard
from repro.control.record import RepairRecord
from repro.experiments.robustness import RobustnessPoint
from repro.isolation.direction import FailureDirection
from repro.isolation.isolator import FailureIsolator, IsolationResult
from repro.measure.monitor import OutageRecord
from repro.net.addr import Address

DST = Address("10.9.0.1")
NOW = 1000.0


def _record(**fields):
    outage = OutageRecord(
        vp_name="vp1", destination=DST, start=0.0, detected=110.0
    )
    return RepairRecord(outage=outage, **fields)


def _given_up_note(outcome):
    verb, commits = outcome
    assert verb == "give-up"
    (note,) = [fields["note"] for kind, fields in commits if kind == "note"]
    return note


def _plan_deferrals():
    thin = IsolationResult(
        vp_name="vp1",
        destination=DST,
        direction=FailureDirection.REVERSE,
        blamed_asn=7,
        confidence=plan.MIN_CONFIDENCE / 2,
    )
    _, low_confidence = plan.judge_verdict(thin, 1, 2, {})
    return {
        "pace": plan.pace(False)[2],
        "low-confidence": low_confidence[2],
        "breaker-backoff": plan.admit(7, BreakerState.BACKOFF, 1)[2],
    }


def _shell_deferrals():
    """The notes of the shell's own deferrals, written by its stages
    running over stand-ins for the deployment."""
    notes = []

    def defer(record, now, why, note, refund=None):
        notes.append(note)

    # The isolator refuses a vantage point that died after the stage's
    # health check.
    dead = SimpleNamespace(
        vantage_points=SimpleNamespace(
            get=lambda name: None, is_up=lambda name: False
        ),
        obs=None,
    )
    shell = SimpleNamespace(
        decision_model=SimpleNamespace(
            decide=lambda elapsed: SimpleNamespace(poison=True)
        ),
        vantage_points=SimpleNamespace(is_up=lambda name: False),
        origin=SimpleNamespace(pacer=SimpleNamespace(allows=lambda t: True)),
        config=SimpleNamespace(fallback_ladder=False),
        isolator=SimpleNamespace(
            isolate=lambda *args: FailureIsolator.isolate(dead, *args)
        ),
        guard=SimpleNamespace(
            verify=lambda *args: SimpleNamespace(
                verdict=VerifyVerdict.DEFERRED
            )
        ),
        _defer=defer,
        _note_once=lambda record, note: notes.append(note),
    )
    Lifeguard.stage_isolate(shell, _record(), NOW)
    shell.vantage_points.is_up = lambda name: True
    Lifeguard.stage_isolate(shell, _record(), NOW)
    Lifeguard.stage_verify(shell, _record(poison_time=0.0), NOW)
    return dict(zip(("vp-down", "vp-died", "verify-vp-down"), notes))


def _notes():
    spent = plan.charge_isolation(
        _record(isolation_charge=plan.MAX_ISOLATION_ATTEMPTS),
        plan.MAX_ISOLATION_ATTEMPTS,
    )[1]
    deferrals = {**_plan_deferrals(), **_shell_deferrals()}
    assert len(deferrals) == 6
    return [
        *[
            pytest.param(note, "deferrals", id=name)
            for name, note in deferrals.items()
        ],
        pytest.param(_given_up_note(spent), "retry_exhausted", id="retry"),
        pytest.param(
            _given_up_note(plan.breaker_open(7, 3)),
            "breaker_opens",
            id="breaker-open",
        ),
    ]


def _columns(note):
    point = RobustnessPoint(intensity=0.0)
    stream = SimpleNamespace(
        outages=[],
        loop=SimpleNamespace(controller_crashes=0, recovered_records=0),
        ledger=SimpleNamespace(
            matrix=SimpleNamespace(total_users=0),
            peak_affected=0,
            user_minutes=0.0,
        ),
        records=[SimpleNamespace(rollbacks=[], notes=[note])],
    )
    point.tally(stream)
    point.count_notes([note])
    return {
        "deferrals": point.deferrals,
        "retry_exhausted": point.retry_exhausted,
        "breaker_opens": point.breaker_opens,
    }


@pytest.mark.parametrize("note, column", _notes())
def test_each_note_counts_in_its_own_column(note, column):
    columns = _columns(note)
    assert columns.pop(column) == 1, note
    assert not any(columns.values()), note
