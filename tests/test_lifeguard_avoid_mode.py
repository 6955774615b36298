"""End-to-end test: LIFEGUARD remediating with AVOID_PROBLEM instead of
poisoning (the idealized mode, LifeguardConfig.use_avoid_problem)."""

import pytest

from repro.control.lifeguard import LifeguardConfig
from repro.control.record import IN_FLIGHT, RepairState
from repro.dataplane.failures import ASForwardingFailure
from repro.workloads.scenarios import build_deployment


@pytest.fixture(scope="module")
def scenario():
    return build_deployment(
        scale="tiny", seed=5, num_providers=2,
        lifeguard_config=LifeguardConfig(use_avoid_problem=True),
    )


class TestAvoidProblemMode:
    def test_repair_cycle_with_avoid_problem(self, scenario):
        lifeguard = scenario.lifeguard
        target = scenario.targets[0]
        bad_asn = scenario.reverse_transits(target)[0]
        sentinel = lifeguard.sentinel_manager.sentinel

        lifeguard.prime_atlas(now=0.0)
        lifeguard.dataplane.failures.add(
            ASForwardingFailure(
                asn=bad_asn, toward=sentinel, start=1000.0, end=8200.0
            )
        )
        scenario.run(9600.0)

        record = next(
            r for r in lifeguard.records if r.poisoned_asn == bad_asn
        )
        # The outage was repaired via the avoid hint...
        assert record.outage.end is not None
        assert record.state is RepairState.UNPOISONED
        # ...and the announcement log shows the primitive, not a poison.
        actions = [entry[1] for entry in lifeguard.origin.log]
        assert any("avoid-problem" in action for action in actions)
        assert not any(
            action.startswith("poison") for action in actions
        )

    def test_faulty_as_keeps_a_route_during_remediation(self, scenario):
        """Unlike poisoning, the primitive never cuts the faulty AS off
        (the Backup Property), so no sentinel fallback is needed for it."""
        lifeguard = scenario.lifeguard
        engine = scenario.engine
        record = next(
            r for r in lifeguard.records
            if r.state in (*IN_FLIGHT, RepairState.UNPOISONED)
        )
        # The repair is over by now; re-apply the hint and check.
        lifeguard.origin.avoid_problem([record.poisoned_asn])
        engine.run()
        assert engine.as_path(
            record.poisoned_asn, scenario.production_prefix
        ) is not None
        lifeguard.origin.unpoison()
        engine.run()
