#!/usr/bin/env python3
"""Chaos drill: LIFEGUARD repairs an outage while its own tooling fails.

The quickstart shows the repair loop under lab conditions.  This drill
re-runs it the way a real deployment lives: a seeded fault injector is
attached to LIFEGUARD's *own* infrastructure — probes get lost, a helper
vantage point crashes mid-incident, a BGP session to a transit provider
resets, the path atlas goes stale, sentinel replies vanish — while a real
reverse-path failure burns in a transit AS.  The system must retry, defer
when its evidence is thin, and still converge on the right poison without
ever blaming a healthy AS.

Run:  python examples/chaos_drill.py
"""

from repro.control.plan import MAX_ISOLATION_ATTEMPTS
from repro.control.record import IN_FLIGHT, RepairState
from repro.dataplane.failures import ASForwardingFailure
from repro.workloads.scenarios import build_chaos_deployment

#: 10% probe loss, plus scaled latency/BGP/atlas/sentinel faults, one
#: helper crash window and one transit session reset.
INTENSITY = 0.1


def main():
    print("Building a LIFEGUARD deployment with a chaos plan attached...")
    scenario, injector = build_chaos_deployment(
        scale="tiny", seed=5, intensity=INTENSITY, chaos_start=900.0,
        num_providers=2,
    )
    lifeguard = scenario.lifeguard
    target = scenario.targets[0]
    bad_asn = scenario.reverse_transits(target)[0]
    print(f"  origin AS{scenario.origin_asn}, monitored target {target}")
    print(f"  chaos plan: {len(injector.plan.specs)} fault specs at "
          f"intensity {INTENSITY} (faults hit LIFEGUARD's probes, vantage "
          "points,")
    print("  BGP sessions, atlas and sentinel - never the monitored "
          "paths)\n")

    lifeguard.prime_atlas(now=0.0)
    print(f"Injecting the real failure: AS{bad_asn} blackholes reverse "
          "traffic (t=1000s..8200s).\n")
    lifeguard.dataplane.failures.add(
        ASForwardingFailure(
            asn=bad_asn,
            toward=lifeguard.sentinel_manager.sentinel,
            start=1000.0,
            end=8200.0,
        )
    )

    print("Running the monitoring loop under chaos...\n")
    scenario.run(12000.0)

    stats = injector.stats
    print("chaos fault report")
    print("-" * 60)
    print(f"  probes lost / timed out     {stats.probes_lost} / "
          f"{stats.probes_timed_out}")
    print(f"  vantage point crashes       {stats.vp_crashes} "
          f"(restores {stats.vp_restores})")
    print(f"  BGP session resets          {stats.session_resets}")
    print(f"  BGP messages dropped/duped  {stats.messages_dropped} / "
          f"{stats.messages_duplicated}")
    print(f"  atlas entries lost/cut      {stats.atlas_entries_dropped} / "
          f"{stats.atlas_entries_truncated}")
    print(f"  sentinel replies suppressed {stats.sentinel_suppressed}\n")

    repaired = [
        r for r in lifeguard.records if r.poisoned_asn == bad_asn
    ]
    wrong = [
        r
        for r in lifeguard.records
        if r.state in (*IN_FLIGHT, RepairState.UNPOISONED)
        and r.poisoned_asn != bad_asn
    ]
    deferrals = sum(
        1
        for r in lifeguard.records
        for note in r.notes
        if "deferr" in note
    )
    if not repaired or wrong:
        raise SystemExit("chaos drill failed - unexpected")

    record = repaired[0]
    print("repair under fire")
    print("-" * 60)
    print(f"t={record.outage.detected:7.0f}s  outage detected")
    print(f"t={record.poison_time:7.0f}s  isolation blamed AS"
          f"{record.isolation.blamed_asn} (confidence "
          f"{record.isolation.confidence:.2f}, "
          f"attempt {record.isolation_attempts} of "
          f"{MAX_ISOLATION_ATTEMPTS}) -> poisoned")
    print(f"t={record.repair_detected_time:7.0f}s  sentinel saw the "
          "repair through the probe loss")
    print(f"t={record.unpoison_time:7.0f}s  poison withdrawn")
    if deferrals:
        print(f"low-confidence deferrals along the way: {deferrals} "
              "(held fire instead of poisoning on thin evidence)")
    print(f"false poisons: {len(wrong)}")
    assert record.state is RepairState.UNPOISONED
    print("\nrepaired and unpoisoned despite the chaos.")


if __name__ == "__main__":
    main()
