#!/usr/bin/env python3
"""Quickstart: watch LIFEGUARD repair a persistent reverse-path outage.

Builds a small synthetic Internet with a multihomed origin AS running
LIFEGUARD, injects a silent reverse-path failure in a transit AS, and runs
the monitoring loop.  LIFEGUARD detects the outage, waits out the
"will it resolve on its own?" window, isolates the failing AS with spoofed
probes and its historical path atlas, poisons that AS to reroute traffic,
and finally withdraws the poison once its sentinel prefix shows the
underlying failure has been repaired.

Run:  python examples/quickstart.py
"""

from repro.control.lifeguard import RepairState
from repro.dataplane.failures import ASForwardingFailure
from repro.workloads.scenarios import build_deployment


def main():
    print("Building a synthetic Internet with a LIFEGUARD deployment...")
    scenario = build_deployment(scale="tiny", seed=5, num_providers=2)
    lifeguard = scenario.lifeguard
    target = scenario.targets[0]
    bad_asn = scenario.reverse_transits(target)[0]
    print(f"  origin AS{scenario.origin_asn} "
          f"(production prefix {scenario.production_prefix}, "
          f"sentinel {lifeguard.sentinel_manager.sentinel})")
    print(f"  monitored target {target}, "
          f"failure will hit transit AS{bad_asn}\n")

    print("Priming the historical path atlas while everything works...")
    lifeguard.prime_atlas(now=0.0)

    print(f"Injecting a silent reverse-path failure in AS{bad_asn} "
          "(t=1000s..8200s):")
    print("  the AS keeps announcing routes but blackholes traffic "
          "toward the origin.\n")
    lifeguard.dataplane.failures.add(
        ASForwardingFailure(
            asn=bad_asn,
            toward=lifeguard.sentinel_manager.sentinel,
            start=1000.0,
            end=8200.0,
        )
    )

    print("Running the monitoring loop (30 s rounds)...\n")
    scenario.run(9600.0)

    for record in lifeguard.records:
        if record.poisoned_asn != bad_asn:
            continue
        outage = record.outage
        isolation = record.isolation
        print("LIFEGUARD repair timeline")
        print("-" * 60)
        print(f"t={outage.start:7.0f}s  outage begins "
              f"(vp={outage.vp_name} -> {outage.destination})")
        print(f"t={outage.detected:7.0f}s  outage detected "
              "(4 consecutive failed rounds)")
        print(f"t={record.poison_time:7.0f}s  isolation: direction="
              f"{isolation.direction.value}, blamed AS{isolation.blamed_asn}"
              f" ({isolation.probes_used} probes, "
              f"~{isolation.elapsed_seconds:.0f}s)")
        if isolation.traceroute_verdict != isolation.blamed_asn:
            print(f"{'':12}traceroute alone would have blamed "
                  f"AS{isolation.traceroute_verdict} - wrong!")
        print(f"t={record.poison_time:7.0f}s  poisoned AS{record.poisoned_asn}"
              f"; BGP reconverged in {record.convergence_seconds:.0f}s")
        print(f"t={outage.end:7.0f}s  monitor sees connectivity restored "
              "(traffic now avoids the failed AS)")
        print(f"t={record.repair_detected_time:7.0f}s  sentinel probes "
              "succeed: underlying failure repaired")
        print(f"t={record.unpoison_time:7.0f}s  poison withdrawn, "
              "baseline announcement restored")
        print(f"final state: {record.state.value}")
        assert record.state is RepairState.UNPOISONED
        break
    else:
        raise SystemExit("no repair happened - unexpected")


if __name__ == "__main__":
    main()
