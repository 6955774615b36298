#!/usr/bin/env python3
"""The §6 case study, re-enacted: Taiwan -> Wisconsin, October 3-4 2011.

The paper's narrative: after a day of transient problems, a persistent
reverse-path outage begins at 8:15 pm when the path from a Taiwanese
PlanetLab node back to the University of Wisconsin switches onto a
commercial network (UUNET) that terminates traceroutes.  LIFEGUARD's atlas
knows an older academic path whose hops still reach Wisconsin, so it
poisons the commercial AS; traffic converges onto the academic route.  The
sentinel prefix keeps failing through the commercial network until just
after 4 am, when the underlying problem is fixed and LIFEGUARD unpoisons.

We re-enact the same sequence on the synthetic topology with simulation
time anchored so t=0 is midnight on October 3.

Run:  python examples/case_study_taiwan.py
"""

from repro.control.lifeguard import RepairState
from repro.dataplane.failures import ASForwardingFailure
from repro.workloads.scenarios import build_deployment

HOUR = 3600.0
OUTAGE_START = 20.25 * HOUR       # 8:15 pm October 3
REPAIR_TIME = 28.08 * HOUR        # ~4:05 am October 4
END_OF_STUDY = 30.0 * HOUR


def clock(seconds):
    day = "Oct 3" if seconds < 24 * HOUR else "Oct 4"
    seconds = seconds % (24 * HOUR)
    hours = int(seconds // 3600)
    minutes = int((seconds % 3600) // 60)
    suffix = "am" if hours < 12 else "pm"
    display = hours % 12 or 12
    return f"{day} {display}:{minutes:02d}{suffix}"


def main():
    scenario = build_deployment(scale="small", seed=21, num_providers=2)
    lifeguard = scenario.lifeguard
    topo = scenario.topo

    # Cast the roles: the monitored destination is "the Taiwanese node";
    # the AS that will fail is "UUNET", a transit on its reverse path.
    target = scenario.targets[0]
    origin_router = topo.routers_of(scenario.origin_asn)[0]
    target_rid = lifeguard.dataplane.host_router(target)
    reverse_walk = lifeguard.dataplane.forward(
        target_rid, topo.router(origin_router).address
    )
    reverse_ases = reverse_walk.as_level_hops(topo)
    uunet = next(
        a for a in reverse_ases[1:-1] if a != scenario.origin_asn
    )
    print("cast: origin = University of Wisconsin "
          f"(AS{scenario.origin_asn}); destination = Taiwanese PlanetLab "
          f"node ({target}); failing commercial network = AS{uunet}\n")

    print(f"{clock(0)}: monitoring begins; atlas gathers historical "
          "forward and reverse paths")
    lifeguard.prime_atlas(now=0.0)
    # A month of history in the paper; a few extra atlas rounds here.
    for t in (4 * HOUR, 10 * HOUR, 16 * HOUR):
        lifeguard.refresher.refresh_all(scenario.targets, now=t)

    lifeguard.dataplane.failures.add(
        ASForwardingFailure(
            asn=uunet,
            toward=lifeguard.sentinel_manager.sentinel,
            start=OUTAGE_START,
            end=REPAIR_TIME,
        )
    )
    print(f"{clock(OUTAGE_START)}: the path back from Taiwan switches "
          f"through AS{uunet}, which blackholes it - test traffic begins "
          "to fail\n")

    scenario.run(END_OF_STUDY, start=OUTAGE_START)

    record = next(
        r for r in lifeguard.records if r.poisoned_asn == uunet
    )
    print("timeline as LIFEGUARD recorded it:")
    print(f"  {clock(record.outage.start)}: persistent outage begins")
    print(f"  {clock(record.outage.detected)}: detected after four failed "
          "rounds")
    print(f"  {clock(record.poison_time)}: isolated as a "
          f"{record.isolation.direction.value}-path failure in "
          f"AS{record.isolation.blamed_asn}; hops on the old academic "
          "path still reached Wisconsin, so LIFEGUARD poisoned "
          f"AS{uunet}")
    print(f"  (convergence took {record.convergence_seconds:.0f}s; "
          "test traffic then flowed via the academic route)")
    print(f"  {clock(record.outage.end)}: monitor confirms connectivity "
          "restored on the production prefix")
    print(f"  {clock(record.repair_detected_time)}: sentinel traffic "
          f"through AS{uunet} works again - underlying failure fixed")
    print(f"  {clock(record.unpoison_time)}: poison withdrawn; baseline "
          "announcement restored")
    assert record.state is RepairState.UNPOISONED
    assert record.repair_detected_time >= REPAIR_TIME
    print("\nLIFEGUARD repaired the outage hours before the network "
          "fixed itself, then stepped out of the way.")


if __name__ == "__main__":
    main()
