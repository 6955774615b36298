"""One benchmark episode in this (fresh) process.

``run.py`` starts this file once per episode with a scrubbed
environment and reads the single JSON line it prints.  The episode is:
import the program (timed), set the workload up (timed), collect
garbage, run the fixed list of operations (each timed), read the peak
RSS, then — untimed — check the outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

import spans


class QuietCpu:
    """Keeps this process on a CPU that is running at full speed.

    On the 2-vCPU VMs this benchmark runs on, each vCPU drops to about
    0.7 of its speed for seconds at a time (a neighbour on the host),
    independently of the other: measured over 40 s, one was slow 37% of
    the time, the other 22%, both at once 7%.  Before each operation,
    outside its timed region, a fixed 1 ms loop is timed on the current
    CPU; if it reads more than ``TOLERANCE`` times the fastest reading
    so far, the process moves to the CPU where the loop runs fastest.
    Nothing is scaled or discarded: an operation's time is its wall
    time wherever it ran.
    """

    TOLERANCE = 1.15

    def __init__(self) -> None:
        self.best = float("inf")
        #: operations begun after a move / with every CPU disturbed.
        self.moves = 0
        self.disturbed = 0
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
            self.masks = {cpu: frozenset((cpu,)) for cpu in self.cpus}
            self._pin(self.cpus[0])
        except (AttributeError, OSError):
            self.cpus = []

    def _pin(self, cpu: int) -> None:
        os.sched_setaffinity(0, self.masks[cpu])
        self.cpu = cpu

    def _probe(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(12000):
            total += i * i % 7
        elapsed = perf_counter() - start
        self.best = min(self.best, elapsed)
        return elapsed

    def settle(self) -> None:
        # No container is built here: the collector must see the same
        # allocations in every episode, or its pauses land on different
        # operations and the minimum over episodes drops them.
        if len(self.cpus) < 2:
            return
        here = self.cpu
        least = self._probe()
        if least <= self.TOLERANCE * self.best:
            return
        quietest = here
        for cpu in self.cpus:
            if cpu == here:
                continue
            self._pin(cpu)
            reading = self._probe()
            if reading < least:
                least, quietest = reading, cpu
            if reading <= self.TOLERANCE * self.best:
                break
        else:
            self.disturbed += 1
            if quietest != self.cpu:
                self._pin(quietest)
        self.moves += self.cpu != here


def _layer_metrics(
    tracer: spans.Tracer, counters: Dict[str, Any], op_seconds: float
) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json one traced episode can
    know (``run.py`` adds the two that compare episodes).

    ``<x>_s`` is self time summed over the episode (set-up included:
    spans with ``op_id`` -1), ``<x>_n`` a call count.  Layers a workload
    never enters read 0.
    """
    seconds, counts = tracer.self_times()

    def s(*names: str) -> float:
        return sum(seconds.get(name, 0.0) for name in names)

    def n(*names: str) -> int:
        return sum(counts.get(name, 0) for name in names)

    def mean(sample: str) -> float:
        values = tracer.samples.get(sample, ())
        return sum(values) / len(values) if values else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    get = counters.get
    out = {
        "service.run_round_s": s("service.run_round"),
        "service.rounds_n": n("service.run_round"),
        "service.queue_peak_isolate": get("queue_peak_isolate", 0),
        "service.tier_transitions": get("tier_transitions", 0),
        "service.backpressure_n": get("backpressure", 0),
        "service.timeouts_n": get("timeouts", 0),
        "service.ttr_sim_s_p95": get("ttr_sim_s_p95", 0.0),
        "measure.monitor_round_s": s("measure.monitor_round"),
        "measure.pings_n": n("dataplane.ping"),
        "dataplane.ping_s": s("dataplane.ping"),
        "dataplane.forward_s": s("dataplane.forward"),
        "dataplane.forward_n": n("dataplane.forward"),
        "dataplane.fib_lookup_s": s("dataplane.fib_lookup"),
        "dataplane.fib_lookup_n": n("dataplane.fib_lookup"),
        "dataplane.failure_match_s": s("dataplane.failure_match"),
        "dataplane.failure_match_n": n("dataplane.failure_match"),
        "dataplane.failures_open_max": get("failures_open_max", 0),
        "dataplane.probe_s": s(
            "dataplane.traceroute", "dataplane.rr_ping"
        ),
        "dataplane.traceroute_n": n("dataplane.traceroute"),
        "dataplane.rr_ping_n": n("dataplane.rr_ping"),
        "dataplane.build_fibs_s": s("dataplane.build_fibs"),
        "dataplane.build_fibs_n": n("dataplane.build_fibs"),
        "dataplane.fib_dirty_asns_mean": mean(
            spans.SAMPLE_DIRTY_ASNS
        ),
        "traffic.observe_s": s("traffic.observe"),
        "traffic.observe_n": n("traffic.observe"),
        "traffic.flat_compile_s": s("traffic.flat_compile"),
        "traffic.flat_compile_n": n("traffic.flat_compile"),
        "traffic.flat_attach_s": s("traffic.flat_attach"),
        "traffic.affected_user_minutes": get(
            "affected_user_minutes", 0.0
        ),
        "isolation.isolate_s": s("isolation.isolate"),
        "isolation.isolate_n": n("isolation.isolate"),
        "isolation.probes_per_isolation": mean(
            spans.SAMPLE_ISOLATION_PROBES
        ),
        "control.begin_round_s": s("control.begin_round"),
        "control.refresh_dataplane_s": s("control.refresh_dataplane"),
        "control.journal_append_s": s("control.journal_append"),
        "control.journal_entries_n": get("journal_entries", 0),
        "control.recover_s": get("recover_s", 0.0),
        "control.recover_records_n": get("recover_records", 0),
        "obs.emit_s": s("obs.emit"),
        "obs.events_n": get("events", 0),
        "bgp.announce_s": s("bgp.announce"),
        "bgp.announce_n": n("bgp.announce"),
        "bgp.delta_apply_s": s("bgp.delta_apply"),
        "bgp.delta_applied_n": get("delta_applied", 0),
        "bgp.delta_fallbacks_n": get("delta_fallbacks", 0),
        "bgp.delta_cone_mean": get("delta_cone_mean", 0.0),
        "bgp.memo_hit_ratio": ratio(
            get("delta_memo_hits", 0), get("delta_prefixes", 0)
        ),
        "bgp.engine_run_s": s("bgp.engine_run"),
        "bgp.solve_s": s("bgp.solve"),
        "bgp.warm_start_s": s("bgp.warm_start"),
        "bgp.converge_s": s("bgp.converge"),
        "fuzz.generate_s": s("fuzz.generate"),
        "fuzz.run_case_s": s("fuzz.run_case"),
        "fuzz.capture_s": s("fuzz.capture"),
        "fuzz.capture_n": n("fuzz.capture"),
        "fuzz.canonical_blob_s": s("fuzz.canonical_blob"),
        "fuzz.gate_reject_fraction": ratio(
            get("gate_rejected", 0), get("cases", 0)
        ),
        "fuzz.delta_arm_fraction": ratio(
            get("delta_arm_equal", 0), get("cases", 0)
        ),
        # Share of the timed operations' wall time that no span covers
        # (harness glue between the calls into the layers).
        "harness.unaccounted_fraction": max(
            0.0, 1.0 - ratio(tracer.top_level_seconds(), op_seconds)
        ),
    }
    for stage in ("isolate", "verify", "retry", "check"):
        out[f"control.stage_{stage}_s"] = s(f"control.stage_{stage}")
        out[f"control.stage_{stage}_n"] = n(f"control.stage_{stage}")
    return out


def run_episode(
    name: str,
    seed: int,
    trace: bool = False,
    deep: bool = False,
    size: float = 1.0,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one episode of workload *name* here; returns its record."""
    quiet = QuietCpu()
    quiet.settle()
    import_start = perf_counter()
    import workloads

    import_s = perf_counter() - import_start
    workload = workloads.WORKLOADS[name](seed, size)
    tracer = spans.Tracer() if trace else None

    def begin_op(index: int) -> None:
        quiet.settle()
        if tracer is not None:
            tracer.op_id = index

    if tracer is not None:
        tracer.install(also=(workloads,))
    try:
        quiet.settle()
        build_start = perf_counter()
        workload.setup()
        build_s = perf_counter() - build_start
        # Pay the set-up's collector debt outside the timed region; the
        # collector stays on, as it is for a user of the program.
        gc.collect()
        durations: List[float] = workload.run(begin_op)
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        begin_op(-1)
    finally:
        if tracer is not None:
            tracer.uninstall()

    start = perf_counter()
    outcome = workload.finish(deep)
    verify_s = perf_counter() - start

    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": bool(trace),
        "unit": workload.unit,
        "import_s": import_s,
        "build_s": build_s,
        "durations": durations,
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "checks": [
            {"name": check, "ok": bool(ok), "detail": detail}
            for check, ok, detail in outcome["checks"]
        ],
        "guard": outcome["guard"],
        "counters": outcome["counters"],
        "verify_s": verify_s,
        "cpu_moves": quiet.moves,
        "disturbed_ops": quiet.disturbed,
    }
    if tracer is not None:
        record["layers"] = _layer_metrics(
            tracer, outcome["counters"], sum(durations)
        )
        record["spans"] = len(tracer.spans)
        if trace_out:
            tracer.write(trace_out)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deep", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    record = run_episode(
        args.workload,
        args.seed,
        trace=bool(args.trace),
        deep=bool(args.deep),
        size=args.size,
        trace_out=args.trace_out,
    )
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
