"""The repository benchmark: one command, every metric by name.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line, the JSON object the
benchmark contract asks for.  Without ``--workload`` it runs all four,
``--repeats N`` times each, and ``--out`` saves the result document
``bench/compare.py`` reads.  The exit code is non-zero when any
correctness check fails.

A run is ``--seconds / 5`` identical fixed-size episodes (``worker.py``),
each in a fresh process with every ``REPRO_*`` variable removed and
``PYTHONHASHSEED=0``.  An operation's time is its minimum over the
episodes; ``setup_s`` and ``peak_rss_mb`` are medians over episodes.
``--trace 1`` alternates untraced reference episodes with traced ones
and reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

#: An episode is 5 to 20 s of wall time; the contract allows a run 180.
EPISODE_TIMEOUT = 120.0

#: What one episode is sized to take on a quiet 2 GHz core; ``--seconds``
#: buys ``seconds / EPISODE_SECONDS`` episodes.  The count does not depend
#: on how fast this machine or this commit is: when it did, a slow phase
#: thinned the sample exactly when the minimum needed it most.
EPISODE_SECONDS = 5.0


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_environment() -> Dict[str, str]:
    """The parent's environment minus every mode switch of the program.

    The 21 ``REPRO_*`` variables select backends, sizes and the disk
    cache; none may leak into a measurement.  A fixed hash seed keeps
    set and dict iteration order — and so allocation patterns — the
    same from episode to episode.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = "0"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([inherited] if inherited else [])
    )
    return env


def run_episode(
    workload: str,
    seed: int,
    *,
    trace: bool = False,
    deep: bool = False,
    size: float = 1.0,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """One episode in a fresh interpreter; raises if it fails to run."""
    command = [
        sys.executable, WORKER,
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(trace)),
        "--deep", str(int(deep)),
        "--size", repr(size),
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=child_environment(),
        stdout=subprocess.PIPE,
        timeout=EPISODE_TIMEOUT,
        check=True,
        text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[round(q * (len(ordered) - 1))]


def best_per_operation(episodes: List[Dict[str, Any]]) -> List[float]:
    """Each operation's fastest time over the (identical) episodes.

    Interference on a shared machine only ever adds time, and it comes
    in phases of seconds that slow a whole stretch of operations; the
    same operation lands in a different phase in each episode, so its
    minimum is the steady estimate of what the operation costs.
    """
    return [min(times) for times in zip(*(e["durations"] for e in episodes))]


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    spec: Dict[str, Any],
    size: float = 1.0,
    trace_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """One run: ``seconds / EPISODE_SECONDS`` episodes (traced runs
    spend every other one on an untraced reference)."""
    count = max(1, round(seconds / EPISODE_SECONDS))
    if trace:
        count = max(1, count // 2)
    episodes: List[Dict[str, Any]] = []
    references: List[Dict[str, Any]] = []
    for _ in range(count):
        if trace:
            # The same work untraced, alternating with the traced
            # episodes: gives the tracing overhead and checks that the
            # wrappers do not change what the program does.
            references.append(
                run_episode(
                    workload, seed, deep=not references, size=size
                )
            )
        trace_out = None
        if trace and trace_dir:
            trace_out = os.path.join(
                trace_dir, f"{workload}-{seed}-{len(episodes)}.jsonl"
            )
        episode = run_episode(
            workload,
            seed,
            trace=trace,
            deep=not trace and not episodes,
            size=size,
            trace_out=trace_out,
        )
        episodes.append(episode)
    measured = sum(sum(e["durations"]) for e in episodes + references)

    everything = episodes + references
    checks = [
        dict(check, episode=index)
        for index, episode in enumerate(everything)
        for check in episode["checks"]
    ]
    first = everything[0]["guard"]
    repeats = all(
        e["guard"] == first
        and len(e["durations"]) == len(everything[0]["durations"])
        for e in everything[1:]
    )
    checks.append({
        "name": "every episode (traced or not) repeats the first exactly",
        "ok": repeats,
        "detail": f"episodes={len(everything)}",
        "episode": -1,
    })

    best = best_per_operation(episodes)
    verify_s = sum(e["verify_s"] for e in everything)
    if trace:
        layers = {
            name: statistics.median(e["layers"][name] for e in episodes)
            for name in episodes[0]["layers"]
        }
        layers["harness.trace_overhead_fraction"] = (
            sum(best) / sum(best_per_operation(references)) - 1.0
        )
        layers["harness.verify_s"] = verify_s
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {
            name: {"value": layers[name], "unit": units[name]}
            for name in units
        }
    else:
        values = {
            "setup_s": statistics.median(
                e["import_s"] + e["build_s"] for e in episodes
            ),
            "ops_per_s": len(best) / sum(best),
            "op_ms_p50": 1e3 * percentile(best, 0.50),
            "op_ms_p90": 1e3 * percentile(best, 0.90),
            "peak_rss_mb": statistics.median(
                e["peak_rss_mb"] for e in episodes
            ),
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "unit": episodes[0]["unit"],
        "episodes": len(episodes),
        "samples": len(best),
        "measured_s": measured,
        "verify_s": verify_s,
        "cpu_moves": sum(e["cpu_moves"] for e in everything),
        "disturbed_ops": sum(e["disturbed_ops"] for e in everything),
        "correct": all(check["ok"] for check in checks),
        "attempted": sum(e["attempted"] for e in everything),
        "failed": sum(e["failed"] for e in everything),
        "metrics": metrics,
        "checks": checks,
        "guard": first,
        "counters": episodes[0]["counters"],
    }


def contract_line(result: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def describe(result: Dict[str, Any], out=sys.stdout) -> None:
    """Every metric by name with its unit, then the failed checks."""
    out.write(
        f"{result['workload']} seed={result['seed']} "
        f"trace={result['trace']}: {result['episodes']} episodes, "
        f"{result['samples']} {result['unit']}s in "
        f"{result['measured_s']:.2f} s measured, "
        f"{result['failed']}/{result['attempted']} failed, "
        f"checks took {result['verify_s']:.2f} s; moved CPU "
        f"{result['cpu_moves']} times, {result['disturbed_ops']} "
        f"{result['unit']}s began with every CPU disturbed\n"
    )
    for name, metric in result["metrics"].items():
        out.write(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}\n")
    pairs = result["counters"].get("pairs")
    if pairs and "ops_per_s" in result["metrics"]:
        rate = pairs * result["metrics"]["ops_per_s"]["value"]
        out.write(f"  {'(pairs_per_s)':36s} {rate:14.6g} 1/s\n")
    for check in result["checks"]:
        if not check["ok"]:
            out.write(
                f"  FAILED [{check['episode']}] {check['name']}: "
                f"{check['detail']}\n"
            )


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def environment() -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc:
        sys.stderr.write(
            f"warning: 1-min load average {load:.2f} exceeds "
            f"nproc={nproc}; timings will be noisy\n"
        )
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "loadavg_1m": load,
        "git_commit": git_commit(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="repeatable; default: all",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measured time per run: one episode per 5 s",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="runs per workload (compare.py wants at least 3)",
    )
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument(
        "--trace-out", help="directory for the traced episodes' spans"
    )
    args = parser.parse_args(argv)

    env = environment()
    if args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
    results: Dict[str, List[Dict[str, Any]]] = {}
    try:
        # Repeats go round the workloads, so that one workload's runs are
        # minutes apart: a slow phase of the machine then spoils one run
        # of each, not every run of one.
        for _ in range(args.repeats):
            for workload in args.workload or names:
                result = run_workload(
                    workload,
                    args.seed,
                    args.seconds,
                    bool(args.trace),
                    spec,
                    trace_dir=args.trace_out,
                )
                describe(result)
                results.setdefault(workload, []).append(result)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        # The worker's own traceback is already on stderr.
        sys.stderr.write(f"episode did not complete: {exc}\n")
        return 2

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "schema": 1,
                "environment": env,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "results": results,
            }, fh, indent=1)
    runs = [run for group in results.values() for run in group]
    if len(runs) == 1:
        sys.stdout.write(contract_line(runs[0]) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
