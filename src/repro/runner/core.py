"""Deterministic multiprocess trial execution.

The runner fans (context, work-unit) pairs out across a
``ProcessPoolExecutor`` and reassembles results **in unit order**, so a
parallel run is byte-identical to a serial one no matter how the pool
schedules the work.  Two rules make that possible:

* every work unit carries (or derives) its own RNG seed via
  :func:`derive_seed`, so no unit reads random state another unit
  advanced;
* results are collected by unit index, never by completion order.

Workers must be module-level functions (the pool pickles them by
reference).  The shared *context* — a topology, a pickled converged
engine, driver parameters — is shipped once per chunk rather than once
per unit, keeping serialization overhead off the trial hot path.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.runner.stats import RunStats

#: Largest seed handed to ``random.Random`` (63 bits keeps it a C long).
_SEED_MASK = (1 << 63) - 1


def derive_seed(master_seed: int, *components: Any) -> int:
    """A per-trial seed from the master seed plus identifying components.

    Hash-derived (SHA-256) so that neighbouring trial indices get
    uncorrelated streams and so the seed depends only on the trial's
    *identity* — never on how many trials ran before it or which worker
    picked it up.
    """
    payload = repr((master_seed,) + components).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & _SEED_MASK


def _run_chunk(
    worker: Callable[[Any, Any], Any],
    context: Any,
    chunk: Sequence[Any],
) -> List[Any]:
    return [worker(context, unit) for unit in chunk]


def _chunked(
    units: Sequence[Any], workers: int, chunks_per_worker: int
) -> List[Tuple[List[int], List[Any]]]:
    """Split *units* into contiguous chunks with their original indices."""
    target = max(1, workers * max(1, chunks_per_worker))
    size = max(1, -(-len(units) // target))
    chunks = []
    for start in range(0, len(units), size):
        indices = list(range(start, min(start + size, len(units))))
        chunks.append((indices, [units[i] for i in indices]))
    return chunks


def run_trials(
    worker: Callable[[Any, Any], Any],
    units: Sequence[Any],
    *,
    context: Any = None,
    workers: int = 1,
    stats: Optional[RunStats] = None,
    label: str = "trials",
    chunks_per_worker: int = 4,
) -> List[Any]:
    """Run ``worker(context, unit)`` for every unit; results in unit order.

    With ``workers <= 1`` everything runs in-process (no pool, no
    pickling).  With more, units are grouped into contiguous chunks and
    executed on a process pool; *worker* must be a module-level function
    and *context* plus units must be picklable.
    """
    units = list(units)
    stats = stats if stats is not None else RunStats()
    stats.count(f"{label}.units", len(units))
    with stats.timer(f"{label}.wall"):
        if workers <= 1 or len(units) <= 1:
            stats.count(f"{label}.serial_runs")
            return _run_chunk(worker, context, units)
        chunks = _chunked(units, workers, chunks_per_worker)
        results: List[Any] = [None] * len(units)
        pool_size = min(workers, len(chunks))
        stats.count(f"{label}.parallel_runs")
        stats.count(f"{label}.chunks", len(chunks))
        # Gauges surface in metrics snapshots (obs) without touching the
        # legacy counters/timers shape of as_dict().
        stats.registry.set_gauge(f"{label}.pool_size", pool_size)
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = {
                pool.submit(_run_chunk, worker, context, chunk): indices
                for indices, chunk in chunks
            }
            for future in as_completed(futures):
                for index, result in zip(futures[future], future.result()):
                    results[index] = result
        return results
