"""Affected-user-minutes accounting over the AS-level data plane.

The :class:`ImpactLedger` owns a traffic matrix and, at every sample
time, walks each flow's AS-level forwarding path against the current FIB
snapshot and failure set.  A flow is *affected* when it was deliverable
at baseline but is now blackholed by an active
:class:`~repro.dataplane.failures.ASForwardingFailure`, has lost its
route, or loops.  Between consecutive samples the ledger integrates
``affected_users x dt`` (left-Riemann, minutes), accumulated both in
total and per outage-identity key so the numbers compose with the repair
journal: a crashed controller restores the accumulators from the last
journaled sample and keeps integrating byte-identically.

Path walks are batched: flows are grouped by their current AS, and
every table of a snapshot is a column over one shared
:class:`~repro.net.lpm.PrefixAxis`, so a flow's destination is bisected
to its slot once per axis and each hop is one list index.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.dataplane.failures import ASForwardingFailure
from repro.dataplane.fib import LOCAL
from repro.traffic.lpm import FlatFibSet
from repro.traffic.matrix import TrafficMatrix

#: Attribution key for flows broken by route loss rather than a failure.
NO_ROUTE_KEY = "no-route"

#: Attribution key for flows stuck in an AS-level forwarding loop.
LOOP_KEY = "loop"

#: Hop budget for the AS-level walk; beyond this a flow counts as looping.
MAX_HOPS = 64


def impact_key(failure: ASForwardingFailure) -> str:
    """Stable outage identity for *failure* (no process-local ids)."""
    toward = str(failure.toward) if failure.toward is not None else "*"
    return f"AS{failure.asn}:{toward}@{failure.start:g}"


@dataclass
class ImpactSample:
    """Classification of every flow at one instant."""

    t: float
    affected_users: int
    delivered_users: int
    by_key: Dict[str, int] = field(default_factory=dict)


class ImpactLedger:
    """Integrates affected-user-minutes over sim time.

    Usage: ``prime(fibs)`` once against the healthy data plane to fix the
    baseline-deliverable flow set, then ``observe(now, fibs, failures)``
    at each sample time.  ``state_json()`` / ``restore_state()`` carry
    the accumulators across a controller crash.
    """

    def __init__(self, matrix: TrafficMatrix) -> None:
        self.matrix = matrix
        self._fibset = FlatFibSet()
        self._baseline_unroutable: Tuple[int, ...] = ()
        self._primed = False
        self._last_t: Optional[float] = None
        self._last_affected = 0
        self._last_by_key: Dict[str, int] = {}
        self.user_minutes = 0.0
        self.user_minutes_by_key: Dict[str, float] = {}
        self.peak_affected = 0
        self.samples = 0
        #: What the last classification read (snapshot object, live AS
        #: failures) and answered; how often that answer was handed back.
        self._seen: Tuple[Any, Any, Any] = (None, None, None)
        self.classify_reused = 0
        #: The axis the flows' destinations were last bisected on, and
        #: each flow's slot on it.
        self._axis: Any = None
        self._slots: List[int] = []
        #: The last tally — (classification, baseline, affected,
        #: delivered, by key) — good while the first two are the very
        #: same objects; how often it was handed back.
        self._tally: Tuple[Any, Any, int, int, Dict[str, int]] = (
            None, None, 0, 0, {},
        )
        self.tally_reused = 0

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _classify(
        self, fibs: Any, failures: Any, now: float
    ) -> List[Optional[Tuple[str, Optional[str]]]]:
        """Per-flow (state, attribution-key); state in
        {delivered, dropped, no-route, loop}.  A function of the snapshot
        and the AS failures live at *now* alone: the same snapshot object
        and an equal live view get the previous answer back."""
        live = failures.active_by_asn(now) if failures is not None else {}
        if fibs is self._seen[0] and live == self._seen[1]:
            self.classify_reused += 1
            return self._seen[2]
        self._fibset.attach(fibs)
        flows = self.matrix.flows
        axis = fibs.axis
        if axis is not self._axis:
            bases = axis.bases
            self._axis = axis
            self._slots = [
                bisect_right(bases, flow.dst_address.value) - 1
                for flow in flows
            ]
        slots = self._slots
        #: asn -> (toward mask, toward base, attribution key) per active
        #: AS failure, straight from the failure set's AS index.
        active: Dict[int, List[Tuple[int, int, str]]] = {
            asn: [
                (mask, base, impact_key(failure))
                for mask, base, failure in bucket
            ]
            for asn, bucket in live.items()
        }
        results: List[Optional[Tuple[str, Optional[str]]]] = [None] * len(
            flows
        )
        frontier: Dict[int, List[int]] = {}
        for idx, flow in enumerate(flows):
            frontier.setdefault(flow.src_asn, []).append(idx)
        for _ in range(MAX_HOPS):
            if not frontier:
                break
            next_frontier: Dict[int, List[int]] = {}
            for asn in sorted(frontier):
                idxs = frontier[asn]
                drops = active.get(asn)
                remaining: List[int] = []
                for i in idxs:
                    if drops:
                        addr = flows[i].dst_address.value
                        key = next(
                            (
                                k
                                for mask, base, k in drops
                                if addr & mask == base
                            ),
                            None,
                        )
                        if key is not None:
                            results[i] = ("dropped", key)
                            continue
                    remaining.append(i)
                if not remaining:
                    continue
                table = self._fibset.table(asn)
                if table is None:
                    hops = [None] * len(remaining)
                elif table.axis is axis:
                    values = table.values
                    hops = [values[slots[i]] for i in remaining]
                else:
                    # A clean table left on the axis a regrow replaced.
                    hops = [
                        table.resolve(flows[i].dst_address.value)
                        for i in remaining
                    ]
                for i, nh in zip(remaining, hops):
                    if nh is None:
                        results[i] = ("no-route", NO_ROUTE_KEY)
                    elif nh == LOCAL:
                        results[i] = ("delivered", None)
                    else:
                        next_frontier.setdefault(nh, []).append(i)
            frontier = next_frontier
        for idxs in frontier.values():
            for i in idxs:
                results[i] = ("loop", LOOP_KEY)
        self._seen = (fibs, live, results)
        return results

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def prime(self, fibs: Any) -> int:
        """Fix the baseline against the healthy *fibs*; returns the
        number of flows excluded as never-routable."""
        states = self._classify(fibs, None, 0.0)
        unroutable = tuple(
            i
            for i, state in enumerate(states)
            if state is not None and state[0] != "delivered"
        )
        self._baseline_unroutable = unroutable
        self._primed = True
        return len(unroutable)

    def _count(
        self, states: List[Any], baseline: Tuple[int, ...]
    ) -> Tuple[int, int, Dict[str, int]]:
        """(affected, delivered, affected per key) users over *states*,
        the *baseline*-unroutable flows left out."""
        excluded = set(baseline)
        affected = 0
        delivered = 0
        by_key: Dict[str, int] = {}
        for idx, flow in enumerate(self.matrix.flows):
            state = states[idx]
            if state is None or idx in excluded:
                continue
            kind, key = state
            if kind == "delivered":
                delivered += flow.users
            else:
                affected += flow.users
                if key is not None:
                    by_key[key] = by_key.get(key, 0) + flow.users
        return affected, delivered, by_key

    def observe(self, now: float, fibs: Any, failures: Any) -> ImpactSample:
        """Integrate since the last sample, then classify at *now*."""
        if not self._primed:
            self.prime(fibs)
        if self._last_t is not None and now > self._last_t:
            dt_minutes = (now - self._last_t) / 60.0
            self.user_minutes += self._last_affected * dt_minutes
            for key, users in self._last_by_key.items():
                self.user_minutes_by_key[key] = (
                    self.user_minutes_by_key.get(key, 0.0)
                    + users * dt_minutes
                )
        states = self._classify(fibs, failures, now)
        baseline = self._baseline_unroutable
        if self._tally[0] is states and self._tally[1] is baseline:
            self.tally_reused += 1
        else:
            self._tally = (states, baseline, *self._count(states, baseline))
        affected, delivered = self._tally[2:4]
        by_key = dict(self._tally[4])  # a sample owns its map
        self._last_t = now
        self._last_affected = affected
        self._last_by_key = by_key
        self.peak_affected = max(self.peak_affected, affected)
        self.samples += 1
        return ImpactSample(
            t=now,
            affected_users=affected,
            delivered_users=delivered,
            by_key=by_key,
        )

    # ------------------------------------------------------------------
    # Reporting and crash recovery
    # ------------------------------------------------------------------
    @property
    def affected_users(self) -> int:
        """Users behind an outage as of the last sample."""
        return self._last_affected

    def state_json(self) -> Dict[str, Any]:
        """Accumulators in canonical (sorted-key) form for the journal."""
        return {
            "sample_t": self._last_t,
            "affected": self._last_affected,
            "by_key": dict(sorted(self._last_by_key.items())),
            "user_minutes": self.user_minutes,
            "minutes_by_key": dict(
                sorted(self.user_minutes_by_key.items())
            ),
            "peak": self.peak_affected,
            "samples": self.samples,
            "baseline_unroutable": list(self._baseline_unroutable),
        }

    def restore_state(self, blob: Dict[str, Any]) -> None:
        """Adopt journaled accumulators (inverse of ``state_json``).

        The baseline is journaled once, apart from the per-sample
        accumulators: a *blob* without one keeps the baseline in place.
        """
        self._last_t = blob.get("sample_t")
        self._last_affected = int(blob.get("affected", 0))
        self._last_by_key = {
            str(k): int(v) for k, v in (blob.get("by_key") or {}).items()
        }
        self.user_minutes = float(blob.get("user_minutes", 0.0))
        self.user_minutes_by_key = {
            str(k): float(v)
            for k, v in (blob.get("minutes_by_key") or {}).items()
        }
        self.peak_affected = int(blob.get("peak", 0))
        self.samples = int(blob.get("samples", 0))
        if "baseline_unroutable" in blob:
            self._baseline_unroutable = tuple(
                int(i) for i in blob["baseline_unroutable"]
            )
        self._primed = True
