"""Affected-user-minutes accounting over the AS-level data plane.

The :class:`ImpactLedger` owns a traffic matrix and, at every sample
time, classifies each flow against the current FIB snapshot and failure
set.  A flow is *affected* when it was deliverable at baseline but is
now blackholed by an active
:class:`~repro.dataplane.failures.ASForwardingFailure`, has lost its
route, or loops.  Between consecutive samples the ledger integrates
``affected_users x dt`` (left-Riemann, minutes), accumulated both in
total and per outage-identity key so the numbers compose with the repair
journal: a crashed controller restores the accumulators from the last
journaled sample and keeps integrating byte-identically.

Classification is two steps.  A failure-free walk, done once per
snapshot object, records where each flow ends and which AS it is at on
each hop; flows are grouped by their current AS, and every table of a
snapshot is a column over one shared
:class:`~repro.net.lpm.PrefixAxis`, so a flow's destination is bisected
to its slot once per axis and each hop is one list index.  An overlay
then marks dropped, at the earliest hop that crosses an AS failure live
at the sample time, only the flows the walk saw at a failing AS.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.dataplane.failures import ASForwardingFailure
from repro.dataplane.fib import LOCAL
from repro.traffic.matrix import TrafficMatrix

#: Attribution key for flows broken by route loss rather than a failure.
NO_ROUTE_KEY = "no-route"

#: Attribution key for flows stuck in an AS-level forwarding loop.
LOOP_KEY = "loop"

#: Hop budget for the AS-level walk; beyond this a flow counts as looping.
MAX_HOPS = 64

#: A flow's (state, attribution key); None before it is classified.
State = Optional[Tuple[str, Optional[str]]]

#: asn -> [(hop, flows at that AS at that hop)], hops ascending.
Visits = Dict[int, List[Tuple[int, List[int]]]]

_DELIVERED: State = ("delivered", None)
_NO_ROUTE: State = ("no-route", NO_ROUTE_KEY)
_LOOP: State = ("loop", LOOP_KEY)


def impact_key(failure: ASForwardingFailure) -> str:
    """Stable outage identity for *failure* (no process-local ids)."""
    toward = str(failure.toward) if failure.toward is not None else "*"
    # '{:g}' keeps 6 significant digits: where that loses the start,
    # two outages of one AS would share a key, so the full repr goes in.
    start = f"{failure.start:g}"
    if float(start) != failure.start:
        start = repr(failure.start)
    return f"AS{failure.asn}:{toward}@{start}"


@dataclass
class ImpactSample:
    """Classification of every flow at one instant."""

    t: float
    affected_users: int
    delivered_users: int
    by_key: Dict[str, int] = field(default_factory=dict)
    #: affected-user-minutes integrated from the first sample to *t*.
    user_minutes: float = 0.0


class ImpactLedger:
    """Integrates affected-user-minutes over sim time.

    Usage: ``prime(fibs)`` once against the healthy data plane to fix the
    baseline-deliverable flow set, then ``observe(now, fibs, failures)``
    at each sample time.  ``state_json()`` / ``restore_state()`` carry
    the accumulators across a controller crash.
    """

    def __init__(self, matrix: TrafficMatrix) -> None:
        self.matrix = matrix
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
        #: The snapshot object last walked failure-free, each flow's end
        #: on it and where the walk went; how many walks there were.
        self._walked: Tuple[Any, Any, Any] = (None, None, None)
        self.walks = 0
        #: Each flow's destination as an int, for the failures' masks.
        self._addrs = [flow.dst_address.value for flow in matrix.flows]
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
    def _walk(self, fibs: Any) -> Tuple[List[State], Visits]:
        """Each flow's end on *fibs* with no failure in force (delivered,
        no-route or loop), and where the walk went: ``asn -> [(hop,
        flows at that AS at that hop)]``, hops ascending.  Walked once
        per snapshot object."""
        if fibs is self._walked[0]:
            return self._walked[1], self._walked[2]
        self.walks += 1
        flows = self.matrix.flows
        addrs = self._addrs
        flat = fibs.flat
        axis = fibs.axis
        if axis is not self._axis:
            bases = axis.bases
            self._axis = axis
            self._slots = [bisect_right(bases, addr) - 1 for addr in addrs]
        slots = self._slots
        ends: List[State] = [None] * len(flows)
        visits: Visits = {}
        frontier: Dict[int, List[int]] = {}
        for idx, flow in enumerate(flows):
            frontier.setdefault(flow.src_asn, []).append(idx)
        for hop in range(MAX_HOPS):
            if not frontier:
                break
            next_frontier: Dict[int, List[int]] = {}
            for asn, idxs in frontier.items():
                visits.setdefault(asn, []).append((hop, idxs))
                table = flat(asn)
                if table is None:
                    hops: List[Optional[int]] = [None] * len(idxs)
                elif table.axis is axis:
                    values = table.values
                    hops = [values[slots[i]] for i in idxs]
                else:
                    # A clean table left on the axis a regrow replaced.
                    hops = [table.resolve(addrs[i]) for i in idxs]
                for i, nh in zip(idxs, hops):
                    if nh is None:
                        ends[i] = _NO_ROUTE
                    elif nh == LOCAL:
                        ends[i] = _DELIVERED
                    else:
                        next_frontier.setdefault(nh, []).append(i)
            frontier = next_frontier
        for idxs in frontier.values():
            for i in idxs:
                ends[i] = _LOOP
        self._walked = (fibs, ends, visits)
        return ends, visits

    def _classify(self, fibs: Any, failures: Any, now: float) -> List[State]:
        """Per-flow (state, attribution-key); state in
        {delivered, dropped, no-route, loop}.  A function of the snapshot
        and the AS failures live at *now* alone: the same snapshot object
        and an equal live view get the previous answer back.

        A flow is dropped by the first live failure, in its AS's bucket
        order, that matches its destination at the earliest hop of its
        failure-free walk that is at a failing AS; up to that hop the
        walk and the flow's path under the failures agree."""
        live = failures.active_by_asn(now) if failures is not None else {}
        if fibs is self._seen[0] and live == self._seen[1]:
            self.classify_reused += 1
            return self._seen[2]
        ends, visits = self._walk(fibs)
        addrs = self._addrs
        #: flow -> (hop, key) of the earliest failure it runs into.
        hit: Dict[int, Tuple[int, str]] = {}
        for asn, bucket in live.items():
            seen_at = visits.get(asn)
            if not seen_at:
                continue
            drops = [
                (mask, base, impact_key(failure))
                for mask, base, failure in bucket
            ]
            for hop, idxs in seen_at:
                for i in idxs:
                    earlier = hit.get(i)
                    if earlier is not None and earlier[0] < hop:
                        continue
                    addr = addrs[i]
                    for mask, base, key in drops:
                        if addr & mask == base:
                            hit[i] = (hop, key)
                            break
        # Always a new list: observe() reuses a tally only for the very
        # list it counted.
        results = list(ends)
        for i, (_hop, key) in hit.items():
            results[i] = ("dropped", key)
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
            user_minutes=self.user_minutes,
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
