"""Path splicing: §2.2's alternate-path existence test.

During an outage from S to D whose traceroutes die in AS F, we look for a
measured path *from S* that intersects — at a shared IP address — a measured
path *to D*, such that the spliced path avoids F and the AS triple centred
at the splice point has been observed (the export-policy check).  The paper
ran this over a week of all-pairs PlanetLab traceroutes; we run it over
traces gathered from the simulated data plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.splice.three_tuple import TripleSet


@dataclass(frozen=True)
class Hop:
    """One traceroute hop: the responding address and its owner AS."""

    address: int
    asn: int


@dataclass
class Trace:
    """A measured forward path between two hosts (may be partial)."""

    source: str
    destination: str
    hops: Tuple[Hop, ...]
    reached: bool = True
    time: float = 0.0

    def as_sequence(self) -> List[int]:
        """The AS-level path with consecutive duplicates collapsed."""
        out: List[int] = []
        for hop in self.hops:
            if not out or out[-1] != hop.asn:
                out.append(hop.asn)
        return out


@dataclass
class SplicedPath:
    """Result of a successful splice."""

    first_leg: Trace
    second_leg: Trace
    splice_address: int
    hops: Tuple[Hop, ...]

    def as_sequence(self) -> List[int]:
        out: List[int] = []
        for hop in self.hops:
            if not out or out[-1] != hop.asn:
                out.append(hop.asn)
        return out


class PathCorpus:
    """An indexed collection of measured traces.

    Indexes by source host and by every on-path IP address so splicing is a
    couple of dictionary lookups per candidate instead of a scan.
    """

    def __init__(self) -> None:
        self._traces: List[Trace] = []
        self._by_source: Dict[str, List[int]] = {}
        #: address -> list of (trace index, hop index) appearances.
        self._by_address: Dict[int, List[Tuple[int, int]]] = {}
        self.triples = TripleSet()

    def add(self, trace: Trace) -> None:
        """Index one trace (also feeds the triple set if it completed)."""
        index = len(self._traces)
        self._traces.append(trace)
        self._by_source.setdefault(trace.source, []).append(index)
        for hop_index, hop in enumerate(trace.hops):
            self._by_address.setdefault(hop.address, []).append(
                (index, hop_index)
            )
        if trace.reached:
            self.triples.observe_path(trace.as_sequence())

    def extend(self, traces: Iterable[Trace]) -> None:
        for trace in traces:
            self.add(trace)

    def __len__(self) -> int:
        return len(self._traces)

    def traces_from(self, source: str) -> List[Trace]:
        """All traces issued by *source*."""
        return [self._traces[i] for i in self._by_source.get(source, [])]

    def traces(self) -> List[Trace]:
        """All traces."""
        return list(self._traces)

    # ------------------------------------------------------------------
    # Splicing
    # ------------------------------------------------------------------
    def find_splice(
        self,
        source: str,
        destination: str,
        avoid_asns: Iterable[int],
        require_policy: bool = True,
        policy_check=None,
    ) -> Optional[SplicedPath]:
        """Find a policy-compliant spliced path avoiding *avoid_asns*.

        Implements §2.2 exactly: the first leg is any complete trace from
        *source*; the second leg is the suffix of any complete trace that
        reached *destination*, joined at a hop with the *same IP address*;
        the spliced path must avoid the failed ASes; and, when
        *require_policy* is set, the AS triple centred at the splice point
        must appear in the corpus.

        *policy_check* overrides the triple test with any callable
        ``(left_ases, joint_asn, right_ases) -> bool`` — e.g. a
        ground-truth valley-free check when relationships are known.
        """
        avoid = set(avoid_asns)
        if not require_policy:
            policy_check = _ALWAYS_ALLOWED
        elif policy_check is None:
            policy_check = self.triples.allows_splice
        for first in self.traces_from(source):
            if not first.reached:
                continue
            spliced = self._try_first_leg(first, destination, avoid,
                                          policy_check)
            if spliced is not None:
                return spliced
        return None

    def _try_first_leg(
        self,
        first: Trace,
        destination: str,
        avoid: Set[int],
        policy_check,
    ) -> Optional[SplicedPath]:
        prefix_ases: List[int] = []
        for i, hop in enumerate(first.hops):
            if hop.asn in avoid:
                return None  # the rest of this leg is tainted too
            if not prefix_ases or prefix_ases[-1] != hop.asn:
                prefix_ases.append(hop.asn)
            for trace_index, hop_index in self._by_address.get(
                hop.address, ()
            ):
                second = self._traces[trace_index]
                if second.destination != destination or not second.reached:
                    continue
                suffix = second.hops[hop_index + 1 :]
                if any(h.asn in avoid for h in suffix):
                    continue
                suffix_ases: List[int] = []
                for h in suffix:
                    if not suffix_ases or suffix_ases[-1] != h.asn:
                        suffix_ases.append(h.asn)
                if not policy_check(
                    [a for a in prefix_ases if a != hop.asn],
                    hop.asn,
                    [a for a in suffix_ases if a != hop.asn],
                ):
                    continue
                return SplicedPath(
                    first_leg=first,
                    second_leg=second,
                    splice_address=hop.address,
                    hops=first.hops[: i + 1] + suffix,
                )
        return None


def _ALWAYS_ALLOWED(left, joint, right):  # noqa: N802 - sentinel callable
    return True

