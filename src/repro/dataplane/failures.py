"""Failure models injected into the data plane.

All failures here are *silent*: the control plane keeps advertising the
affected routes (a corrupted line card, a broken MPLS tunnel, a router that
fails to detect an internal fault — the §2.1 pathologies).  Each failure
can be made *unidirectional* by scoping it to destinations inside one
prefix: an `ASForwardingFailure(asn=A, toward=prefix_of_S)` reproduces "A
no longer has a working path back to S" while A still forwards everything
else, the exact situation of the paper's Rostelecom example.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.net.addr import Address, Prefix, address_int

_failure_ids = itertools.count(1)


@dataclass(frozen=True)
class _FailureBase:
    """Common switches: activation window and destination scoping.

    Failures are frozen: :class:`FailureSet` indexes them by the masks
    and windows they had when added, so there must be no way to change
    one afterwards.
    """

    #: Destinations the failure applies to (None = all traffic).
    toward: Optional[Prefix] = None
    #: Simulation-time window [start, end) during which the failure holds.
    start: float = float("-inf")
    end: float = float("inf")
    failure_id: int = field(default_factory=lambda: next(_failure_ids))

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class RouterFailure(_FailureBase):
    """A router silently drops every matching packet it should forward."""

    rid: str = ""

    def __post_init__(self) -> None:
        if not self.rid:
            raise ValueError("RouterFailure needs a router id")


@dataclass(frozen=True)
class LinkFailure(_FailureBase):
    """A router-level link drops matching packets.

    ``bidirectional=False`` drops only packets travelling a->b, modelling
    one dead direction of a link (grey failures).
    """

    a: str = ""
    b: str = ""
    bidirectional: bool = True

    def __post_init__(self) -> None:
        if not self.a or not self.b:
            raise ValueError("LinkFailure needs both router ids")


@dataclass(frozen=True)
class ASForwardingFailure(_FailureBase):
    """An entire AS blackholes matching traffic (while still advertising).

    This is the paper's canonical long-lasting outage: the AS's BGP
    announcements are intact but its data plane drops packets toward some
    destinations.  Scoping ``toward`` to the source network's prefix makes
    it a *reverse-path* failure from that network's point of view.
    """

    asn: int = 0

    def __post_init__(self) -> None:
        if not self.asn:
            raise ValueError("ASForwardingFailure needs an ASN")


Failure = Union[RouterFailure, LinkFailure, ASForwardingFailure]

#: One indexed failure: (start, end, toward mask, toward base, failure).
#: An unscoped failure has mask 0 and base 0, which every address matches.
_Entry = Tuple[float, float, int, int, Any]


def _bucket_drops(
    bucket: List[_Entry], destination: int, now: float
) -> bool:
    for start, end, mask, base, _failure in bucket:
        if start <= now < end and destination & mask == base:
            return True
    return False


class FailureSet:
    """The set of failures currently injected, queried per forwarding hop.

    Failures are indexed as they are added — by router id, by ASN and by
    directed router link — so a per-hop query is a ``dict.get`` that
    misses unless something was injected at exactly that router, AS or
    link; its cost does not grow with the failures accumulated elsewhere.
    """

    def __init__(self, failures: Iterable[Failure] = ()) -> None:
        self._failures: List[Failure] = []
        self._by_router: Dict[str, List[_Entry]] = {}
        self._by_asn: Dict[int, List[_Entry]] = {}
        self._by_link: Dict[Tuple[str, str], List[_Entry]] = {}
        for failure in failures:
            self.add(failure)

    def _homes(self, failure: Failure) -> List[Tuple[Dict, Any]]:
        """The (index, bucket key) pairs *failure* is filed under."""
        if isinstance(failure, RouterFailure):
            return [(self._by_router, failure.rid)]
        if isinstance(failure, ASForwardingFailure):
            return [(self._by_asn, failure.asn)]
        homes = [(self._by_link, (failure.a, failure.b))]
        if failure.bidirectional and failure.a != failure.b:
            homes.append((self._by_link, (failure.b, failure.a)))
        return homes

    def add(self, failure: Failure) -> Failure:
        toward = failure.toward
        entry = (
            failure.start,
            failure.end,
            toward.mask if toward is not None else 0,
            toward.base if toward is not None else 0,
            failure,
        )
        self._failures.append(failure)
        for index, key in self._homes(failure):
            index.setdefault(key, []).append(entry)
        return failure

    def remove(self, failure: Failure) -> None:
        """Drop *failure*; raises ValueError if it is not in the set."""
        self._failures.remove(failure)
        for index, key in self._homes(failure):
            bucket = index[key]
            for position, entry in enumerate(bucket):
                if entry[4] == failure:
                    del bucket[position]
                    break
            if not bucket:
                del index[key]

    def clear(self) -> None:
        self._failures.clear()
        self._by_router.clear()
        self._by_asn.clear()
        self._by_link.clear()

    def __len__(self) -> int:
        return len(self._failures)

    def __iter__(self):
        return iter(self._failures)

    def router_drops(
        self,
        rid: str,
        asn: int,
        destination: Union[int, Address],
        now: float,
    ) -> bool:
        """Does the router *rid* (in *asn*) drop a packet to *destination*?"""
        by_router = self._by_router.get(rid)
        by_asn = self._by_asn.get(asn)
        if by_router is None and by_asn is None:
            return False
        return _bucket_drops(
            (by_router or []) + (by_asn or []),
            address_int(destination),
            now,
        )

    def link_drops(
        self,
        from_rid: str,
        to_rid: str,
        destination: Union[int, Address],
        now: float,
    ) -> bool:
        """Does the from->to router link drop a packet to *destination*?"""
        bucket = self._by_link.get((from_rid, to_rid))
        if bucket is None:
            return False
        return _bucket_drops(bucket, address_int(destination), now)

    def active_failures(self, now: float) -> List[Failure]:
        """Failures in force at *now*."""
        return [f for f in self._failures if f.active(now)]

    def active_by_asn(
        self, now: float
    ) -> Dict[int, List[Tuple[int, int, ASForwardingFailure]]]:
        """asn -> (toward mask, toward base, failure) of every
        :class:`ASForwardingFailure` in force at *now*, in the order
        added; a destination int ``d`` matches when ``d & mask == base``."""
        out: Dict[int, List[Tuple[int, int, ASForwardingFailure]]] = {}
        for asn, bucket in self._by_asn.items():
            live = [
                (mask, base, failure)
                for start, end, mask, base, failure in bucket
                if start <= now < end
            ]
            if live:
                out[asn] = live
        return out
