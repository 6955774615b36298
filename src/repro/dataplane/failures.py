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


def _scope(toward: Optional[Prefix]) -> Tuple[int, int]:
    """``(mask, base)`` of the destinations *toward* names: ``(0, 0)``,
    which every address matches, for all traffic."""
    return (0, 0) if toward is None else (toward.mask, toward.base)


def _bucket_drops(
    bucket: List[_Entry], destination: int, now: float
) -> bool:
    for start, end, mask, base, _failure in bucket:
        if start <= now < end and destination & mask == base:
            return True
    return False


class FailureSet:
    """The set of failures currently injected, queried per forwarding hop.

    Failures are indexed as they are added — under their router id (a
    str), their ASN (an int) or their directed router link (a tuple):
    three key types that cannot collide in the one dict — so a per-hop
    query is a ``dict.get`` that misses unless something was injected at
    exactly that router, AS or link; its cost does not grow with the
    failures accumulated elsewhere.
    """

    def __init__(self, failures: Iterable[Failure] = ()) -> None:
        self._failures: List[Failure] = []
        self._index: Dict[Any, List[_Entry]] = {}
        #: Monotone change log: ``(index key, toward mask, toward base)``
        #: of everything added or dropped.  A data plane keeps a cursor
        #: into it to learn which of its remembered walks a change can
        #: have touched: those through the key, toward a destination
        #: ``d`` with ``d & mask == base``.
        self.changes: List[Tuple[Any, int, int]] = []
        for failure in failures:
            self.add(failure)

    @staticmethod
    def _homes(failure: Failure) -> List[Any]:
        """The index keys *failure* is filed under."""
        if isinstance(failure, RouterFailure):
            return [failure.rid]
        if isinstance(failure, ASForwardingFailure):
            return [failure.asn]
        if failure.bidirectional and failure.a != failure.b:
            return [(failure.a, failure.b), (failure.b, failure.a)]
        return [(failure.a, failure.b)]

    def add(self, failure: Failure) -> Failure:
        mask, base = _scope(failure.toward)
        entry = (failure.start, failure.end, mask, base, failure)
        self._failures.append(failure)
        for key in self._homes(failure):
            self._index.setdefault(key, []).append(entry)
            self.changes.append((key, mask, base))
        return failure

    def remove(self, failure: Failure) -> None:
        """Drop *failure*; raises ValueError if it is not in the set."""
        self._failures.remove(failure)
        mask, base = _scope(failure.toward)
        for key in self._homes(failure):
            bucket = self._index[key]
            for position, entry in enumerate(bucket):
                if entry[4] == failure:
                    del bucket[position]
                    break
            if not bucket:
                del self._index[key]
            self.changes.append((key, mask, base))

    def clear(self) -> None:
        self._failures.clear()
        self.changes.extend(
            (key, mask, base)
            for key, bucket in self._index.items()
            for _start, _end, mask, base, _failure in bucket
        )
        self._index.clear()

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
        by_router = self._index.get(rid)
        by_asn = self._index.get(asn)
        if by_router is None and by_asn is None:
            return False
        destination = address_int(destination)
        if by_router is not None and _bucket_drops(
            by_router, destination, now
        ):
            return True
        return by_asn is not None and _bucket_drops(by_asn, destination, now)

    def link_drops(
        self,
        from_rid: str,
        to_rid: str,
        destination: Union[int, Address],
        now: float,
    ) -> bool:
        """Does the from->to router link drop a packet to *destination*?"""
        bucket = self._index.get((from_rid, to_rid))
        if bucket is None:
            return False
        return _bucket_drops(bucket, address_int(destination), now)

    def quiet_window(
        self, keys: Iterable[Any], destination: int, now: float
    ) -> Tuple[float, float]:
        """The widest ``[lo, hi)`` around *now* in which no failure filed
        under *keys* (router ids, ASNs, directed links) starts or stops
        matching *destination*: while those buckets stay as they are,
        every drop query against them answers the same throughout it."""
        lo, hi = float("-inf"), float("inf")
        for key in keys if self._index else ():
            for start, end, mask, base, _failure in self._index.get(key, ()):
                if destination & mask == base:
                    for edge in (start, end):
                        if lo < edge <= now:
                            lo = edge
                        elif now < edge < hi:
                            hi = edge
        return lo, hi

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
        for asn, bucket in self._index.items():
            if type(asn) is not int:  # a router's or a link's bucket
                continue
            live = [
                (mask, base, failure)
                for start, end, mask, base, failure in bucket
                if start <= now < end
            ]
            if live:
                out[asn] = live
        return out
