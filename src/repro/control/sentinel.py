"""Sentinel prefixes: detecting repair while traffic routes elsewhere.

While the production prefix is poisoned, the poisoned AS and any networks
captive behind it have no route to it.  The sentinel — announced with the
clean baseline path — gives them a covering route (the Backup Property of
AVOID_PROBLEM) and gives LIFEGUARD a probe channel that still traverses the
faulty AS, so it can notice when the failure is fixed and withdraw the
poison (§4.2).

Three styles from §7.2 are supported:

* ``LESS_SPECIFIC`` — a covering super-prefix with an unused half: probes
  source from the unused space; captive ASes keep a backup route.
* ``DISJOINT`` — a separate unused prefix: repair testing works, but no
  backup route for captives.
* ``NONE`` — no sentinel: no repair detection channel (a poison would
  stay announced until an operator withdrew it), no backup route.

The controller deploys ``LESS_SPECIFIC``; the other two are here for the
§7.2 ablation (``benchmarks/test_ablation_sentinel.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

from repro.dataplane.probes import Prober
from repro.errors import ControlError
from repro.net.addr import Address, Prefix


class SentinelStyle(enum.Enum):
    """Which §7.2 sentinel scheme is deployed."""

    LESS_SPECIFIC = "less-specific"
    DISJOINT = "disjoint"
    NONE = "none"


def covering_sentinel(production: Prefix) -> Prefix:
    """The /n-1 super-prefix covering *production*.

    The sibling half must be unused address space; with the library's
    ASN-derived /16s this holds when the origin's ASN is even and ASN+1 is
    unallocated (the scenario builders guarantee it).
    """
    if production.length == 0:
        raise ControlError("cannot cover a /0 production prefix")
    return production.supernet(production.length - 1)


def unused_half(production: Prefix, sentinel: Prefix) -> Prefix:
    """The half of *sentinel* not covered by *production*."""
    if not production.is_more_specific_of(sentinel):
        raise ControlError(f"{sentinel} does not cover {production}")
    for half in sentinel.subnets(production.length):
        if half != production:
            return half
    raise ControlError("sentinel has no unused half")


@dataclass
class RepairCheck:
    """Result of one sentinel probe round."""

    repaired: bool
    #: destinations that answered via the sentinel path.
    responding: List[Address]
    probes_used: int
    #: True when no check actually ran (no sentinel, or nothing to probe)
    #: — distinct from "probed and still broken".
    skipped: bool = False


class SentinelManager:
    """Issues repair-detection probes from the sentinel address space."""

    def __init__(
        self,
        prober: Prober,
        origin_router: str,
        production: Prefix,
        style: SentinelStyle = SentinelStyle.LESS_SPECIFIC,
        disjoint_prefix: Optional[Prefix] = None,
    ) -> None:
        self.prober = prober
        self.origin_router = origin_router
        self.production = production
        self.style = style
        #: optional :class:`~repro.faults.FaultInjector`; when set it may
        #: suppress successful sentinel replies (false negatives), which
        #: delays — never falsifies — repair detection.
        self.injector = None
        #: replies the injector ate (accounting for the chaos bench).
        self.replies_suppressed = 0
        if style is SentinelStyle.LESS_SPECIFIC:
            self.sentinel: Optional[Prefix] = covering_sentinel(production)
            self._probe_source = unused_half(
                self.production, self.sentinel
            ).address(100)
        elif style is SentinelStyle.DISJOINT:
            if disjoint_prefix is None:
                raise ControlError("DISJOINT style needs disjoint_prefix")
            self.sentinel = disjoint_prefix
            self._probe_source = disjoint_prefix.address(100)
        else:
            self.sentinel = None
            self._probe_source = None

    @property
    def provides_backup_route(self) -> bool:
        """Do captive ASes keep a covering route while poisoned? (§7.2)"""
        return self.style is SentinelStyle.LESS_SPECIFIC

    @property
    def can_detect_repair(self) -> bool:
        return self.style is not SentinelStyle.NONE

    def check_repair(
        self,
        test_destinations: Iterable[Union[str, Address]],
        now: Optional[float] = None,
    ) -> RepairCheck:
        """Probe destinations whose replies must traverse the faulty AS.

        Replies to the sentinel-sourced probes route via the *unpoisoned*
        sentinel announcement — i.e. through the poisoned AS if that is
        the preferred path — so a response means the failure is gone.
        """
        if not self.can_detect_repair:
            return RepairCheck(
                repaired=False, responding=[], probes_used=0, skipped=True
            )
        destinations = list(test_destinations)
        if not destinations:
            # Zero probes can never be evidence of repair; without this
            # guard ``bool(responding)`` below would at best mask the
            # distinction between "unchecked" and "checked, still broken".
            return RepairCheck(
                repaired=False, responding=[], probes_used=0, skipped=True
            )
        if now is not None:
            self.prober.dataplane.now = now
        before = self.prober.probes_sent
        responding: List[Address] = []
        for destination in destinations:
            result = self.prober.ping(
                self.origin_router,
                destination,
                claimed_address=self._probe_source,
            )
            if result.success:
                if self.injector is not None and (
                    self.injector.sentinel_false_negative(
                        self.prober.dataplane.now
                    )
                ):
                    # A lost sentinel reply looks exactly like "still
                    # broken": repair detection is delayed to a later
                    # check, never spuriously triggered.
                    self.replies_suppressed += 1
                    continue
                responding.append(Address(destination))
        return RepairCheck(
            repaired=bool(responding),
            responding=responding,
            probes_used=self.prober.probes_sent - before,
        )
