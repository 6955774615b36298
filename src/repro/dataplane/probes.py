"""Measurement primitives: ping, traceroute, and their spoofed variants.

Every probe is two forwarding walks — the request and the reply — so a
reply can die on a broken reverse path even when the forward direction
works.  Spoofed probes decouple the two: the request is emitted by one
vantage point while the reply travels toward another, which is how the
paper isolates the *direction* of a failure (§4.1.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.dataplane.forwarding import DataPlane, ForwardOutcome, ForwardResult
from repro.net.addr import Address
from repro.obs.events import Prepared, prepare

#: Real traceroute gives up after a run of silent hops; so do we.
_TRACEROUTE_GAP_LIMIT = 4
_TRACEROUTE_MAX_TTL = 64
#: The IPv4 record-route option holds at most nine addresses — the
#: constraint the reverse-traceroute algorithm is built around.
RECORD_ROUTE_SLOTS = 9
_DELIVERED = ForwardOutcome.DELIVERED


@dataclass(slots=True)
class PingResult:
    """Outcome of one (possibly spoofed) ping."""

    success: bool
    request: ForwardResult
    reply: Optional[ForwardResult] = None
    #: address of the router that answered, when one did.
    responder: Optional[Address] = None


@dataclass
class RecordRouteResult:
    """Outcome of a ping carrying the IP record-route option.

    ``recorded`` holds up to nine router addresses stamped along the
    probe's forward path *and then its reply path* — the key mechanic:
    if the probe reaches the destination with slots to spare, the first
    hops of the *reverse* path get recorded, which is how reverse
    traceroute sees the direction it cannot probe directly.
    """

    success: bool
    recorded: List[Address] = field(default_factory=list)
    #: the reply-side subset of ``recorded`` (new reverse-path hops).
    recorded_reply: List[Address] = field(default_factory=list)
    #: where the reply was delivered (the spoofed receiver, if any).
    received_by: Optional[str] = None


@dataclass
class TracerouteResult:
    """Outcome of a traceroute: one entry per TTL.

    ``hops[i]`` is the responding address at TTL i+1, or None for a silent
    hop (probe or reply lost, or an unresponsive router).
    """

    source: str
    destination: Address
    hops: List[Optional[Address]] = field(default_factory=list)
    reached: bool = False

    def responding_hops(self) -> List[Address]:
        """The non-None hop addresses, in order."""
        return [h for h in self.hops if h is not None]

    def last_responsive(self) -> Optional[Address]:
        """The deepest hop that answered."""
        responding = self.responding_hops()
        return responding[-1] if responding else None


class Prober:
    """Issues probes over a :class:`DataPlane` and accounts for them.

    ``reply_loss_rate`` injects random reply loss (ICMP rate limiting) so
    the measurement layers above have to tolerate missing answers the way
    the real system does.

    All of the prober's own randomness flows from the single seeded
    ``random.Random`` built here (or passed in via *rng* to share a stream
    with the caller) — never from the module-level ``random`` functions —
    so chaos runs replay bit-for-bit.

    An attached :class:`~repro.faults.injector.FaultInjector` may eat
    probes (loss, latency spikes, crashed sources).  Injected faults are
    transient infrastructure problems, so the prober retries them with
    bounded exponential backoff (``max_retries`` / ``retry_backoff``);
    failures of the *measured* path are never retried — they are the
    signal.  With no injector attached, behaviour is byte-identical to the
    pre-chaos prober.
    """

    def __init__(
        self,
        dataplane: DataPlane,
        reply_loss_rate: float = 0.0,
        seed: int = 0,
        rng: Optional[random.Random] = None,
        injector=None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
    ) -> None:
        self.dataplane = dataplane
        self.reply_loss_rate = reply_loss_rate
        self._rng = rng if rng is not None else random.Random(seed)
        self.injector = injector
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        #: total probe packets emitted (for the §5.4 accounting).
        self.probes_sent = 0
        #: probes consumed by injected infrastructure faults.
        self.probes_lost_to_faults = 0
        #: retries spent recovering from injected faults.
        self.retries_used = 0
        #: cumulative backoff the retries would have waited (seconds).
        self.retry_wait_seconds = 0.0
        #: optional observability bus (an :class:`~repro.obs.events.EventBus`).
        self.obs = None
        #: (kind, source rid, destination int, spoofed, *outcome) -> that
        #: probe event's prepared line; as many entries as distinct
        #: (pair, outcome) combinations, so steady-state monitoring
        #: renders no JSON.
        self._prepared: Dict[tuple, Prepared] = {}

    def reseed(self, seed: int) -> None:
        """Replace the prober's RNG stream (reply-loss draws).

        Per-trial experiment runners call this so each trial's probe
        noise flows from its own derived seed, independent of how many
        probes earlier trials issued.
        """
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _address_of(self, rid: str) -> Address:
        return self.dataplane.topo.router(rid).address

    def _reply_lost(self) -> bool:
        return (
            self.reply_loss_rate > 0
            and self._rng.random() < self.reply_loss_rate
        )

    def _probe_blocked(self, source_rid: str) -> bool:
        """Did injected faults consume this probe (after bounded retries)?

        Each injected loss burns one emitted probe; each retry waits
        ``retry_backoff * 2**attempt`` seconds (accounted, not simulated —
        the backoff is microscopic next to the 30 s monitoring round).
        """
        if self.injector is None:
            return False
        fault = self.injector.probe_fault(source_rid, self.dataplane.now)
        if fault is None:
            return False
        self.probes_sent += 1
        self.probes_lost_to_faults += 1
        for attempt in range(self.max_retries):
            self.retries_used += 1
            self.retry_wait_seconds += self.retry_backoff * (2 ** attempt)
            fault = self.injector.probe_fault(
                source_rid, self.dataplane.now
            )
            if fault is None:
                return False
            self.probes_sent += 1
            self.probes_lost_to_faults += 1
        return True

    def _receiver_crashed(self, receive_at: Optional[str]) -> bool:
        """Is the spoof-receiving vantage point dead?  (No retry: the
        receiver stays down for the whole crash window.)"""
        return (
            self.injector is not None
            and receive_at is not None
            and self.injector.receiver_down(receive_at)
        )

    def _emit(
        self, key: tuple, destination: Address, names: Tuple[str, ...]
    ) -> None:
        """Emit the probe event *key* names: ``(kind, source rid,
        destination int, spoofed)`` followed by the values of the outcome
        fields *names*."""
        prepared = self._prepared.get(key)
        if prepared is None:
            kind, source_rid, _, spoofed, *outcome = key
            prepared = self._prepared[key] = prepare(
                kind, "dataplane.prober",
                subject=f"{source_rid}->{destination}", spoofed=spoofed,
                **dict(zip(names, outcome)),
            )
        self.obs.emit_prepared(prepared, self.dataplane.now)

    def _lost_probe_result(self, source_rid: str) -> ForwardResult:
        return ForwardResult(
            ForwardOutcome.DROPPED, (source_rid,), source_rid
        )

    def _send_reply(
        self, from_rid: str, to_address: Address
    ) -> ForwardResult:
        return self.dataplane.forward(from_rid, to_address)

    def _reply_reaches(self, reply: ForwardResult) -> bool:
        """Delivered, and to the router the walk resolved as the host of
        the address the reply was sent to."""
        return (
            reply.delivered
            and reply.target_router is not None
            and reply.final_router == reply.target_router
        )

    # ------------------------------------------------------------------
    # Ping
    # ------------------------------------------------------------------
    def ping(
        self,
        source_rid: str,
        destination: Union[str, Address],
        receive_at: Optional[str] = None,
        claimed_address: Optional[Address] = None,
    ) -> PingResult:
        """Ping *destination* from *source_rid*.

        With *receive_at* (a router id), the probe is spoofed: the echo
        reply travels toward that vantage point instead of the sender.
        *claimed_address* sets the spoofed source to an arbitrary address
        instead — LIFEGUARD pings from its sentinel prefix's unused space
        this way to test whether a poisoned path has been repaired.
        """
        if type(destination) is not Address:
            destination = Address(destination)
        result = self._ping(
            source_rid, destination, receive_at, claimed_address
        )
        if self.obs is not None:
            self._emit(
                ("probe.ping", source_rid, destination._value,
                 receive_at is not None or claimed_address is not None,
                 result.success),
                destination, ("success",),
            )
        return result

    def _ping(
        self,
        source_rid: str,
        destination: Address,
        receive_at: Optional[str] = None,
        claimed_address: Optional[Address] = None,
    ) -> PingResult:
        # No injector, nothing to consult: neither check draws from the
        # prober's own stream.
        if self.injector is not None and (
            self._probe_blocked(source_rid)
            or self._receiver_crashed(receive_at)
        ):
            self.probes_sent += 1
            return PingResult(
                success=False, request=self._lost_probe_result(source_rid)
            )
        self.probes_sent += 1
        # Both walks take ints: on a monitoring round each is one read of
        # the data plane's walk memo.
        dataplane = self.dataplane
        topo = dataplane.topo
        if claimed_address is not None:
            claimed = Address(claimed_address)._value
        else:
            claimed = topo.router(receive_at or source_rid).address._value
        target = destination._value
        request = dataplane.forward(source_rid, target)
        if request.outcome is not _DELIVERED:
            return PingResult(False, request)
        responder_rid = request.final_router
        responder = topo.router(responder_rid)
        # Hosts (non-router addresses) always answer; routers may be
        # configured to ignore ICMP.
        if (
            not responder.responds_to_ping
            and topo.router_by_address(target) is not None
        ):
            return PingResult(False, request)
        if self.reply_loss_rate > 0 and self._reply_lost():
            return PingResult(False, request)
        reply = dataplane.forward(responder_rid, claimed)
        success = (
            reply.outcome is _DELIVERED
            and reply.target_router is not None
            and reply.final_router == reply.target_router
        )
        return PingResult(
            success, request, reply, responder.address if success else None
        )

    def reachability(
        self,
        source_rid: str,
        destinations: Iterable[Union[str, Address]],
        now: Optional[float] = None,
    ) -> Dict[str, bool]:
        """One ping per destination; maps ``str(destination)`` to success.

        The batch form the repair guard uses for its pre-poison control
        snapshot and post-poison verification sweep — one call per round
        keeps the probe accounting in a single place.
        """
        if now is not None:
            self.dataplane.now = now
        return {
            str(Address(d)): self.ping(source_rid, d).success
            for d in destinations
        }

    # ------------------------------------------------------------------
    # Traceroute
    # ------------------------------------------------------------------
    def traceroute(
        self,
        source_rid: str,
        destination: Union[str, Address],
        receive_at: Optional[str] = None,
        max_ttl: int = _TRACEROUTE_MAX_TTL,
    ) -> TracerouteResult:
        """Traceroute toward *destination*.

        With *receive_at*, this is the paper's *spoofed traceroute*: the
        TTL-exceeded replies travel to a different vantage point, letting a
        source with a broken reverse path still see its forward path.
        """
        destination = Address(destination)
        result = self._traceroute(
            source_rid, destination, receive_at, max_ttl
        )
        if self.obs is not None:
            self._emit(
                ("probe.traceroute", source_rid, destination._value,
                 receive_at is not None, result.reached, len(result.hops)),
                destination, ("reached", "hops"),
            )
        return result

    def _traceroute(
        self,
        source_rid: str,
        destination: Address,
        receive_at: Optional[str] = None,
        max_ttl: int = _TRACEROUTE_MAX_TTL,
    ) -> TracerouteResult:
        claimed = self._address_of(receive_at or source_rid)
        result = TracerouteResult(source=source_rid, destination=destination)
        # One fault draw covers the whole measurement: a traceroute whose
        # probes are being eaten yields nothing an operator can use.
        if self._probe_blocked(source_rid) or self._receiver_crashed(
            receive_at
        ):
            self.probes_sent += 1
            return result
        silent_run = 0
        for ttl in range(1, max_ttl + 1):
            self.probes_sent += 1
            walk = self.dataplane.forward(source_rid, destination, ttl=ttl)
            hop = self._hop_response(walk, destination, claimed)
            result.hops.append(hop)
            if walk.delivered and hop is not None:
                result.reached = True
                break
            if walk.outcome in (
                ForwardOutcome.NO_ROUTE,
                ForwardOutcome.DROPPED,
                ForwardOutcome.NO_LINK,
                ForwardOutcome.LOOP,
                ForwardOutcome.DELIVERED,
            ):
                # The probe's fate no longer depends on TTL: the walk ends
                # at the same place every time, so further TTLs only map
                # hops we've already seen.  Real traceroute keeps probing
                # blindly; we keep probing until the gap limit to mimic
                # the operator-visible behaviour, but cheaply.
                silent_run += 1
                if hop is not None:
                    silent_run = 0
                if silent_run >= _TRACEROUTE_GAP_LIMIT or walk.delivered:
                    break
            else:
                silent_run = silent_run + 1 if hop is None else 0
                if silent_run >= _TRACEROUTE_GAP_LIMIT:
                    break
        return result

    # ------------------------------------------------------------------
    # Record-route ping
    # ------------------------------------------------------------------
    def rr_ping(
        self,
        source_rid: str,
        destination: Union[str, Address],
        receive_at: Optional[str] = None,
        claimed_address: Optional[Address] = None,
    ) -> "RecordRouteResult":
        """Ping with the IP record-route option (9 address slots).

        Routers stamp the option on the way *to* the destination and —
        if slots remain — the reply's first hops get stamped too, which
        is what lets reverse traceroute observe a few hops of the path
        back toward the (possibly spoofed) source.  ``recorded_reply``
        separates the reply-side stamps for the caller.
        """
        destination = Address(destination)
        result = self._rr_ping(
            source_rid, destination, receive_at, claimed_address
        )
        if self.obs is not None:
            self._emit(
                ("probe.rr-ping", source_rid, destination._value,
                 receive_at is not None or claimed_address is not None,
                 result.success, len(result.recorded)),
                destination, ("success", "recorded"),
            )
        return result

    def _rr_ping(
        self,
        source_rid: str,
        destination: Address,
        receive_at: Optional[str] = None,
        claimed_address: Optional[Address] = None,
    ) -> "RecordRouteResult":
        if self._probe_blocked(source_rid) or self._receiver_crashed(
            receive_at
        ):
            self.probes_sent += 1
            return RecordRouteResult(success=False)
        self.probes_sent += 1
        if claimed_address is not None:
            claimed = Address(claimed_address)
        else:
            claimed = self._address_of(receive_at or source_rid)
        request = self.dataplane.forward(source_rid, destination)
        result = RecordRouteResult(success=False)
        if not request.delivered:
            return result
        responder_rid = request.final_router
        responder = self.dataplane.topo.router(responder_rid)
        is_router_address = (
            self.dataplane.topo.router_by_address(destination) is not None
        )
        if is_router_address and not responder.responds_to_ping:
            return result
        if self._reply_lost():
            return result
        reply = self._send_reply(responder_rid, claimed)
        if not self._reply_reaches(reply):
            return result
        # Stamp the option: forward hops (after the emitting router),
        # then reply hops (after the responder) until slots run out.
        topo = self.dataplane.topo
        stamps: List[Address] = [
            topo.router(rid).address for rid in request.hops[1:]
        ][:RECORD_ROUTE_SLOTS]
        remaining = RECORD_ROUTE_SLOTS - len(stamps)
        reply_stamps = [
            topo.router(rid).address for rid in reply.hops[1:]
        ][:remaining]
        result.success = True
        result.recorded = stamps + reply_stamps
        result.received_by = reply.target_router
        result.recorded_reply = reply_stamps
        return result

    def _hop_response(
        self,
        walk: ForwardResult,
        destination: Address,
        claimed: Address,
    ) -> Optional[Address]:
        """Would the terminal router of *walk* answer, and get through?"""
        if walk.final_router is None:
            return None
        responder = self.dataplane.topo.router(walk.final_router)
        if walk.delivered:
            is_router_address = (
                self.dataplane.topo.router_by_address(destination)
                is not None
            )
            if is_router_address and not responder.responds_to_ping:
                return None
        elif walk.outcome is ForwardOutcome.TTL_EXPIRED:
            if not responder.responds_to_ping:
                return None
        else:
            # Silent drops and missing routes generate nothing.
            return None
        if self._reply_lost():
            return None
        reply = self._send_reply(walk.final_router, claimed)
        if not self._reply_reaches(reply):
            return None
        return responder.address
