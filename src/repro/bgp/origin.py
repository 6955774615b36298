"""Origin-side announcement control: the BGP-Mux role.

The :class:`OriginController` wraps one origin AS in a :class:`BGPEngine`
and exposes the operations LIFEGUARD performs on its announcements:

* a prepended **baseline** (``O-O-O``) that keeps path length constant so a
  later poison converges with minimal path exploration (§3.1.1);
* **poisoning** an AS (``O-A-O``) to trigger loop-prevention-based
  avoidance (§3.1);
* **selective poisoning** — poisoned paths via some providers, clean via
  others — to steer traffic off one AS link (§3.1.2);
* a covering **sentinel prefix** that keeps a baseline route alive for
  captive ASes and lets LIFEGUARD test for repair (§4.2, §7.2).

Two safety mechanisms live origin-side because they guard the announcement
state itself:

* a **poison ledger** — active poisons are keyed by the repair that owns
  them, and every announcement carries the *union* of the ledger.  Without
  it, two concurrent repairs clobber each other: the second ``poison()``
  silently replaces the first, and either ``unpoison()`` withdraws both.
* an **announcement pacer** — a sliding-window budget on announcements per
  prefix, sized against route-flap damping (RFC 2439: 1000 penalty per
  update, suppression at 2000, 15-minute half-life — the reason the paper
  spaced its announcements 90 minutes apart, §6).  The pacer never blocks
  an announcement itself (withdrawing a harmful poison must always be
  possible); the control loop consults :meth:`AnnouncementPacer.allows`
  before *adding* churn, and records a slot for every announcement it
  journals — the controller here only carries the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.delta import DeltaChange, DeltaResult, try_apply_delta
from repro.bgp.engine import BGPEngine
from repro.bgp.messages import ASPath, make_path
from repro.errors import ControlError
from repro.net.addr import Prefix

#: origin copies on the baseline announcement (O-O-O): the room a poison
#: takes without lengthening the path (§3.1.1).
BASELINE_PREPEND = 3
#: extra origin copies a ledgered "prepend" entry adds at its providers.
PREPEND_EXTRA = 3
#: the pacer's sliding window and the announcements allowed inside it.
#: They stay clear of RFC 2439 damping: at 1000 penalty per update, a
#: 2000 suppress threshold and a 900 s half-life, more than ~6 updates
#: inside 90 minutes risks suppression at a damping-enabled neighbor.
PACER_WINDOW = 5400.0
PACER_BUDGET = 6


@dataclass
class AnnouncementSpec:
    """Desired announcement state for one prefix at the origin."""

    prefix: Prefix
    prepend: int = BASELINE_PREPEND
    #: ASes inserted into the path (globally, unless selective overrides).
    poisoned: Tuple[int, ...] = ()
    #: provider ASN -> poison list for that provider only (selective
    #: poisoning); providers absent here use ``poisoned``.
    selective: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: providers the prefix is NOT advertised to (selective advertising).
    suppressed_providers: Tuple[int, ...] = ()
    #: provider ASN -> extra prepend on that provider's announcement
    #: (prepend-only steering: make one ingress unattractive without
    #: poisoning anybody, so defense filters have nothing to reject).
    prepend_overrides: Dict[int, int] = field(default_factory=dict)

    def path_for(self, origin: int, provider: int) -> Optional[ASPath]:
        if provider in self.suppressed_providers:
            return None
        prepend = self.prepend + self.prepend_overrides.get(provider, 0)
        poison = self.selective.get(provider, self.poisoned)
        if not poison:
            return make_path(origin, prepend=prepend)
        # Keep the poisoned path the same length as the prepended
        # baseline (O-O-O -> O-A-O): equal length + same next hop means
        # unaffected ASes adopt the update without path exploration
        # (§3.1.1).  If the poison list outgrows the prepend budget the
        # path necessarily lengthens.
        head = max(1, prepend - len(poison))
        return make_path(origin, prepend=head, poison=poison)


class AnnouncementPacer:
    """Sliding-window announcement budget for one prefix:
    :data:`PACER_BUDGET` announcements within any :data:`PACER_WINDOW`
    seconds."""

    def __init__(self) -> None:
        #: times of every recorded announcement (grows for the run's
        #: duration; experiment runs are bounded, so no eviction).
        self.times: List[float] = []

    def _in_window(self, now: float) -> int:
        floor = now - PACER_WINDOW
        return sum(1 for t in self.times if t > floor)

    def allows(self, now: float) -> bool:
        """Would one more announcement at *now* stay inside the budget?"""
        return self._in_window(now) < PACER_BUDGET

    def record(self, now: float) -> None:
        """Take one slot.  Announcements are a multiset: two repairs
        announced in the same tick are two units of damping penalty, so
        equal timestamps must not collapse."""
        self.times.append(now)


class OriginController:
    """Announcement control plane for one origin AS."""

    def __init__(
        self,
        engine: BGPEngine,
        origin_asn: int,
        production_prefix: Prefix,
        sentinel_prefix: Optional[Prefix] = None,
        delta_mode: str = "off",
    ) -> None:
        if origin_asn not in engine.speakers:
            raise ControlError(f"AS{origin_asn} not in the topology")
        if delta_mode not in ("off", "auto"):
            raise ControlError(
                f"unknown delta mode {delta_mode!r}; "
                f"pick from ('off', 'auto')"
            )
        if sentinel_prefix == production_prefix:
            # Covering and disjoint sentinels are both §7.2's; the same
            # prefix twice would poison the repair-detection channel.
            raise ControlError("sentinel equals production prefix")
        self.engine = engine
        self.origin_asn = origin_asn
        self.production_prefix = production_prefix
        self.sentinel_prefix = sentinel_prefix
        self.providers: List[int] = sorted(
            engine.speakers[origin_asn].neighbors
        )
        self._spec = AnnouncementSpec(prefix=production_prefix)
        #: active remediations keyed by the repair that owns them; each
        #: value is ``(mode, value)`` where mode is "poison" (value:
        #: poisoned ASNs) or "prepend"/"suppress" (value: provider ASNs
        #: steered or withheld), and every announcement carries the
        #: per-mode union of the values.
        self._ledger: Dict[str, Tuple[str, Tuple[int, ...]]] = {}
        #: damping-aware announcement budget (advisory: consulted and
        #: charged by the control loop, never by ``_apply``).
        self.pacer = AnnouncementPacer()
        #: history of (time, description) announcement changes.
        self.log: List[Tuple[float, str]] = []
        #: optional observability bus (duck-typed; see repro.obs.events).
        self.obs = None
        #: "auto": route announcements through repro.bgp.delta when the
        #: engine's state is analytic, falling back (and counting) when
        #: the gate refuses.  "off" always uses the event path.
        self.delta_mode = delta_mode
        #: optional RunStats sink for solver.delta.* counters.
        self.stats = None
        self.delta_applied = 0
        self.delta_fallbacks = 0
        self.delta_cone_sizes: List[int] = []
        self.last_delta: Optional[DeltaResult] = None

    # ------------------------------------------------------------------
    # Announcement lifecycle
    # ------------------------------------------------------------------
    def announce_baseline(self) -> None:
        """Announce production (and sentinel) with the prepended baseline."""
        self._ledger = {}
        self._spec.poisoned = ()
        self._spec.selective = {}
        self._spec.prepend_overrides = {}
        self._apply("baseline")
        if self.sentinel_prefix is not None:
            sentinel_path = make_path(
                self.origin_asn, prepend=self._spec.prepend
            )
            if not self._try_delta_originate(
                self.sentinel_prefix, sentinel_path
            ):
                self.engine.originate(
                    self.origin_asn,
                    self.sentinel_prefix,
                    path=sentinel_path,
                )

    def _ledger_union(self, mode: str) -> Tuple[int, ...]:
        asns = set()
        for entry_mode, entry_asns in self._ledger.values():
            if entry_mode == mode:
                asns.update(entry_asns)
        return tuple(sorted(asns))

    def _apply_ledger(self, description: str) -> bool:
        """Re-announce the ledger union; returns True if anything went out.

        Idempotent: when the union is already on the wire the call is a
        logged no-op.  Several concurrent repairs blaming the same AS (one
        ground-truth failure seen from many pairs) would otherwise each
        re-issue an identical announcement, burning pacing budget and
        route-flap-damping headroom for nothing.
        """
        poisoned = self._ledger_union("poison")
        overrides = {
            provider: PREPEND_EXTRA
            for provider in self._ledger_union("prepend")
        }
        suppressed = self._ledger_union("suppress")
        if (
            poisoned == self._spec.poisoned
            and overrides == self._spec.prepend_overrides
            and suppressed == self._spec.suppressed_providers
            and not self._spec.selective
        ):
            self.log.append((self.engine.now, f"{description} (no-op)"))
            return False
        self._spec.poisoned = poisoned
        self._spec.selective = {}
        self._spec.prepend_overrides = overrides
        self._spec.suppressed_providers = suppressed
        self._apply(description)
        return True

    def poison(self, asns: Iterable[int], key: str = "default") -> bool:
        """Globally poison *asns* on the production prefix.

        *key* names the repair that owns this poison in the ledger; the
        announcement carries the union of every active ledger entry, so
        concurrent repairs compose instead of clobbering each other.  The
        sentinel keeps its unpoisoned baseline so captive ASes retain a
        covering route and LIFEGUARD can probe for repair.  Returns True
        if an announcement actually went out (False: idempotent no-op).
        """
        poison_list = tuple(asns)
        if self.origin_asn in poison_list:
            raise ControlError("cannot poison the origin itself")
        if not poison_list:
            raise ControlError("empty poison list (use unpoison)")
        self._ledger[key] = ("poison", poison_list)
        return self._apply_ledger(f"poison {poison_list} [{key}]")

    def poison_selectively(
        self,
        target: int,
        via_providers: Sequence[int],
    ) -> None:
        """Poison *target* only on announcements through *via_providers*.

        The other providers carry the clean baseline, so the target AS still
        hears (and keeps) a route — via the neighbors we did not poison —
        implementing AVOID_PROBLEM(A-B, P) when provider paths are disjoint.
        """
        for provider in via_providers:
            if provider not in self.providers:
                raise ControlError(
                    f"AS{provider} is not a provider of AS{self.origin_asn}"
                )
        self._ledger = {}
        self._spec.poisoned = ()
        self._spec.selective = {
            provider: (target,) for provider in via_providers
        }
        self._apply(f"selective poison {target} via {list(via_providers)}")

    def steer_prepend(
        self, providers: Sequence[int], key: str = "default"
    ) -> bool:
        """Prepend-only steering: pad the path via *providers* (§3.1.2).

        The announcement through each listed provider carries
        :data:`PREPEND_EXTRA` additional origin copies, making that ingress
        unattractive without inserting any foreign ASN — so poisoned-path
        filters, reserved-ASN rejection and Peerlock have nothing to
        match.  Ledgered like a poison; concurrent repairs compose.
        Returns True if an announcement actually went out.
        """
        steer_list = tuple(sorted(providers))
        unknown = set(steer_list) - set(self.providers)
        if unknown:
            raise ControlError(f"not providers: {sorted(unknown)}")
        if not steer_list:
            raise ControlError("empty steer list (use unpoison)")
        self._ledger[key] = ("prepend", steer_list)
        return self._apply_ledger(f"steer-prepend {steer_list} [{key}]")

    def suppress_providers(
        self, providers: Sequence[int], key: str = "default"
    ) -> bool:
        """Ledgered selective advertisement: withdraw from *providers*.

        The production prefix stops being announced via the listed
        providers — a true withdrawal no import filter can ignore —
        while the remaining providers keep the clean baseline.  Refuses
        to suppress the whole provider set (the union across every
        active ledger entry must leave at least one announcing
        provider).  Returns True if an announcement actually went out.
        """
        suppress_list = tuple(sorted(providers))
        unknown = set(suppress_list) - set(self.providers)
        if unknown:
            raise ControlError(f"not providers: {sorted(unknown)}")
        if not suppress_list:
            raise ControlError("empty suppress list (use unpoison)")
        union = set(self._ledger_union("suppress")) | set(suppress_list)
        if union >= set(self.providers):
            raise ControlError(
                "refusing to suppress every provider "
                f"({sorted(union)}): the prefix would go dark"
            )
        self._ledger[key] = ("suppress", suppress_list)
        return self._apply_ledger(f"suppress {suppress_list} [{key}]")

    def unpoison(self, key: Optional[str] = None) -> bool:
        """Withdraw one repair's poison — or, with no *key*, everything.

        With a *key*, only that ledger entry is reconciled away and the
        announcement is re-issued with the union of the *remaining* active
        poisons, so finishing one repair never withdraws a concurrent
        repair's poison.  ``unpoison()`` with no key is the full reset back
        to the clean baseline (also clears selective/suppressed state).
        Returns True if an announcement actually went out.
        """
        if key is not None:
            if key not in self._ledger:
                raise ControlError(f"no active poison under key {key!r}")
            del self._ledger[key]
            remaining = tuple(
                value
                for mode in ("poison", "prepend", "suppress")
                for value in self._ledger_union(mode)
            )
            suffix = f"remaining {remaining}" if remaining else "baseline"
            return self._apply_ledger(f"unpoison [{key}] -> {suffix}")
        self._ledger = {}
        self._spec.poisoned = ()
        self._spec.selective = {}
        self._spec.suppressed_providers = ()
        self._spec.prepend_overrides = {}
        self._apply("unpoison")
        return True

    def active_poisons(self) -> Dict[str, Tuple[str, Tuple[int, ...]]]:
        """The ledger: repair key -> (mode, ASes) currently active (copy)."""
        return dict(self._ledger)

    def restore(
        self, ledger: Dict[str, Tuple[str, Tuple[int, ...]]]
    ) -> bool:
        """Reinstate intended announcement state after a controller crash.

        The network (the engine) still carries whatever the dead controller
        announced; a fresh controller starts with an empty spec and would
        clobber it on the next change.  ``restore`` rebuilds the ledger and
        — when any poison should be active — re-issues the union once,
        which converges as a no-op if the network already matches.
        Returns True if the reconcile announcement actually went out, so
        the caller can journal it (and charge the pacer).
        """
        self._ledger = {
            k: (mode, tuple(asns)) for k, (mode, asns) in ledger.items()
        }
        if self._ledger:
            return self._apply_ledger("recover-reconcile")
        return False

    def _try_delta_originate(
        self,
        prefix: Prefix,
        path: Optional[ASPath],
        per_neighbor: Optional[Dict[int, Optional[ASPath]]] = None,
    ) -> bool:
        """Route one (re-)origination through the incremental path.

        Returns True when the delta was spliced (the event path must be
        skipped); False when delta mode is off or the gate fell back —
        fallbacks are already counted by
        :func:`repro.bgp.delta.try_apply_delta`.
        """
        if self.delta_mode == "off":
            return False
        change = DeltaChange.originate(
            self.origin_asn, prefix, path=path, per_neighbor=per_neighbor
        )
        result = try_apply_delta(self.engine, [change], stats=self.stats)
        if result is None:
            self.delta_fallbacks += 1
            return False
        self.delta_applied += 1
        self.delta_cone_sizes.append(result.cone_size)
        self.last_delta = result
        return True

    def _apply(self, description: str) -> None:
        per_neighbor = {
            provider: self._spec.path_for(self.origin_asn, provider)
            for provider in self.providers
        }
        path = make_path(self.origin_asn, prepend=self._spec.prepend)
        if not self._try_delta_originate(
            self.production_prefix, path, per_neighbor
        ):
            self.engine.originate(
                self.origin_asn,
                self.production_prefix,
                path=path,
                per_neighbor=per_neighbor,
            )
        self.log.append((self.engine.now, description))
        if self.obs is not None:
            self.obs.emit(
                "origin.announce", self.engine.now, "bgp.origin",
                subject=str(self.production_prefix),
                description=description,
                poisoned=list(self.currently_poisoned),
            )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def currently_poisoned(self) -> Tuple[int, ...]:
        """ASes poisoned on any announcement right now."""
        poisoned = set(self._spec.poisoned)
        for poison in self._spec.selective.values():
            poisoned.update(poison)
        return tuple(sorted(poisoned))
