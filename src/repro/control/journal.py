"""Write-ahead journal for the repair state machine.

Every decision the controller makes — observing an outage, poisoning,
verifying, rolling back, unpoisoning, deferring — is appended to a
:class:`RepairJournal` *before* the corresponding announcement happens
(write-ahead semantics), and the entry is the only thing that changes
controller state: the live loop appends an entry and applies it through
:meth:`~repro.control.lifeguard.Lifeguard.apply`, and a controller that
crashes mid-repair is rebuilt by
:meth:`~repro.control.lifeguard.Lifeguard.recover` applying the same
entries again (the *fold* of the journal), then reconciling the origin's
intended announcement state against whatever the network still carries.
DESIGN.md ("Journal entry kinds") tabulates every kind.

The journal is JSON Lines: one entry per line, sorted keys, so files are
diffable, greppable, and stable across runs (the crash-recovery property
test compares them byte-for-byte).  Entries share a small schema::

    {"v": 1, "t": <sim-seconds>, "event": "<kind>",
     "outage": {"vp": ..., "dst": ..., "start": ...},   # when record-scoped
     ...event-specific fields...}

Journals default to in-memory (pure simulation runs pay no I/O); pass a
path to persist every entry, flushed as it is appended, which is what
the chaos CI job uploads when a crash-recovery test fails.

**Rotation & compaction** — a week-long service run appends forever, so
with *max_bytes* (or *max_entries*) set the journal rotates: the active
file is renamed to ``<path>.<n>``, and a fresh active segment is written
that begins with a ``compacted`` marker followed by a complete snapshot
of the still-live state.  Compaction may be any rewrite that preserves
the fold: applying the compacted entries must rebuild the state the
original entries did — every non-terminal record, the breaker charges,
the pacer slots still inside the window of the controller that owns
the journal, the service's cursor — and
:func:`_compact` does it by keeping every entry of every non-terminal
outage, synthesizing ``breaker`` and ``pacer`` entries standing in for
the dropped terminal records' circuit-breaker charges and
announcement-pacing timestamps, and keeping the latest entry of each
other keyless event kind.  The marker also carries per-kind counts of
everything dropped, so cursors derived from entry counts (e.g. the
service's arrival index) survive.
Replay across segments reads them oldest-first; a marker means "what
follows supersedes everything before", so :meth:`RepairJournal.load`
resets its accumulated entries at each one.  Superseded segments beyond
the newest :data:`RETAINED_SEGMENTS` are deleted — that is the disk bound.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ControlError

#: Journal schema version, bumped on incompatible entry changes.
JOURNAL_VERSION = 1

#: Rotated segments kept on disk; older ones are deleted.
RETAINED_SEGMENTS = 2

#: Stable identity of one outage: (vp_name, destination string, start).
#: Object identity is useless here — record objects die with the process
#: (and ``id()`` values are recycled by the allocator even within one).
OutageKey = Tuple[str, str, float]

#: Repair states after which a record can never change again; compaction
#: drops their entries (values of the journal's ``state`` events).
TERMINAL_STATES = ("not-poisoned", "unpoisoned")

#: Kinds the service daemon journals here and folds itself (see
#: :mod:`repro.service.daemon`); the controller's fold passes over them.
SERVICE_KINDS = frozenset(
    (
        "service-plan",
        "service-arrival",
        "service-tier",
        "service-shed",
        "service-defer",
        "service-timeout",
        "traffic-plan",
        "traffic-sample",
    )
)


def outage_key(vp_name: str, destination, start: float) -> OutageKey:
    """The stable identity used to key all per-outage controller state."""
    return (vp_name, str(destination), float(start))


def key_to_json(key: OutageKey) -> Dict[str, Any]:
    vp, dst, start = key
    return {"vp": vp, "dst": dst, "start": start}


def key_from_json(blob: Dict[str, Any]) -> OutageKey:
    return (blob["vp"], blob["dst"], float(blob["start"]))


class RepairJournal:
    """Append-only JSONL log of repair state transitions."""

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        self.path = path
        self.entries: List[Dict[str, Any]] = []
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        #: the owning controller's announcement-pacing window (set by
        #: :class:`~repro.control.lifeguard.Lifeguard`); compaction prunes
        #: pacer timestamps older than this, which can never count again.
        #: Unowned, nothing is provably stale, so every slot is kept.
        self.pacer_window = float("inf")
        self.rotations = 0
        #: entries dropped by compaction over the journal's life.
        self.compacted_away = 0
        self._fh: Optional[IO[str]] = None
        self._bytes = 0
        self._segment = 0
        #: size of the freshly compacted state after the last rotation;
        #: rotating again before the log doubles past this would churn
        #: (live state larger than max_bytes must not rotate per append).
        self._floor_bytes = 0
        self._floor_entries = 0
        if path is not None:
            for index in _rotated_indices(path):
                self._segment = max(self._segment, index)
            if os.path.exists(path):
                self._bytes = os.path.getsize(path)
            self._fh = open(path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(
        self,
        event: str,
        t: float,
        key: Optional[OutageKey] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Record one entry; returns the entry as written."""
        entry: Dict[str, Any] = {
            "v": JOURNAL_VERSION,
            "t": float(t),
            "event": event,
        }
        if key is not None:
            entry["outage"] = key_to_json(key)
        for name, value in fields.items():
            if value is not None:
                entry[name] = value
        self.entries.append(entry)
        if self._fh is not None:
            line = json.dumps(entry, sort_keys=True) + "\n"
            self._fh.write(line)
            self._fh.flush()
            self._bytes += len(line.encode("utf-8"))
        if self._due_for_rotation():
            self._rotate(now=float(t))
        return entry

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def reopened(self) -> "RepairJournal":
        """What a restarted process picks up of this (closed) journal.

        An in-memory journal is itself; a file-backed one is read back
        from disk and resumed for appending with the same rotation bounds.
        """
        if self.path is None:
            return self
        return RepairJournal.load(
            self.path,
            resume=True,
            max_bytes=self.max_bytes,
            max_entries=self.max_entries,
        )

    # ------------------------------------------------------------------
    # Rotation + compaction
    # ------------------------------------------------------------------
    def _due_for_rotation(self) -> bool:
        # The floor terms stop churn when live state alone exceeds the
        # limit: rotate only once the log doubles past the last
        # compaction, so each rotation reclaims at least half the file.
        if self.max_bytes is not None and self._fh is not None:
            if self._bytes > max(self.max_bytes, 2 * self._floor_bytes):
                return True
        if self.max_entries is not None:
            return len(self.entries) > max(
                self.max_entries, 2 * self._floor_entries
            )
        return False

    def _rotate(self, now: float) -> None:
        """Seal the active segment and start a compacted successor."""
        self._segment += 1
        self.rotations += 1
        if self._fh is not None:
            self._fh.close()
            os.replace(self.path, f"{self.path}.{self._segment}")
        kept, marker = _compact(
            self.entries, self.pacer_window, self._segment, now
        )
        self.compacted_away += marker["dropped"]
        self.entries = kept
        if self.path is not None:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._bytes = 0
            for entry in self.entries:
                line = json.dumps(entry, sort_keys=True) + "\n"
                self._fh.write(line)
                self._bytes += len(line.encode("utf-8"))
            self._fh.flush()
            self._prune_segments()
        self._floor_bytes = self._bytes
        self._floor_entries = len(self.entries)

    def _prune_segments(self) -> None:
        """Delete superseded segments beyond the retention count."""
        keep_from = self._segment - RETAINED_SEGMENTS + 1
        for index in _rotated_indices(self.path):
            if index < keep_from:
                os.remove(f"{self.path}.{index}")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def of_event(self, event: str) -> List[Dict[str, Any]]:
        return [e for e in self.entries if e["event"] == event]

    def for_outage(self, key: OutageKey) -> List[Dict[str, Any]]:
        blob = key_to_json(key)
        return [e for e in self.entries if e.get("outage") == blob]

    def count_of(self, event: str) -> int:
        """Occurrences of *event* over the journal's whole life —
        compaction-dropped entries included, via the markers' per-kind
        counts.  This is what cursors (e.g. the service's next-arrival
        index) must use instead of ``len(of_event(...))``."""
        total = len(self.of_event(event))
        for marker in self.of_event("compacted"):
            total += marker.get("event_counts", {}).get(event, 0)
        return total

    @classmethod
    def load(
        cls, path: str, *, resume: bool = False, **kwargs: Any
    ) -> "RepairJournal":
        """Read a persisted journal back for replay.

        Reads rotated segments oldest-first, then the active file.  A
        ``compacted`` marker declares the entries that follow a complete
        snapshot of live state, so everything accumulated before it is
        discarded — replaying a rotated journal therefore reconstructs
        exactly the state the live controller carried.

        With *resume*, the returned journal is also reopened for
        appending at *path* (passing **kwargs** through to the
        constructor) — how a restarted service picks its write-ahead log
        back up where the dead process left it.
        """
        entries: List[Dict[str, Any]] = []
        paths = [
            f"{path}.{index}" for index in _rotated_indices(path)
        ]
        if os.path.exists(path) or not paths:
            paths.append(path)
        for segment in paths:
            _read_segment(segment, entries)
        journal = cls(path if resume else None, **kwargs)
        journal.entries = entries
        return journal


def _rotated_indices(path: str) -> List[int]:
    """Indices of ``<path>.<n>`` rotated segments, ascending."""
    directory = os.path.dirname(path) or "."
    base = os.path.basename(path) + "."
    indices = []
    if not os.path.isdir(directory):
        return indices
    for name in os.listdir(directory):
        if name.startswith(base) and name[len(base):].isdigit():
            indices.append(int(name[len(base):]))
    return sorted(indices)


def _read_segment(path: str, entries: List[Dict[str, Any]]) -> None:
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ControlError(
                    f"{path}:{lineno}: malformed journal line: {exc}"
                )
            if entry.get("v") != JOURNAL_VERSION:
                raise ControlError(
                    f"{path}:{lineno}: journal version "
                    f"{entry.get('v')!r}, expected {JOURNAL_VERSION}"
                )
            if entry.get("event") == "compacted":
                # The marker's snapshot supersedes everything before it.
                entries.clear()
            entries.append(entry)


def _compact(
    entries: List[Dict[str, Any]],
    pacer_window: float,
    segment: int,
    now: float,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Rewrite *entries* down to live state; returns (kept, marker).

    The contract is that the rewrite preserves the fold (see the module
    docstring; ``tests/test_journal_fold.py`` checks it).  This one keeps
    every entry of every non-terminal outage verbatim, synthesizes
    ``breaker`` and ``pacer`` entries covering what the dropped entries
    contributed to cross-outage state, keeps the latest entry of each
    other keyless kind, and heads the result with a ``compacted`` marker
    carrying per-kind drop counts.
    """
    terminal = set()
    for entry in entries:
        if entry["event"] == "state" and "outage" in entry:
            key = key_from_json(entry["outage"])
            if entry["state"] in TERMINAL_STATES:
                terminal.add(key)
            else:
                terminal.discard(key)

    floor = now - pacer_window
    pacer_times: List[float] = []
    breaker: Dict[Tuple[str, str, int], List[float]] = {}
    keyless_last: Dict[str, Dict[str, Any]] = {}
    event_counts: Dict[str, int] = {}
    kept_records: List[Dict[str, Any]] = []
    dropped = 0

    def charge_breaker(vp, dst, asn, failures, last_failure) -> None:
        slot = breaker.setdefault((vp, dst, asn), [0, float("-inf")])
        slot[0] = max(slot[0], failures)
        slot[1] = max(slot[1], last_failure)

    for entry in entries:
        event = entry["event"]
        key = key_from_json(entry["outage"]) if "outage" in entry else None
        if key is not None and key not in terminal:
            kept_records.append(entry)
            continue
        if event == "compacted":
            # Fold a previous marker's drop counts forward.
            dropped += entry.get("dropped", 0)
            for kind, count in entry.get("event_counts", {}).items():
                event_counts[kind] = event_counts.get(kind, 0) + count
            continue
        # Terminal records drop, but their contributions to cross-outage
        # state (breaker charges, pacing budget) survive as synthesized
        # entries, as do the keyless entries that carried such state.
        if key is not None and event == "rollback":
            charge_breaker(
                key[0], key[1], entry["asn"], entry["failures"], entry["t"]
            )
        elif key is None and event == "breaker":
            charge_breaker(
                entry["vp"], entry["dst"], entry["asn"],
                entry["failures"], entry["last_failure"],
            )
        elif event == "announced" or (
            key is None and event in ("announce-baseline", "pacer")
        ):
            pacer_times.extend(
                t for t in entry.get("times", (entry["t"],)) if t > floor
            )
        elif key is None:
            # Any other keyless kind: keep only the latest occurrence.
            superseded = event in keyless_last
            keyless_last[event] = entry
            if not superseded:
                continue
        dropped += 1
        event_counts[event] = event_counts.get(event, 0) + 1

    marker = {
        "v": JOURNAL_VERSION,
        "t": now,
        "event": "compacted",
        "segment": segment,
        "dropped": dropped,
        "kept": 0,  # patched below
        "event_counts": {k: event_counts[k] for k in sorted(event_counts)},
    }
    kept: List[Dict[str, Any]] = [marker]
    if pacer_times:
        kept.append(
            {
                "v": JOURNAL_VERSION,
                "t": now,
                "event": "pacer",
                "times": sorted(pacer_times),
            }
        )
    for (vp, dst, asn) in sorted(breaker):
        failures, last_failure = breaker[(vp, dst, asn)]
        kept.append(
            {
                "v": JOURNAL_VERSION,
                "t": now,
                "event": "breaker",
                "vp": vp,
                "dst": dst,
                "asn": asn,
                "failures": failures,
                "last_failure": last_failure,
            }
        )
    for event in sorted(keyless_last):
        kept.append(keyless_last[event])
    kept.extend(kept_records)
    marker["kept"] = len(kept) - 1
    return kept, marker
