"""State capture and exact comparison of two engines.

A capture is a :class:`StateSnapshot`: ``dict`` copies of each speaker's
Loc-RIB and of each session's standing announcements, holding the
engine's own ``Route`` / ``Announcement`` tuples (a prefix whose rows
are still pending contributes the announcements its solution implies,
:func:`~repro.bgp.solver.derive_wire`).  It stands for a set
of rows (:meth:`StateSnapshot.rows`), each an int-tuple key and a value
made of ints and the engine's interned AS-path tuples.  Scope (and what
is deliberately excluded) follows the solver's equivalence contract:

* ``(LOCRIB, asn, base, length) -> (as_path, neighbor, local_pref,
  med)`` — the selected route at every AS, including origin
  self-routes;
* ``(FWD, asn, base, length) -> next_hop`` — the AS-level forwarding
  next hop (the same route's ``neighbor``);
* ``(WIRE, src, dst, base, length) -> (as_path, med)`` — the last
  announcement standing on each directed session (withdrawn/never-sent
  ``None`` entries are dropped: the event engine leaves ``None``
  tombstones where the solver records nothing, and both mean "nothing
  advertised").

``base``/``length`` are the prefix's network address and mask length.
All three sections honour the same *prefixes* filter; ``None`` means
every prefix the engine holds.

Adj-RIB-In is *not* compared: message crossing on sessions without
per-session FIFO ordering leaves documented stale entries in the event
engine (see the solver module docstring) that never affect decisions.

Identity means **equal row sets**.  Two captures in one process are
compared with ``==``: C-level dict equality over the held tuples (equal
tuples are equal rows), and only when whole tuples differ — a real
divergence, or a field the rows leave out (relationship, communities,
avoid) — are the rows built and compared.  :func:`canonical_blob` is
for states that never coexist (ladder sweeps, cross-process checks).
It is the SHA-256 hex digest of the rows sorted by key, each row
flattened to a run of ints — the key, then ``next_hop`` (fwd),
``neighbor, local_pref, med, len(as_path), *as_path`` (locrib) or
``med, len(as_path), *as_path`` (wire) — and the whole run packed as
little-endian signed 64-bit integers.  The section tag fixes the key
width and the length prefix the path's, so distinct row sets pack to
distinct bytes.

Strings appear only in :func:`diff_states`, which renders the
``locrib/AS<n>/<prefix>`` / ``fwd/<prefix>/AS<n>`` /
``wire/AS<a>->AS<b>/<prefix>`` keys and JSON values of the rows that
differ — the form corpus files and :class:`CaseResult.diff` carry.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bgp.solver import derive_wire
from repro.net.addr import Prefix

#: Section tags, the first element of every row key.
FWD, LOCRIB, WIRE = 0, 1, 2

#: row key -> row value (see the module docstring for the schema).
StateMap = Dict[Tuple[int, ...], object]


@dataclass(eq=False)
class StateSnapshot:
    """One engine's compared state at one moment, as the engine holds
    it.  The dicts are copies, so later engine activity does not reach
    a snapshot; the tuples in them are immutable (the engine's, or
    derived from a pending prefix's solution)."""

    #: asn -> prefix -> selected ``Route``; no empty inner dict.
    locrib: Dict[int, Dict[Prefix, tuple]]
    #: (src, dst) -> prefix -> standing ``Announcement``; likewise.
    wire: Dict[Tuple[int, int], Dict[Prefix, tuple]]

    def __len__(self) -> int:
        """The number of rows: two (LOCRIB, FWD) per selected route."""
        return 2 * sum(map(len, self.locrib.values())) + sum(
            map(len, self.wire.values())
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateSnapshot):
            return NotImplemented
        if self.locrib == other.locrib and self.wire == other.wire:
            return True
        return self.rows() == other.rows()

    def rows(self) -> StateMap:
        """The row set this snapshot stands for."""
        state: StateMap = {}
        for asn, routes in self.locrib.items():
            for prefix, best in routes.items():
                base, length = prefix.base, prefix.length
                neighbor = best.neighbor
                state[(LOCRIB, asn, base, length)] = (
                    best.as_path,
                    neighbor,
                    best.local_pref,
                    best.med,
                )
                state[(FWD, asn, base, length)] = neighbor
        for (src, dst), sent in self.wire.items():
            for prefix, announcement in sent.items():
                state[(WIRE, src, dst, prefix.base, prefix.length)] = (
                    announcement.as_path,
                    announcement.med,
                )
        return state


def capture_state(
    engine, prefixes: Optional[Sequence[Prefix]] = None
) -> StateSnapshot:
    """One engine's observable routing state for *prefixes* (None:
    every prefix it holds): one dict copy per speaker and per session,
    or one lookup each per asked prefix.  A prefix whose rows are still
    pending has no wire rows on its sessions: they are read straight
    from its solution (:func:`~repro.bgp.solver.derive_wire`), and
    nothing is written to the engine, so the capture equals the one
    taken after :meth:`BGPEngine.materialize`."""
    wire = {
        key: held
        for key, session in engine._session_map.items()
        if (held := _held(session.sent, prefixes))
    }
    pending = engine._rows_pending
    if prefixes is not None:
        pending = {p: pending[p] for p in prefixes if p in pending}
    for prefix, solution in pending.items():
        for src, row in derive_wire(solution).items():
            for dst, announcement in row.items():
                held = wire.get((src, dst))
                if held is None:
                    wire[src, dst] = {prefix: announcement}
                else:
                    held[prefix] = announcement
    return StateSnapshot(
        {
            asn: held
            for asn, speaker in engine.speakers.items()
            if (held := _held(speaker.table.best_routes().mapping, prefixes))
        },
        wire,
    )


def _held(entries, prefixes) -> dict:
    """What the live mapping *entries* holds for *prefixes* (None: all
    of them), less its ``None`` tombstones, as a new dict."""
    if prefixes is not None:
        entries = {prefix: entries.get(prefix) for prefix in prefixes}
    elif None not in entries.values():
        # A copy keeps the stored hashes; the filter below re-hashes
        # every prefix, so it runs only where a tombstone stands.
        return entries.copy()
    return {p: held for p, held in entries.items() if held is not None}


def _rows(state: Union[StateSnapshot, StateMap]) -> StateMap:
    return state.rows() if isinstance(state, StateSnapshot) else state


def canonical_blob(state: Union[StateSnapshot, StateMap]) -> str:
    """Digest of a capture's row set (or of a row set as it stands),
    for comparing states that are never in memory together (byte form
    in the module docstring)."""
    rows = _rows(state)
    flat: List[int] = []
    extend = flat.extend
    for key in sorted(rows):
        extend(key)
        value = rows[key]
        section = key[0]
        if section == FWD:
            flat.append(value)
            continue
        if section == LOCRIB:
            path, neighbor, local_pref, med = value
            extend((neighbor, local_pref, med, len(path)))
        else:
            path, med = value
            extend((med, len(path)))
        extend(path)
    packed = struct.pack(f"<{len(flat)}q", *flat)
    return hashlib.sha256(packed).hexdigest()


def _name(key: Tuple[int, ...]) -> str:
    """The string key corpus files carry for one row."""
    prefix = Prefix(key[-2], key[-1])
    if key[0] == FWD:
        return f"fwd/{prefix}/AS{key[1]}"
    if key[0] == LOCRIB:
        return f"locrib/AS{key[1]}/{prefix}"
    return f"wire/AS{key[1]}->AS{key[2]}/{prefix}"


def _json(value) -> Optional[str]:
    """One row value as corpus files carry it (None: row absent)."""
    if value is None:
        return None
    if isinstance(value, int):
        return json.dumps(value)
    path, *rest = value
    return json.dumps([list(path), *rest])


def diff_states(
    solver_state: Union[StateSnapshot, StateMap],
    event_state: Union[StateSnapshot, StateMap],
    limit: Optional[int] = 8,
) -> List[Tuple[str, Optional[str], Optional[str]]]:
    """First *limit* differing rows (None: all of them), in string-key
    order, as (key, solver value, event value).

    Values are their JSON encodings (None: row absent on that side) so
    diff samples survive the trip through corpus JSON.
    """
    solver_rows, event_rows = _rows(solver_state), _rows(event_state)
    out = []
    for key in solver_rows.keys() | event_rows.keys():
        a = solver_rows.get(key)
        b = event_rows.get(key)
        if a != b:
            out.append((_name(key), _json(a), _json(b)))
    out.sort()
    return out if limit is None else out[:limit]
