"""State capture and exact comparison of two engines.

A capture is a set of rows, each an int-tuple key and a value made of
ints and the engine's own interned AS-path tuples.  Scope (and what is
deliberately excluded) follows the solver's equivalence contract:

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
compared with ``==``; :func:`canonical_blob` is for states that never
coexist (ladder sweeps, cross-process checks).  It is the SHA-256 hex
digest of the rows sorted by key, each row flattened to a run of ints —
the key, then ``next_hop`` (fwd), ``neighbor, local_pref, med,
len(as_path), *as_path`` (locrib) or ``med, len(as_path), *as_path``
(wire) — and the whole run packed as little-endian signed 64-bit
integers.  The section tag fixes the key width and the length prefix
the path's, so distinct row sets pack to distinct bytes.

Strings appear only in :func:`diff_states`, which renders the
``locrib/AS<n>/<prefix>`` / ``fwd/<prefix>/AS<n>`` /
``wire/AS<a>->AS<b>/<prefix>`` keys and JSON values of the rows that
differ — the form corpus files and :class:`CaseResult.diff` carry.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.addr import Prefix

#: Section tags, the first element of every row key.
FWD, LOCRIB, WIRE = 0, 1, 2

#: row key -> row value (see the module docstring for the schema).
StateMap = Dict[Tuple[int, ...], object]


def capture_state(
    engine, prefixes: Optional[Sequence[Prefix]] = None
) -> StateMap:
    """One engine's observable routing state for *prefixes* (None:
    every prefix it holds), one walk of each Loc-RIB and ``sent`` map."""
    wanted = (
        None
        if prefixes is None
        else {(prefix.base, prefix.length) for prefix in prefixes}
    )
    state: StateMap = {}
    # Per-row reads go to the Prefix slots: the properties are a call
    # each, and this loop is the fuzzer's whole verification cost.
    for asn, speaker in engine.speakers.items():
        for prefix, best in speaker.table.best_routes():
            base, length = prefix._base, prefix._length
            if wanted is not None and (base, length) not in wanted:
                continue
            neighbor = best.neighbor
            state[(LOCRIB, asn, base, length)] = (
                best.as_path,
                neighbor,
                best.local_pref,
                best.med,
            )
            state[(FWD, asn, base, length)] = neighbor
    for (src, dst), session in engine._sessions.items():
        for prefix, announcement in session.sent.items():
            if announcement is None:
                continue
            base, length = prefix._base, prefix._length
            if wanted is not None and (base, length) not in wanted:
                continue
            state[(WIRE, src, dst, base, length)] = (
                announcement.as_path,
                announcement.med,
            )
    return state


def canonical_blob(state: StateMap) -> str:
    """Digest of a capture's row set, for comparing states that are
    never in memory together (byte form in the module docstring)."""
    flat: List[int] = []
    extend = flat.extend
    for key in sorted(state):
        extend(key)
        value = state[key]
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
    solver_state: StateMap,
    event_state: StateMap,
    limit: Optional[int] = 8,
) -> List[Tuple[str, Optional[str], Optional[str]]]:
    """First *limit* differing rows (None: all of them), in string-key
    order, as (key, solver value, event value).

    Values are their JSON encodings (None: row absent on that side) so
    diff samples survive the trip through corpus JSON.
    """
    out = []
    for key in solver_state.keys() | event_state.keys():
        a = solver_state.get(key)
        b = event_state.get(key)
        if a != b:
            out.append((_name(key), _json(a), _json(b)))
    out.sort()
    return out if limit is None else out[:limit]
