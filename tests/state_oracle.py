"""The row-keyed state capture ``repro.fuzz.diff`` built through PR 21.

:func:`repro.fuzz.diff.capture_state` now copies the engine's own dicts
and expands rows on demand; this walk — one fresh ``(section, asn,
base, length)`` key per row, straight off the engine — is the
independent oracle the tests hold its rows, length and digest to.  The
library does not import it.
"""

from __future__ import annotations

from repro.fuzz.diff import FWD, LOCRIB, WIRE


def oracle_rows(engine, prefixes=None):
    """Row map of *engine*'s Loc-RIBs and standing announcements for
    *prefixes* (None: every prefix it holds)."""
    wanted = (
        None
        if prefixes is None
        else {(prefix.base, prefix.length) for prefix in prefixes}
    )
    state = {}
    for asn, speaker in engine.speakers.items():
        for prefix, best in speaker.table.best_routes():
            base, length = prefix.base, prefix.length
            if wanted is not None and (base, length) not in wanted:
                continue
            state[(LOCRIB, asn, base, length)] = (
                best.as_path,
                best.neighbor,
                best.local_pref,
                best.med,
            )
            state[(FWD, asn, base, length)] = best.neighbor
    for (src, dst), session in engine._sessions.items():
        for prefix, announcement in session.sent.items():
            if announcement is None:
                continue
            base, length = prefix.base, prefix.length
            if wanted is not None and (base, length) not in wanted:
                continue
            state[(WIRE, src, dst, base, length)] = (
                announcement.as_path,
                announcement.med,
            )
    return state
