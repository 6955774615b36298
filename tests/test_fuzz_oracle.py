"""The differential oracle itself: row capture, digest, scope, rendering.

``repro.fuzz.diff`` compares int-keyed row sets by equality.  The
string-keyed JSON capture it replaced lives on here as the reference
(never imported by ``src/``): the new oracle must reach the same
verdict, the same ``diff`` and the same ``diff_count`` on every case.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro.fuzz.executor as executor
from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.solver import solve
from repro.fuzz import VERDICT_DIVERGENCE, generate_case, run_case
from repro.fuzz.diff import (
    FWD,
    LOCRIB,
    WIRE,
    canonical_blob,
    capture_state,
    diff_states,
)


# ----------------------------------------------------------------------
# The reference: the string capture this repo used through PR 14.
# ----------------------------------------------------------------------
def reference_capture(engine, prefixes):
    state = {}
    for asn in sorted(engine.speakers):
        speaker = engine.speakers[asn]
        for prefix in prefixes:
            best = speaker.best(prefix)
            if best is not None:
                state[f"locrib/AS{asn}/{prefix}"] = [
                    list(best.as_path),
                    best.neighbor,
                    best.local_pref,
                    best.med,
                ]
    for prefix in prefixes:
        for asn, next_hop in sorted(
            engine.forwarding_next_hops(prefix).items()
        ):
            state[f"fwd/{prefix}/AS{asn}"] = next_hop
    wanted = set(prefixes)
    for (src, dst), session in sorted(engine._sessions.items()):
        for prefix, announcement in session.sent.items():
            # The old wire section ignored *prefixes*; the filter here
            # is the scope fix, so the two captures cover the same rows.
            if announcement is not None and prefix in wanted:
                state[f"wire/AS{src}->AS{dst}/{prefix}"] = [
                    list(announcement.as_path),
                    announcement.med,
                ]
    return state


def reference_blob(state):
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def reference_diff(left, right):
    """Every differing key, sorted, as (key, left JSON, right JSON)."""
    return [
        (
            key,
            None if key not in left else json.dumps(left[key]),
            None if key not in right else json.dumps(right[key]),
        )
        for key in sorted(set(left) | set(right))
        if left.get(key) != right.get(key)
    ]


def _converged(case):
    """An event-converged engine holding *case*'s originations."""
    engine = BGPEngine(
        case.build_graph(),
        EngineConfig(seed=case.engine_seed),
        case.speaker_configs(),
    )
    for org in case.resolved_originations():
        engine.originate(
            org.asn,
            org.prefix,
            path=org.path,
            per_neighbor=org.per_neighbor_dict(),
            med=org.med,
        )
    engine.run()
    return engine


# ----------------------------------------------------------------------
# (a) equivalence with the reference over the benchmark's corpus
# ----------------------------------------------------------------------
class TestReferenceEquivalence:
    """The first 150 medium cases of campaign 0 — ``fuzz_medium``'s
    corpus — healthy and with the injected divergence."""

    @pytest.mark.parametrize("inject", (False, True))
    def test_same_verdict_diff_and_count(self, monkeypatch, inject):
        captures = []

        def both(engine, prefixes):
            state = capture_state(engine, prefixes)
            captures.append((state, reference_capture(engine, prefixes)))
            return state

        monkeypatch.setattr(executor, "capture_state", both)
        divergent = compared = 0
        for index in range(150):
            del captures[:]
            result = run_case(
                generate_case(0, index, "medium"),
                inject_divergence=inject,
            )
            if len(captures) < 2:
                continue  # gate-rejected before any capture
            event_state, event_ref = captures[1]
            # Solver arm, then (when it ran) the delta arm: each was
            # compared against the event engine's capture.
            for state, ref in (captures[0], *captures[2:]):
                compared += 1
                tag = f"case {index} inject={inject}"
                assert (state == event_state) == (
                    reference_blob(ref) == reference_blob(event_ref)
                ), tag
                assert (
                    canonical_blob(state) == canonical_blob(event_state)
                ) == (state == event_state), tag
                rows = reference_diff(ref, event_ref)
                assert (
                    diff_states(state, event_state, limit=None) == rows
                ), tag
                if rows:
                    divergent += 1
                    assert result.verdict == VERDICT_DIVERGENCE, tag
                    assert result.diff == rows[:8], tag
                    assert result.diff_count == len(rows), tag
            if not result.failed:
                assert result.diff == [] and result.diff_count == 0
        assert compared > 100
        assert (divergent > 50) if inject else (divergent == 0)


# ----------------------------------------------------------------------
# (b) the digest is a function of the row set
# ----------------------------------------------------------------------
_DIGEST_SCRIPT = """
from repro.fuzz import generate_case
from repro.fuzz.diff import canonical_blob, capture_state
from tests.test_fuzz_oracle import _converged
print(canonical_blob(capture_state(_converged(generate_case(0, 3, "small")))))
"""


class TestDigest:
    def test_independent_of_dict_order(self):
        case = generate_case(0, 3, "small")
        event = capture_state(_converged(case))
        warm_engine = BGPEngine(
            case.build_graph(),
            EngineConfig(seed=case.engine_seed),
            case.speaker_configs(),
        )
        warm_engine.warm_start(
            solve(warm_engine, case.resolved_originations())
        )
        warm = capture_state(warm_engine)
        assert list(warm) != list(event), "want two insertion orders"
        assert warm == event
        assert canonical_blob(warm) == canonical_blob(event)

    def test_identical_across_hash_seeds(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join(
                    [os.path.join(root, "src"), root]
                ),
            )
            out = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            )
            digests.add(out.stdout.strip())
        here = canonical_blob(
            capture_state(_converged(generate_case(0, 3, "small")))
        )
        assert digests == {here}

    def test_one_changed_row_changes_it(self):
        state = capture_state(_converged(generate_case(0, 3, "small")))
        digest = canonical_blob(state)
        assert len(digest) == 64

        wire_key = next(key for key in state if key[0] == WIRE)
        locrib_key = next(key for key in state if key[0] == LOCRIB)
        path, med = state[wire_key]
        as_path, neighbor, local_pref, locrib_med = state[locrib_key]
        variants = {
            "wire row dropped": {wire_key: None},
            "wire MED": {wire_key: (path, med + 1)},
            "wire path": {wire_key: (path + path[-1:], med)},
            "Loc-RIB MED": {
                locrib_key: (as_path, neighbor, local_pref, locrib_med + 1)
            },
            "Loc-RIB neighbour": {
                locrib_key: (as_path, neighbor + 1, local_pref, locrib_med)
            },
        }
        seen = {digest}
        for label, patch in variants.items():
            changed = dict(state)
            for key, value in patch.items():
                if value is None:
                    del changed[key]
                else:
                    changed[key] = value
            assert changed != state
            seen.add(canonical_blob(changed))
        assert len(seen) == 1 + len(variants), "two variants collided"

    def test_length_prefix_keeps_paths_apart(self):
        # (path=(5, 6), med=7) vs (path=(5,), med=...) must not pack to
        # the same ints: the path is length-prefixed.
        key = (WIRE, 1, 2, 0x0A000000, 8)
        assert canonical_blob({key: ((5, 6), 7)}) != canonical_blob(
            {key: ((5,), 6)}
        )


# ----------------------------------------------------------------------
# (c) scope: all three sections honour the same filter
# ----------------------------------------------------------------------
class TestScope:
    def test_wire_only_difference_on_an_unrequested_prefix(self):
        case = generate_case(0, 3, "small")
        engine = _converged(case)
        asked, other = case.prefixes()[:2]
        scoped = capture_state(engine, [asked])
        whole = capture_state(engine, None)

        session = next(
            s for s in engine._sessions.values() if s.sent.get(other)
        )
        session.sent[other] = None  # a withdrawal nobody routed on

        assert capture_state(engine, [asked]) == scoped
        after = capture_state(engine, None)
        assert after != whole
        (row,) = diff_states(whole, after)
        assert row[0].startswith("wire/") and row[0].endswith(str(other))
        assert row[2] is None

    def test_scoped_capture_is_the_whole_one_filtered(self):
        case = generate_case(0, 3, "small")
        engine = _converged(case)
        asked = case.prefixes()[0]
        scoped = capture_state(engine, [asked])
        assert scoped and scoped == {
            key: value
            for key, value in capture_state(engine).items()
            if key[-2:] == (asked.base, asked.length)
        }
        assert {key[0] for key in scoped} == {FWD, LOCRIB, WIRE}
        assert capture_state(engine, case.prefixes()) == capture_state(
            engine, None
        )
        assert capture_state(engine, []) == {}


# ----------------------------------------------------------------------
# (d) rendered diffs stay what corpus files already hold
# ----------------------------------------------------------------------
class TestGoldenRendering:
    """Strings pinned to the output of the commit before the int-keyed
    capture (PR 14), so old corpus entries and new ones read alike."""

    def test_injected_divergence_case_result(self):
        result = run_case(
            generate_case(0, 3, "small"), inject_divergence=True
        )
        assert result.verdict == VERDICT_DIVERGENCE
        assert result.diff == [
            ("fwd/0.1.0.0/16/AS13", None, "4"),
            ("locrib/AS13/0.1.0.0/16", None, "[[4, 1], 4, 80, 0]"),
        ]
        assert result.diff_count == 2

    def test_all_three_sections_both_sides(self):
        case = generate_case(0, 3, "small")
        before = _converged(case)
        after = _converged(case)
        first, second = case.resolved_originations()[:2]
        after.withdraw_origin(first.asn, first.prefix)
        after.run()
        after.originate(second.asn, second.prefix, path=(2, 2, 2), med=7)
        after.run()
        left = capture_state(before, case.prefixes())
        right = capture_state(after, case.prefixes())

        assert diff_states(left, right) == [
            ("fwd/0.1.0.0/16/AS1", "1", None),
            ("fwd/0.1.0.0/16/AS10", "4", None),
            ("fwd/0.1.0.0/16/AS12", "4", None),
            ("fwd/0.1.0.0/16/AS13", "4", None),
            ("fwd/0.1.0.0/16/AS2", "1", None),
            ("fwd/0.1.0.0/16/AS3", "1", None),
            ("fwd/0.1.0.0/16/AS4", "1", None),
            ("fwd/0.1.0.0/16/AS5", "4", None),
        ]
        rows = diff_states(left, right, limit=None)
        assert len(rows) == 60
        for expected in (
            ("locrib/AS1/0.1.0.0/16", "[[1], 1, 200, 0]", None),
            (
                "locrib/AS1/0.2.0.0/16",
                "[[2], 2, 90, 0]",
                "[[2, 2, 2], 2, 90, 7]",
            ),
            (
                "locrib/AS10/0.2.0.0/16",
                "[[4, 1, 2], 4, 80, 0]",
                "[[4, 1, 2, 2, 2], 4, 80, 0]",
            ),
            ("wire/AS2->AS1/0.2.0.0/16", "[[2], 0]", "[[2, 2, 2], 7]"),
            ("wire/AS4->AS7/0.1.0.0/16", "[[4, 1], 0]", None),
        ):
            assert expected in rows
        assert hashlib.sha256(
            json.dumps(rows).encode()
        ).hexdigest() == (
            "204a3ceb0f51c0cb0fe9698d445916cd"
            "5195fb29e383c2518c69110f5fe411fd"
        )
