"""The differential oracle itself: capture, digest, scope, rendering.

``repro.fuzz.diff`` compares snapshots of the engine's own dicts, which
stand for int-keyed row sets.  Two references it must agree with (never
imported by ``src/``): the string-keyed JSON capture it replaced long
ago lives on here — same verdict, same ``diff``, same ``diff_count`` on
every case — and the row-keyed walk it replaced last is
``tests/state_oracle.py`` — same rows, same length, same digest.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro.fuzz.executor as executor
from repro.bgp.delta import apply_delta, delta_unsupported_reason
from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.solver import solve, solver_unsupported_reason
from repro.fuzz import VERDICT_DIVERGENCE, generate_case, run_case
from repro.fuzz.diff import (
    FWD,
    LOCRIB,
    WIRE,
    canonical_blob,
    capture_state,
    diff_states,
)
from repro.runner.core import derive_seed
from repro.topology.relationships import Relationship
from tests.state_oracle import oracle_rows


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
    engine.materialize()
    for (src, dst), session in sorted(engine._session_map.items()):
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


def _engine(case):
    return BGPEngine(
        case.build_graph(),
        EngineConfig(seed=case.engine_seed),
        case.speaker_configs(),
    )


def _converged(case):
    """An event-converged engine holding *case*'s originations."""
    engine = _engine(case)
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

        def both(engine):
            # run_case asks for everything the engine holds, which
            # must be no more than the case's own prefixes.
            state = capture_state(engine)
            captures.append((state, reference_capture(engine, prefixes)))
            return state

        monkeypatch.setattr(executor, "capture_state", both)
        divergent = compared = 0
        for index in range(150):
            del captures[:]
            case = generate_case(0, index, "medium")
            prefixes = case.prefixes()
            result = run_case(case, inject_divergence=inject)
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
# (a') the snapshot stands for the rows the row-keyed walk built
# ----------------------------------------------------------------------
def _three_points(case):
    """(label, engine) where ``run_case`` has one to capture: after
    warm-start, after the event arm's perturbation, after the delta
    arm — the first and last only where their gates admit the case."""
    originations = case.resolved_originations()
    warm = _engine(case)
    solution = None
    if solver_unsupported_reason(warm, originations) is None:
        solution = solve(warm, originations)
        warm.warm_start(solution)
        yield "warm", warm
    event = _converged(case)
    executor._perturb(event, case)
    yield "event", event
    if solution is None or not case.actions or not case.fault_plan().is_null:
        return
    delta = _engine(case)
    delta.warm_start(solution)
    delta.advance_to(delta.now + executor.SETTLE_SECONDS)
    delta.reseed(derive_seed(case.seed, "fuzz-perturb"))
    for action in case.actions:
        change = executor._delta_change(action)
        if delta_unsupported_reason(delta, [change]) is not None:
            return
        apply_delta(delta, [change])
    yield "delta", delta


class TestSnapshotAgainstRowOracle:
    #: sha256 over the concatenated ``canonical_blob`` of the first 40
    #: medium cases at each point, recorded at ``e122102`` (whose
    #: ``capture_state`` is ``tests/state_oracle.py``).
    RECORDED = {
        "warm": (34, "da83b9182a83a988959afc379cc23832"
                     "dc8cf13b9e9559b4f6154b0516cafccc"),
        "event": (40, "59c2cbb8edcf44e0cd105579f32aa101"
                      "e7cd87fb25de86804e94d8a0feb640ae"),
        "delta": (22, "1a3404908c3756678250919326ae78aa"
                      "01c6c186fb68e1bc40301030191a3c71"),
    }

    def test_rows_length_and_digest_at_three_points(self):
        blobs = {label: [] for label in self.RECORDED}
        tombstones = 0
        for index in range(40):
            case = generate_case(0, index, "medium")
            for label, engine in _three_points(case):
                state = capture_state(engine)
                rows = oracle_rows(engine)
                assert state.rows() == rows, (index, label)
                assert len(state) == len(rows), (index, label)
                assert capture_state(engine, case.prefixes()) == state
                blobs[label].append(canonical_blob(state))
                engine.materialize()
                tombstones += sum(
                    announcement is None
                    for session in engine._session_map.values()
                    for announcement in session.sent.values()
                )
        assert tombstones > 1000, "the event arm should leave some"
        assert {
            label: (
                len(items),
                hashlib.sha256("".join(items).encode()).hexdigest(),
            )
            for label, items in blobs.items()
        } == self.RECORDED

    def test_moas_and_a_scoped_capture(self):
        case = generate_case(0, 3, "small")
        engine = _converged(case)
        first, second = case.resolved_originations()[:2]
        assert first.asn != second.asn
        engine.originate(second.asn, first.prefix)  # two origins now
        engine.run()
        assert capture_state(engine).rows() == oracle_rows(engine)
        for asked in ([first.prefix], [second.prefix, first.prefix], []):
            scoped = capture_state(engine, asked)
            rows = oracle_rows(engine, asked)
            assert scoped.rows() == rows and len(scoped) == len(rows)
            assert canonical_blob(scoped) == canonical_blob(rows)

    def test_fields_outside_the_contract_compare_equal(self):
        case = generate_case(0, 3, "small")
        plain, tagged = _converged(case), _engine(case)
        for org in case.resolved_originations():
            tagged.originate(
                org.asn, org.prefix, path=org.path, med=org.med,
                per_neighbor=org.per_neighbor_dict(),
                communities=((org.asn, 7),),
            )
        tagged.run()
        left, right = capture_state(plain), capture_state(tagged)
        assert left.locrib != right.locrib and left.wire != right.wire
        assert left == right and not left != right
        assert diff_states(left, right) == []

        asn, routes = next(iter(right.locrib.items()))
        prefix, route = next(iter(routes.items()))
        other = next(
            rel for rel in Relationship if rel is not route.relationship
        )
        tagged.speakers[asn].table.pin_best(
            prefix, route._replace(relationship=other)
        )
        assert capture_state(tagged) == left

    def test_a_compared_field_names_its_row(self):
        case = generate_case(0, 3, "small")
        engine = _converged(case)
        before = capture_state(engine)
        asn, routes = next(iter(before.locrib.items()))
        prefix, route = next(iter(routes.items()))
        table = engine.speakers[asn].table

        table.pin_best(prefix, route._replace(med=route.med + 1))
        after = capture_state(engine)
        assert after != before
        assert [row[0] for row in diff_states(before, after)] == [
            f"locrib/AS{asn}/{prefix}"
        ]

        table.pin_best(prefix, route._replace(neighbor=route.neighbor + 1))
        after = capture_state(engine)
        assert after != before
        assert [row[0] for row in diff_states(before, after)] == [
            f"fwd/{prefix}/AS{asn}", f"locrib/AS{asn}/{prefix}"
        ]

        table.pin_best(prefix, route)
        assert capture_state(engine) == before

    def test_a_snapshot_does_not_follow_the_engine(self):
        case = generate_case(0, 3, "small")
        engine = _converged(case)
        before = capture_state(engine)
        rows = before.rows()
        first = case.resolved_originations()[0]
        engine.withdraw_origin(first.asn, first.prefix)
        engine.run()
        assert capture_state(engine) != before
        assert before.rows() == rows == oracle_rows(_converged(case))


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
        warm_engine = _engine(case)
        warm_engine.warm_start(
            solve(warm_engine, case.resolved_originations())
        )
        warm = capture_state(warm_engine)
        assert list(warm.rows()) != list(event.rows()), (
            "want two insertion orders"
        )
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
        state = capture_state(
            _converged(generate_case(0, 3, "small"))
        ).rows()
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

        engine.materialize()
        session = next(
            s for s in engine._session_map.values() if s.sent.get(other)
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
        assert len(scoped) and scoped.rows() == {
            key: value
            for key, value in capture_state(engine).rows().items()
            if key[-2:] == (asked.base, asked.length)
        }
        assert {key[0] for key in scoped.rows()} == {FWD, LOCRIB, WIRE}
        assert capture_state(engine, case.prefixes()) == capture_state(
            engine, None
        )
        nothing = capture_state(engine, [])
        assert len(nothing) == 0 and nothing.rows() == {}


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
