"""Unit tests for the write-ahead repair journal."""

import json

import pytest

from repro.control.journal import (
    JOURNAL_VERSION,
    RepairJournal,
    key_from_json,
    key_to_json,
    outage_key,
)
from repro.errors import ControlError

KEY = outage_key("origin", "0.6.0.1", 1020.0)


class TestOutageKey:
    def test_key_is_stable_across_equal_inputs(self):
        assert KEY == outage_key("origin", "0.6.0.1", 1020)

    def test_json_roundtrip(self):
        assert key_from_json(key_to_json(KEY)) == KEY


class TestInMemoryJournal:
    def test_append_returns_entry_with_version_and_time(self):
        journal = RepairJournal()
        entry = journal.append("poison", 1200.0, key=KEY, asn=7)
        assert entry["v"] == JOURNAL_VERSION
        assert entry["t"] == 1200.0
        assert entry["event"] == "poison"
        assert entry["asn"] == 7
        assert entry["outage"] == key_to_json(KEY)

    def test_none_fields_are_dropped(self):
        journal = RepairJournal()
        entry = journal.append("state", 0.0, key=KEY, reason=None, asn=7)
        assert "reason" not in entry
        assert entry["asn"] == 7

    def test_global_entries_have_no_outage(self):
        journal = RepairJournal()
        entry = journal.append("announce-baseline", 0.0)
        assert "outage" not in entry

    def test_of_event_and_for_outage_filters(self):
        journal = RepairJournal()
        other = outage_key("helper0", "0.9.0.1", 2000.0)
        journal.append("observed", 1020.0, key=KEY)
        journal.append("observed", 2000.0, key=other)
        journal.append("poison", 1300.0, key=KEY, asn=7)
        assert len(journal.of_event("observed")) == 2
        assert len(journal.for_outage(KEY)) == 2
        assert len(journal.for_outage(other)) == 1
        assert len(journal) == 3
        assert len(list(journal)) == 3


class TestPersistedJournal:
    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RepairJournal(path)
        journal.append("announce-baseline", 0.0)
        journal.append("poison", 1300.0, key=KEY, asn=7, control=["0.9.0.1"])
        journal.close()

        loaded = RepairJournal.load(path)
        assert loaded.entries == journal.entries

    def test_lines_are_sorted_key_json(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RepairJournal(path)
        journal.append("poison", 1300.0, key=KEY, asn=7)
        journal.close()
        with open(path, encoding="utf-8") as handle:
            line = handle.readline().strip()
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_load_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ControlError, match="malformed"):
            RepairJournal.load(str(path))

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"v": 999, "t": 0.0, "event": "observed"}) + "\n"
        )
        with pytest.raises(ControlError, match="version"):
            RepairJournal.load(str(path))

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            json.dumps(
                {"v": JOURNAL_VERSION, "t": 0.0, "event": "observed"}
            )
            + "\n\n"
        )
        assert len(RepairJournal.load(str(path))) == 1


def _finish(journal, key, t, state="unpoisoned"):
    """Journal a minimal terminal lifecycle for *key*."""
    journal.append("observed", t, key=key)
    journal.append("state", t + 10.0, key=key, state=state)


class TestRotationAndCompaction:
    def test_rotation_drops_terminal_keeps_live(self, tmp_path):
        path = str(tmp_path / "rot.jsonl")
        journal = RepairJournal(path, max_entries=4)
        live = outage_key("origin", "0.9.0.1", 500.0)
        _finish(journal, KEY, 100.0)  # terminal: compacted away
        journal.append("observed", 500.0, key=live)
        journal.append("isolated", 600.0, key=live, blamed_asn=7)
        # 5th entry crosses max_entries and triggers the rotation.
        journal.append("poison", 700.0, key=live, asn=7)
        journal.close()

        assert journal.rotations == 1
        assert journal.compacted_away == 2
        assert [e["event"] for e in journal.for_outage(live)] == [
            "observed", "isolated", "poison",
        ]
        assert journal.for_outage(KEY) == []
        (marker,) = journal.of_event("compacted")
        assert marker["dropped"] == 2
        assert marker["event_counts"] == {"observed": 1, "state": 1}
        # Whole-life counts still see the dropped entries.
        assert journal.count_of("observed") == 2
        assert journal.count_of("state") == 1

    def test_terminal_rollback_becomes_breaker_entry(self, tmp_path):
        path = str(tmp_path / "breaker.jsonl")
        journal = RepairJournal(path, max_entries=4)
        journal.append("observed", 100.0, key=KEY)
        journal.append(
            "rollback", 200.0, key=KEY, asn=9, failures=2
        )
        journal.append("state", 300.0, key=KEY, state="not-poisoned")
        journal.append("observed", 400.0, key=KEY)  # stale extra entry
        journal.append("note", 500.0, text="tick")
        journal.close()

        (synth,) = journal.of_event("breaker")
        assert synth["vp"] == KEY[0]
        assert synth["dst"] == KEY[1]
        assert synth["asn"] == 9
        assert synth["failures"] == 2
        assert synth["last_failure"] == 200.0

    def test_terminal_announcements_become_pacer_entry(self, tmp_path):
        path = str(tmp_path / "pacer.jsonl")
        journal = RepairJournal(path, max_entries=4)
        # What an owning controller with a 2000 s pacing window sets.
        journal.pacer_window = 2000.0
        journal.append("announced", 100.0, prefix="0.0.1.0/24")
        _finish(journal, KEY, 3000.0)
        journal.append("announced", 3500.0, prefix="0.0.1.0/24")
        # The 5th entry rotates at t=4000: the window floor is 2000, so
        # the announcement at 100.0 can never count again and is pruned.
        journal.append("note", 4000.0, text="tick")
        journal.close()

        (synth,) = journal.of_event("pacer")
        assert synth["times"] == [3500.0]
        assert journal.of_event("announced") == []

    def test_load_replays_across_rotated_segments(self, tmp_path):
        path = str(tmp_path / "segments.jsonl")
        journal = RepairJournal(path, max_entries=4)
        live = outage_key("origin", "0.9.0.1", 500.0)
        for index in range(3):
            _finish(
                journal,
                outage_key("origin", "0.6.0.1", float(index)),
                100.0 * index,
            )
        journal.append("observed", 900.0, key=live)
        journal.close()
        assert journal.rotations >= 1

        loaded = RepairJournal.load(path)
        assert loaded.entries == journal.entries
        assert loaded.count_of("observed") == 4

    def test_load_resume_reopens_for_append(self, tmp_path):
        path = str(tmp_path / "resume.jsonl")
        journal = RepairJournal(path)
        journal.append("observed", 100.0, key=KEY)
        journal.close()

        resumed = RepairJournal.load(path, resume=True)
        resumed.append("poison", 200.0, key=KEY, asn=7)
        resumed.close()
        assert [e["event"] for e in RepairJournal.load(path)] == [
            "observed", "poison",
        ]

    def test_live_state_beyond_limit_does_not_churn(self, tmp_path):
        """Once live state alone exceeds max_entries, rotation must back
        off (geometric growth), not rewrite the file on every append."""
        path = str(tmp_path / "churn.jsonl")
        journal = RepairJournal(path, max_entries=4)
        live = outage_key("origin", "0.9.0.1", 500.0)
        for index in range(20):
            journal.append("observed", float(index), key=live)
        journal.close()
        assert journal.rotations <= 3

    def test_superseded_segments_are_pruned(self, tmp_path):
        path = str(tmp_path / "prune.jsonl")
        journal = RepairJournal(path, max_entries=2)
        for index in range(12):
            _finish(
                journal,
                outage_key("origin", "0.6.0.1", float(index)),
                100.0 * index,
            )
        journal.close()
        assert journal.rotations > 2
        import os as _os

        segments = sorted(
            name
            for name in _os.listdir(str(tmp_path))
            if name.startswith("prune.jsonl.")
        )
        assert len(segments) == 2
        assert segments[-1].endswith(str(journal.rotations))


class TestCompactionFollowsTheOwningPacer:
    def test_recovered_pacer_counts_what_the_live_one_counts(self):
        """Compaction pruned pacer slots with a window of its own (5400 s
        by default) however wide the controller's pacing window was: at
        a 10800 s window, a rotation at t=7000 dropped the slots of
        t<=1600, so at t=9000 the recovered pacer counted three fewer
        announcements than the live one and allowed three more."""
        from repro.control.lifeguard import Lifeguard, LifeguardConfig
        from repro.workloads.scenarios import build_deployment

        config = LifeguardConfig(announce_window=10800.0)
        scenario = build_deployment(
            scale="tiny", seed=5, lifeguard_config=config
        )
        live = scenario.lifeguard
        for t in (1000.0, 2000.0, 3000.0, 4000.0):
            live._commit("announced", None, t)
        # The next entry crosses the bound and rotates at t=7000.
        live.journal.max_entries = len(live.journal)
        live._commit("announced", None, 7000.0)
        assert live.journal.rotations == 1
        assert live.journal.of_event("announced") == []

        recovered = Lifeguard.recover(
            live.journal,
            engine=scenario.engine,
            topo=scenario.topo,
            origin_asn=scenario.origin_asn,
            vantage_points=scenario.vantage_points,
            targets=scenario.targets,
            duration_history=scenario.duration_history,
            config=config,
            now=9000.0,
            reprime_atlas=False,
        )
        assert recovered.origin.pacer.times == live.origin.pacer.times
        assert recovered.origin.pacer.allows(9000.0) is (
            live.origin.pacer.allows(9000.0)
        )
