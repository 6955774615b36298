"""Replay every committed fuzz-corpus entry on both backends.

Each ``tests/corpus/fuzz/*.json`` file pins one fuzzer finding: a fixed
solver-vs-engine divergence that must stay equal, or a config the
solver gate must keep rejecting.  Replays are single small cases, so
this stays tier-1 fast.
"""

import os

import pytest

from repro.fuzz.case import CASE_SCHEMA
from tests.corpus_replay import load_entries, replay_entry

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus", "fuzz")

ENTRIES = load_entries(CORPUS_DIR)


def test_corpus_is_committed():
    assert ENTRIES, f"no corpus entries under {CORPUS_DIR}"


@pytest.mark.parametrize(
    "path,entry",
    ENTRIES,
    ids=[os.path.basename(path) for path, _ in ENTRIES],
)
def test_corpus_entry_replays(path, entry):
    assert entry.get("schema") == CASE_SCHEMA
    assert entry.get("note"), f"{path}: every pin documents what it pins"
    ok, detail = replay_entry(entry)
    assert ok, f"{path}: {detail}"
