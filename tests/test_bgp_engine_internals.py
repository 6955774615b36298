"""Engine edge cases: clock control, MRAI batching, error handling."""

import pickle

import pytest

from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.messages import make_path
from repro.errors import BGPError, SimulationError
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship

P = Prefix("10.90.0.0/16")


def chain(n=4):
    g = ASGraph()
    for asn in range(1, n + 1):
        g.add_as(asn)
    g.assign_prefix(1, P)
    for asn in range(1, n):
        g.add_link(asn, asn + 1, Relationship.PROVIDER)
    return g


class TestClock:
    def test_advance_to_moves_clock(self):
        engine = BGPEngine(chain())
        engine.originate(1, P)
        engine.run()
        t = engine.now
        engine.advance_to(t + 100.0)
        assert engine.now == t + 100.0

    def test_advance_backwards_rejected(self):
        engine = BGPEngine(chain())
        engine.originate(1, P)
        engine.run()
        with pytest.raises(SimulationError):
            engine.advance_to(engine.now - 1.0)

    def test_advance_with_pending_events_rejected(self):
        engine = BGPEngine(chain())
        engine.originate(1, P)  # events queued, not yet run
        with pytest.raises(SimulationError):
            engine.advance_to(engine.now + 100.0)

    def test_run_until_leaves_pending_events(self):
        engine = BGPEngine(chain(6))
        engine.originate(1, P)
        engine.run(until=engine.now + 0.001)
        # The far end cannot have converged in a millisecond.
        assert engine.as_path(6, P) is None
        engine.run()
        assert engine.as_path(6, P) is not None


class TestMRAI:
    def test_rapid_changes_batched_by_mrai(self):
        """Two announcement changes in quick succession reach a neighbor
        as at most two updates, the second delayed by the MRAI."""
        engine = BGPEngine(chain(3), EngineConfig(mrai=30.0, seed=1))
        engine.originate(1, P, path=make_path(1, prepend=3))
        engine.run()
        sent_before = engine.updates_sent.get((2, 3), 0)
        t0 = engine.now
        # Flip the announcement twice within one MRAI window.
        engine.originate(1, P, path=make_path(1, prepend=3, poison=[99]))
        engine.run(until=t0 + 1.0)
        engine.originate(1, P, path=make_path(1, prepend=3))
        settle = engine.run()
        sent_after = engine.updates_sent.get((2, 3), 0)
        assert sent_after - sent_before <= 2
        # The batched second update had to wait out the MRAI.
        assert settle - t0 >= 10.0

    def test_withdrawals_not_rate_limited(self):
        engine = BGPEngine(chain(3), EngineConfig(mrai=30.0, seed=1))
        engine.originate(1, P)
        engine.run()
        t0 = engine.now
        engine.withdraw_origin(1, P)
        settle = engine.run()
        # Withdrawals propagate immediately (no 30 s waits).
        assert settle - t0 < 5.0
        assert engine.as_path(3, P) is None


class TestBoundaryChecks:
    def test_empty_origin_path_is_a_bgp_error(self):
        """Not an IndexError, and raised before any state changes."""
        engine = BGPEngine(chain())
        for kwargs in ({"path": ()}, {"per_neighbor": {2: ()}}):
            with pytest.raises(BGPError):
                engine.originate(1, P, **kwargs)
        speaker = engine.speakers[1]
        assert speaker.origin_entry(P) is None and speaker.best(P) is None
        assert engine.changes == 0 and engine.updates_sent == {}

    @pytest.mark.parametrize(
        "bad",
        [
            {"link_delay_min": -5.0, "link_delay_max": -4.0},
            {"proc_delay_min": 0.2, "proc_delay_max": 0.1},
            {"mrai_jitter_min": -0.5},
            {"mrai": -1.0},
        ],
    )
    def test_bad_engine_config_raises_at_construction(self, bad):
        """Not from inside a half-sent update (session state written,
        ``bgp.update-sent`` emitted, then "scheduled in the past")."""
        with pytest.raises(SimulationError):
            BGPEngine(chain(), EngineConfig(**bad))

    def test_degenerate_but_legal_config_still_converges(self):
        engine = BGPEngine(
            chain(),
            EngineConfig(
                link_delay_min=0.0, link_delay_max=0.0,
                proc_delay_min=0.0, proc_delay_max=0.0, mrai=0.0,
            ),
        )
        engine.originate(1, P)
        assert engine.run() == 0.0
        assert engine.as_path(4, P) == (3, 2, 1)


class TestLifetime:
    def test_discarded_engine_is_freed_without_the_cyclic_collector(self):
        """Speakers list their sessions; nothing points back.  A cycle
        there left every engine a fuzz case discards to the collector:
        +11% peak RSS and a third of ``fuzz_medium``'s throughput."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            engine = BGPEngine(chain())
            engine.originate(1, P)
            engine.run(until=0.05)  # events still queued
            probes = [
                weakref.ref(engine),
                weakref.ref(engine.speakers[2]),
                weakref.ref(engine.speakers[2].table),
            ]
            del engine
            assert [probe() for probe in probes] == [None, None, None]
        finally:
            gc.enable()

    def test_a_snapshot_carries_no_listener(self):
        """Listeners hear every change the counter counts; a pickled
        engine restores with none (a lambda would not even pickle)."""
        engine = BGPEngine(chain())
        heard = []
        engine.on_change.append(lambda change: heard.append(change))
        engine.originate(1, P)
        engine.run()
        assert len(heard) == engine.changes == 4
        restored = pickle.loads(pickle.dumps(engine))
        assert restored.on_change == [] and len(engine.on_change) == 1
        assert restored.changes == 4
        restored.originate(1, P, path=make_path(1, prepend=2))
        restored.run()
        assert restored.changes > 4 and len(heard) == 4


class TestErrorPaths:
    def test_unknown_scale_for_speaker_lookup(self):
        engine = BGPEngine(chain())
        with pytest.raises(KeyError):
            engine.speakers[999]

    def test_update_counters_monotonic(self):
        engine = BGPEngine(chain())
        engine.originate(1, P)
        engine.run()
        first = sum(engine.updates_sent.values())
        engine.originate(1, P, path=make_path(1, prepend=3))
        engine.run()
        assert sum(engine.updates_sent.values()) > first
