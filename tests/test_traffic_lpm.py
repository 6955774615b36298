"""The compiled flat LPM is byte-identical to the PrefixTrie.

The flat table is the traffic layer's hot path, so its contract is
strict: for every address, ``FlatLPM.resolve`` returns exactly what
``PrefixTrie.lookup_value`` would.  FIBs are plain prefix maps; the
trie (``tests/trie_oracle.py``) is the oracle, and this file builds it
(``_oracle``) from the same entries — the code under test never does.
The fuzz tests sweep random maps and check every interval boundary,
where off-by-one bugs live; a dedicated regression pins the ``0.0.0.0/0``
default-route entry that ``default_route_via_provider`` stubs install,
which exercises the table's outermost interval at both address-space
ends.  The ``origin_for`` tests cover the index over
``FibSnapshot.origins`` (one more column on the snapshot's axis).
``TestPatchedColumns`` holds the write side to the same oracle: a column
patched under changed rows equals one compiled whole, on a shared,
unmerged ``PrefixAxis`` whose ``bases`` no patch ever moves.
``TestRegrownAxis`` does the same across a regrown axis: a column re-cut
onto it and then patched equals one compiled whole over the new axis.
"""

import random

import pytest

from repro.bgp.engine import BGPEngine
from repro.bgp.messages import make_path
from repro.bgp.policy import SpeakerConfig
from repro.dataplane.fib import (
    DEFAULT_PREFIX,
    LOCAL,
    FibSnapshot,
    build_fibs,
)
from repro.net.addr import Address, Prefix
from repro.net.lpm import PrefixAxis
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship
from repro.traffic.lpm import FlatFibSet, FlatLPM
from tests.trie_oracle import PrefixTrie, intervals, moved_rows

_SPACE = 1 << 32

P = Prefix("10.100.0.0/16")


def _mask(length):
    return ((1 << length) - 1) << (32 - length) if length else 0


def _random_fib(rng, entries):
    fib = {}
    for _ in range(entries):
        length = rng.randint(0, 32)
        base = rng.getrandbits(32) & _mask(length)
        fib[Prefix(base, length)] = rng.randint(-1, 500)
    return fib


def _oracle(fib):
    return PrefixTrie.from_items(fib.items())


def _boundary_addresses(fib):
    """Every interval edge: starts, ends, and their off-by-one shadows."""
    out = {0, _SPACE - 1}
    for prefix, _value in fib.items():
        start = prefix.base
        end = start + prefix.num_addresses
        for a in (start - 1, start, end - 1, end):
            if 0 <= a < _SPACE:
                out.add(a)
    return sorted(out)


def _assert_matches_oracle(flat, fib, extra=()):
    """*flat* answers as a trie of *fib*'s entries does, at every prefix
    edge, every table boundary, their neighbours and *extra*."""
    trie = _oracle(fib)
    addrs = set(_boundary_addresses(fib)) | set(extra)
    for base in flat.bases:
        addrs.update((max(base - 1, 0), base, min(base + 1, _SPACE - 1)))
    addrs = sorted(addrs)
    expected = [trie.lookup_value(a) for a in addrs]
    assert [flat.resolve(a) for a in addrs] == expected


def _linear_origin(origins, address):
    """The owner of the most specific prefix of *origins* over *address*,
    by scanning them all."""
    best = None
    for prefix, asn in origins.items():
        if address in prefix and (best is None or prefix.length > best[0]):
            best = (prefix.length, asn)
    return best[1] if best else None


class TestFlatLPMFuzz:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_trie_at_every_boundary(self, seed):
        rng = random.Random(seed)
        fib = _random_fib(rng, entries=rng.randint(1, 60))
        _assert_matches_oracle(
            FlatLPM.compile(fib), fib,
            extra=[rng.getrandbits(32) for _ in range(64)],
        )

    def test_batch_and_single_resolution_agree(self):
        rng = random.Random(99)
        fib = _random_fib(rng, entries=40)
        flat = FlatLPM.compile(fib)
        trie = _oracle(fib)
        addrs = _boundary_addresses(fib)[:40] or [0]
        addrs = addrs * 3
        expected = [trie.lookup_value(a) for a in addrs]
        assert [flat.resolve(a) for a in addrs] == expected
        # Every spelling of an address, one batch.
        spelled = [
            s for a in addrs[:12] for s in (a, Address(a), str(Address(a)))
        ]
        assert [flat.resolve(s) for s in spelled] == [
            v for v in expected[:12] for _ in range(3)
        ]

    def test_empty_trie_resolves_none_everywhere(self):
        flat = FlatLPM.compile({})
        assert flat.resolve(0) is None
        assert flat.resolve(_SPACE - 1) is None
        assert len(flat) == 0

    def test_intervals_cover_the_space_in_order(self):
        rng = random.Random(5)
        flat = FlatLPM.compile(_random_fib(rng, entries=30))
        bases = [b for b, _ in intervals(flat)]
        assert bases[0] == 0
        assert bases == sorted(bases)
        assert len(set(bases)) == len(bases)


def _shaped_fib(rng):
    """A random map that always holds the shapes a sweep gets wrong;
    returns it with the innermost prefix of its three-deep nest."""
    fib = _random_fib(rng, entries=rng.randint(0, 40))
    # Few distinct values, so equal-valued neighbours are common.
    for prefix in fib:
        fib[prefix] = rng.randint(-1, 3)
    fib[Prefix(0, 0)] = rng.randint(0, 3)
    fib[Prefix(_SPACE - 1, 32)] = rng.randint(0, 3)  # ends at 2**32
    inside = rng.getrandbits(32)
    for length in (8, 16, 24):
        fib[Prefix(inside & _mask(length), length)] = length
    # Two sibling /24s with one value: a boundary that is none.
    left = rng.getrandbits(32) & _mask(23)
    fib[Prefix(left, 24)] = fib[Prefix(left + 256, 24)] = 7
    return fib, Prefix(inside & _mask(24), 24)


class TestMapToIntervalTable:
    """``compile`` over a plain map, no trie in between."""

    @pytest.mark.parametrize("seed", range(25))
    def test_shaped_maps_match_the_oracle(self, seed):
        rng = random.Random(7000 + seed)
        fib, innermost = _shaped_fib(rng)
        flat = FlatLPM.compile(fib)
        assert len(flat) == len(fib)
        assert flat.bases[0] == 0 and flat.bases[-1] < _SPACE
        assert flat.bases == sorted(set(flat.bases))
        _assert_matches_oracle(flat, fib)
        # The table is a function of the entries, not of their order.
        shuffled = list(fib.items())
        rng.shuffle(shuffled)
        assert intervals(FlatLPM.compile(dict(shuffled))) == (
            intervals(flat)
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_removing_a_more_specific_re_exposes_its_cover(self, seed):
        fib, innermost = _shaped_fib(random.Random(7000 + seed))
        probe = innermost.base + 1
        assert FlatLPM.compile(fib).resolve(probe) == 24
        del fib[innermost]
        flat = FlatLPM.compile(fib)
        assert flat.resolve(probe) == 16
        _assert_matches_oracle(flat, fib)

    def test_equal_valued_neighbours(self):
        fib = {Prefix("10.0.0.0/24"): 7, Prefix("10.0.1.0/24"): 7}
        flat = FlatLPM.compile(fib)
        _assert_matches_oracle(flat, fib)
        start = Prefix("10.0.0.0/24").base
        # One sibling closes where the other opens: the axis keeps that
        # boundary (it belongs to the prefix set, not to the values)...
        assert flat.bases == [0, start, start + 256, start + 512]
        assert flat.values == [None, 7, 7, None]
        # ...and intervals() reads the two equal runs as one.
        one_run = [(0, None), (start, 7), (start + 512, None)]
        assert intervals(flat) == one_run
        # Under an equal-valued cover nothing closes to None: one run.
        covered = {**fib, Prefix("10.0.0.0/23"): 7}
        flat = FlatLPM.compile(covered)
        _assert_matches_oracle(flat, covered)
        assert intervals(flat) == one_run

    def test_slash_32_at_the_top_of_the_space(self):
        fib = {Prefix(_SPACE - 1, 32): 5}
        flat = FlatLPM.compile(fib)
        assert intervals(flat) == [(0, None), (_SPACE - 1, 5)]
        fib[Prefix(0, 0)] = 9
        flat = FlatLPM.compile(fib)
        assert intervals(flat) == [(0, 9), (_SPACE - 1, 5)]
        _assert_matches_oracle(flat, fib)


class TestPatchedColumns:
    """One axis per prefix set; a changed row rewrites slots of a
    copied column and never moves a boundary."""

    @pytest.mark.parametrize("seed", range(25))
    def test_patched_equals_compiled_equals_oracle(self, seed):
        rng = random.Random(8000 + seed)
        universe, _innermost = _shaped_fib(rng)
        axis = PrefixAxis(universe)
        assert axis.bases == sorted(set(axis.bases)) and axis.bases[0] == 0
        fib = {p: v for p, v in universe.items() if rng.random() < 0.7}
        table = FlatLPM.compile(fib, axis)
        assert table.bases is axis.bases
        _assert_matches_oracle(table, fib)
        for _ in range(12):
            rows = rng.sample(sorted(universe), rng.randint(1, 4))
            after = dict(fib)
            for prefix in rows:
                if prefix in after and rng.random() < 0.5:
                    del after[prefix]  # falls back to what covers it
                else:
                    after[prefix] = rng.randint(-1, 3)
            patched = table.patched(after, rows)
            assert patched.bases is table.bases
            assert patched.values is not table.values
            assert len(patched) == len(after)
            _assert_matches_oracle(patched, after)
            assert patched.values == FlatLPM.compile(after, axis).values
            # A private axis merges to the same boundaries.
            assert intervals(patched) == intervals(FlatLPM.compile(after))
            # The table patched from is left as it was.
            _assert_matches_oracle(table, fib)
            fib, table = after, patched

    def test_covers_and_spans(self):
        outer, inner = Prefix("10.0.0.0/8"), Prefix("10.1.0.0/16")
        apart = Prefix("192.0.2.0/24")
        axis = PrefixAxis([inner, apart, outer, Prefix("10.1.0.0/16")])
        assert axis.bases == [
            0, outer.base, inner.base, inner.base + (1 << 16),
            outer.base + (1 << 24), apart.base, apart.base + 256,
        ]
        assert axis.covers == [
            (), (outer,), (inner, outer), (outer,), (), (apart,), (),
        ]
        assert axis.spans == {outer: (1, 4), inner: (2, 3), apart: (5, 6)}

    def test_a_prefix_outside_the_axis_is_refused_not_dropped(self):
        inside, outside = Prefix("10.0.0.0/8"), Prefix("192.0.2.0/24")
        axis = PrefixAxis([inside])
        table = FlatLPM.compile({inside: 1}, axis)
        with pytest.raises(ValueError):
            FlatLPM.compile({inside: 1, outside: 2}, axis)
        with pytest.raises(ValueError):
            table.patched({inside: 1, outside: 2}, [outside])
        # Announced and withdrawn between two looks: nothing to re-read.
        assert table.patched({inside: 1}, [outside]).values == table.values


def _commonest_cover(a, b):
    """The longest prefix holding both *a* and *b*."""
    differ = (a.base ^ b.base).bit_length()
    length = min(32 - differ, a.length, b.length)
    return Prefix(a.base & _mask(length), length)


class TestRegrownAxis:
    """A never-seen prefix regrows the axis; a compiled column leaves
    the old one by a re-cut (each fresh slot takes the value of the slot
    it splits) and then the ordinary patch — and lands on exactly the
    column a whole compile over the new axis would paint."""

    @staticmethod
    def _batch(rng, universe):
        """Prefixes a refresh may meet, in every shape a re-cut must
        split right: a more-specific inside a present prefix, a
        less-specific enclosing several, 0.0.0.0/0, the /32 at the top
        of the space, and one the axis already holds."""
        present = sorted(universe)
        outer = rng.choice([p for p in present if p.length < 32])
        length = rng.randint(outer.length + 1, min(32, outer.length + 8))
        bits = rng.getrandbits(32) & _mask(length) & ~_mask(outer.length)
        a, b = rng.sample(present, 2)
        return {
            Prefix(outer.base | bits, length),
            _commonest_cover(a, b),
            Prefix(0, 0),
            Prefix(_SPACE - 1, 32),
            rng.choice(present),
        }

    @staticmethod
    def _moved(rng, fib, rows):
        """*fib* with *rows* re-read: set, or (if present) sometimes gone."""
        after = dict(fib)
        for prefix in rows:
            if prefix in after and rng.random() < 0.3:
                del after[prefix]
            else:
                after[prefix] = rng.randint(-1, 3)
        return after

    @pytest.mark.parametrize("seed", range(30))
    def test_recut_then_patched_equals_compiled_equals_oracle(self, seed):
        rng = random.Random(9100 + seed)
        universe = _random_fib(rng, entries=rng.randint(2, 40))
        axis = PrefixAxis(universe)
        # Per-AS columns, an origins column (prefix -> owning AS) and
        # one column nothing touches until the last batch, so with two
        # or more batches it skips every axis in between.
        maps = {
            name: {p: rng.randint(-1, 3) for p in universe
                   if rng.random() < 0.7}
            for name in ("a", "b", "c", "skips")
        }
        maps["origins"] = {p: rng.randint(1, 9) for p in universe}
        columns = {name: FlatLPM.compile(fib, axis)
                   for name, fib in maps.items()}
        batches = 1 + seed % 3
        for index in range(batches):
            newcomers = self._batch(rng, universe)
            universe = {**universe, **dict.fromkeys(newcomers)}
            grown = PrefixAxis(universe)
            for name, fib in maps.items():
                if name == "skips" and index < batches - 1:
                    continue
                table = columns[name]
                fresh = grown.fresh_slots(table.axis)
                assert fresh == sorted(set(fresh))
                assert len(grown.bases) - len(fresh) == len(table.bases)
                recut = table.recut(grown, fresh)
                assert recut.bases is grown.bases
                # The re-cut alone moves no answer, and leaves its
                # source as it was.
                assert intervals(recut) == intervals(table)
                assert recut.values == FlatLPM.compile(fib, grown).values
                _assert_matches_oracle(recut, fib)
                _assert_matches_oracle(table, fib)
                # Some newcomers arrive, and up to two old rows move.
                arrive = rng.randint(1, len(newcomers))
                rows = set(rng.sample(sorted(newcomers), arrive))
                rows.update(rng.sample(sorted(fib), min(len(fib), 2)))
                after = self._moved(rng, fib, rows)
                patched = recut.patched(after, rows)
                assert patched.bases is grown.bases
                assert len(patched) == len(after)
                assert patched.values == FlatLPM.compile(after, grown).values
                _assert_matches_oracle(patched, after)
                maps[name], columns[name] = after, patched
            axis = grown
        assert all(table.axis is axis for table in columns.values())

    def test_fresh_slots_refuse_an_axis_that_is_no_ancestor(self):
        left, right = Prefix("10.0.0.0/8"), Prefix("192.0.2.0/24")
        grown = PrefixAxis([left, Prefix("10.1.0.0/16")])
        assert grown.fresh_slots(PrefixAxis([left])) == [2, 3]
        assert grown.fresh_slots(grown) == []
        with pytest.raises(ValueError):
            grown.fresh_slots(PrefixAxis([right]))


class TestDefaultRouteBoundary:
    """The 0.0.0.0/0 entry is the table's outermost interval."""

    def _default_routed_fibs(self):
        # O(1) and the stub S(3) both buy transit from 2; S
        # default-routes, and the origin poisons S so S's BGP route
        # for P disappears — only the /0 keeps its packets flowing.
        g = ASGraph()
        g.add_as(1, tier=3)
        g.add_as(2, tier=2)
        g.add_as(3, tier=3)
        g.assign_prefix(1, P)
        g.assign_prefix(2, Prefix("10.102.0.0/16"))
        g.assign_prefix(3, Prefix("10.103.0.0/16"))
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(3, 2, Relationship.PROVIDER)
        engine = BGPEngine(
            g,
            speaker_configs={
                3: SpeakerConfig(default_route_via_provider=True)
            },
        )
        engine.originate(1, P, path=make_path(1, prepend=2, poison=[3]))
        engine.originate(2, Prefix("10.102.0.0/16"))
        engine.originate(3, Prefix("10.103.0.0/16"))
        engine.run()
        return build_fibs(engine)

    def test_flat_table_honours_the_default_entry(self):
        fibs = self._default_routed_fibs()
        assert fibs.tables[3][DEFAULT_PREFIX] == 2
        assert P not in fibs.tables[3]
        flat = FlatLPM.compile(fibs.tables[3])
        # The poisoned prefix falls through to the provider default...
        assert flat.resolve(P.address(1)) == 2
        # ...as do both extreme ends of the address space.
        assert flat.resolve(0) == 2
        assert flat.resolve(_SPACE - 1) == 2
        # More-specific entries still win over the /0.
        assert flat.resolve(Prefix("10.103.0.0/16").address(1)) == LOCAL
        assert flat.resolve(Prefix("10.102.0.0/16").address(1)) == 2

    def test_flat_table_matches_trie_everywhere(self):
        fib = self._default_routed_fibs().tables[3]
        _assert_matches_oracle(FlatLPM.compile(fib), fib)


class TestFlatFibSet:
    def test_tables_memoised_per_snapshot(self):
        fibs = TestDefaultRouteBoundary()._default_routed_fibs()
        fibset = FlatFibSet(fibs)
        assert fibset.table(3) is fibset.table(3)
        assert fibset.table(999) is None

    def test_attach_invalidates_compiled_tables(self):
        builder = TestDefaultRouteBoundary()
        first = builder._default_routed_fibs()
        second = builder._default_routed_fibs()
        fibset = FlatFibSet(first)
        table = fibset.table(3)
        fibset.attach(first)  # same snapshot: cache kept
        assert fibset.table(3) is table
        fibset.attach(second)  # new snapshot: recompiled
        assert fibset.table(3) is not table

    def test_resolve_matches_snapshot_next_hop(self):
        fibs = TestDefaultRouteBoundary()._default_routed_fibs()
        fibset = FlatFibSet(fibs)
        addr = P.address(7)
        for asn in fibs.tables:
            assert fibset.table(asn).resolve(addr) == fibs.next_hop_as(
                asn, addr
            )


class TestIncrementalFibReuse:
    """An incremental ``build_fibs`` carries clean ASes' compiled tables
    into the new snapshot, and logs exactly the rows that moved."""

    @staticmethod
    def _engine():
        g = ASGraph()
        g.add_as(1, tier=3)
        g.add_as(2, tier=2)
        g.add_as(3, tier=3)
        g.assign_prefix(1, P)
        g.assign_prefix(2, Prefix("10.102.0.0/16"))
        g.assign_prefix(3, Prefix("10.103.0.0/16"))
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(3, 2, Relationship.PROVIDER)
        engine = BGPEngine(g)
        for node in g.nodes():
            for prefix in node.prefixes:
                engine.originate(node.asn, prefix)
        engine.run()
        return engine

    def test_incremental_attach_keeps_clean_tables(self):
        engine = self._engine()
        first = build_fibs(engine)
        fibset = FlatFibSet(first)
        tables = {asn: fibset.table(asn) for asn in first.tables}
        second = build_fibs(engine, first, dirty_asns={3})
        assert second.tables[1] is first.tables[1]
        assert second.tables[2] is first.tables[2]
        assert second.tables[3] is not first.tables[3]
        # AS3's rows were re-read and kept their values: nothing moved.
        assert second.log[first.upto:second.upto] == []
        fibset.attach(second)
        assert fibset.table(1) is tables[1]
        assert fibset.table(2) is tables[2]
        assert fibset.table(3) is not tables[3]

    def test_empty_dirty_set_returns_previous_snapshot(self):
        engine = self._engine()
        first = build_fibs(engine)
        assert build_fibs(engine, first, dirty_asns=set()) is first

    def test_tracked_dirty_cone_matches_full_rebuild(self):
        engine = self._engine()
        # Cold start: the change set is unbounded until first consumed.
        assert engine.consume_fib_dirty() is None
        first = build_fibs(engine)
        fibset = FlatFibSet(first)
        for asn in first.tables:
            fibset.table(asn)
        # Poisoning AS3 evicts its route for P (a next-hop change at 3);
        # AS2 keeps next hop 1, so its map must survive untouched.
        engine.originate(1, P, path=make_path(1, prepend=2, poison=[3]))
        engine.run()
        dirty = engine.consume_fib_dirty()
        assert dirty is not None and 3 in dirty
        assert 2 not in dirty
        incremental = build_fibs(engine, first, dirty_asns=dirty)
        full = build_fibs(engine)
        for asn in full.tables:
            _assert_matches_oracle(
                FlatLPM.compile(incremental.tables[asn]), full.tables[asn]
            )
        for asn in set(first.tables) - dirty.keys():
            assert incremental.tables[asn] is first.tables[asn]
        logged = incremental.log[first.upto:incremental.upto]
        assert len(logged) == len(set(logged))
        assert set(logged) == {
            (asn, prefix)
            for asn in full.tables
            for prefix in moved_rows(first.tables[asn], full.tables[asn])
        }
        assert (3, P) in logged and {asn for asn, _ in logged} <= dirty.keys()
        fibset.attach(incremental)
        for asn in first.tables:
            assert fibset.table(asn) is incremental.flat(asn)


class TestOriginForIndex:
    """The satellite fix: origin_for is an LPM lookup, not a scan."""

    def test_matches_linear_scan(self, small_internet):
        _graph, _topo, engine = small_internet
        fibs = build_fibs(engine)
        probes = []
        for prefix in fibs.origins:
            probes.append(prefix.address(0))
            if prefix.num_addresses > 1:
                probes.append(prefix.address(1))
        probes.append(0)  # covered by no originated prefix
        for addr in probes:
            assert fibs.origin_for(addr) == _linear_origin(fibs.origins, addr)

    def test_index_rebuilt_when_origins_grow(self, small_internet):
        # Snapshots are frozen; a change of origins is a new snapshot,
        # indexed when it is built.
        _graph, _topo, engine = small_internet
        fibs = build_fibs(engine)
        probe = Prefix("203.0.113.0/24")
        assert fibs.origin_for(probe.address(1)) is None
        grown = FibSnapshot(fibs.tables, {**fibs.origins, probe: 64500})
        assert grown.origin_for(probe.address(1)) == 64500

    def test_same_size_change_of_origins_is_seen(self, small_internet):
        # The old staleness test compared lengths and missed this.
        _graph, _topo, engine = small_internet
        fibs = build_fibs(engine)
        prefix, owner = next(iter(fibs.origins.items()))
        moved = FibSnapshot(
            fibs.tables, {**fibs.origins, prefix: owner + 64500}
        )
        assert len(moved.origins) == len(fibs.origins)
        assert moved.origin_for(prefix.address(1)) == owner + 64500
        assert fibs.origin_for(prefix.address(1)) == owner
