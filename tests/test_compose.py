"""Tests for cached-diff composition (multi-version updates)."""

import random

import numpy as np
import pytest

from repro.errors import ServerError
from repro.server.compose import _covered, compose_diffs
from repro.wire import (BlockDiff, RunColumns, SegmentDiff,
                        decode_segment_diff, encode_segment_diff)


def _covers(newer, older):
    """Does run ``newer`` cover run ``older``? Runs are ``(prim_start,
    prim_count, data)`` triples."""
    return newer[0] <= older[0] and newer[0] + newer[1] >= older[0] + older[1]


def _surviving_runs(accumulated, incoming):
    """The columnar covered mask applied to lists of run triples."""
    def extents(runs):
        starts = np.array([run[0] for run in runs], np.int64)
        return starts, starts + np.array([run[1] for run in runs], np.int64)

    covered = _covered(*extents(accumulated), *extents(incoming))
    return [run for run, dead in zip(accumulated, covered.tolist()) if not dead]


def diff(from_version, to_version, blocks, types=()):
    return SegmentDiff("s", from_version, to_version, blocks, list(types))


class TestChainValidation:
    def test_empty_chain_rejected(self):
        with pytest.raises(ServerError):
            compose_diffs([])

    def test_broken_chain_rejected(self):
        with pytest.raises(ServerError):
            compose_diffs([diff(1, 2, []), diff(3, 4, [])])

    def test_mixed_segments_rejected(self):
        with pytest.raises(ServerError):
            compose_diffs([diff(1, 2, []),
                           SegmentDiff("other", 2, 3, [])])

    def test_versions_span_chain(self):
        result = compose_diffs([diff(1, 2, []), diff(2, 3, []), diff(3, 5, [])])
        assert (result.from_version, result.to_version) == (1, 5)


class TestRunMerging:
    def test_distinct_blocks_pass_through(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(0, 1, b"a")]))]),
            diff(2, 3, [BlockDiff(serial=2, columns=RunColumns.from_runs(
                [(0, 1, b"b")]))]),
        ])
        assert [bd.serial for bd in result.block_diffs] == [1, 2]

    def test_covered_older_run_dropped(self):
        """The repeated-counter case: the newer write shadows the older."""
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(4, 1, b"old!")]))]),
            diff(2, 3, [BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(4, 1, b"new!")]))]),
        ])
        (block,) = result.block_diffs
        assert [(start, bytes(data)) for start, _, data in block.columns] == [
            (4, b"new!")]

    def test_wider_newer_run_covers(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(5, 2, b"xx")]))]),
            diff(2, 3, [BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(4, 4, b"yyyy")]))]),
        ])
        (block,) = result.block_diffs
        assert block.columns.run_count == 1

    def test_partial_overlap_keeps_both_in_order(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(0, 4, b"old4")]))]),
            diff(2, 3, [BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(2, 4, b"new4")]))]),
        ])
        (block,) = result.block_diffs
        # older first so the newer overwrite wins where they overlap
        assert [bytes(data) for _, _, data in block.columns] == [
            b"old4", b"new4"]

    def test_disjoint_runs_accumulate(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(0, 1, b"a")]))]),
            diff(2, 3, [BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(9, 1, b"b")]))]),
        ])
        (block,) = result.block_diffs
        assert block.columns.run_count == 2


class TestSurvivingRunsSweep:
    """The sorted-interval sweep must be indistinguishable from the
    naive O(n*m) pairwise scan."""

    @staticmethod
    def naive(accumulated, incoming):
        return [run for run in accumulated
                if not any(_covers(newer, run) for newer in incoming)]

    @staticmethod
    def random_runs(rng, count, span=5000, max_width=40):
        return [(rng.randrange(span), rng.randrange(1, max_width), b"")
                for _ in range(count)]

    def test_many_runs_matches_naive(self):
        rng = random.Random(2003)
        for _ in range(10):
            accumulated = self.random_runs(rng, 250)
            incoming = self.random_runs(rng, 250)
            assert (_surviving_runs(accumulated, incoming)
                    == self.naive(accumulated, incoming))

    def test_duplicate_starts_and_exact_spans(self):
        """Adversarial shapes for the prefix-max trick: several incoming
        runs sharing a start (the widest must win for all of them) and
        old runs exactly coinciding with incoming ones."""
        rng = random.Random(7)
        accumulated = self.random_runs(rng, 100, span=50, max_width=8)
        incoming = [(start, count, b"") for start, count, _ in accumulated[::2]]
        incoming += [(10, width, b"") for width in (1, 9, 3)]
        assert (_surviving_runs(accumulated, incoming)
                == self.naive(accumulated, incoming))

    def test_small_inputs_use_the_same_semantics(self):
        rng = random.Random(11)
        accumulated = self.random_runs(rng, 6, span=30, max_width=6)
        incoming = self.random_runs(rng, 6, span=30, max_width=6)
        assert (_surviving_runs(accumulated, incoming)
                == self.naive(accumulated, incoming))

    def test_empty_sides(self):
        runs = [(0, 4, b"abcd")]
        assert _surviving_runs([], runs) == []
        assert _surviving_runs(runs, []) == runs


def _reference_compose(parts):
    """Per-run composition over lists of run triples: the rules of the
    module docstring, written out run by run."""
    merged, types = {}, {}
    for part in parts:
        for serial, encoded in part.new_types:
            types.setdefault(serial, encoded)
        for incoming in part.block_diffs:
            older = merged.get(incoming.serial)
            if incoming.freed:
                result = BlockDiff(serial=incoming.serial, freed=True,
                                   version=incoming.version)
            elif older is not None and older.freed:
                raise ServerError("re-created within range")
            elif older is None or incoming.is_new:
                result = BlockDiff(
                    serial=incoming.serial, columns=incoming.columns,
                    is_new=incoming.is_new, type_serial=incoming.type_serial,
                    name=incoming.name, version=incoming.version)
            else:
                newer = list(incoming.columns)
                result = BlockDiff(
                    serial=older.serial,
                    columns=RunColumns.from_runs(
                        [run for run in older.columns
                         if not any(_covers(new, run) for new in newer)]
                        + newer),
                    is_new=older.is_new, type_serial=older.type_serial,
                    name=older.name, version=max(older.version, incoming.version))
            merged[incoming.serial] = result
    return SegmentDiff(parts[0].segment, parts[0].from_version,
                       parts[-1].to_version, list(merged.values()),
                       sorted(types.items()))


class TestColumnarCompose:
    """The columnar composition encodes byte-identically to the per-run
    object composition, on chains decoded from the wire (columnar runs
    over receive buffers) as the server composes them."""

    @staticmethod
    def random_block(rng, serial, version, span=400):
        runs = []
        for _ in range(rng.randrange(0, 40)):
            count = rng.choice((1, 1, 2, 3, 8, 16, span))
            start = rng.randrange(0, span)
            runs.append((start, count, bytes(
                rng.randrange(256) for _ in range(4 * count))))
        if rng.random() < 0.3:
            # a run covering everything older: the full-cover case
            runs.append((0, 2 * span, bytes(8 * span)))
        return BlockDiff(serial=serial, columns=RunColumns.from_runs(runs),
                         version=version)

    def random_chain(self, rng, length):
        parts = []
        for step in range(length):
            blocks = [self.random_block(rng, serial, step + 2)
                      for serial in rng.sample(range(1, 6), rng.randrange(1, 4))]
            if step == 0:
                blocks.append(BlockDiff(
                    serial=9, is_new=True, type_serial=3, name="fresh",
                    columns=RunColumns.from_runs(
                        [(0, 64, bytes(range(256)))]), version=2))
            elif rng.random() < 0.5:
                blocks.append(self.random_block(rng, 9, step + 2))
            parts.append(SegmentDiff("s", step + 1, step + 2, blocks,
                                     [(step % 2 + 1, b"T")]))
        return parts

    def test_matches_object_composition(self):
        rng = random.Random(12)
        for _ in range(40):
            parts = self.random_chain(rng, rng.randrange(1, 6))
            decoded = [decode_segment_diff(encode_segment_diff(part))
                       for part in parts]
            assert (encode_segment_diff(compose_diffs(decoded))
                    == encode_segment_diff(_reference_compose(parts)))
            # undecoded input (payloads in owned bytes) composes
            # identically too
            assert (encode_segment_diff(compose_diffs(parts))
                    == encode_segment_diff(_reference_compose(parts)))

    def test_full_cover_drops_every_older_run(self):
        parts = [diff(1, 2, [BlockDiff(serial=1, columns=RunColumns.from_runs([
                     (k, 1, bytes([k])) for k in range(0, 20, 2)]))]),
                 diff(2, 3, [BlockDiff(serial=1, columns=RunColumns.from_runs([
                     (0, 30, bytes(30))]))])]
        decoded = [decode_segment_diff(encode_segment_diff(p)) for p in parts]
        (block,) = compose_diffs(decoded).block_diffs
        assert block.columns.starts.tolist() == [0]
        assert bytes(block.columns.data) == bytes(30)


class TestLifecycle:
    def test_creation_then_update_merges_into_creation(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=3, is_new=True, type_serial=7,
                                  columns=RunColumns.from_runs([(0, 8, b"x" * 8)]))]),
            diff(2, 3, [BlockDiff(serial=3, columns=RunColumns.from_runs(
                [(2, 1, b"y")]))]),
        ])
        (block,) = result.block_diffs
        assert block.is_new and block.type_serial == 7
        assert block.columns.run_count == 2

    def test_free_cancels_history(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=3, columns=RunColumns.from_runs(
                [(0, 1, b"a")]))]),
            diff(2, 3, [BlockDiff(serial=3, freed=True)]),
        ])
        (block,) = result.block_diffs
        assert block.freed and block.columns.run_count == 0

    def test_create_then_free_becomes_tombstone(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=3, is_new=True, type_serial=1,
                                  columns=RunColumns.from_runs([(0, 1, b"a")]))]),
            diff(2, 3, [BlockDiff(serial=3, freed=True)]),
        ])
        (block,) = result.block_diffs
        assert block.freed

    def test_recreation_falls_back(self):
        with pytest.raises(ServerError):
            compose_diffs([
                diff(1, 2, [BlockDiff(serial=3, freed=True)]),
                diff(2, 3, [BlockDiff(serial=3, is_new=True, type_serial=1,
                                      columns=RunColumns.from_runs([(0, 1, b"a")]))]),
            ])

    def test_types_deduplicated(self):
        result = compose_diffs([
            diff(1, 2, [], types=[(1, b"T1")]),
            diff(2, 3, [], types=[(1, b"T1"), (2, b"T2")]),
        ])
        assert result.new_types == [(1, b"T1"), (2, b"T2")]


class TestServerIntegration:
    def test_delta_reader_served_composed_diff(self):
        """A Delta(2) reader's catch-up reuses the writers' precise diffs
        instead of subblock-rounded rebuilds."""
        from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock, delta
        from repro.arch import X86_32
        from repro.types import ArrayDescriptor, INT

        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        server = InterWeaveServer("h", sink=hub, clock=clock)
        hub.register_server("h", server)
        writer = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = writer.open_segment("h/s")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 1024), name="a")
        array.write_values([0] * 1024)
        writer.wl_release(seg)

        reader = InterWeaveClient("r", X86_32, hub.connect, clock=clock)
        reader.options.enable_notifications = False
        seg_r = reader.open_segment("h/s")
        reader.rl_acquire(seg_r)
        reader.rl_release(seg_r)
        reader.set_coherence(seg_r, delta(2))

        for value in (1, 2):
            writer.wl_acquire(seg)
            array[500] = value  # single-unit change each version
            writer.wl_release(seg)

        built_before = server.stats.updates_built
        received_before = reader._channels["h"].stats.bytes_received
        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "a")[500] == 2
        reader.rl_release(seg_r)
        # no subblock rebuild: the two cached writer diffs were composed
        assert server.stats.updates_built == built_before
        # and the composed diff is single-unit precise, not subblock-sized
        received = reader._channels["h"].stats.bytes_received - received_before
        assert received < 200

    def test_freed_then_recreated_falls_back_to_rebuild(self):
        """A serial freed and re-created inside the client's catch-up
        range cannot be expressed as one composed diff: the server's
        validation path must detect that, fall back to rebuilding from
        subblock versions, and still produce a correct update."""
        import struct

        from repro import InterWeaveServer
        from repro.types import INT, TypeRegistry
        from repro.wire.messages import (
            COHERENCE_FULL,
            LOCK_READ,
            LOCK_WRITE,
            LockAcquireReply,
            LockAcquireRequest,
            LockReleaseRequest,
            OpenSegmentRequest,
            decode_message,
            encode_message,
        )

        server = InterWeaveServer("h")
        registry = TypeRegistry()
        type_serial = registry.register(INT)
        encoded_int = registry.encoded(type_serial)

        def rpc(client_id, message):
            return decode_message(
                server.dispatch(client_id, encode_message(message)))

        def write(version, blocks, types=()):
            rpc("w", LockAcquireRequest("h/s", LOCK_WRITE, "w", version))
            rpc("w", LockReleaseRequest("h/s", LOCK_WRITE, "w", SegmentDiff(
                "h/s", version, version + 1, blocks, list(types))))

        rpc("w", OpenSegmentRequest("h/s", create=True, client_id="w"))
        write(0, [BlockDiff(serial=1, is_new=True, type_serial=type_serial,
                            name="a",
                            columns=RunColumns.from_runs(
                                [(0, 1, struct.pack(">i", 7))]))],
              types=[(type_serial, encoded_int)])

        # a reader caches version 1
        first = rpc("r", LockAcquireRequest("h/s", LOCK_READ, "r", 0,
                                            COHERENCE_FULL))
        assert isinstance(first, LockAcquireReply) and first.version == 1
        rpc("r", LockReleaseRequest("h/s", LOCK_READ, "r", None))

        # the same serial is freed (v2) then re-created (v3)
        write(1, [BlockDiff(serial=1, freed=True)])
        write(2, [BlockDiff(serial=1, is_new=True, type_serial=type_serial,
                            name="a",
                            columns=RunColumns.from_runs(
                                [(0, 1, struct.pack(">i", 9))]))])

        built_before = server.stats.updates_built
        cached_before = server.stats.updates_served_from_cache
        reply = rpc("r", LockAcquireRequest("h/s", LOCK_READ, "r", 1,
                                            COHERENCE_FULL))
        assert isinstance(reply, LockAcquireReply) and reply.granted
        # the composed chain was rejected; the rebuild served instead
        assert server.stats.updates_built == built_before + 1
        assert server.stats.updates_served_from_cache == cached_before
        update = reply.diff
        assert (update.from_version, update.to_version) == (1, 3)
        by_shape = {(bd.freed, bd.is_new): bd for bd in update.block_diffs}
        assert (True, False) in by_shape  # the tombstone reaches the reader
        recreated = by_shape[(False, True)]
        assert recreated.serial == 1
        assert recreated.columns.data == struct.pack(">i", 9)
