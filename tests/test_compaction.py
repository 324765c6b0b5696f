"""Tests for server metadata compaction and full-transfer fallback."""

import pytest

from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock
from repro.arch import X86_32
from repro.types import INT, ArrayDescriptor

from tests.test_server_segment import make_segment_with_array, wire_ints
from repro.wire import BlockDiff, RunColumns, SegmentDiff


def advance_versions(state, rounds, start_salt=0):
    for round_number in range(rounds):
        state.apply_client_diff(SegmentDiff(state.name, state.version, 0, [
            BlockDiff(serial=1, columns=RunColumns.from_runs([
                (0, 1, wire_ints(start_salt + round_number))]))]))


class TestCompact:
    def test_logs_trimmed(self):
        state, _ = make_segment_with_array(64)
        # create and free a transient block early on
        type_serial = state.blocks[1].info.type_serial
        state.apply_client_diff(SegmentDiff(state.name, 1, 0, [
            BlockDiff(serial=2, is_new=True, type_serial=type_serial,
                      columns=RunColumns.from_runs([(0, 64, wire_ints(*range(64)))]))]))
        state.apply_client_diff(SegmentDiff(state.name, 2, 0, [
            BlockDiff(serial=2, freed=True)]))
        advance_versions(state, 20)
        assert state.freed_log  # tombstone still present
        floor = state.compact(keep_back=5)
        assert floor == state.version - 5
        assert state.freed_log == []  # tombstone predates the floor
        assert all(version >= floor for version in state.version_times)

    def test_recent_history_kept(self):
        state, _ = make_segment_with_array(64)
        advance_versions(state, 10)
        state.apply_client_diff(SegmentDiff(state.name, state.version, 0, [
            BlockDiff(serial=1, freed=True)]))
        state.compact(keep_back=5)
        assert state.freed_log  # the recent tombstone survives

    def test_compact_is_monotone(self):
        state, _ = make_segment_with_array(64)
        advance_versions(state, 20)
        first = state.compact(keep_back=5)
        second = state.compact(keep_back=19)  # would lower the floor: no-op
        assert second == first

    def test_old_client_gets_full_transfer(self):
        state, _ = make_segment_with_array(64)
        advance_versions(state, 20)
        state.compact(keep_back=5)
        update = state.build_update(2)  # far below the floor
        assert update.is_full
        assert update.block_diffs[0].is_new

    def test_fresh_client_gets_types_after_compaction(self):
        """Regression: compaction pruned the creation-era type_log entry,
        so a version-0 client's full transfer arrived without the
        descriptor its is_new block references — the client then failed
        to apply the update with an unknown type serial."""
        state, type_serial = make_segment_with_array(64)
        advance_versions(state, 20)
        state.compact(keep_back=5)
        for client_version in (0, 2):  # fresh, and remapped-below-floor
            update = state.build_update(client_version)
            assert update.is_full
            shipped = [serial for serial, _ in update.new_types]
            assert type_serial in shipped, (client_version, shipped)

    def test_recent_client_still_gets_incremental(self):
        state, _ = make_segment_with_array(64)
        advance_versions(state, 20)
        state.compact(keep_back=5)
        update = state.build_update(state.version - 2)
        assert not update.is_full


class TestFullTransferReplacesCache:
    def test_stale_client_drops_vanished_blocks(self):
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        server = InterWeaveServer("h", sink=hub, clock=clock)
        server.compact_every = 4  # compact aggressively for the test
        server.compact_keep_back = 2
        hub.register_server("h", server)

        writer = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = writer.open_segment("h/s")
        writer.wl_acquire(seg)
        keeper = writer.malloc(seg, ArrayDescriptor(INT, 8), name="keeper")
        keeper.write_values([1] * 8)
        doomed = writer.malloc(seg, ArrayDescriptor(INT, 8), name="doomed")
        doomed.write_values([2] * 8)
        writer.wl_release(seg)

        reader = InterWeaveClient("r", X86_32, hub.connect, clock=clock)
        reader.options.enable_notifications = False
        seg_r = reader.open_segment("h/s")
        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "doomed")[0] == 2
        reader.rl_release(seg_r)

        # the reader goes away; the writer frees "doomed" and keeps writing
        # until the tombstone is compacted out of history
        writer.wl_acquire(seg)
        writer.free(seg, writer.accessor_for(seg, "doomed"))
        writer.wl_release(seg)
        for step in range(8):
            writer.wl_acquire(seg)
            writer.accessor_for(seg, "keeper")[0] = 10 + step
            writer.wl_release(seg)
        state = server.segments["h/s"].state
        assert state.compact_floor > seg_r.version
        assert not any(serial for _, serial in state.freed_log)

        # the reader returns: full transfer replaces its cache
        reader.rl_acquire(seg_r)
        from repro.errors import BlockError

        with pytest.raises(BlockError):
            seg_r.heap.block_by_name("doomed")
        assert reader.accessor_for(seg_r, "keeper")[0] == 17
        reader.rl_release(seg_r)
        seg_r.heap.check_invariants()


class TestCompactionPersistence:
    def test_floor_survives_checkpoint(self):
        from repro.server import decode_checkpoint, encode_checkpoint

        state, _ = make_segment_with_array(64)
        advance_versions(state, 20)
        state.compact(keep_back=5)
        restored = decode_checkpoint(encode_checkpoint(state))
        assert restored.compact_floor == state.compact_floor
        # a pre-floor client is still served a full transfer after restore
        update = restored.build_update(2)
        assert update.is_full
