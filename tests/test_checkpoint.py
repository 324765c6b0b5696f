"""Tests for segment checkpointing and recovery."""

import os
import struct

import pytest

from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock
from repro.arch import X86_32
from repro.errors import CheckpointError
from repro.server import (
    InterWeaveServer as Server,
    decode_checkpoint,
    encode_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.types import INT, ArrayDescriptor, PointerDescriptor, StringDescriptor, TypeRegistry
from repro.wire import BlockDiff, RunColumns, SegmentDiff

from tests.test_server_segment import make_segment_with_array, wire_ints


class TestRoundtrip:
    def test_simple_segment(self):
        state, _ = make_segment_with_array(64)
        restored = decode_checkpoint(encode_checkpoint(state))
        assert restored.name == state.name
        assert restored.version == state.version
        assert restored.read_block_wire(1) == state.read_block_wire(1)

    def test_restored_segment_serves_updates(self):
        state, _ = make_segment_with_array(64)
        state.apply_client_diff(SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(0, 1, wire_ints(-9))]))]))
        restored = decode_checkpoint(encode_checkpoint(state))
        update = restored.build_update(0)
        assert update.to_version == 2
        assert bytes(update.block_diffs[0].columns.data).startswith(wire_ints(-9))

    def test_restored_segment_accepts_new_diffs(self):
        state, _ = make_segment_with_array(8)
        restored = decode_checkpoint(encode_checkpoint(state))
        restored.apply_client_diff(SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(0, 1, wire_ints(123))]))]))
        assert restored.version == 2
        assert restored.read_block_wire(1)[:4] == wire_ints(123)

    def test_freed_log_and_types_survive(self):
        state, type_serial = make_segment_with_array(8)
        state.apply_client_diff(SegmentDiff("host/data", 1, 0,
                                            [BlockDiff(serial=1, freed=True)]))
        restored = decode_checkpoint(encode_checkpoint(state))
        assert restored.freed_log == [(2, 1)]
        assert restored.registry.contains_serial(type_serial)
        update = restored.build_update(1)
        assert update.block_diffs[0].freed

    def test_pointer_data_survives(self):
        from repro.server.segment_state import ServerSegment

        state = ServerSegment("host/p")
        registry = TypeRegistry()
        descriptor = PointerDescriptor(INT, "int")
        serial = registry.register(descriptor)
        mip = b"host/other#3"
        state.apply_client_diff(SegmentDiff("host/p", 0, 0, [
            BlockDiff(serial=1, is_new=True, type_serial=serial,
                      columns=RunColumns.from_runs(
                          [(0, 1, struct.pack(">I", len(mip)) + mip)]))],
            new_types=[(serial, registry.encoded(serial))]))
        restored = decode_checkpoint(encode_checkpoint(state))
        assert restored.read_block_wire(1) == struct.pack(">I", len(mip)) + mip

    def test_version_times_survive(self):
        state, _ = make_segment_with_array(8)
        state.apply_client_diff(SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(0, 1, wire_ints(1))]))]), now=42.0)
        restored = decode_checkpoint(encode_checkpoint(state))
        assert restored.version_times[2] == 42.0


class TestFiles:
    def test_write_and_read(self, tmp_path):
        state, _ = make_segment_with_array(16)
        path = write_checkpoint(state, str(tmp_path))
        restored = read_checkpoint(path)
        assert restored.read_block_wire(1) == state.read_block_wire(1)

    def test_rewrite_replaces_atomically(self, tmp_path):
        state, _ = make_segment_with_array(16)
        path1 = write_checkpoint(state, str(tmp_path))
        state.apply_client_diff(SegmentDiff("host/data", 1, 0, [
            BlockDiff(serial=1, columns=RunColumns.from_runs([(0, 1, wire_ints(7))]))]))
        path2 = write_checkpoint(state, str(tmp_path))
        assert path1 == path2
        assert read_checkpoint(path2).version == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path / "nope.iwck"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.iwck"
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            read_checkpoint(str(path))

    def test_truncated_checkpoint(self):
        state, _ = make_segment_with_array(16)
        data = encode_checkpoint(state)
        with pytest.raises(CheckpointError):
            decode_checkpoint(data[:-3])


class TestServerIntegration:
    def test_periodic_checkpoint_and_recovery(self, tmp_path):
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        server = InterWeaveServer("host", sink=hub, clock=clock,
                                  checkpoint_dir=str(tmp_path),
                                  checkpoint_every=2)
        hub.register_server("host", server)
        client = InterWeaveClient("c", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("host/ck")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 32), name="a")
        array.write_values(list(range(32)))
        client.wl_release(seg)
        client.wl_acquire(seg)
        array[0] = -1
        client.wl_release(seg)  # version 2: checkpoint fires

        # "crash" the server; bring up a replacement from the checkpoint
        hub2 = InProcHub(clock=clock)
        server2 = InterWeaveServer("host", sink=hub2, clock=clock)
        server2.add_segment(read_checkpoint(str(tmp_path / "host_ck.iwck")))
        hub2.register_server("host", server2)
        reader = InterWeaveClient("r", X86_32, hub2.connect, clock=clock)
        seg_r = reader.open_segment("host/ck", create=False)
        reader.rl_acquire(seg_r)
        values = list(reader.accessor_for(seg_r, "a").read_values())
        reader.rl_release(seg_r)
        assert values == [-1] + list(range(1, 32))

    def test_manual_checkpoint_requires_directory(self):
        server = Server("host")
        from repro.errors import ServerError

        with pytest.raises(ServerError):
            server.checkpoint_segment("host/x")


class TestCrashSafety:
    """Regression tests for the checkpoint path's crash-safety bugs."""

    def test_truncated_subblock_versions_raises_checkpoint_error(self):
        """A subblock_versions blob whose length is not a multiple of 4
        used to escape as a raw ValueError from np.frombuffer; it must
        surface as CheckpointError like every other corruption."""
        from repro.wire.codec import Reader

        state, _ = make_segment_with_array(16)
        data = encode_checkpoint(state)
        # walk the framing to the first block's subblock_versions blob
        reader = Reader(data)
        reader.raw(4)
        reader.u32()
        reader.text()
        reader.u32()
        reader.u32()
        for _ in range(reader.u32()):   # types
            reader.u32()
            reader.blob()
        for _ in range(reader.u32()):   # freed log
            reader.u32()
            reader.u32()
        for _ in range(reader.u32()):   # type log
            reader.u32()
            reader.u32()
        for _ in range(reader.u32()):   # version times
            reader.u32()
            reader.f64()
        assert reader.u32() >= 1        # block count
        reader.u32()                    # serial
        if reader.boolean():
            reader.text()
        reader.u32()                    # type serial
        reader.u32()                    # version
        reader.u32()                    # created version
        blob_offset = reader.offset
        blob = reader.blob()
        corrupted = (data[:blob_offset]
                     + struct.pack(">I", len(blob) - 1) + blob[:-1]
                     + data[blob_offset + 4 + len(blob):])
        with pytest.raises(CheckpointError):
            decode_checkpoint(corrupted)

    def test_write_checkpoint_fsyncs_file_and_directory(self, tmp_path,
                                                        monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or
                            real_fsync(fd))
        state, _ = make_segment_with_array(16)
        write_checkpoint(state, str(tmp_path))
        # one fsync for the temp file's data, one for the directory entry
        assert len(synced) >= 2

    def test_checkpoint_failure_does_not_fail_committed_release(
            self, tmp_path, monkeypatch):
        """A release whose piggybacked checkpoint cannot reach disk has
        still committed; the client must see success and the failure is
        only counted in server.checkpoint_errors."""
        import repro.server.checkpoint as checkpoint_module
        from repro.obs.metrics import MetricsRegistry

        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        server = InterWeaveServer("host", sink=hub, clock=clock,
                                  checkpoint_dir=str(tmp_path),
                                  checkpoint_every=1,
                                  metrics=MetricsRegistry())
        hub.register_server("host", server)
        client = InterWeaveClient("c", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("host/ck")

        def explode(name, data, directory):
            raise CheckpointError("disk full")

        monkeypatch.setattr(checkpoint_module, "write_checkpoint_data",
                            explode)
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values(list(range(8)))
        client.wl_release(seg)  # must not raise despite the failed checkpoint
        assert server.segments["host/ck"].state.version == 1
        assert server._m_checkpoint_errors.value == 1
        # the server keeps serving normally afterwards
        client.wl_acquire(seg)
        array[0] = 99
        client.wl_release(seg)
        assert server._m_checkpoint_errors.value == 2
