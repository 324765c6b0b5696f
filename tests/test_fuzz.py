"""Robustness fuzzing: hostile bytes must raise library errors, not crash.

A server on the open Internet (segment URLs are URLs, after all) will see
malformed frames; every decoder must fail with a typed error, and the
dispatch loop must answer garbage with an ErrorReply rather than dying.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterWeaveError
from repro.server import InterWeaveServer
from repro.types import INT, ArrayDescriptor, decode_descriptor, encode_descriptor
from repro.wire import decode_segment_diff, encode_segment_diff
from repro.wire.diff import BlockDiff, RunColumns, SegmentDiff
from repro.wire.messages import (
    LockAcquireRequest,
    OpenSegmentRequest,
    decode_message,
    encode_message,
)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_decode_message_never_crashes(data):
    try:
        decode_message(data)
    except InterWeaveError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_decode_segment_diff_never_crashes(data):
    try:
        decode_segment_diff(data)
    except InterWeaveError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_decode_descriptor_never_crashes(data):
    try:
        decode_descriptor(data)
    except InterWeaveError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_decode_checkpoint_never_crashes(data):
    from repro.server import decode_checkpoint

    try:
        decode_checkpoint(data)
    except InterWeaveError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=120))
def test_server_dispatch_answers_garbage(data):
    server = InterWeaveServer("fuzz")
    reply = server.dispatch("attacker", data)
    assert isinstance(reply, bytes)
    decoded = decode_message(reply)  # the reply itself is always well-formed
    assert decoded is not None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_truncated_valid_messages_rejected(data):
    message = encode_message(LockAcquireRequest("s/x", 1, "c", 3, 0, 0.0, 0.0))
    cut = data.draw(st.integers(1, len(message) - 1))
    with pytest.raises(InterWeaveError):
        decode_message(message[:cut])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bitflipped_diff_rejected_or_consistent(data):
    """A flipped byte either fails to decode or decodes to a structurally
    valid diff (never a crash or a malformed object)."""
    diff = SegmentDiff("s", 1, 2, [
        BlockDiff(serial=1, columns=RunColumns.from_runs(
            [(0, 4, b"\x01\x02\x03\x04" * 4)])),
    ], new_types=[(1, encode_descriptor(ArrayDescriptor(INT, 4)))])
    encoded = bytearray(encode_segment_diff(diff))
    position = data.draw(st.integers(0, len(encoded) - 1))
    bit = data.draw(st.integers(0, 7))
    encoded[position] ^= 1 << bit
    try:
        decoded = decode_segment_diff(bytes(encoded))
    except InterWeaveError:
        return
    for block_diff in decoded.block_diffs:
        columns = block_diff.columns
        # run payloads are bytes or zero-copy views over the buffer
        assert isinstance(columns.data, (bytes, memoryview))
        assert (columns.counts >= 0).all()
        assert columns.data_bytes == len(columns.data)


class TestHostileProtocolSequences:
    """Valid messages in invalid orders must produce errors, not corruption."""

    def make_server(self):
        server = InterWeaveServer("host")
        return server

    def send(self, server, client, message):
        return decode_message(server.dispatch(client, encode_message(message)))

    def test_release_without_acquire(self):
        from repro.wire.messages import ErrorReply, LockReleaseRequest

        server = self.make_server()
        self.send(server, "c", OpenSegmentRequest("host/s", True, "c"))
        reply = self.send(server, "c", LockReleaseRequest("host/s", 1, "c", None))
        assert isinstance(reply, ErrorReply)

    def test_diff_from_nonwriter_rejected(self):
        from repro.wire.messages import ErrorReply, LockReleaseRequest

        server = self.make_server()
        self.send(server, "a", OpenSegmentRequest("host/s", True, "a"))
        self.send(server, "a", LockAcquireRequest("host/s", 1, "a", 0, 0, 0, 0))
        evil = SegmentDiff("host/s", 0, 0, [])
        reply = self.send(server, "b", LockReleaseRequest("host/s", 1, "b", evil))
        assert isinstance(reply, ErrorReply)

    def test_stale_writer_diff_rejected(self):
        """A diff against the wrong base version cannot corrupt the segment."""
        from repro.wire.messages import ErrorReply, LockReleaseRequest

        server = self.make_server()
        self.send(server, "a", OpenSegmentRequest("host/s", True, "a"))
        self.send(server, "a", LockAcquireRequest("host/s", 1, "a", 0, 0, 0, 0))
        bad = SegmentDiff("host/s", 99, 0, [
            BlockDiff(serial=1, columns=RunColumns.from_runs([(0, 1, b"\x00" * 4)]))])
        reply = self.send(server, "a", LockReleaseRequest("host/s", 1, "a", bad))
        assert isinstance(reply, ErrorReply)
        assert server.segments["host/s"].state.version == 0

    def test_unknown_segment_operations(self):
        from repro.wire.messages import ErrorReply, FetchRequest

        server = self.make_server()
        reply = self.send(server, "c", FetchRequest("host/ghost", "c", 0))
        assert isinstance(reply, ErrorReply)

    def test_bad_coherence_kind_rejected(self):
        from repro.wire.messages import ErrorReply

        server = self.make_server()
        self.send(server, "c", OpenSegmentRequest("host/s", True, "c"))
        reply = self.send(server, "c",
                          LockAcquireRequest("host/s", 0, "c", 0, 99, 0, 0))
        assert isinstance(reply, ErrorReply)
