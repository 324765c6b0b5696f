"""Tests for protocol message encoding."""

import pytest

from repro.errors import WireFormatError
from repro.wire.diff import BlockDiff, RunColumns, SegmentDiff
from repro.wire.messages import (
    COHERENCE_DELTA,
    DIR_MIGRATE,
    DIR_PIN,
    LOCK_READ,
    LOCK_WRITE,
    DirectoryLookupReply,
    DirectoryLookupRequest,
    DirectoryUpdateReply,
    DirectoryUpdateRequest,
    ErrorReply,
    FetchReply,
    FetchRequest,
    LockAcquireReply,
    LockAcquireRequest,
    LockReleaseReply,
    LockReleaseRequest,
    MigrateAbortRequest,
    MigrateAck,
    MigrateCommitRequest,
    MigrateInRequest,
    MigrateOutReply,
    MigrateOutRequest,
    NotifyInvalidate,
    OpenSegmentReply,
    OpenSegmentRequest,
    RedirectReply,
    SubscribeReply,
    SubscribeRequest,
    decode_message,
    encode_message,
)

SAMPLES = [
    OpenSegmentRequest("host/seg", create=True, client_id="c1"),
    OpenSegmentReply(existed=False, version=0),
    LockAcquireRequest("host/seg", LOCK_WRITE, "c1", 5,
                       COHERENCE_DELTA, 3.0, 12.5),
    LockAcquireReply(granted=True, version=6, diff=None),
    LockAcquireReply(granted=True, version=6, diff=SegmentDiff(
        "host/seg", 5, 6,
        [BlockDiff(serial=1, columns=RunColumns.from_runs(
            [(0, 1, b"\x2a")]), version=6)])),
    LockAcquireReply(granted=False),
    LockReleaseRequest("host/seg", LOCK_READ, "c1"),
    LockReleaseRequest("host/seg", LOCK_WRITE, "c1",
                       diff=SegmentDiff("host/seg", 6, 0)),
    LockReleaseReply(version=7),
    FetchRequest("host/seg", "c1", 4),
    FetchReply(version=9, diff=None),
    SubscribeRequest("host/seg", "c1", enable=True),
    SubscribeReply(enabled=True),
    NotifyInvalidate("host/seg", 10),
    ErrorReply("segment not found"),
    DirectoryLookupRequest("host/seg", client_id="c1"),
    DirectoryLookupReply(origin="origin-1", generation=7, pinned=True),
    DirectoryUpdateRequest(DIR_PIN, origin="origin-1", segment="host/seg",
                           client_id="admin"),
    DirectoryUpdateRequest(DIR_MIGRATE, origin="origin-0",
                           segment="host/seg", client_id="admin"),
    DirectoryUpdateReply(ok=True, generation=8),
    RedirectReply("host/seg", origin="origin-1", generation=7),
    MigrateOutRequest("host/seg", client_id="!cluster"),
    MigrateOutReply(version=4, payload=b"\x00checkpoint",
                    diffs=[(3, 4, b"\x01diff")]),
    MigrateInRequest("host/seg", payload=b"\x00checkpoint",
                     diffs=[(3, 4, b"\x01diff")], client_id="!cluster"),
    MigrateCommitRequest("host/seg", target="origin-1", generation=8,
                         client_id="!cluster"),
    MigrateAbortRequest("host/seg", client_id="!cluster"),
    MigrateAck(ok=True),
]


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_roundtrip(message):
    assert decode_message(encode_message(message)) == message


def test_unknown_tag_rejected():
    with pytest.raises(WireFormatError):
        decode_message(b"\x63")


def test_trailing_bytes_rejected():
    data = encode_message(LockReleaseReply(version=1))
    with pytest.raises(WireFormatError):
        decode_message(data + b"!")


def test_truncated_rejected():
    data = encode_message(SAMPLES[2])
    with pytest.raises(WireFormatError):
        decode_message(data[:-4])


def test_tags_are_unique():
    types = {type(m) for m in SAMPLES}
    tags = [cls.TAG for cls in types]
    assert len(set(tags)) == len(tags)


def test_message_sizes_are_modest():
    """Control messages should be tens of bytes, not kilobytes."""
    for message in SAMPLES:
        if getattr(message, "diff", None) is None:
            assert len(encode_message(message)) < 120
