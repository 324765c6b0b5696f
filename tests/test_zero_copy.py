"""The zero-copy diff data plane: equivalence, lifetime, and accounting.

The columnar wire path (single-buffer backpatched encode, memoryview
decode, ``RunColumns``) must round-trip every diff, reject every
truncation, and never hand out a view whose backing buffer can be
mutated or recycled under it.  The pre-columnar codec it replaced lives
on as a reference codec in ``benchmarks/legacy_dataplane.py``; its
compatibility tests sit beside it in ``benchmarks/bench_datasize.py``.
"""

import random

import numpy as np
import pytest

from repro.errors import WireFormatError
from repro.obs.metrics import get_registry
from repro.types import INT, ArrayDescriptor, encode_descriptor
from repro.wire import RunColumns, decode_segment_diff, encode_segment_diff
from repro.wire.diff import BlockDiff, SegmentDiff


def _random_segment_diff(rng: random.Random) -> SegmentDiff:
    """A structurally valid diff exercising every block-diff shape."""
    block_diffs = []
    for serial in range(1, rng.randint(2, 6)):
        kind = rng.choice(["plain", "named_new", "freed", "empty"])
        runs = []
        if kind != "freed":
            cursor = 0
            for _ in range(rng.randint(0, 8)):
                cursor += rng.randint(0, 20)
                count = rng.randint(1, 16)
                runs.append((cursor, count, rng.randbytes(count * 4)))
                cursor += count
        columns = RunColumns.from_runs(runs)
        if kind == "named_new":
            block_diffs.append(BlockDiff(
                serial=serial, columns=columns, is_new=True, type_serial=7,
                name=f"block-{serial}", version=rng.randint(0, 9)))
        elif kind == "freed":
            block_diffs.append(BlockDiff(serial=serial, freed=True))
        else:
            block_diffs.append(BlockDiff(serial=serial, columns=columns,
                                         version=rng.randint(0, 9)))
    new_types = []
    if rng.random() < 0.5:
        new_types.append((7, encode_descriptor(ArrayDescriptor(INT, 4))))
    return SegmentDiff("host/seg", rng.randint(1, 5), 6, block_diffs,
                       new_types=new_types)


def test_columnar_roundtrip_from_columns():
    """Columns built straight from arrays (the batched collect path)
    encode byte-identically to columns joined from run triples, and
    decode to an equal diff."""
    starts = np.array([0, 10, 40], dtype=np.int64)
    counts = np.array([2, 1, 4], dtype=np.int64)
    lens = counts * 4
    data = bytes(range(28))
    columnar = SegmentDiff("s", 1, 2, [BlockDiff(
        serial=3, columns=RunColumns(starts, counts, lens, data))])
    joined = SegmentDiff("s", 1, 2, [BlockDiff(
        serial=3, columns=RunColumns.from_runs([
            (0, 2, data[0:8]), (10, 1, data[8:12]), (40, 4, data[12:28])]))])
    assert encode_segment_diff(columnar) == encode_segment_diff(joined)
    assert decode_segment_diff(encode_segment_diff(columnar)) == joined


def test_every_truncation_rejected():
    """Cutting the encoded diff anywhere must raise, never mis-decode."""
    diff = _random_segment_diff(random.Random(1234))
    wire = encode_segment_diff(diff)
    for cut in range(len(wire)):
        with pytest.raises(WireFormatError):
            decode_segment_diff(wire[:cut])


def test_decoded_views_alias_immutable_buffer():
    """Runs decoded from bytes are memoryview slices of that buffer
    (zero copies), and retaining them keeps the buffer alive."""
    diff = SegmentDiff("s", 1, 2, [BlockDiff(serial=1, columns=RunColumns.from_runs([
        (0, 4, b"\x01\x02\x03\x04" * 4),
        (20, 1, b"\xaa\xbb\xcc\xdd")]))])
    wire = encode_segment_diff(diff)
    columns = decode_segment_diff(wire).block_diffs[0].columns
    assert isinstance(columns.data, memoryview)
    assert columns.data.obj is wire
    del wire, diff  # the views must pin the encoded buffer
    runs = [bytes(data) for _, _, data in columns]
    assert runs == [b"\x01\x02\x03\x04" * 4, b"\xaa\xbb\xcc\xdd"]


def test_decode_from_mutable_buffer_materializes():
    """Decoding from a mutable buffer (a reused receive buffer) must
    copy the payloads out — later mutation cannot corrupt the diff."""
    diff = SegmentDiff("s", 1, 2, [BlockDiff(serial=1, columns=RunColumns.from_runs([
        (0, 4, b"\x11\x22\x33\x44" * 4)]))])
    buffer = bytearray(encode_segment_diff(diff))
    decoded = decode_segment_diff(buffer)
    buffer[:] = b"\x00" * len(buffer)  # recycle the buffer
    ((_, _, data),) = list(decoded.block_diffs[0].columns)
    assert bytes(data) == b"\x11\x22\x33\x44" * 4


def test_materialize_detaches_and_counts_copies():
    """materialize() converts every view to owned bytes and records the
    copied bytes in wire.bytes_copied."""
    diff = SegmentDiff("s", 1, 2, [BlockDiff(serial=1, columns=RunColumns.from_runs([
        (0, 8, bytes(range(32)))]))])
    decoded = decode_segment_diff(encode_segment_diff(diff))
    counter = get_registry().counter("wire.bytes_copied")
    before = counter.value
    decoded.materialize()
    assert counter.value - before >= 32
    for block_diff in decoded.block_diffs:
        assert isinstance(block_diff.columns.data, bytes)
    assert decoded == diff
