"""Tests for wire-format diff structures and their binary codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.types import INT, encode_descriptor
from repro.wire import (
    BlockDiff,
    RunColumns,
    SegmentDiff,
    decode_segment_diff,
    encode_segment_diff,
)


def sample_diff():
    return SegmentDiff(
        segment="host/data",
        from_version=3,
        to_version=7,
        block_diffs=[
            BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(0, 2, b"\x00\x01\x00\x02")]),
                      version=7),
            BlockDiff(serial=2, is_new=True, type_serial=4, name="head",
                      columns=RunColumns.from_runs([(0, 1, b"\xff")]), version=6),
            BlockDiff(serial=9, freed=True, version=7),
        ],
        new_types=[(4, encode_descriptor(INT))],
    )


class TestRoundtrip:
    def test_full_structure(self):
        diff = sample_diff()
        decoded = decode_segment_diff(encode_segment_diff(diff))
        assert decoded == diff

    def test_empty_diff(self):
        diff = SegmentDiff("s", 1, 1)
        assert decode_segment_diff(encode_segment_diff(diff)) == diff

    def test_multiple_runs_preserved_in_order(self):
        diff = SegmentDiff("s", 0, 1, [
            BlockDiff(serial=5, columns=RunColumns.from_runs([
                (0, 1, b"a"), (10, 2, b"bc"), (99, 1, b"d"),
            ])),
        ])
        decoded = decode_segment_diff(encode_segment_diff(diff))
        runs = decoded.block_diffs[0].columns
        assert [(start, count, bytes(data)) for start, count, data in runs] == [
            (0, 1, b"a"), (10, 2, b"bc"), (99, 1, b"d")]


class TestAccounting:
    def test_payload_bytes(self):
        diff = sample_diff()
        assert diff.payload_bytes() == 5

    def test_covered_units(self):
        assert sample_diff().block_diffs[0].covered_units() == 2

    def test_is_full(self):
        assert SegmentDiff("s", 0, 4).is_full
        assert not SegmentDiff("s", 3, 4).is_full

    def test_diff_smaller_than_full_for_small_change(self):
        """A one-run diff of a big block beats shipping the whole block."""
        full = SegmentDiff("s", 0, 1, [
            BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(0, 1000, b"\x00" * 4000)]))])
        small = SegmentDiff("s", 1, 2, [
            BlockDiff(serial=1, columns=RunColumns.from_runs([(17, 1, b"\x00" * 4)]))])
        assert len(encode_segment_diff(small)) < len(encode_segment_diff(full)) / 50


class TestErrors:
    def test_truncated(self):
        data = encode_segment_diff(sample_diff())
        with pytest.raises(WireFormatError):
            decode_segment_diff(data[:-2])

    def test_trailing_garbage(self):
        data = encode_segment_diff(sample_diff())
        with pytest.raises(WireFormatError):
            decode_segment_diff(data + b"\x00")


block_diffs = st.builds(
    BlockDiff,
    serial=st.integers(1, 2**31),
    columns=st.lists(st.tuples(
        st.integers(0, 2**20),
        st.integers(1, 2**20),
        st.binary(max_size=40)), max_size=5).map(RunColumns.from_runs),
    is_new=st.booleans(),
    freed=st.booleans(),
    type_serial=st.integers(0, 100),
    name=st.one_of(st.none(), st.text(max_size=10)),
    version=st.integers(0, 2**31),
)


@settings(max_examples=150, deadline=None)
@given(st.builds(
    SegmentDiff,
    segment=st.text(min_size=1, max_size=20),
    from_version=st.integers(0, 2**31),
    to_version=st.integers(0, 2**31),
    block_diffs=st.lists(block_diffs, max_size=5),
    new_types=st.lists(
        st.tuples(st.integers(1, 100), st.just(encode_descriptor(INT))),
        max_size=3),
))
def test_roundtrip_property(diff):
    # normalize: encoder drops type_serial for non-new blocks
    for block_diff in diff.block_diffs:
        if not block_diff.is_new:
            block_diff.type_serial = 0
    assert decode_segment_diff(encode_segment_diff(diff)) == diff
