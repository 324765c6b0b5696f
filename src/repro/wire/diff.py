"""Wire-format diffs.

The paper's key departure from RPC marshaling is that the wire format can
carry not just data but *diffs*: concise, machine-independent descriptions
of only the data that changed.  A wire-format block diff consists of the
block's serial number, the diff's length in bytes, and a series of
run-length-encoded changes, each giving the starting point and length of
the change in primitive data units followed by the updated data in wire
format (Figure 3 of the paper).

A :class:`SegmentDiff` aggregates block diffs into the unit the protocol
ships: everything that changed in one segment between two versions,
together with newly created blocks (which carry their type serial and
optional symbolic name), freed blocks, and any type descriptors the
receiver has not seen yet.

Data-plane layout.  A 10%-scattered write over an MB-scale segment
produces hundreds of thousands of small runs, so a block diff's runs live
in one form only, *columnar* (:class:`RunColumns`): parallel start/count/
length arrays plus one concatenated payload buffer.  On the wire a block
diff body is ``run_count`` 12-byte header rows (``>u4`` prim_start,
prim_count, data_len) followed by that data section.  Encoding is two
buffer splices (one numpy header array, one payload buffer) and decoding
is one ``np.frombuffer`` plus two ``memoryview`` slices — no per-run
Python loop and no per-run copy.  A decoded payload may be a
``memoryview`` aliasing the receive buffer; materialization happens only
at mutation or retention boundaries (see :func:`decode_segment_diff`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import WireFormatError
from repro.obs.metrics import get_registry
from repro.wire.codec import (Reader as _Reader, Writer as _Writer,
                              count_bytes_copied)

_RUN_HEADER_BYTES = 12  # >u4 prim_start, prim_count, data_len
_U32_MAX = 0xFFFFFFFF

RunData = Union[bytes, memoryview]


class RunColumns:
    """A block diff's runs, the one in-memory form of the paper's RLE body.

    ``starts``/``counts``/``lens`` are parallel ``int64`` arrays (start
    and length in primitive units, payload length in bytes), ``data`` is
    the single concatenated payload buffer (``bytes`` or a ``memoryview``
    over the receive buffer), and ``bounds`` is the exclusive prefix sum
    of ``lens`` (``bounds[i]:bounds[i+1]`` slices run *i*'s payload out of
    ``data``).  Iterating yields ``(prim_start, prim_count, data)``
    triples, with each payload a view of ``data``.
    """

    __slots__ = ("starts", "counts", "lens", "bounds", "data")

    def __init__(self, starts: np.ndarray, counts: np.ndarray,
                 lens: np.ndarray, data: RunData,
                 bounds: Optional[np.ndarray] = None):
        self.starts = starts
        self.counts = counts
        self.lens = lens
        self.data = data
        if bounds is None:
            bounds = np.zeros(len(lens) + 1, dtype=np.int64)
            np.cumsum(lens, out=bounds[1:])
        self.bounds = bounds

    @classmethod
    def from_runs(cls, runs: Iterable[Tuple[int, int, RunData]] = ()
                  ) -> "RunColumns":
        """Columns from ``(prim_start, prim_count, data)`` triples.

        Several payloads are joined into one buffer; a single payload is
        kept as it is.
        """
        runs = list(runs)
        payloads = [run[2] for run in runs]
        lens = [len(payload) for payload in payloads]
        if len(payloads) == 1:
            data = payloads[0]
        else:
            data = b"".join(payloads)
            count_bytes_copied(len(data))
        return cls(np.array([run[0] for run in runs], np.int64),
                   np.array([run[1] for run in runs], np.int64),
                   np.array(lens, np.int64), data,
                   np.array([0, *accumulate(lens)], np.int64))

    @property
    def run_count(self) -> int:
        return int(self.starts.shape[0])

    @property
    def data_bytes(self) -> int:
        return int(self.bounds[-1])

    def covered_units(self) -> int:
        return int(self.counts.sum()) if self.counts.size else 0

    def materialize(self) -> None:
        """Replace a payload view with an owned ``bytes`` copy."""
        if not isinstance(self.data, bytes):
            self.data = bytes(self.data)
            count_bytes_copied(len(self.data))

    def __iter__(self) -> Iterator[Tuple[int, int, memoryview]]:
        view = memoryview(self.data)
        bounds = self.bounds.tolist()
        for index, (start, count) in enumerate(
                zip(self.starts.tolist(), self.counts.tolist())):
            yield start, count, view[bounds[index]:bounds[index + 1]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunColumns):
            return NotImplemented
        return (np.array_equal(self.starts, other.starts)
                and np.array_equal(self.counts, other.counts)
                and np.array_equal(self.lens, other.lens)
                and self.data == other.data)

    def __repr__(self) -> str:
        return f"RunColumns({[(s, c, bytes(d)) for s, c, d in self]!r})"


@dataclass
class BlockDiff:
    """All changes to one block.

    ``is_new`` marks blocks created since the receiver's version; they
    carry the type serial and optional name needed to materialize them.
    ``version`` is the segment version in which the block was last
    modified (server -> client direction; informs locality layout).
    A block diff with ``freed`` set tombstones a deallocated block.
    """

    serial: int
    columns: RunColumns = field(default_factory=RunColumns.from_runs)
    is_new: bool = False
    freed: bool = False
    type_serial: int = 0
    name: Optional[str] = None
    version: int = 0

    @property
    def data_bytes(self) -> int:
        """Payload bytes (the paper's per-block 'diff length')."""
        return self.columns.data_bytes

    def covered_units(self) -> int:
        return self.columns.covered_units()


@dataclass
class SegmentDiff:
    """Every change in one segment between two versions."""

    segment: str
    from_version: int  # 0 means "receiver has nothing" (full transfer)
    to_version: int
    block_diffs: List[BlockDiff] = field(default_factory=list)
    new_types: List[Tuple[int, bytes]] = field(default_factory=list)

    @property
    def is_full(self) -> bool:
        return self.from_version == 0

    def payload_bytes(self) -> int:
        """Total data payload across all block diffs."""
        return sum(diff.data_bytes for diff in self.block_diffs)

    def materialize(self) -> None:
        """Copy every payload view into owned ``bytes``.

        The retention boundary: call this before keeping a decoded diff
        alive past the lifetime of the buffer it was decoded from (e.g.
        a recycled receive buffer).  Diffs decoded from immutable
        ``bytes`` never need this — the views pin the buffer.
        """
        for block_diff in self.block_diffs:
            block_diff.columns.materialize()


# ---------------------------------------------------------------------------
# binary codec
# ---------------------------------------------------------------------------

_FLAG_NEW = 0x01
_FLAG_FREED = 0x02
_FLAG_NAMED = 0x04


def _encode_runs_columnar(out: _Writer, cols: RunColumns) -> None:
    n = cols.run_count
    if n:
        if (int(cols.starts.max()) > _U32_MAX
                or int(cols.counts.max()) > _U32_MAX
                or int(cols.lens.max()) > _U32_MAX):
            raise WireFormatError("diff run field exceeds u32 range")
        headers = np.empty((n, 3), dtype=">u4")
        headers[:, 0] = cols.starts
        headers[:, 1] = cols.counts
        headers[:, 2] = cols.lens
        out.raw(headers.data.cast("B"))
    out.raw(cols.data)
    count_bytes_copied(cols.data_bytes)


def encode_block_diff(diff: BlockDiff, writer: Optional[_Writer] = None) -> bytes:
    out = writer if writer is not None else _Writer()
    out.u32(diff.serial)
    flags = ((_FLAG_NEW if diff.is_new else 0)
             | (_FLAG_FREED if diff.freed else 0)
             | (_FLAG_NAMED if diff.name is not None else 0))
    out.u8(flags)
    out.u32(diff.version)
    if diff.is_new:
        out.u32(diff.type_serial)
    if diff.name is not None:
        out.text(diff.name)
    # the paper's layout: total diff length in bytes, then RLE sections —
    # the length word is reserved up front and backpatched once the body
    # has been encoded in place (no scratch buffer, no re-copy)
    body_length_at = out.reserve_u32()
    out.u32(diff.columns.run_count)
    body_start = out.tell()
    _encode_runs_columnar(out, diff.columns)
    out.patch_u32(body_length_at, out.tell() - body_start)
    return out.getvalue() if writer is None else b""


def _decode_runs_columnar(reader: _Reader, run_count: int,
                          body_length: int) -> RunColumns:
    """Decode the columnar body: header rows, then one data section.

    Run data sizes are not individually delimited in the paper's format;
    the per-run byte length in the header row lets the server store and
    splice runs without type knowledge.  (It is still counted in payload
    bytes.)  One ``frombuffer`` and two views — no per-run work.
    """
    header_bytes = run_count * _RUN_HEADER_BYTES
    if body_length < header_bytes:
        raise WireFormatError("block diff body shorter than run headers")
    if run_count == 0:
        if body_length:
            raise WireFormatError("block diff body length mismatch")
        return RunColumns.from_runs()
    headers = np.frombuffer(reader.raw_view(header_bytes),
                            dtype=">u4").reshape(run_count, 3).astype(np.int64)
    data = reader.raw_view(body_length - header_bytes)
    lens = headers[:, 2]
    bounds = np.zeros(run_count + 1, dtype=np.int64)
    np.cumsum(lens, out=bounds[1:])
    if int(bounds[-1]) != len(data):
        raise WireFormatError("block diff body length mismatch")
    return RunColumns(headers[:, 0], headers[:, 1], lens, data, bounds)


def decode_block_diff(reader: _Reader) -> BlockDiff:
    serial = reader.u32()
    flags = reader.u8()
    version = reader.u32()
    type_serial = reader.u32() if flags & _FLAG_NEW else 0
    name = reader.text() if flags & _FLAG_NAMED else None
    body_length = reader.u32()
    run_count = reader.u32()
    return BlockDiff(
        serial=serial,
        columns=_decode_runs_columnar(reader, run_count, body_length),
        is_new=bool(flags & _FLAG_NEW),
        freed=bool(flags & _FLAG_FREED),
        type_serial=type_serial,
        name=name,
        version=version,
    )


def encode_segment_diff_into(out: _Writer, diff: SegmentDiff) -> int:
    """Encode a segment diff into an existing Writer; returns bytes written.

    This is the zero-copy path for embedding a diff in a protocol
    message: the diff is encoded straight into the message buffer instead
    of into scratch bytes that get re-copied (see
    ``messages._encode_optional_diff``).
    """
    start = out.tell()
    out.text(diff.segment)
    out.u32(diff.from_version)
    out.u32(diff.to_version)
    out.u32(len(diff.new_types))
    for serial, encoded in diff.new_types:
        out.u32(serial)
        out.blob(encoded)
    out.u32(len(diff.block_diffs))
    for block_diff in diff.block_diffs:
        encode_block_diff(block_diff, out)
    written = out.tell() - start
    metrics = get_registry()
    metrics.counter("wire.diff.encoded").inc()
    metrics.counter("wire.diff.encoded_bytes").inc(written)
    metrics.counter("wire.diff.runs_encoded").inc(
        sum(bd.columns.run_count for bd in diff.block_diffs))
    return written


def encode_segment_diff(diff: SegmentDiff) -> bytes:
    out = _Writer()
    encode_segment_diff_into(out, diff)
    return out.getvalue()


def _buffer_is_writable(data) -> bool:
    if isinstance(data, bytearray):
        return True
    if isinstance(data, memoryview):
        return not data.readonly
    return False


def _decode_segment_diff_body(reader: _Reader, end: int) -> SegmentDiff:
    segment = reader.text()
    from_version = reader.u32()
    to_version = reader.u32()
    new_types = []
    for _ in range(reader.u32()):
        serial = reader.u32()
        new_types.append((serial, reader.blob()))
    block_diffs = [decode_block_diff(reader) for _ in range(reader.u32())]
    if reader.offset != end:
        raise WireFormatError("trailing bytes after segment diff")
    return SegmentDiff(segment, from_version, to_version, block_diffs,
                       new_types)


def decode_segment_diff_from(reader: _Reader, length: int) -> SegmentDiff:
    """Decode a diff in place from ``length`` bytes at the reader's cursor.

    Run payloads come back as views over ``reader.data``; if that buffer
    is mutable (a recyclable receive buffer), the diff is materialized
    before returning so retained views can never alias recycled memory.
    """
    metrics = get_registry()
    metrics.counter("wire.diff.decoded").inc()
    metrics.counter("wire.diff.decoded_bytes").inc(length)
    diff = _decode_segment_diff_body(reader, reader.offset + length)
    if _buffer_is_writable(reader.data):
        diff.materialize()
    return diff


def decode_segment_diff(data) -> SegmentDiff:
    return decode_segment_diff_from(_Reader(data), len(data))
