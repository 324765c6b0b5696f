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
produces hundreds of thousands of small runs, so the codec keeps runs in
*columnar* form end to end: a block diff body is ``run_count`` 12-byte
header rows (``>u4`` prim_start, prim_count, data_len) followed by one
concatenated data section.  Encoding is two buffer splices (one numpy
header array, one payload buffer) and decoding is one ``np.frombuffer``
plus two ``memoryview`` slices — no per-run Python loop and no per-run
copy.  Decoded :class:`BlockDiff` objects expose ``.columns``
(:class:`RunColumns`) for vectorized apply/stamp/re-encode; ``.runs``
materializes :class:`DiffRun` objects lazily for code that wants the
object view.  ``DiffRun.data`` may be ``bytes`` or a ``memoryview``
aliasing the receive buffer; materialization happens only at mutation or
retention boundaries (see :func:`decode_segment_diff`).

The pre-columnar interleaved format (8-byte run header + per-run blob,
nested scratch-Writer encode, per-run copying decode) is kept behind
:func:`set_legacy_dataplane` as the measured baseline for
``benchmarks/bench_datasize.py``.  Total body size is identical in both
formats (12 bytes of framing per run either way), so size accounting and
the paper's diff-length story are unaffected by the toggle.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import WireFormatError
from repro.obs.metrics import get_registry
from repro.wire.codec import (Reader as _Reader, Writer as _Writer,
                              count_bytes_copied)

_U32 = struct.Struct(">I")
_RUN_HEADER = struct.Struct(">II")        # legacy interleaved header
_RUN_HEADER3 = struct.Struct(">III")      # columnar header row
_RUN_HEADER_BYTES = 12
_U32_MAX = 0xFFFFFFFF

# Baseline toggle: when enabled, encode/decode use the pre-columnar
# interleaved format and copying decode so benchmarks can measure the
# old data plane.  The two formats are not interoperable on the wire;
# flip the mode per process (or per benchmark phase), not per peer.
_LEGACY_DATAPLANE = os.environ.get(
    "REPRO_WIRE_LEGACY_DATAPLANE", "") not in ("", "0")


def set_legacy_dataplane(enabled: bool) -> bool:
    """Select the legacy (pre-columnar) diff codec; returns the old mode."""
    global _LEGACY_DATAPLANE
    previous = _LEGACY_DATAPLANE
    _LEGACY_DATAPLANE = bool(enabled)
    return previous


def legacy_dataplane_enabled() -> bool:
    return _LEGACY_DATAPLANE


RunData = Union[bytes, memoryview]


@dataclass
class DiffRun:
    """One RLE change section: start and length in primitive data units."""

    prim_start: int
    prim_count: int
    data: RunData  # the updated units, already in wire format


class RunColumns:
    """Columnar storage for a block diff's runs.

    ``starts``/``counts``/``lens`` are parallel ``int64`` arrays, ``data``
    is the single concatenated payload buffer (``bytes`` or a
    ``memoryview`` over the receive buffer), and ``bounds`` is the
    exclusive prefix sum of ``lens`` (``bounds[i]:bounds[i+1]`` slices run
    *i*'s payload out of ``data``).
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


class _LazyRuns(_SequenceABC):
    """List-like view of :class:`RunColumns`, materialized on first access.

    The server's release path only touches the columns (vectorized apply,
    stamp and re-encode), so the per-run ``DiffRun`` objects — hundreds of
    thousands for an MB-scale scattered write — are never built there.
    Compares equal to any sequence with the same run values, which keeps
    dataclass equality on :class:`BlockDiff` intact.
    """

    __slots__ = ("columns", "_list")

    def __init__(self, columns: RunColumns):
        self.columns = columns
        self._list = None

    def _materialize(self) -> List[DiffRun]:
        if self._list is None:
            cols = self.columns
            data = cols.data
            bounds = cols.bounds.tolist()
            self._list = [
                DiffRun(start, count, data[bounds[i]:bounds[i + 1]])
                for i, (start, count) in enumerate(
                    zip(cols.starts.tolist(), cols.counts.tolist()))
            ]
            if isinstance(data, (bytes, bytearray)):
                # slicing bytes copies; slicing a memoryview does not
                count_bytes_copied(cols.data_bytes)
        return self._list

    def __len__(self) -> int:
        if self._list is not None:
            return len(self._list)
        return self.columns.run_count

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other) -> bool:
        if isinstance(other, _LazyRuns):
            other = other._materialize()
        if not isinstance(other, (list, tuple)):
            try:
                other = list(other)
            except TypeError:
                return NotImplemented
        return self._materialize() == list(other)

    def __repr__(self) -> str:
        return repr(self._materialize())


@dataclass
class BlockDiff:
    """All changes to one block.

    ``is_new`` marks blocks created since the receiver's version; they
    carry the type serial and optional name needed to materialize them.
    ``version`` is the segment version in which the block was last
    modified (server -> client direction; informs locality layout).
    A block diff with ``freed`` set tombstones a deallocated block.

    ``columns`` (when present) is the authoritative columnar form of
    ``runs``; code that *replaces* ``runs`` must construct a fresh
    :class:`BlockDiff` (or clear ``columns``) so the two never diverge.
    """

    serial: int
    runs: Sequence[DiffRun] = field(default_factory=list)
    is_new: bool = False
    freed: bool = False
    type_serial: int = 0
    name: Optional[str] = None
    version: int = 0
    columns: Optional[RunColumns] = field(
        default=None, compare=False, repr=False)

    @property
    def data_bytes(self) -> int:
        """Payload bytes (the paper's per-block 'diff length')."""
        if self.columns is not None:
            return self.columns.data_bytes
        return sum(len(run.data) for run in self.runs)

    def covered_units(self) -> int:
        if self.columns is not None:
            return self.columns.covered_units()
        return sum(run.prim_count for run in self.runs)


def join_runs(runs: Sequence[DiffRun]) -> RunColumns:
    """Columnar form of a ``DiffRun`` list (one payload join)."""
    starts = np.fromiter((r.prim_start for r in runs), np.int64, len(runs))
    counts = np.fromiter((r.prim_count for r in runs), np.int64, len(runs))
    lens = np.fromiter((len(r.data) for r in runs), np.int64, len(runs))
    data = b"".join(r.data for r in runs)
    count_bytes_copied(len(data))
    return RunColumns(starts, counts, lens, data)


def columns_of(block_diff: BlockDiff) -> RunColumns:
    """A block diff's runs in columnar form, joined from ``runs`` if needed."""
    if block_diff.columns is not None:
        return block_diff.columns
    return join_runs(block_diff.runs)


def block_diff_from_columns(serial: int, columns: RunColumns, *,
                            is_new: bool = False, freed: bool = False,
                            type_serial: int = 0, name: Optional[str] = None,
                            version: int = 0) -> BlockDiff:
    """Build a BlockDiff whose runs stay columnar until someone asks."""
    return BlockDiff(serial=serial, runs=_LazyRuns(columns), is_new=is_new,
                     freed=freed, type_serial=type_serial, name=name,
                     version=version, columns=columns)


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
            if block_diff.columns is not None:
                block_diff.columns.materialize()
                runs = block_diff.runs
                if isinstance(runs, _LazyRuns):
                    runs._list = None  # re-slice from the owned copy
                continue
            copied = 0
            for run in block_diff.runs:
                if not isinstance(run.data, bytes):
                    run.data = bytes(run.data)
                    copied += len(run.data)
            count_bytes_copied(copied)


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


def _encode_runs_rows(out: _Writer, runs: Sequence[DiffRun]) -> None:
    pack = _RUN_HEADER3.pack
    for run in runs:
        out.raw(pack(run.prim_start, run.prim_count, len(run.data)))
    total = 0
    for run in runs:
        out.raw(run.data)
        total += len(run.data)
    count_bytes_copied(total)


def _encode_runs_legacy(out: _Writer, runs: Sequence[DiffRun]) -> None:
    # the pre-columnar body: interleaved headers/blobs built in a scratch
    # Writer and re-copied into the output (kept verbatim as the
    # bench_datasize baseline)
    body = _Writer()
    copied = 0
    for run in runs:
        body.raw(_RUN_HEADER.pack(run.prim_start, run.prim_count))
        body.blob(run.data)
        copied += len(run.data)
    encoded_body = body.getvalue()
    out.raw(encoded_body)
    count_bytes_copied(copied + 2 * len(encoded_body))


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
    out.u32(len(diff.runs))
    body_start = out.tell()
    if _LEGACY_DATAPLANE:
        _encode_runs_legacy(out, diff.runs)
    elif diff.columns is not None:
        _encode_runs_columnar(out, diff.columns)
    else:
        _encode_runs_rows(out, diff.runs)
    out.patch_u32(body_length_at, out.tell() - body_start)
    return out.getvalue() if writer is None else b""


def _decode_runs_legacy(reader: _Reader, run_count: int,
                        body_end: int) -> List[DiffRun]:
    """The pre-columnar copying decode (bench_datasize baseline)."""
    runs: List[DiffRun] = []
    copied = 0
    for _ in range(run_count):
        try:
            prim_start, prim_count = _RUN_HEADER.unpack_from(
                reader.data, reader.offset)
        except struct.error:
            raise WireFormatError("diff buffer truncated in run header") from None
        reader.offset += _RUN_HEADER.size
        data = reader.blob()
        copied += len(data)
        runs.append(DiffRun(prim_start, prim_count, data))
    if reader.offset != body_end:
        raise WireFormatError("block diff body length mismatch")
    count_bytes_copied(copied)
    return runs


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
        empty = np.empty(0, dtype=np.int64)
        return RunColumns(empty, empty, empty, b"",
                          np.zeros(1, dtype=np.int64))
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
    if _LEGACY_DATAPLANE:
        runs: Sequence[DiffRun] = _decode_runs_legacy(
            reader, run_count, reader.offset + body_length)
        columns = None
    else:
        columns = _decode_runs_columnar(reader, run_count, body_length)
        runs = _LazyRuns(columns)
    return BlockDiff(
        serial=serial,
        runs=runs,
        is_new=bool(flags & _FLAG_NEW),
        freed=bool(flags & _FLAG_FREED),
        type_serial=type_serial,
        name=name,
        version=version,
        columns=columns,
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
        sum(len(bd.runs) for bd in diff.block_diffs))
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
