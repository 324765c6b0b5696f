"""The pre-columnar diff data plane, kept as a reference codec.

Before the columnar codec in :mod:`repro.wire.diff`, a block diff body
interleaved an 8-byte run header (``>u4`` prim_start, prim_count) with a
length-prefixed payload blob per run.  Encoding built the body in a
scratch :class:`~repro.wire.codec.Writer` and re-copied it into the
output; decoding copied every run's payload out on its own.  The body is
the same size as the columnar one (12 bytes of framing per run either
way), so every size figure is codec-independent; only the cost differs.

``benchmarks/bench_datasize.py`` prices the columnar plane against this
one, the way ``repro.rpc.xdr`` serves as the XDR baseline.  The two
formats are not interoperable on the wire: :func:`installed` swaps the
block-diff codec of the whole process for the duration of a ``with``
block, so both ends of an in-process world use it.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Optional

import repro.wire.diff as wire_diff
from repro.errors import WireFormatError
from repro.wire.codec import Reader, Writer, count_bytes_copied
from repro.wire.diff import (_FLAG_FREED, _FLAG_NAMED, _FLAG_NEW, BlockDiff,
                             RunColumns)

_RUN_HEADER = struct.Struct(">II")


def encode_block_diff(diff: BlockDiff, writer: Optional[Writer] = None) -> bytes:
    """Encode one block diff with the interleaved per-run body."""
    out = writer if writer is not None else Writer()
    out.u32(diff.serial)
    out.u8((_FLAG_NEW if diff.is_new else 0)
           | (_FLAG_FREED if diff.freed else 0)
           | (_FLAG_NAMED if diff.name is not None else 0))
    out.u32(diff.version)
    if diff.is_new:
        out.u32(diff.type_serial)
    if diff.name is not None:
        out.text(diff.name)
    body = Writer()
    copied = 0
    for prim_start, prim_count, data in diff.columns:
        body.raw(_RUN_HEADER.pack(prim_start, prim_count))
        body.blob(data)
        copied += len(data)
    encoded_body = body.getvalue()
    out.u32(len(encoded_body))
    out.u32(diff.columns.run_count)
    out.raw(encoded_body)
    count_bytes_copied(copied + 2 * len(encoded_body))
    return out.getvalue() if writer is None else b""


def decode_block_diff(reader: Reader) -> BlockDiff:
    """Decode one block diff, copying every run's payload out."""
    serial = reader.u32()
    flags = reader.u8()
    version = reader.u32()
    type_serial = reader.u32() if flags & _FLAG_NEW else 0
    name = reader.text() if flags & _FLAG_NAMED else None
    body_length = reader.u32()
    run_count = reader.u32()
    body_end = reader.offset + body_length
    runs = []
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
        runs.append((prim_start, prim_count, data))
    if reader.offset != body_end:
        raise WireFormatError("block diff body length mismatch")
    count_bytes_copied(copied)
    return BlockDiff(serial=serial, columns=RunColumns.from_runs(runs),
                     is_new=bool(flags & _FLAG_NEW),
                     freed=bool(flags & _FLAG_FREED),
                     type_serial=type_serial, name=name, version=version)


@contextmanager
def installed():
    """Use this codec for every block diff encoded or decoded inside the
    ``with`` block; the columnar codec is restored on the way out."""
    saved = wire_diff.encode_block_diff, wire_diff.decode_block_diff
    wire_diff.encode_block_diff = encode_block_diff
    wire_diff.decode_block_diff = decode_block_diff
    try:
        yield
    finally:
        wire_diff.encode_block_diff, wire_diff.decode_block_diff = saved
