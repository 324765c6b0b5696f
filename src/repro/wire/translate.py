"""Translation between local memory format and machine-independent wire format.

This is the client's "diff collection" / "diff application" engine from
Section 3.1 of the paper: given a block's flattened layout and a range of
primitive units, it converts the local-format bytes (native byte order,
native alignment) to canonical wire format and back.

Wire format of a run of primitive units, in primitive-offset order:

- fixed-size primitives: big-endian IEEE/two's-complement bytes, packed
  with no padding (char 1, short 2, int 4, hyper 8, float 4, double 8);
- strings: a 4-byte big-endian length followed by the content bytes
  (the capacity is part of the type, not the wire data);
- pointers: a 4-byte length followed by the MIP text (swizzled from the
  local machine address by the caller-provided hook), empty for NULL.

Three execution strategies, chosen per layout:

1. **dense** — all runs are repeat-1 and fixed-size (flat arrays, records
   of scalars): one vectorized byteswap-copy per run intersection;
2. **strided** — a uniform layout of repeated instances (array of
   records), all fixed-size: full instances are translated with strided
   numpy gathers/scatters, partial head/tail instances per-unit;
3. **per-unit** — anything containing strings or pointers, or irregular
   geometry: a Python loop over units (inherently slower — exactly the
   workloads the paper's Figure 4 shows as expensive even in C).
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional

import numpy as np

from repro.arch import WIRE_SIZES, Architecture, PrimKind
from repro.errors import WireFormatError
from repro.memory.mmu import AddressSpace
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.types import FlatLayout, iter_units
from repro.wire.codec import count_bytes_copied
from repro.wire.diff import RunColumns, join_runs

#: Length-header codec for variable-size units (strings and MIPs).
_LEN = struct.Struct(">I")


class TranslationContext:
    """Memory + architecture + pointer swizzling hooks.

    ``pointer_to_mip(address) -> str`` is consulted when collecting a
    pointer unit (local -> wire); ``mip_to_pointer(text) -> int`` when
    applying one (wire -> local).  They default to hooks that reject any
    non-NULL pointer, which is correct for pointer-free data.
    """

    __slots__ = ("memory", "arch", "pointer_to_mip", "mip_to_pointer",
                 "_m_swizzled", "_m_unswizzled")

    def __init__(self, memory: AddressSpace, arch: Architecture,
                 pointer_to_mip: Optional[Callable[[int], str]] = None,
                 mip_to_pointer: Optional[Callable[[str], int]] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.memory = memory
        self.arch = arch
        self.pointer_to_mip = pointer_to_mip or _reject_pointer
        self.mip_to_pointer = mip_to_pointer or _reject_mip
        metrics = metrics or get_registry()
        self._m_swizzled = metrics.counter(
            "wire.swizzle.pointers_to_mips", "pointers swizzled at collect")
        self._m_unswizzled = metrics.counter(
            "wire.swizzle.mips_to_pointers", "MIPs unswizzled at apply")


def _reject_pointer(address: int) -> str:
    raise WireFormatError(
        f"pointer value {address:#x} encountered but no swizzle hook installed")


def _reject_mip(text: str) -> int:
    raise WireFormatError(f"MIP {text!r} encountered but no unswizzle hook installed")


def _is_dense_fixed(layout: FlatLayout) -> bool:
    return (not layout.has_variable
            and all(run.repeat == 1 for run in layout.runs))


def _byteswapped(view: np.ndarray, unit_size: int) -> np.ndarray:
    """Reverse the byte order of every ``unit_size``-byte unit in ``view``.

    ``view`` has shape (..., count*unit_size); the result is a contiguous
    array of the same shape.
    """
    if unit_size == 1:
        return view
    shape = view.shape[:-1] + (view.shape[-1] // unit_size, unit_size)
    return np.ascontiguousarray(view.reshape(shape)[..., ::-1]).reshape(view.shape)


# ---------------------------------------------------------------------------
# collection: local format -> wire format
# ---------------------------------------------------------------------------

def collect_range(ctx: TranslationContext, layout: FlatLayout, base: int,
                  prim_start: int, prim_count: int) -> bytes:
    """Translate units [prim_start, prim_start+prim_count) to wire bytes."""
    if prim_count <= 0:
        return b""
    prim_end = prim_start + prim_count
    if prim_end > layout.prim_count:
        raise WireFormatError(
            f"prim range [{prim_start}, {prim_end}) exceeds block ({layout.prim_count} units)")

    if _is_dense_fixed(layout):
        return _collect_dense(ctx, layout, base, prim_start, prim_end)
    if layout.uniform and not layout.has_variable:
        return _collect_strided(ctx, layout, base, prim_start, prim_end)
    return _collect_per_unit(ctx, layout, base, prim_start, prim_end)


def _collect_dense(ctx, layout, base, prim_start, prim_end) -> bytes:
    little = ctx.arch.endian == "little"
    parts: List[bytes] = []
    for run in layout.runs:
        lo = max(prim_start, run.prim_start)
        hi = min(prim_end, run.prim_start + run.unit_count)
        if lo >= hi:
            continue
        local = run.local_start + (lo - run.prim_start) * run.unit_size
        raw = ctx.memory.load(base + local, (hi - lo) * run.unit_size)
        if little and run.unit_size > 1:
            parts.append(_byteswapped(np.frombuffer(raw, np.uint8), run.unit_size).tobytes())
        else:
            parts.append(raw)
    return b"".join(parts)


def _collect_strided(ctx, layout, base, prim_start, prim_end) -> bytes:
    inst_prims = layout.instance_prims
    first = prim_start // inst_prims
    full_lo = first + (1 if prim_start % inst_prims else 0)
    full_hi = prim_end // inst_prims
    parts: List[bytes] = []
    # partial head instance
    if prim_start % inst_prims:
        head_end = min(prim_end, (first + 1) * inst_prims)
        parts.append(_collect_per_unit(ctx, layout, base, prim_start, head_end))
        if head_end == prim_end:
            return parts[0]
    # full middle instances, vectorized
    if full_lo < full_hi:
        count = full_hi - full_lo
        inst_size = layout.instance_size
        wire_stride = layout.instance_wire_size
        raw = ctx.memory.load(base + full_lo * inst_size, count * inst_size)
        local = np.frombuffer(raw, np.uint8).reshape(count, inst_size)
        wire = np.empty((count, wire_stride), np.uint8)
        little = ctx.arch.endian == "little"
        for index, run in enumerate(layout.runs):
            width = run.unit_count * run.unit_size
            src = local[:, run.local_start:run.local_start + width]
            if little and run.unit_size > 1:
                src = _byteswapped(src, run.unit_size)
            woff = layout.run_instance_wire_offset(index)
            wire[:, woff:woff + width] = src
        parts.append(wire.tobytes())
    # partial tail instance
    tail_start = max(prim_start, full_hi * inst_prims)
    if tail_start < prim_end and prim_end % inst_prims:
        parts.append(_collect_per_unit(ctx, layout, base, tail_start, prim_end))
    return b"".join(parts)


def _collect_per_unit(ctx, layout, base, prim_start, prim_end) -> bytes:
    little = ctx.arch.endian == "little"
    memory = ctx.memory
    parts: List[bytes] = []
    for _, run, i, j in iter_units(layout, prim_start, prim_end):
        address = base + run.unit_local_offset(i, j)
        kind = run.kind
        if kind is PrimKind.STRING:
            raw = memory.load(address, run.capacity)
            nul = raw.find(b"\x00")
            content = raw if nul < 0 else raw[:nul]
            parts.append(_LEN.pack(len(content)))
            parts.append(content)
        elif kind is PrimKind.POINTER:
            pointer = ctx.arch.decode_prim(PrimKind.POINTER,
                                           memory.load(address, run.unit_size))
            if pointer == 0:
                text = b""
            else:
                text = ctx.pointer_to_mip(pointer).encode("utf-8")
                ctx._m_swizzled.inc()
            parts.append(_LEN.pack(len(text)))
            parts.append(text)
        else:
            raw = memory.load(address, run.unit_size)
            parts.append(raw[::-1] if little and run.unit_size > 1 else raw)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# application: wire format -> local format
# ---------------------------------------------------------------------------

def apply_range(ctx: TranslationContext, layout: FlatLayout, base: int,
                prim_start: int, prim_count: int, data: bytes, offset: int = 0) -> int:
    """Apply wire bytes to units [prim_start, prim_start+prim_count).

    Returns the offset just past the consumed bytes, so callers can apply
    several runs from one buffer.
    """
    if prim_count <= 0:
        return offset
    prim_end = prim_start + prim_count
    if prim_end > layout.prim_count:
        raise WireFormatError(
            f"prim range [{prim_start}, {prim_end}) exceeds block ({layout.prim_count} units)")

    if _is_dense_fixed(layout):
        return _apply_dense(ctx, layout, base, prim_start, prim_end, data, offset)
    if layout.uniform and not layout.has_variable:
        return _apply_strided(ctx, layout, base, prim_start, prim_end, data, offset)
    return _apply_per_unit(ctx, layout, base, prim_start, prim_end, data, offset)


def _apply_dense(ctx, layout, base, prim_start, prim_end, data, offset) -> int:
    little = ctx.arch.endian == "little"
    for run in layout.runs:
        lo = max(prim_start, run.prim_start)
        hi = min(prim_end, run.prim_start + run.unit_count)
        if lo >= hi:
            continue
        width = (hi - lo) * run.unit_size
        chunk = data[offset:offset + width]
        if len(chunk) != width:
            raise WireFormatError("wire diff truncated")
        offset += width
        if little and run.unit_size > 1:
            chunk = _byteswapped(np.frombuffer(chunk, np.uint8), run.unit_size).tobytes()
        local = run.local_start + (lo - run.prim_start) * run.unit_size
        ctx.memory.store(base + local, chunk)
    return offset


def _apply_strided(ctx, layout, base, prim_start, prim_end, data, offset) -> int:
    inst_prims = layout.instance_prims
    first = prim_start // inst_prims
    full_lo = first + (1 if prim_start % inst_prims else 0)
    full_hi = prim_end // inst_prims
    if prim_start % inst_prims:
        head_end = min(prim_end, (first + 1) * inst_prims)
        offset = _apply_per_unit(ctx, layout, base, prim_start, head_end, data, offset)
        if head_end == prim_end:
            return offset
    if full_lo < full_hi:
        count = full_hi - full_lo
        inst_size = layout.instance_size
        wire_stride = layout.instance_wire_size
        width = count * wire_stride
        chunk = data[offset:offset + width]
        if len(chunk) != width:
            raise WireFormatError("wire diff truncated")
        offset += width
        wire = np.frombuffer(chunk, np.uint8).reshape(count, wire_stride)
        span = base + full_lo * inst_size
        local = np.frombuffer(bytearray(ctx.memory.load(span, count * inst_size)),
                              np.uint8).reshape(count, inst_size)
        little = ctx.arch.endian == "little"
        for index, run in enumerate(layout.runs):
            run_width = run.unit_count * run.unit_size
            woff = layout.run_instance_wire_offset(index)
            src = wire[:, woff:woff + run_width]
            if little and run.unit_size > 1:
                src = _byteswapped(src, run.unit_size)
            local[:, run.local_start:run.local_start + run_width] = src
        ctx.memory.store(span, local.tobytes())
    tail_start = max(prim_start, full_hi * inst_prims)
    if tail_start < prim_end and prim_end % inst_prims:
        offset = _apply_per_unit(ctx, layout, base, tail_start, prim_end, data, offset)
    return offset


def _apply_per_unit(ctx, layout, base, prim_start, prim_end, data, offset) -> int:
    if not isinstance(data, (bytes, bytearray)):
        # string/pointer handling concatenates and decodes, which needs
        # real bytes — materialize a zero-copy view at this boundary
        data = bytes(data)
        count_bytes_copied(len(data))
    little = ctx.arch.endian == "little"
    memory = ctx.memory
    for _, run, i, j in iter_units(layout, prim_start, prim_end):
        address = base + run.unit_local_offset(i, j)
        kind = run.kind
        if kind is PrimKind.STRING:
            (length,) = _LEN.unpack_from(data, offset)
            offset += _LEN.size
            content = data[offset:offset + length]
            if len(content) != length:
                raise WireFormatError("wire diff truncated in string")
            offset += length
            if length > run.capacity - 1:
                raise WireFormatError(
                    f"wire string of {length} bytes exceeds capacity {run.capacity}")
            memory.store(address, content + b"\x00" * (run.capacity - length))
        elif kind is PrimKind.POINTER:
            (length,) = _LEN.unpack_from(data, offset)
            offset += _LEN.size
            text = data[offset:offset + length]
            if len(text) != length:
                raise WireFormatError("wire diff truncated in MIP")
            offset += length
            if length == 0:
                pointer = 0
            else:
                pointer = ctx.mip_to_pointer(text.decode("utf-8"))
                ctx._m_unswizzled.inc()
            memory.store(address, ctx.arch.encode_prim(PrimKind.POINTER, pointer))
        else:
            width = run.unit_size
            chunk = data[offset:offset + width]
            if len(chunk) != width:
                raise WireFormatError("wire diff truncated")
            offset += width
            memory.store(address, chunk[::-1] if little and width > 1 else chunk)
    return offset


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def wire_size_of_range(layout: FlatLayout, prim_start: int, prim_count: int) -> Optional[int]:
    """The exact wire size of a unit range, or None if it contains
    variable-size units (whose size depends on the data)."""
    if layout.has_variable:
        return None
    total = 0
    prim_end = prim_start + prim_count
    for run in layout.runs:
        size = WIRE_SIZES[run.kind]
        if run.repeat == 1:
            lo = max(prim_start, run.prim_start)
            hi = min(prim_end, run.prim_start + run.unit_count)
            if lo < hi:
                total += (hi - lo) * size
        else:
            for i in range(run.repeat):
                base = run.prim_start + i * run.prim_stride
                lo = max(prim_start, base)
                hi = min(prim_end, base + run.unit_count)
                if lo < hi:
                    total += (hi - lo) * size
    return total


def collect_block(ctx: TranslationContext, layout: FlatLayout, base: int) -> bytes:
    """Translate a whole block to wire format (no-diff mode's unit of work)."""
    return collect_range(ctx, layout, base, 0, layout.prim_count)


def apply_block(ctx: TranslationContext, layout: FlatLayout, base: int,
                data: bytes, offset: int = 0) -> int:
    """Apply a whole block's wire image to local memory."""
    return apply_range(ctx, layout, base, 0, layout.prim_count, data, offset)


# ---------------------------------------------------------------------------
# batched run translation
# ---------------------------------------------------------------------------
#
# A fine-grained diff can carry tens of thousands of small runs (Figure 5's
# ratio-4 case: every 4th word changed, gaps too wide to splice).  Paying a
# Python call per run would swamp the real translation cost, so for the
# common layout — one dense fixed-size run, i.e. flat arrays — whole run
# *lists* are translated with single numpy gathers/scatters.

def _single_dense_run(layout: FlatLayout):
    if layout.has_variable or len(layout.runs) != 1:
        return None
    run = layout.runs[0]
    return run if run.repeat == 1 else None


def _unit_indices(run, starts: np.ndarray, counts: np.ndarray):
    """Index of every unit of every run, counted from the run's first unit.

    Returns ``(units, bounds)`` where ``bounds`` is the exclusive prefix
    sum of ``counts``.  The arrays hold one entry per *unit*, not per
    byte, and no entry for the block's unchanged units.
    """
    bounds = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    units = (np.repeat(starts - run.prim_start - bounds[:-1], counts)
             + np.arange(bounds[-1]))
    return units, bounds


def collect_runs(ctx: TranslationContext, layout: FlatLayout, base: int,
                 starts, counts) -> List[bytes]:
    """Translate unit runs one by one; returns one wire buffer per run.

    The per-run path, for layouts :func:`collect_runs_columns` does not
    batch (records, strings, pointers) and for diffs of a handful of runs,
    where contiguous per-run slices beat building index arrays.
    """
    return [collect_range(ctx, layout, base, int(start), int(count))
            for start, count in zip(np.asarray(starts).tolist(),
                                    np.asarray(counts).tolist())]


def collect_runs_columns(ctx: TranslationContext, layout: FlatLayout,
                         base: int, starts, counts) -> Optional[RunColumns]:
    """Translate many unit runs at once into one columnar payload.

    The units are gathered straight out of memory by unit index
    (:meth:`AddressSpace.gather`), so the cost follows the runs, not the
    block.  Returns a :class:`RunColumns` whose ``data`` is the single
    gathered wire buffer, or None when the layout has no batched path /
    the run count is too small to be worth it — callers fall back to
    :func:`collect_runs`.
    """
    run = _single_dense_run(layout)
    if run is None:
        return None
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.size <= 4:
        return None
    units, bounds = _unit_indices(run, starts, counts)
    data = ctx.memory.gather(base + run.local_start, run.unit_size, units)
    if ctx.arch.endian == "little" and run.unit_size > 1:
        data = _byteswapped(data, run.unit_size)
    return RunColumns(starts, counts, counts * run.unit_size, data.tobytes(),
                      bounds * run.unit_size)


def apply_runs(ctx: TranslationContext, layout: FlatLayout, base: int,
               runs, columns: Optional[RunColumns] = None) -> bool:
    """Apply many (prim_start, prim_count, data) runs in one scatter.

    Returns False when the layout has no batched path or there are too
    few runs to be worth it (caller falls back to per-run
    :func:`apply_range`).  Runs must be in-bounds and their data exactly
    sized — the same validation apply_range performs.

    When ``columns`` is given (a decoded diff's :class:`RunColumns`),
    the scatter reads straight from the columnar payload buffer — which
    may be a memoryview over the receive buffer — with no join and no
    per-run attribute walk.  Only the units the runs name are written
    (:meth:`AddressSpace.scatter`); the rest of the block is untouched.
    """
    run = _single_dense_run(layout)
    if run is None:
        return False
    if columns is None:
        if len(runs) <= 4:
            return False
        columns = join_runs(runs)
    elif columns.run_count <= 4:
        return False  # few runs: per-run apply_range is cheaper
    starts = columns.starts
    counts = columns.counts
    if int(starts.min()) < 0 or int((starts + counts).max()) > layout.prim_count:
        raise WireFormatError("diff run exceeds block bounds")
    data = np.frombuffer(columns.data, np.uint8)
    expected = int(counts.sum()) * run.unit_size
    if len(data) != expected:
        raise WireFormatError(
            f"diff runs carry {len(data)} bytes, expected {expected}")
    if ctx.arch.endian == "little" and run.unit_size > 1:
        data = _byteswapped(data, run.unit_size)
    units, _ = _unit_indices(run, starts, counts)
    ctx.memory.scatter(base + run.local_start, run.unit_size, units, data)
    return True
