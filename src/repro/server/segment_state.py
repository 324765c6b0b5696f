"""Server-side segment state.

An InterWeave server maintains an up-to-date copy of each of its segments
— *in wire format*, to avoid an extra level of translation (the server is
oblivious to client architectures).  This reproduction realizes "wire
format storage" by giving the server its own heap laid out under a
synthetic :data:`SERVER_ARCH`: big-endian, byte-packed (alignment 1), so a
block's fixed-size bytes in server memory are byte-for-byte its canonical
wire encoding, and translation on the server degenerates to a copy.  MIPs
and character strings are of variable size and are stored separately from
their blocks: a pointer slot in server memory holds an index into the
segment's out-of-line MIP store (plus one; zero is NULL), which is exactly
why pointer- and string-heavy data is more expensive for the server — the
effect the paper reports.

To track changes at a finer grain than whole blocks, the server divides
blocks into *subblocks* of :data:`SUBBLOCK_UNITS` primitive data units and
keeps a version number per subblock.  A client needing an update receives
the full content of every subblock newer than its cached version; clients
interpret those simply as runs of modified data and never learn about
subblocks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch import Architecture
from repro.errors import ServerError
from repro.memory import AddressSpace, Heap, SegmentHeap
from repro.types import TypeRegistry, flat_layout
from repro.types.layout import merge_run_arrays
from repro.wire import BlockDiff, SegmentDiff, TranslationContext, collect_range
from repro.wire.translate import apply_runs, collect_runs

#: The synthetic architecture server images are laid out in: big-endian and
#: byte-packed, so fixed-size data is stored directly in wire format.
SERVER_ARCH = Architecture(name="wire", endian="big", word_size=4,
                           pointer_size=4, max_align=1)

#: Primitive data units per subblock (the paper's current implementation
#: uses 16, which is what produces the flat region of Figure 5).
SUBBLOCK_UNITS = 16


class ServerBlock:
    """Server metadata for one block: heap info + subblock versions."""

    __slots__ = ("info", "subblock_versions", "version", "created_version")

    def __init__(self, info, prim_count: int, version: int):
        self.info = info
        count = -(-prim_count // SUBBLOCK_UNITS)
        self.subblock_versions = np.zeros(count, dtype=np.uint32)
        self.version = version
        self.created_version = version

    @property
    def serial(self) -> int:
        return self.info.serial

    @property
    def prim_count(self) -> int:
        return self.info.descriptor.prim_count


class ServerSegment:
    """One segment's authoritative copy plus all server bookkeeping.

    Not internally synchronized.  The server serializes access through the
    per-segment reader-writer lock: every mutator (``apply_client_diff``,
    ``install_types``, ``compact``) runs under the segment *write* lock,
    and the read-side entry points (``build_update``, ``build_skeleton``,
    ``read_block_wire``, the size properties) may run concurrently with
    each other under the *read* lock.  The split is sound because MIP
    interning (``_mip_to_slot``, the only mutation beyond the obvious
    ones) happens exclusively while *applying* diffs — collection only
    resolves existing slots through ``_slot_to_mip``, which is read-only.
    """

    def __init__(self, name: str, heap: Optional[Heap] = None):
        self.name = name
        self.version = 0
        self.heap_root = heap or Heap(AddressSpace())
        self.heap = SegmentHeap(name, self.heap_root, SERVER_ARCH)
        self.registry = TypeRegistry()
        self.blocks: Dict[int, ServerBlock] = {}
        from repro.server.version_list import VersionList

        self.version_list = VersionList()
        #: out-of-line storage for MIPs (pointer slots index into this)
        self.mip_store: List[str] = []
        self._mip_intern: Dict[str, int] = {}
        #: (version, serial) tombstones so stale clients learn about frees
        self.freed_log: List[Tuple[int, int]] = []
        #: (version, type serial) so updates carry types the client lacks
        self.type_log: List[Tuple[int, int]] = []
        #: segment version -> creation time (temporal coherence)
        self.version_times: Dict[int, float] = {0: 0.0}
        #: clients older than this version get a full transfer (their
        #: tombstone/type history has been compacted away)
        self.compact_floor = 0
        self._tctx = TranslationContext(
            self.heap_root.address_space, SERVER_ARCH,
            pointer_to_mip=self._slot_to_mip,
            mip_to_pointer=self._mip_to_slot)

    # -- MIP out-of-line store ------------------------------------------------

    def _slot_to_mip(self, slot: int) -> str:
        try:
            return self.mip_store[slot - 1]
        except IndexError:
            raise ServerError(f"segment {self.name!r}: bad MIP slot {slot}") from None

    def _mip_to_slot(self, mip: str) -> int:
        slot = self._mip_intern.get(mip)
        if slot is None:
            self.mip_store.append(mip)
            slot = len(self.mip_store)
            self._mip_intern[mip] = slot
        return slot

    # -- size accounting ----------------------------------------------------------

    @property
    def total_prim_units(self) -> int:
        return sum(block.prim_count for block in self.blocks.values())

    @property
    def total_data_bytes(self) -> int:
        return self.heap.total_data_bytes

    # -- receiving a client's write diff --------------------------------------------

    def install_types(self, new_types: List[Tuple[int, bytes]],
                      at_version: Optional[int] = None) -> None:
        for serial, encoded in new_types:
            fresh = not self.registry.contains_serial(serial)
            self.registry.register_with_serial(serial, encoded)
            if fresh:
                self.type_log.append((at_version if at_version is not None
                                      else self.version, serial))

    def apply_client_diff(self, diff: SegmentDiff, now: float = 0.0) -> int:
        """Apply a write-release diff; returns the new segment version.

        A diff that fails mid-apply (corrupt payload, unknown serial) must
        not leave the segment unserviceable: the structural rollback below
        removes the version marker and any blocks the failed apply created,
        so the *next* release applies cleanly at the same version number.
        The cheap structural errors are detected up front, before any
        mutation, which keeps the common corruption cases side-effect free;
        only data-level failures deep inside a run reach the rollback path.
        """
        if diff.from_version != self.version:
            raise ServerError(
                f"segment {self.name!r}: diff against version {diff.from_version}, "
                f"server at {self.version} (writer lock protocol violated)")
        self._validate_client_diff(diff)
        new_version = self.version + 1
        self.install_types(diff.new_types, at_version=new_version)
        self.version_list.append_marker(new_version)
        created = []
        try:
            for block_diff in diff.block_diffs:
                self._apply_block_diff(block_diff, new_version, created)
        except Exception:
            self.version_list.remove_marker(new_version)
            for serial in created:
                block = self.blocks.pop(serial, None)
                if block is not None:
                    self.heap.free(block.info)
                    self.version_list.remove(serial)
            raise
        self.version = new_version
        self.version_times[new_version] = now
        return new_version

    def _validate_client_diff(self, diff: SegmentDiff) -> None:
        """Reject structurally impossible diffs before mutating anything."""
        new_types = {serial for serial, _ in diff.new_types}
        live = set(self.blocks)
        for block_diff in diff.block_diffs:
            serial = block_diff.serial
            if block_diff.freed:
                if serial not in live:
                    raise ServerError(
                        f"segment {self.name!r}: free of unknown block {serial}")
                live.discard(serial)
                continue
            if serial not in live:
                if not block_diff.is_new:
                    raise ServerError(
                        f"segment {self.name!r}: diff for unknown block {serial}")
                if (block_diff.type_serial not in new_types
                        and not self.registry.contains_serial(block_diff.type_serial)):
                    raise ServerError(
                        f"segment {self.name!r}: block {serial} uses unknown "
                        f"type serial {block_diff.type_serial}")
                live.add(serial)

    def _apply_block_diff(self, block_diff: BlockDiff, new_version: int,
                          created: Optional[list] = None) -> None:
        serial = block_diff.serial
        if block_diff.freed:
            block = self.blocks.pop(serial, None)
            if block is None:
                raise ServerError(f"segment {self.name!r}: free of unknown block {serial}")
            self.heap.free(block.info)
            self.version_list.remove(serial)
            self.freed_log.append((new_version, serial))
            return
        block = self.blocks.get(serial)
        if block is None:
            if not block_diff.is_new:
                raise ServerError(
                    f"segment {self.name!r}: diff for unknown block {serial}")
            descriptor = self.registry.lookup(block_diff.type_serial)
            info = self.heap.allocate(descriptor, block_diff.type_serial,
                                      name=block_diff.name, serial=serial,
                                      version=new_version)
            block = ServerBlock(info, descriptor.prim_count, new_version)
            self.blocks[serial] = block
            if created is not None:
                created.append(serial)
        layout = flat_layout(block.info.descriptor, SERVER_ARCH)
        apply_runs(self._tctx, layout, block.info.address, block_diff.columns)
        self._stamp_subblocks(block, block_diff, new_version)
        block.version = new_version
        block.info.version = new_version
        self.version_list.touch(serial, block)

    @staticmethod
    def _stamp_subblocks(block: ServerBlock, block_diff: BlockDiff,
                         new_version: int) -> None:
        """Mark every subblock a diff's runs touch as modified now.

        Only the touched subblocks are indexed (one repeat/arange over the
        runs' subblock spans), so stamping costs follow the runs, not the
        block.
        """
        starts, counts = block_diff.columns.starts, block_diff.columns.counts
        if not starts.size:
            return
        firsts = starts // SUBBLOCK_UNITS
        spans = (starts + counts - 1) // SUBBLOCK_UNITS - firsts + 1
        offsets = np.cumsum(spans) - spans
        touched = np.repeat(firsts - offsets, spans) + np.arange(int(spans.sum()))
        block.subblock_versions[touched] = new_version

    # -- building an update for a client ---------------------------------------------

    def build_update(self, client_version: int) -> Optional[SegmentDiff]:
        """The diff bringing a client from ``client_version`` to current.

        This is the server's *diff collection*: walk the version list from
        the first marker newer than the client, and for each block send the
        full content of every subblock newer than the client's version.

        A client whose version predates the compaction floor receives a
        full transfer (``from_version`` 0): the incremental history it
        would need has been discarded.
        """
        if client_version >= self.version:
            return None
        if 0 < client_version < self.compact_floor:
            client_version = 0
        diff = SegmentDiff(self.name, client_version, self.version)
        if client_version == 0:
            # full transfer: compaction may have pruned the type-log
            # entries recording creation-era types, so ship every
            # registered descriptor rather than the log survivors
            diff.new_types = [(serial, self.registry.encoded(serial))
                              for serial, _ in self.registry.items()]
        else:
            diff.new_types = [(serial, self.registry.encoded(serial))
                              for version, serial in self.type_log
                              if version > client_version]
        for version, serial in self.freed_log:
            if version > client_version:
                diff.block_diffs.append(
                    BlockDiff(serial=serial, freed=True, version=version))
        for block in self.version_list.blocks_after(client_version):
            block_diff = self._collect_block_diff(block, client_version)
            if block_diff is not None:
                diff.block_diffs.append(block_diff)
        return diff

    def _collect_block_diff(self, block: ServerBlock,
                            client_version: int) -> Optional[BlockDiff]:
        is_new = block.created_version > client_version
        layout = flat_layout(block.info.descriptor, SERVER_ARCH)
        if is_new:
            starts = np.array([0], np.int64)
            ends = np.array([block.prim_count], np.int64)
        else:
            stale = np.flatnonzero(block.subblock_versions > client_version)
            if stale.size == 0:
                return None
            starts, ends = merge_run_arrays(stale * SUBBLOCK_UNITS,
                                            (stale + 1) * SUBBLOCK_UNITS)
            ends = np.minimum(ends, block.prim_count)
        return BlockDiff(
            serial=block.serial,
            columns=collect_runs(self._tctx, layout, block.info.address,
                                 starts, ends - starts),
            is_new=is_new,
            type_serial=block.info.type_serial if is_new else 0,
            name=block.info.name if is_new else None,
            version=block.version)

    def compact(self, keep_back: int = 64) -> int:
        """Discard history older than ``version - keep_back``.

        Long-lived segments otherwise accumulate markers, tombstones, type
        log entries, and version timestamps without bound.  After
        compaction, clients older than the floor are served full transfers
        instead of incremental diffs.  Returns the new floor.
        """
        floor = max(0, self.version - keep_back)
        if floor <= self.compact_floor:
            return self.compact_floor
        self.compact_floor = floor
        self.freed_log = [(version, serial) for version, serial in self.freed_log
                          if version > floor]
        self.type_log = [(version, serial) for version, serial in self.type_log
                         if version > floor]
        self.version_times = {version: stamp
                              for version, stamp in self.version_times.items()
                              if version >= floor}
        self.version_list.prune_markers(keep_newest=keep_back)
        return floor

    def build_skeleton(self) -> SegmentDiff:
        """Structure without data: every live block as a typed, empty
        creation record.  Lets a client reserve space for the segment
        (IW_mip_to_ptr) before any lock copies data in."""
        diff = SegmentDiff(self.name, 0, self.version)
        diff.new_types = [(serial, self.registry.encoded(serial))
                          for serial, _ in self.registry.items()]
        for serial in sorted(self.blocks):
            block = self.blocks[serial]
            diff.block_diffs.append(BlockDiff(
                serial=serial, is_new=True, type_serial=block.info.type_serial,
                name=block.info.name, version=block.version))
        return diff

    def read_block_wire(self, serial: int) -> bytes:
        """A block's full wire image (diagnostics / checkpointing)."""
        block = self.blocks.get(serial)
        if block is None:
            raise ServerError(f"segment {self.name!r}: no block {serial}")
        layout = flat_layout(block.info.descriptor, SERVER_ARCH)
        return collect_range(self._tctx, layout, block.info.address, 0, block.prim_count)

    def read_block_values(self, serial: int) -> list:
        """A block's contents decoded to plain Python values (JSON gateway).

        Walks the wire image in primitive-offset order and decodes each
        unit by its layout kind: integers as ints, floats as floats,
        strings as text, pointers as MIP strings (``None`` for NULL).
        The flat value list mirrors the machine-independent primitive
        numbering every diff run is addressed in, so a gateway consumer
        can line values up against the type descriptor.
        """
        import struct as _struct

        from repro.arch import PrimKind, WIRE_SIZES
        from repro.types.layout import iter_units

        block = self.blocks.get(serial)
        if block is None:
            raise ServerError(f"segment {self.name!r}: no block {serial}")
        layout = flat_layout(block.info.descriptor, SERVER_ARCH)
        wire = self.read_block_wire(serial)
        if not layout.has_variable and all(r.repeat == 1 for r in layout.runs):
            # fixed-size repeat-1 layouts (flat arrays, scalar records):
            # the wire image is the runs' units concatenated in primitive
            # order, so each run decodes with one vectorized frombuffer
            # instead of an int.from_bytes per word
            values = []
            offset = 0
            for run in layout.runs:  # sorted by prim_start = wire order
                width = WIRE_SIZES[run.kind]
                nbytes = run.unit_count * width
                chunk = wire[offset:offset + nbytes]
                offset += nbytes
                if run.kind is PrimKind.FLOAT:
                    dtype = ">f4"
                elif run.kind is PrimKind.DOUBLE:
                    dtype = ">f8"
                else:
                    dtype = f">i{width}"  # signed, as int.from_bytes below
                values.extend(np.frombuffer(chunk, dtype).tolist())
            return values
        length_struct = _struct.Struct(">I")
        values: list = []
        offset = 0
        for _prim, run, _i, _j in iter_units(layout, 0, block.prim_count):
            kind = run.kind
            if kind is PrimKind.STRING:
                (size,) = length_struct.unpack_from(wire, offset)
                offset += length_struct.size
                values.append(wire[offset:offset + size].decode("utf-8", "replace"))
                offset += size
            elif kind is PrimKind.POINTER:
                (size,) = length_struct.unpack_from(wire, offset)
                offset += length_struct.size
                text = wire[offset:offset + size]
                offset += size
                values.append(text.decode("utf-8") if size else None)
            elif kind is PrimKind.FLOAT:
                values.append(_struct.unpack_from(">f", wire, offset)[0])
                offset += 4
            elif kind is PrimKind.DOUBLE:
                values.append(_struct.unpack_from(">d", wire, offset)[0])
                offset += 8
            else:
                width = WIRE_SIZES[kind]
                values.append(int.from_bytes(
                    wire[offset:offset + width], "big", signed=True))
                offset += width
        return values
