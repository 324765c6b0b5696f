"""Unit tests for client diff application edge cases."""

import pytest

from repro.arch import X86_32
from repro.client.apply import ApplyStats, apply_update
from repro.errors import TypeDescriptorError, WireFormatError
from repro.memory import AccessorContext, AddressSpace, Heap, SegmentHeap, make_accessor
from repro.types import DOUBLE, INT, ArrayDescriptor, TypeRegistry
from repro.wire import BlockDiff, RunColumns, SegmentDiff, TranslationContext


def make_env():
    memory = AddressSpace()
    heap = SegmentHeap("h/s", Heap(memory), X86_32)
    registry = TypeRegistry()
    tctx = TranslationContext(memory, X86_32)
    context = AccessorContext(memory, X86_32)
    return memory, heap, registry, tctx, context


def wire_ints(*values):
    import struct

    return struct.pack(f">{len(values)}i", *values)


def creation_diff(registry, serial, count, values, version=1):
    descriptor = ArrayDescriptor(INT, count)
    type_serial = registry.register(descriptor)
    return SegmentDiff("h/s", 0, version, [
        BlockDiff(serial=serial, is_new=True, type_serial=type_serial,
                  columns=RunColumns.from_runs([(0, count, wire_ints(*values))]),
                  version=version)],
        new_types=[(type_serial, registry.encoded(type_serial))])


class TestStructuralApplication:
    def test_creation_materializes_block(self):
        memory, heap, registry, tctx, context = make_env()
        source = TypeRegistry()
        diff = creation_diff(source, 1, 4, [1, 2, 3, 4])
        apply_update(tctx, heap, registry, diff, first_cache=True)
        block = heap.block_by_serial(1)
        acc = make_accessor(context, block.descriptor, block.address)
        assert list(acc.read_values()) == [1, 2, 3, 4]
        assert registry.contains_serial(1)

    def test_recreation_overwrites_in_place(self):
        memory, heap, registry, tctx, context = make_env()
        source = TypeRegistry()
        apply_update(tctx, heap, registry,
                     creation_diff(source, 1, 4, [1, 2, 3, 4]), first_cache=True)
        address_before = heap.block_by_serial(1).address
        apply_update(tctx, heap, registry,
                     creation_diff(source, 1, 4, [9, 9, 9, 9], version=2),
                     first_cache=False)
        block = heap.block_by_serial(1)
        assert block.address == address_before
        acc = make_accessor(context, block.descriptor, block.address)
        assert list(acc.read_values()) == [9, 9, 9, 9]

    def test_recreation_with_wrong_type_rejected(self):
        memory, heap, registry, tctx, context = make_env()
        source = TypeRegistry()
        apply_update(tctx, heap, registry,
                     creation_diff(source, 1, 4, [1, 2, 3, 4]), first_cache=True)
        bad_type = registry.register(ArrayDescriptor(DOUBLE, 4))
        diff = SegmentDiff("h/s", 1, 2, [
            BlockDiff(serial=1, is_new=True, type_serial=bad_type,
                      version=2)])
        with pytest.raises(TypeDescriptorError):
            apply_update(tctx, heap, registry, diff, first_cache=False)

    def test_tombstone_for_unknown_serial_tolerated(self):
        memory, heap, registry, tctx, context = make_env()
        diff = SegmentDiff("h/s", 1, 2, [BlockDiff(serial=77, freed=True)])
        apply_update(tctx, heap, registry, diff, first_cache=False)
        assert len(heap.blk_number_tree) == 0

    def test_tombstone_then_recreation_in_one_diff(self):
        memory, heap, registry, tctx, context = make_env()
        source = TypeRegistry()
        apply_update(tctx, heap, registry,
                     creation_diff(source, 1, 2, [5, 6]), first_cache=True)
        type_serial = registry.serial_of(ArrayDescriptor(INT, 2))
        diff = SegmentDiff("h/s", 1, 3, [
            BlockDiff(serial=1, freed=True, version=2),
            BlockDiff(serial=1, is_new=True, type_serial=type_serial,
                      columns=RunColumns.from_runs(
                          [(0, 2, wire_ints(7, 8))]), version=3)])
        apply_update(tctx, heap, registry, diff, first_cache=False)
        block = heap.block_by_serial(1)
        acc = make_accessor(context, block.descriptor, block.address)
        assert list(acc.read_values()) == [7, 8]

    def test_trailing_bytes_in_run_rejected(self):
        memory, heap, registry, tctx, context = make_env()
        source = TypeRegistry()
        apply_update(tctx, heap, registry,
                     creation_diff(source, 1, 4, [0, 0, 0, 0]), first_cache=True)
        diff = SegmentDiff("h/s", 1, 2, [
            BlockDiff(serial=1, columns=RunColumns.from_runs(
                [(0, 1, wire_ints(1, 2))]))])
        with pytest.raises(WireFormatError):
            apply_update(tctx, heap, registry, diff, first_cache=False)


class TestLocalityAndPrediction:
    def build_many(self, tctx, heap, registry, count=50, shuffle=True):
        source = TypeRegistry()
        descriptor = ArrayDescriptor(INT, 2)
        type_serial = source.register(descriptor)
        order = list(range(1, count + 1))
        if shuffle:
            order = order[::2] + order[1::2]  # interleave version groups
            versions = {serial: 1 + (serial % 2) for serial in order}
        else:
            versions = {serial: 1 for serial in order}
        blocks = [
            BlockDiff(serial=serial, is_new=True, type_serial=type_serial,
                      columns=RunColumns.from_runs([(0, 2, wire_ints(serial, serial))]),
                      version=versions[serial])
            for serial in order
        ]
        return SegmentDiff("h/s", 0, 2, blocks,
                           new_types=[(type_serial, source.encoded(type_serial))])

    def test_locality_layout_groups_by_version(self):
        memory, heap, registry, tctx, context = make_env()
        diff = self.build_many(tctx, heap, registry)
        apply_update(tctx, heap, registry, diff, first_cache=True,
                     locality_layout=True)
        addresses = {block.serial: block.address for block in heap.blocks()}
        odd = sorted(addr for serial, addr in addresses.items() if serial % 2)
        even = sorted(addr for serial, addr in addresses.items() if not serial % 2)
        # version groups occupy disjoint address ranges
        assert even[-1] < odd[0] or odd[-1] < even[0]

    def test_arrival_order_without_locality(self):
        memory, heap, registry, tctx, context = make_env()
        diff = self.build_many(tctx, heap, registry)
        apply_update(tctx, heap, registry, diff, first_cache=True,
                     locality_layout=False)
        ordered = [block.serial for _, block in
                   sorted((block.address, block) for block in heap.blocks())]
        arrival = [bd.serial for bd in diff.block_diffs]
        assert ordered == arrival

    def test_prediction_hits_on_sequential_updates(self):
        memory, heap, registry, tctx, context = make_env()
        diff = self.build_many(tctx, heap, registry, shuffle=False)
        apply_update(tctx, heap, registry, diff, first_cache=True)
        update = SegmentDiff("h/s", 2, 3, [
            BlockDiff(serial=serial, columns=RunColumns.from_runs(
                [(0, 1, wire_ints(0))]),
                      version=3)
            for serial in range(1, 51)])
        stats = ApplyStats()
        apply_update(tctx, heap, registry, update, first_cache=False,
                     stats=stats, use_prediction=True)
        total = stats.prediction_hits + stats.prediction_misses
        assert stats.prediction_hits / total > 0.9

    def test_prediction_disabled_counts_nothing(self):
        memory, heap, registry, tctx, context = make_env()
        diff = self.build_many(tctx, heap, registry, shuffle=False)
        apply_update(tctx, heap, registry, diff, first_cache=True)
        stats = ApplyStats()
        apply_update(tctx, heap, registry,
                     SegmentDiff("h/s", 2, 2, []), first_cache=False,
                     stats=stats, use_prediction=False)
        assert stats.prediction_hits == stats.prediction_misses == 0
