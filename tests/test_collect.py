"""Unit tests for client diff collection: word diffing, mapping, batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import SPARC_V9, X86_32
from repro.client.collect import (
    SPLICE_MAX_GAP_WORDS,
    changed_byte_arrays,
    map_ranges_to_blocks,
    word_diff_arrays,
)
from repro.errors import WireFormatError
from repro.memory import AccessorContext, AddressSpace, Heap, SegmentHeap, make_accessor
from repro.types import (DOUBLE, INT, SHORT, ArrayDescriptor, Field,
                         PointerDescriptor, RecordDescriptor, StringDescriptor,
                         flat_layout)
from repro.types.layout import merge_run_arrays
from repro.wire import (BlockDiff, RunColumns, SegmentDiff, TranslationContext,
                        decode_segment_diff, encode_segment_diff)
from repro.wire.translate import apply_runs, collect_range, collect_runs

from tests._support import fill_random


def make_env(arch=X86_32):
    memory = AddressSpace()
    heap = Heap(memory)
    seg = SegmentHeap("s", heap, arch)
    return memory, seg, AccessorContext(memory, arch)


def protect_and_twin(memory, subsegment):
    """Install the twin-on-fault handler and protect the subsegment."""

    def handler(space, page_number):
        index = subsegment.page_index(page_number * space.page_size)
        if index not in subsegment.pagemap:
            subsegment.pagemap[index] = space.snapshot_page(page_number)
        space.unprotect_page(page_number)
        return True

    memory.fault_handler = handler
    memory.protect_range(subsegment.base, subsegment.size)


class TestWordDiff:
    def setup_env(self, words=4096):
        memory, seg, actx = make_env()
        block = seg.allocate(ArrayDescriptor(INT, words), 1)
        acc = make_accessor(actx, block.descriptor, block.address)
        acc.write_values([0] * words)
        sub = block.subsegment
        sub.pagemap.clear()
        protect_and_twin(memory, sub)
        return memory, seg, acc, block, sub

    def test_no_changes_no_runs(self):
        memory, seg, acc, block, sub = self.setup_env()
        starts, ends = word_diff_arrays(memory, sub, 4)
        assert starts.size == 0

    def test_single_word_change(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc[100] = 7
        starts, ends = word_diff_arrays(memory, sub, 4)
        offset_words = (block.address - sub.base) // 4
        assert (starts.tolist(), ends.tolist()) == (
            [offset_words + 100], [offset_words + 101])

    def test_contiguous_changes_merge(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc.write_values([1, 2, 3], start=10)
        starts, ends = word_diff_arrays(memory, sub, 4)
        assert (ends - starts).tolist() == [3]

    def test_untouched_pages_not_compared(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc[0] = 1  # touches only the first page
        assert len(sub.pagemap) == 1
        starts, _ = word_diff_arrays(memory, sub, 4)
        assert starts.size == 1

    def test_write_of_same_value_yields_no_run(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc[5] = 0  # store happens (fault + twin) but content is unchanged
        assert len(sub.pagemap) == 1
        starts, _ = word_diff_arrays(memory, sub, 4)
        assert starts.size == 0

    def test_splice_gap_within_limit(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc[10] = 1
        acc[13] = 1  # gap of 2 words: spliced
        starts, ends = word_diff_arrays(memory, sub, 4,
                                        max_gap=SPLICE_MAX_GAP_WORDS)
        assert (ends - starts).tolist() == [4]

    def test_splice_gap_beyond_limit(self):
        memory, seg, acc, block, sub = self.setup_env()
        acc[10] = 1
        acc[14] = 1  # gap of 3 words: separate runs
        starts, _ = word_diff_arrays(memory, sub, 4,
                                     max_gap=SPLICE_MAX_GAP_WORDS)
        assert starts.size == 2

    def test_cross_page_run_merges(self):
        memory, seg, acc, block, sub = self.setup_env(words=4096)
        page_words = 4096 // 4
        offset_words = (block.address - sub.base) // 4
        boundary = page_words - offset_words  # first array index on page 2
        acc.write_values([9, 9], start=boundary - 1)
        starts, ends = changed_byte_arrays(memory, sub, 4)
        assert (ends - starts).tolist() == [8]


def _per_page_word_diff(memory, subsegment, word_size, max_gap):
    """Reference word diff: each twinned page compared and spliced on its
    own, then runs meeting across page edges merged."""
    page_words = subsegment.page_size // word_size
    dtype = np.uint32 if word_size == 4 else np.uint64
    all_starts, all_ends = [], []
    for index in sorted(subsegment.pagemap):
        current = memory.page(subsegment.first_page_number() + index).as_words(
            word_size)
        twin = np.frombuffer(subsegment.pagemap[index], dtype=dtype)
        changed = np.flatnonzero(current != twin)
        if changed.size == 0:
            continue
        breaks = np.flatnonzero(np.diff(changed) > max_gap + 1)
        all_starts.append(changed[np.concatenate(([0], breaks + 1))]
                          + index * page_words)
        all_ends.append(changed[np.concatenate((breaks, [changed.size - 1]))]
                        + 1 + index * page_words)
    if not all_starts:
        return [], []
    starts, ends = merge_run_arrays(np.concatenate(all_starts),
                                    np.concatenate(all_ends), max_gap)
    return starts.tolist(), ends.tolist()


class TestStackedWordDiff:
    """The one-compare word diff over all twinned pages equals the
    per-page reference on random dirty patterns."""

    @pytest.mark.parametrize("word_size", [4, 8])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_page_reference(self, word_size, seed):
        rng = np.random.default_rng(seed)
        memory = AddressSpace(page_size=256)
        heap = Heap(memory)
        seg = SegmentHeap("s", heap, X86_32)
        sub = seg.expand(64 * 256)
        memory.store(sub.base, rng.integers(0, 4, sub.size, dtype=np.uint8).tobytes())
        protect_and_twin(memory, sub)
        page_words = 256 // word_size
        # non-adjacent dirty pages, plus splices straddling page edges
        for page in rng.choice(64, int(rng.integers(1, 20)), replace=False):
            for _ in range(int(rng.integers(1, 6))):
                word = int(page) * page_words + int(rng.integers(0, page_words))
                memory.store(sub.base + word * word_size, bytes([1 + seed]) * word_size)
        for edge in rng.choice(np.arange(1, 64), 4, replace=False):
            word = int(edge) * page_words
            for delta in (-2, 1):  # changed words 3 apart across the edge
                memory.store(sub.base + (word + delta) * word_size, b"\xff" * word_size)
        for max_gap in (0, SPLICE_MAX_GAP_WORDS):
            starts, ends = word_diff_arrays(memory, sub, word_size, max_gap)
            assert (starts.tolist(), ends.tolist()) == _per_page_word_diff(
                memory, sub, word_size, max_gap)

    def test_twinned_but_unchanged_pages(self):
        memory, seg, actx = make_env()
        block = seg.allocate(ArrayDescriptor(INT, 8192), 1)
        sub = block.subsegment
        protect_and_twin(memory, sub)
        for page in (0, 3, 5):  # a same-value store twins without changing
            memory.store(sub.base + page * memory.page_size, b"\x00")
        starts, _ = word_diff_arrays(memory, sub, 4)
        assert starts.size == 0


class TestMergeRunArrays:
    def test_empty(self):
        starts, ends = merge_run_arrays([], [])
        assert starts.size == 0

    def test_adjacent_merge(self):
        starts, ends = merge_run_arrays([0, 2], [2, 5])
        assert starts.tolist() == [0] and ends.tolist() == [5]

    def test_gap_respected(self):
        starts, ends = merge_run_arrays([0, 5], [2, 6])
        assert starts.tolist() == [0, 5]

    def test_max_gap_splices(self):
        starts, ends = merge_run_arrays([0, 4], [2, 6], max_gap=2)
        assert starts.tolist() == [0] and ends.tolist() == [6]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 10)),
                    max_size=20), st.integers(0, 3))
    def test_matches_scalar_splice(self, runs, max_gap):
        from repro.util import runs as run_algebra

        normalized = run_algebra.normalize(runs)
        starts = np.array([s for s, _ in normalized], np.int64)
        ends = np.array([s + c for s, c in normalized], np.int64)
        merged_starts, merged_ends = merge_run_arrays(starts, ends, max_gap)
        expected = run_algebra.splice(normalized, max_gap)
        assert list(zip(merged_starts.tolist(),
                        (merged_ends - merged_starts).tolist())) == expected


class TestBatchedTranslation:
    def test_collect_runs_matches_per_run(self):
        memory, seg, actx = make_env()
        block = seg.allocate(ArrayDescriptor(INT, 1000), 1)
        acc = make_accessor(actx, block.descriptor, block.address)
        acc.write_values(list(range(1000)))
        tctx = TranslationContext(memory, X86_32)
        layout = flat_layout(block.descriptor, X86_32)
        for starts, counts in [
                ([0, 10, 500, 998], [5, 1, 100, 2]),                # per run
                ([0, 10, 40, 500, 900, 998], [5, 1, 3, 100, 7, 2])]:  # batched
            columns = collect_runs(tctx, layout, block.address, starts, counts)
            individual = [collect_range(tctx, layout, block.address, s, c)
                          for s, c in zip(starts, counts)]
            assert [bytes(data) for _, _, data in columns] == individual
            assert columns.starts.tolist() == starts
            assert columns.counts.tolist() == counts

    def test_apply_runs_roundtrip(self):
        memory, seg, actx = make_env()
        src = seg.allocate(ArrayDescriptor(INT, 1000), 1)
        dst = seg.allocate(ArrayDescriptor(INT, 1000), 1)
        acc_src = make_accessor(actx, src.descriptor, src.address)
        acc_dst = make_accessor(actx, dst.descriptor, dst.address)
        acc_src.write_values(list(range(1000)))
        acc_dst.write_values([0] * 1000)
        tctx = TranslationContext(memory, X86_32)
        layout = flat_layout(src.descriptor, X86_32)
        starts = [3, 100, 200, 300, 700]
        counts = [4, 2, 2, 2, 50]
        columns = collect_runs(tctx, layout, src.address, starts, counts)
        apply_runs(tctx, layout, dst.address, columns)
        values = acc_dst.read_values()
        assert list(values[3:7]) == [3, 4, 5, 6]
        assert list(values[100:102]) == [100, 101]
        assert list(values[700:750]) == list(range(700, 750))
        assert values[0] == 0 and values[7] == 0

    def test_apply_runs_rejects_bad_payload(self):
        memory, seg, actx = make_env()
        block = seg.allocate(ArrayDescriptor(INT, 10), 1)
        tctx = TranslationContext(memory, X86_32)
        layout = flat_layout(block.descriptor, X86_32)
        for filler_runs in (0, 5):  # per run, batched
            filler = [(k, 1, b"\x00" * 4) for k in range(2, 2 + filler_runs)]
            for bad in [(0, 2, b"\x00" * 7),     # 7 != 8 bytes
                        (0, 2, b"\x00" * 9),     # a trailing byte
                        (8, 5, b"\x00" * 20)]:   # beyond the block's end
                with pytest.raises(WireFormatError):
                    apply_runs(tctx, layout, block.address,
                               RunColumns.from_runs([bad] + filler))


#: one layout per translation strategy: dense, strided, per-unit
_ROUNDTRIP_LAYOUTS = {
    "dense-doubles": ArrayDescriptor(DOUBLE, 256),
    "strided-records": ArrayDescriptor(RecordDescriptor("pt", [
        Field("i", INT), Field("d", DOUBLE), Field("s", SHORT)]), 64),
    "strings-and-pointers": ArrayDescriptor(RecordDescriptor("node", [
        Field("key", INT), Field("name", StringDescriptor(12)),
        Field("next", PointerDescriptor(INT, "int"))]), 64),
}

#: run sets on both sides of the batched/per-run split (<= 4 and > 4)
_ROUNDTRIP_RUNS = {
    "3-runs": [(0, 2), (17, 5), (100, 3)],
    "8-runs": [(1, 1), (9, 4), (30, 2), (50, 7), (77, 1), (120, 3),
               (150, 10), (180, 5)],
}


def _roundtrip_block(arch, descriptor, seed):
    """A randomly filled block whose pointers (if any) point into itself,
    with a translation context that swizzles them block-relative."""
    memory, seg, actx = make_env(arch)
    block = seg.allocate(descriptor, 1)
    acc = make_accessor(actx, descriptor, block.address)
    rng = np.random.default_rng(seed)
    fill_random(acc, descriptor, rng)
    if descriptor is _ROUNDTRIP_LAYOUTS["strings-and-pointers"]:
        for k in range(0, descriptor.count, 3):
            target = int(rng.integers(0, descriptor.count))
            acc.element_accessor(k).field_accessor("next").set(
                acc.element_accessor(target).field_accessor("key").address)
    tctx = TranslationContext(
        memory, arch,
        pointer_to_mip=lambda address: f"blk#{address - block.address}",
        mip_to_pointer=lambda mip: block.address + int(mip.split("#")[1]))
    return tctx, flat_layout(descriptor, arch), block


@pytest.mark.parametrize("arch", [X86_32, SPARC_V9], ids=["le", "be"])
@pytest.mark.parametrize("runs", list(_ROUNDTRIP_RUNS.values()),
                         ids=list(_ROUNDTRIP_RUNS))
@pytest.mark.parametrize("descriptor", list(_ROUNDTRIP_LAYOUTS.values()),
                         ids=list(_ROUNDTRIP_LAYOUTS))
def test_collect_apply_roundtrip(descriptor, runs, arch):
    """collect_runs -> encode -> decode -> apply_runs into a second
    address space (of the other byte order) writes exactly the named
    units: each matches the source, every other unit keeps its value."""
    other = SPARC_V9 if arch is X86_32 else X86_32
    src_ctx, src_layout, src = _roundtrip_block(arch, descriptor, seed=1)
    dst_ctx, dst_layout, dst = _roundtrip_block(other, descriptor, seed=2)

    def unit_images(ctx, layout, block):
        return [collect_range(ctx, layout, block.address, unit, 1)
                for unit in range(layout.prim_count)]

    expected = unit_images(dst_ctx, dst_layout, dst)
    source = unit_images(src_ctx, src_layout, src)
    for start, count in runs:
        expected[start:start + count] = source[start:start + count]
    starts, counts = (list(column) for column in zip(*runs))
    columns = collect_runs(src_ctx, src_layout, src.address, starts, counts)
    wire = encode_segment_diff(
        SegmentDiff("h/s", 1, 2, [BlockDiff(serial=1, columns=columns)]))
    (block_diff,) = decode_segment_diff(wire).block_diffs
    assert block_diff.columns == columns
    apply_runs(dst_ctx, dst_layout, dst.address, block_diff.columns)
    assert unit_images(dst_ctx, dst_layout, dst) == expected


class TestByteRangesVectorized:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 399), st.integers(1, 30)),
                    min_size=1, max_size=15))
    def test_matches_scalar_mapper(self, raw_ranges):
        from repro.util import runs as run_algebra

        layout = flat_layout(ArrayDescriptor(INT, 100), X86_32)
        merged = run_algebra.normalize(
            [(lo, min(length, 400 - lo)) for lo, length in raw_ranges
             if lo < 400])
        los = np.array([s for s, _ in merged], np.int64)
        his = np.array([s + c for s, c in merged], np.int64)
        starts, counts = layout.prim_runs_for_byte_ranges(los, his)
        expected = run_algebra.normalize(
            [run for lo, hi in zip(los.tolist(), his.tolist())
             for run in layout.prim_runs_for_byte_range(lo, hi)])
        assert list(zip(starts.tolist(), counts.tolist())) == expected


def _map_to_blocks(subsegment, byte_ranges, skip_serials):
    starts = np.array([lo for lo, _ in byte_ranges], np.int64)
    ends = np.array([hi for _, hi in byte_ranges], np.int64)
    mapped = map_ranges_to_blocks(subsegment, starts, ends, skip_serials,
                                  X86_32)
    return {serial: list(zip(prim_starts.tolist(), prim_counts.tolist()))
            for serial, (prim_starts, prim_counts) in mapped.items()}


class TestMapRunsToBlocks:
    def test_runs_spanning_blocks_split_correctly(self):
        memory, seg, actx = make_env()
        block_a = seg.allocate(ArrayDescriptor(INT, 16), 1)
        block_b = seg.allocate(ArrayDescriptor(INT, 16), 1)
        sub = block_a.subsegment
        assert block_b.subsegment is sub
        # one byte range covering the tail of A, the header gap, and the
        # head of B
        mapped = _map_to_blocks(
            sub, [(block_a.address + 56, block_b.address + 8)], set())
        assert mapped[block_a.serial] == [(14, 2)]
        assert mapped[block_b.serial] == [(0, 2)]

    def test_skip_serials_excluded(self):
        memory, seg, actx = make_env()
        block = seg.allocate(ArrayDescriptor(INT, 16), 1)
        mapped = _map_to_blocks(block.subsegment,
                                [(block.address, block.address + 64)],
                                {block.serial})
        assert mapped == {}

    def test_header_only_run_maps_nowhere(self):
        memory, seg, actx = make_env()
        block = seg.allocate(ArrayDescriptor(INT, 16), 1)
        # entirely inside the header
        mapped = _map_to_blocks(block.subsegment,
                                [(block.address - 8, block.address)], set())
        assert mapped == {}


class TestBlockLevelFullSend:
    """The per-block half of no-diff mode: mostly-modified blocks go whole."""

    def make_world_pair(self, threshold):
        from repro import ClientOptions, InProcHub, InterWeaveClient, \
            InterWeaveServer, VirtualClock

        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        hub.register_server("h", InterWeaveServer("h", sink=hub, clock=clock))
        options = ClientOptions(block_full_threshold=threshold,
                                enable_nodiff=False)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock,
                                  options=options)
        seg = client.open_segment("h/s")
        client.wl_acquire(seg)
        acc = client.malloc(seg, ArrayDescriptor(INT, 1024), name="a")
        acc.write_values([0] * 1024)
        client.wl_release(seg)
        return client, seg, acc

    def modify_most(self, client, seg, acc):
        """Change 80% of the block in runs separated by 3-word gaps
        (too wide to splice, so the diff genuinely fragments)."""
        client.wl_acquire(seg)
        values = list(acc.read_values())
        for index in range(0, 1024):
            if index % 15 < 12:
                values[index] += 1
        acc.write_values(values)
        diff, _ = client._collect(seg)
        return diff

    def test_mostly_modified_block_sent_whole(self):
        client, seg, acc = self.make_world_pair(threshold=0.75)
        diff = self.modify_most(client, seg, acc)
        (block_diff,) = diff.block_diffs
        columns = block_diff.columns
        assert (columns.starts.tolist(), columns.counts.tolist()) == ([0], [1024])
        client.wl_release(seg)

    def test_disabled_threshold_keeps_runs(self):
        client, seg, acc = self.make_world_pair(threshold=None)
        diff = self.modify_most(client, seg, acc)
        (block_diff,) = diff.block_diffs
        assert block_diff.columns.run_count > 1
        assert block_diff.covered_units() < 1024
        client.wl_release(seg)

    def test_lightly_modified_block_stays_diffed(self):
        client, seg, acc = self.make_world_pair(threshold=0.75)
        client.wl_acquire(seg)
        acc[10] = 99
        acc[500] = 98
        diff, _ = client._collect(seg)
        (block_diff,) = diff.block_diffs
        assert block_diff.covered_units() <= 8  # spliced single-unit runs
        client.wl_release(seg)

    def test_full_send_applies_correctly(self):
        client, seg, acc = self.make_world_pair(threshold=0.75)
        client.wl_acquire(seg)
        values = [(k * 3) % 100 + 1 if k % 15 < 12 else 0 for k in range(1024)]
        for index in range(0, 1024):
            if index % 15 < 12:
                acc[index] = values[index]
        client.wl_release(seg)
        # a second client pulls the whole-block update and must agree
        from repro import InterWeaveClient

        hub_connect = client.connector
        reader = InterWeaveClient("r", X86_32, hub_connect, clock=client.clock)
        seg_r = reader.open_segment("h/s")
        reader.rl_acquire(seg_r)
        assert list(reader.accessor_for(seg_r, "a").read_values()) == values
        reader.rl_release(seg_r)
