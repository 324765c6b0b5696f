"""Client diff collection: twins -> word runs -> primitive runs -> wire.

When a process releases a write lock, the library gathers local changes
and converts them to machine-independent wire format.  The pipeline, per
Section 3.1 of the paper:

1. **word diffing** — scan the segment's subsegments and each subsegment's
   pagemap; for every twinned page, compare the current page against its
   twin word by word, yielding runs of contiguous modified words
   (``change_begin`` .. ``change_end``);
2. **run splicing** — if one or two unchanged words separate two modified
   runs, treat the whole stretch as changed: a run header already costs
   two words, and the spliced run is faster to apply;
3. **block mapping** — locate the blocks spanning each changed byte range
   through the subsegment's ``blk_addr_tree``;
4. **translation** — map changed bytes to primitive-unit runs through the
   block's type descriptor (compensating for byte order, alignment, and
   padding) and emit wire-format data, swizzling pointers to MIPs.

Steps 1 and 4 are timed separately into the client stats — they are the
"client word diffing" and "client translation" series of Figure 5.

Blocks created in the critical section are transmitted whole (their pages
may have twins, but they are excluded from word diffing); freed blocks
become tombstones.  In no-diff mode the whole segment is transmitted and
steps 1–3 are skipped entirely.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.memory.heap import BlockInfo, SegmentHeap, SubSegment
from repro.memory.mmu import AddressSpace
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.types import flat_layout
from repro.wire import BlockDiff, SegmentDiff, TranslationContext
from repro.wire.translate import collect_runs

#: unchanged words between two changed runs that are spliced over
SPLICE_MAX_GAP_WORDS = 2


def word_diff_arrays(memory: AddressSpace, subsegment: SubSegment,
                     word_size: int, max_gap: int = 0):
    """Changed word runs vs. the twins, as numpy arrays (starts, ends).

    Offsets are subsegment-relative, in words.  All twinned pages are
    compared against their twins in one stacked compare, and the changed
    words are split into runs in one pass.  Splicing happens *during* the
    scan, as in the C implementation: two changed words separated by at
    most ``max_gap`` unchanged ones stay in one run, so a change pattern
    like every-other-word (one word of every double) never materializes
    thousands of one-word runs.  Untwinned pages hold no changes, and a
    whole page is a wider gap than any splice, so runs never bridge them.
    """
    empty = np.empty(0, np.int64)
    if not subsegment.pagemap:
        return empty, empty
    page_words = subsegment.page_size // word_size
    dtype = np.uint32 if word_size == 4 else np.uint64
    pages = np.array(sorted(subsegment.pagemap), dtype=np.int64)
    current = memory.view(subsegment.base, subsegment.size).view(dtype).reshape(
        subsegment.num_pages, page_words)
    if pages[-1] - pages[0] + 1 == pages.size:
        current = current[pages[0]:pages[-1] + 1]  # one span: no copy
    else:
        current = current[pages]
    twins = np.frombuffer(
        b"".join([subsegment.pagemap[page] for page in pages.tolist()]),
        dtype=dtype).reshape(pages.size, page_words)
    changed = np.flatnonzero(current != twins)
    if changed.size == 0:
        return empty, empty
    # stacked (twinned page, word) position -> subsegment word offset
    changed = pages[changed // page_words] * page_words + changed % page_words
    # a gap of g unchanged words shows as an index delta of g+1
    breaks = np.flatnonzero(np.diff(changed) > max_gap + 1)
    starts = changed[np.concatenate(([0], breaks + 1))]
    ends = changed[np.concatenate((breaks, [changed.size - 1]))] + 1
    return starts, ends


def changed_byte_arrays(memory: AddressSpace, subsegment: SubSegment,
                        word_size: int, splice: bool = True):
    """Absolute changed byte ranges as arrays (starts, ends), spliced."""
    max_gap = SPLICE_MAX_GAP_WORDS if splice else 0
    starts, ends = word_diff_arrays(memory, subsegment, word_size, max_gap)
    return (subsegment.base + starts * word_size,
            subsegment.base + ends * word_size)


def map_ranges_to_blocks(subsegment: SubSegment, byte_starts, byte_ends,
                         skip_serials, arch, coalesce_layouts: bool = True):
    """Map changed byte ranges onto blocks as primitive-unit run arrays.

    Word runs can span block boundaries (headers and all); each block\'s
    intersection is translated through its own layout, and bytes falling
    in headers, free space, or padding are dropped.  Returns a dict
    ``serial -> (prim_starts, prim_counts)`` numpy array pairs.

    The sweep is array-based: for each block the overlapping slice of the
    (sorted, disjoint) range arrays is found with searchsorted, clipped to
    the block, and handed to the layout\'s vectorized range mapper — so a
    fine-grained diff of tens of thousands of runs costs a few numpy
    passes, not a tree search per run.
    """
    per_block = {}
    byte_starts = np.asarray(byte_starts, dtype=np.int64)
    byte_ends = np.asarray(byte_ends, dtype=np.int64)
    if byte_starts.size == 0:
        return per_block
    window_lo = int(byte_starts[0])
    window_hi = int(byte_ends[-1])
    start_hit = subsegment.blk_addr_tree.floor(window_lo)
    items = subsegment.blk_addr_tree.items_from(
        start_hit[0] if start_hit is not None else window_lo)
    for address, block in items:
        if address >= window_hi:
            break
        if block.end <= window_lo or block.serial in skip_serials:
            continue
        # ranges possibly overlapping [block.address, block.end)
        lo_index = int(np.searchsorted(byte_ends, block.address, side="right"))
        hi_index = int(np.searchsorted(byte_starts, block.end, side="left"))
        if lo_index >= hi_index:
            continue
        los = np.clip(byte_starts[lo_index:hi_index] - block.address, 0, block.size)
        his = np.clip(byte_ends[lo_index:hi_index] - block.address, 0, block.size)
        keep = los < his
        if not keep.any():
            continue
        layout = flat_layout(block.descriptor, arch, coalesce_layouts)
        prim_starts, prim_counts = layout.prim_runs_for_byte_ranges(
            los[keep], his[keep])
        if prim_starts.size:
            per_block[block.serial] = (prim_starts, prim_counts)
    return per_block


class CollectTimers:
    """Separate accounting for the two phases of Figure 5."""

    __slots__ = ("word_diff_seconds", "translate_seconds")

    def __init__(self):
        self.word_diff_seconds = 0.0
        self.translate_seconds = 0.0

    def reset(self):
        self.word_diff_seconds = 0.0
        self.translate_seconds = 0.0


#: fraction of a block's units beyond which the whole block is sent:
#: "a client that repeatedly modifies most of the data in a segment (or a
#: block within a segment) will switch to ... transmit the whole segment
#: (or individual block)"; translating one dense run beats many partial
#: runs, at a bounded bandwidth premium.
BLOCK_FULL_THRESHOLD = 0.75


def collect_write_diff(tctx: TranslationContext, heap: SegmentHeap,
                       from_version: int,
                       created: List[BlockInfo],
                       freed_serials: List[int],
                       unknown_type_serials: Iterable[int],
                       use_diffing: bool,
                       splice: bool = True,
                       coalesce_layouts: bool = True,
                       timers: Optional[CollectTimers] = None,
                       registry=None,
                       block_full_threshold: Optional[float] = BLOCK_FULL_THRESHOLD,
                       metrics: Optional[MetricsRegistry] = None,
                       ) -> Tuple[SegmentDiff, int]:
    """Build the write-release diff for one segment.

    Returns ``(diff, modified_units)`` where ``modified_units`` counts the
    primitive units of *pre-existing* blocks found modified (the signal
    the no-diff controller adapts on).
    """
    timers = timers or CollectTimers()
    metrics = metrics or get_registry()
    word_diff_before = timers.word_diff_seconds
    translate_before = timers.translate_seconds
    arch = tctx.arch
    diff = SegmentDiff(heap.name, from_version, 0)
    if registry is not None:
        diff.new_types = [(serial, registry.encoded(serial))
                          for serial in unknown_type_serials]

    for serial in freed_serials:
        diff.block_diffs.append(BlockDiff(serial=serial, freed=True))

    created_serials = {block.serial for block in created}
    modified_units = 0

    if use_diffing:
        # phase 1+2: word diffing and splicing over every twinned page
        started = time.perf_counter()
        per_subsegment = [
            (subsegment, changed_byte_arrays(tctx.memory, subsegment,
                                             arch.word_size, splice))
            for subsegment in heap.subsegments if subsegment.pagemap
        ]
        timers.word_diff_seconds += time.perf_counter() - started
        # phase 3: block mapping (a block lives in exactly one subsegment,
        # so the per-subsegment dicts are disjoint)
        per_block = {}
        for subsegment, (byte_starts, byte_ends) in per_subsegment:
            per_block.update(map_ranges_to_blocks(
                subsegment, byte_starts, byte_ends, created_serials, arch,
                coalesce_layouts))
        # phase 4: translation
        started = time.perf_counter()
        for serial in sorted(per_block):
            block = heap.block_by_serial(serial)
            layout = flat_layout(block.descriptor, arch, coalesce_layouts)
            prim_starts, prim_counts = per_block[serial]
            if (block_full_threshold is not None and len(prim_starts) > 1
                    and int(prim_counts.sum())
                    >= block_full_threshold * layout.prim_count):
                # block-level no-diff: mostly modified, send it whole
                prim_starts = np.array([0], np.int64)
                prim_counts = np.array([layout.prim_count], np.int64)
            diff.block_diffs.append(BlockDiff(
                serial=serial,
                columns=collect_runs(tctx, layout, block.address,
                                     prim_starts, prim_counts)))
            modified_units += int(prim_counts.sum())
        timers.translate_seconds += time.perf_counter() - started
    else:
        # no-diff mode: transmit every pre-existing block in full
        started = time.perf_counter()
        for block in heap.blocks():
            if block.serial in created_serials:
                continue
            layout = flat_layout(block.descriptor, arch, coalesce_layouts)
            diff.block_diffs.append(BlockDiff(
                serial=block.serial,
                columns=collect_runs(tctx, layout, block.address,
                                     [0], [layout.prim_count])))
            modified_units += layout.prim_count
        timers.translate_seconds += time.perf_counter() - started

    # newly created blocks always go in full
    started = time.perf_counter()
    for block in created:
        layout = flat_layout(block.descriptor, arch, coalesce_layouts)
        diff.block_diffs.append(BlockDiff(
            serial=block.serial, is_new=True, type_serial=block.type_serial,
            name=block.name,
            columns=collect_runs(tctx, layout, block.address,
                                 [0], [layout.prim_count])))
    timers.translate_seconds += time.perf_counter() - started

    metrics.counter("client.collect.runs",
                    "diff collection executions (one per write release)").inc()
    if not use_diffing:
        metrics.counter("client.collect.nodiff_runs",
                        "collections that transmitted whole blocks").inc()
    metrics.counter("client.collect.diff_runs",
                    "RLE runs emitted by diff collection").inc(
        sum(bd.columns.run_count for bd in diff.block_diffs))
    metrics.counter("client.collect.rle_bytes",
                    "wire payload bytes emitted by diff collection").inc(
        diff.payload_bytes())
    metrics.counter("client.collect.modified_units").inc(modified_units)
    metrics.histogram("client.collect.word_diff_seconds").observe(
        timers.word_diff_seconds - word_diff_before)
    metrics.histogram("client.collect.translate_seconds").observe(
        timers.translate_seconds - translate_before)
    return diff, modified_units
