"""Composing cached diffs into multi-version updates.

The server "maintains a cache of diffs that it has received recently from
clients ... these cached diffs can often be used to respond to future
requests, avoiding redundant collection overhead."  The exact-match case
(forwarding one writer's diff to one reader) is trivial; this module
handles the relaxed-coherence case: a client that skipped x versions needs
an update covering a *range* of versions, and a chain of cached
single-step diffs can be composed into one — preserving the precision of
the original client diffs, where rebuilding from subblock versions would
round every change up to whole subblocks.

Composition rules, per block serial (applied oldest diff first):

- runs accumulate in order (appliers process runs sequentially, so a later
  overlapping run correctly overwrites an earlier one);
- an older run is dropped when a newer diff contains a run that fully
  covers its range (the common repeated-counter-update case — this is
  what shrinks Delta(x) updates below x stacked diffs);
- a ``freed`` tombstone cancels all older state for the serial; a
  re-creation (``is_new``) after a free replaces the tombstone;
- newly created blocks keep their creation record, with later runs merged
  after the creation's full-content run;
- ``new_types`` are the union (deduplicated by serial).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ServerError
from repro.wire import (BlockDiff, RunColumns, SegmentDiff, count_bytes_copied,
                        decode_segment_diff)


def _covered(starts: np.ndarray, ends: np.ndarray,
             newer_starts: np.ndarray, newer_ends: np.ndarray) -> np.ndarray:
    """Mask of the runs ``[starts, ends)`` that some single newer run
    fully covers.

    Sort the newer runs by start once and keep a running maximum of their
    ends: among newer runs starting at or before an old run, one covers
    it iff that prefix's max end reaches the old run's end.  searchsorted
    finds the prefix for all old runs at once.
    """
    if not starts.size or not newer_starts.size:
        return np.zeros(starts.size, dtype=bool)
    order = np.argsort(newer_starts, kind="stable")
    prefix_max_end = np.maximum.accumulate(newer_ends[order])
    prefix = np.searchsorted(newer_starts[order], starts, side="right") - 1
    return (prefix >= 0) & (prefix_max_end[np.maximum(prefix, 0)] >= ends)


def _compose_columns(chain: List[RunColumns]) -> RunColumns:
    """One block's runs from a chain of diffs (oldest first), as columns.

    Runs keep their order, oldest diff first, so appliers processing runs
    sequentially let a newer overlapping run overwrite an older one.  A
    run is dropped when a single run of any newer diff covers it; its
    payload bytes are skipped by one gather over the survivors' byte
    ranges, so no per-run object is ever built.
    """
    if len(chain) == 1:
        return chain[0]
    keeps = []
    newer_starts = newer_ends = np.empty(0, np.int64)
    for cols in reversed(chain):
        ends = cols.starts + cols.counts
        keeps.append(~_covered(cols.starts, ends, newer_starts, newer_ends))
        newer_starts = np.concatenate((newer_starts, cols.starts))
        newer_ends = np.concatenate((newer_ends, ends))
    keeps.reverse()
    payloads = []
    for cols, keep in zip(chain, keeps):
        data = np.frombuffer(cols.data, np.uint8)
        if not keep.all():
            lens = cols.lens[keep]
            out_bounds = np.cumsum(lens) - lens
            data = data[np.repeat(cols.bounds[:-1][keep] - out_bounds, lens)
                        + np.arange(int(lens.sum()))]
        payloads.append(data)
    payload = np.concatenate(payloads).tobytes()
    count_bytes_copied(len(payload))
    return RunColumns(
        np.concatenate([c.starts[k] for c, k in zip(chain, keeps)]),
        np.concatenate([c.counts[k] for c, k in zip(chain, keeps)]),
        np.concatenate([c.lens[k] for c, k in zip(chain, keeps)]),
        payload)


class _BlockChain:
    """One serial's composition so far: the record that opened it (first
    sight, creation or tombstone) and every later diff's runs."""

    __slots__ = ("head", "chain", "version")

    def __init__(self, head: BlockDiff):
        self.head = head
        self.chain = [] if head.freed else [head.columns]
        self.version = head.version

    def extend(self, incoming: BlockDiff) -> "_BlockChain":
        if incoming.freed:
            return _BlockChain(incoming)
        if self.head.freed:
            # a serial freed and then re-created cannot be expressed as
            # one BlockDiff; the caller falls back to rebuilding from
            # subblocks
            raise ServerError(f"serial {incoming.serial} re-created within range")
        if incoming.is_new:
            return _BlockChain(incoming)
        self.chain.append(incoming.columns)
        self.version = max(self.version, incoming.version)
        return self

    def block_diff(self) -> BlockDiff:
        head = self.head
        if head.freed:
            return BlockDiff(serial=head.serial, freed=True, version=head.version)
        return BlockDiff(
            serial=head.serial, columns=_compose_columns(self.chain),
            is_new=head.is_new, type_serial=head.type_serial, name=head.name,
            version=self.version)


def compose_diffs(parts: List[SegmentDiff]) -> SegmentDiff:
    """Compose a chain of diffs (oldest first) into one equivalent diff."""
    if not parts:
        raise ServerError("cannot compose an empty diff chain")
    for earlier, later in zip(parts, parts[1:]):
        if earlier.to_version != later.from_version:
            raise ServerError(
                f"diff chain broken: ...->{earlier.to_version} then "
                f"{later.from_version}->...")
        if earlier.segment != later.segment:
            raise ServerError("diff chain mixes segments")
    chains: Dict[int, _BlockChain] = {}  # insertion order keeps creations first
    types: Dict[int, bytes] = {}
    for part in parts:
        for serial, encoded in part.new_types:
            types.setdefault(serial, encoded)
        for block_diff in part.block_diffs:
            chain = chains.get(block_diff.serial)
            chains[block_diff.serial] = (_BlockChain(block_diff) if chain is None
                                         else chain.extend(block_diff))
    return SegmentDiff(
        segment=parts[0].segment,
        from_version=parts[0].from_version,
        to_version=parts[-1].to_version,
        block_diffs=[chain.block_diff() for chain in chains.values()],
        new_types=sorted(types.items()),
    )


def compose_from_cache(cache, segment: str, from_version: int,
                       to_version: int,
                       max_span: int = 64) -> Optional[SegmentDiff]:
    """Stitch cached diffs into one ``from_version -> to_version`` update.

    Walks the cache greedily (longest cached step first) and composes the
    chain; returns None when no complete chain exists, when the range is
    wider than ``max_span`` (probing a long chain costs more than the
    caller's fallback), or when a serial was freed and re-created within
    the range.  Used by the origin server (falling back to a rebuild from
    subblock versions) and by the caching proxy (falling back to
    forwarding the request upstream).
    """
    if to_version - from_version > max_span:
        return None
    parts = []
    at = from_version
    while at < to_version:
        step = None
        for to in range(to_version, at, -1):
            encoded = cache.get(segment, at, to)
            if encoded is not None:
                step = decode_segment_diff(encoded)
                break
        if step is None:
            return None  # chain broken
        parts.append(step)
        at = step.to_version
    try:
        return compose_diffs(parts)
    except ServerError:
        return None
