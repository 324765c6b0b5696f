"""Simulated virtual memory with page protection and write faults.

InterWeave's client-side modification tracking rests on virtual memory
hardware: on a write-lock acquire the library write-protects the pages of
the segment; the first store to each page raises SIGSEGV, and the signal
handler makes a pristine copy (*twin*) of the page, records it in the
subsegment's pagemap, and re-enables write access.

Python cannot take real page faults, so this module is the stand-in: an
:class:`AddressSpace` of fixed-size pages with per-page protection bits.
Every store issued by the typed accessor layer goes through
:meth:`AddressSpace.store` (or :meth:`AddressSpace.scatter`).  Faults are
taken on *ranges*: before any byte lands, the pages the store touches
that are still write-protected are split into maximal runs of adjacent
pages (one numpy pass over the region's flag bytes), and the registered
``fault_handler(space, first_page_number, count)`` is called once per
run — the paper's SIGSEGV contract (create twin, unprotect, retry) with
one handler call and one twin copy per run instead of one per page.  The
handler must leave every page of its run writable, or the store raises
:class:`ProtectionError` with no byte written.  ``mmu.write_faults``
still counts pages.

Addresses are plain integers.  Regions are mapped at page granularity by a
bump allocator, so every page belongs to at most one mapping (the paper's
invariant that "any given page contains data from only one segment" is
enforced one level up, by the heap, which maps a fresh region per
subsegment).

Each mapped region is backed by one contiguous ``bytearray`` plus one
protection byte per page.  Pages are ``memoryview`` slices of that buffer,
a twin run is one slice copy (:meth:`AddressSpace.snapshot_page`), and
the diff data plane moves many scattered units at once:
:meth:`AddressSpace.gather` and :meth:`AddressSpace.scatter` index the
region by *unit* through a ``V{unit_size}`` numpy view, so their cost
follows the units touched, not the size of the block or region they live
in.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import ProtectionError
from repro.obs.metrics import MetricsRegistry, get_registry

#: Default page size (bytes).  4 KiB, as on the paper's platforms.
PAGE_SIZE = 4096

#: Base address of the first mapping; nonzero so address 0 stays NULL.
_BASE_ADDRESS = 0x1000_0000


class _Region:
    """One mapping: a contiguous buffer and a writable flag per page."""

    __slots__ = ("first_page", "num_pages", "base", "size", "buffer",
                 "view", "writable")

    def __init__(self, first_page: int, num_pages: int, page_size: int):
        self.first_page = first_page
        self.num_pages = num_pages
        self.base = first_page * page_size
        self.size = num_pages * page_size
        self.buffer = bytearray(self.size)
        self.view = memoryview(self.buffer)
        #: one byte per page: nonzero means stores are allowed
        self.writable = bytearray(b"\x01" * num_pages)


class Page:
    """One page of simulated memory: a view into its region's buffer."""

    __slots__ = ("data", "_region", "_index")

    def __init__(self, region: _Region, index: int, page_size: int):
        self.data = region.view[index * page_size:(index + 1) * page_size]
        self._region = region
        self._index = index

    @property
    def writable(self) -> bool:
        return bool(self._region.writable[self._index])

    def as_words(self, word_size: int) -> np.ndarray:
        """View the page as an array of unsigned words (for word diffing)."""
        dtype = np.uint32 if word_size == 4 else np.uint64
        return np.frombuffer(self.data, dtype=dtype)


class FaultStats:
    """Counters exposed for experiments: faults taken, pages protected."""

    __slots__ = ("write_faults", "protect_calls", "unprotect_calls")

    def __init__(self):
        self.write_faults = 0
        self.protect_calls = 0
        self.unprotect_calls = 0

    def reset(self):
        self.write_faults = 0
        self.protect_calls = 0
        self.unprotect_calls = 0


class AddressSpace:
    """A client process's simulated address space.

    ``fault_handler(address_space, first_page_number, count)`` is
    installed by the InterWeave client library at startup (mirroring its
    SIGSEGV handler) and called once per maximal run of write-protected
    pages a store touches; a run never crosses a mapping.  It must either
    make all ``count`` pages writable (returning True) or return False, in
    which case the store raises :class:`ProtectionError`.
    """

    def __init__(self, page_size: int = PAGE_SIZE,
                 metrics: Optional[MetricsRegistry] = None):
        if page_size < 32 or page_size & (page_size - 1):
            raise ValueError(f"page size must be a power of two >= 32, got {page_size}")
        self.page_size = page_size
        self._shift = page_size.bit_length() - 1
        #: page number -> the region mapping it
        self._regions: Dict[int, _Region] = {}
        self._next_page = _BASE_ADDRESS // page_size
        self.fault_handler: Optional[
            Callable[["AddressSpace", int, int], bool]] = None
        self.stats = FaultStats()
        metrics = metrics or get_registry()
        self._m_write_faults = metrics.counter(
            "mmu.write_faults", "write-protected pages faulted by stores")
        self._m_protects = metrics.counter(
            "mmu.protect_calls", "protect_range invocations")
        self._m_unprotects = metrics.counter(
            "mmu.unprotect_calls", "unprotect invocations")
        self._m_loaded = metrics.counter(
            "mmu.bytes_loaded", "bytes read by load and gather")
        self._m_stored = metrics.counter(
            "mmu.bytes_stored", "bytes written by store and scatter")

    # -- mapping ---------------------------------------------------------------

    def map_region(self, num_pages: int) -> int:
        """Map ``num_pages`` fresh zeroed pages; returns the base address."""
        if num_pages < 1:
            raise ValueError("must map at least one page")
        first = self._next_page
        self._next_page += num_pages
        region = _Region(first, num_pages, self.page_size)
        self._regions.update(dict.fromkeys(range(first, first + num_pages), region))
        return region.base

    def unmap_region(self, base: int, num_pages: int) -> None:
        """Remove a mapping (used when a cached segment is discarded)."""
        first = base // self.page_size
        for page_number in range(first, first + num_pages):
            self._regions.pop(page_number, None)

    def is_mapped(self, address: int) -> bool:
        return address >> self._shift in self._regions

    def _region(self, page_number: int) -> _Region:
        try:
            return self._regions[page_number]
        except KeyError:
            raise ProtectionError(f"page {page_number:#x} is not mapped") from None

    def _run(self, page_number: int, count: int):
        """The region holding pages ``page_number .. +count-1`` and the
        first one's index in it."""
        region = self._region(page_number)
        index = page_number - region.first_page
        if index + count > region.num_pages:
            raise ProtectionError(
                f"pages {page_number:#x}+{count} reach outside their mapping")
        return region, index

    def page(self, page_number: int) -> Page:
        region = self._region(page_number)
        return Page(region, page_number - region.first_page, self.page_size)

    def page_number(self, address: int) -> int:
        return address // self.page_size

    # -- protection --------------------------------------------------------------

    def protect_range(self, base: int, length: int) -> None:
        """Write-protect all pages overlapping [base, base+length)."""
        self._set_writable(base, length, 0)
        self.stats.protect_calls += 1
        self._m_protects.inc()

    def unprotect_range(self, base: int, length: int) -> None:
        self._set_writable(base, length, 1)
        self.stats.unprotect_calls += 1
        self._m_unprotects.inc()

    def unprotect_page(self, page_number: int, count: int = 1) -> None:
        """Make ``count`` pages from ``page_number`` writable (one mapping)."""
        region, index = self._run(page_number, count)
        region.writable[index:index + count] = b"\x01" * count
        self.stats.unprotect_calls += 1
        self._m_unprotects.inc()

    def _set_writable(self, base: int, length: int, flag: int) -> None:
        """Set the flag of every page overlapping [base, base+length):
        one slice assignment per region crossed."""
        if length <= 0:
            return
        page_number = base >> self._shift
        last = (base + length - 1) >> self._shift
        while page_number <= last:
            region = self._region(page_number)
            lo = page_number - region.first_page
            hi = min(last - region.first_page + 1, region.num_pages)
            region.writable[lo:hi] = bytes([flag]) * (hi - lo)
            page_number = region.first_page + hi

    # -- loads and stores ----------------------------------------------------------

    def load(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes (may span pages)."""
        if size <= 0:
            return b""
        region = self._region(address >> self._shift)
        offset = address - region.base
        end = offset + size
        if end > region.size:
            # spills into the next mapping: split at the region edge
            head = region.size - offset
            return self.load(address, head) + self.load(address + head, size - head)
        self._m_loaded.inc(size)
        return region.view[offset:end].tobytes()

    def store(self, address: int, data) -> None:
        """Write bytes (may span pages), taking write faults as needed.

        This is the single choke point all application stores go through —
        the simulated equivalent of the CPU's store path.  Every maximal
        run of protected pages the store touches is faulted, in address
        order, before any byte lands.
        """
        size = len(data)
        if not size:
            return
        region = self._region(address >> self._shift)
        offset = address - region.base
        end = offset + size
        if end > region.size:
            head = region.size - offset
            view = memoryview(data)
            self.store(address, view[:head])
            self.store(address + head, view[head:])
            return
        first = offset >> self._shift
        last = (end - 1) >> self._shift
        writable = region.writable
        if first == last:
            if not writable[first]:
                self._fault_run(region, first, 1)
        elif writable.find(0, first, last + 1) >= 0:
            protected = np.frombuffer(writable, np.uint8, count=last + 1 - first,
                                      offset=first) == 0
            self._fault_runs(region, first, protected)
        region.view[offset:end] = data
        self._m_stored.inc(size)

    # -- batched unit access for the diff data plane --------------------------------

    def _unit_view(self, address: int, unit_size: int, units: np.ndarray):
        """The region holding ``units`` and a ``V{unit_size}`` view of it
        starting at ``address`` (so unit *k* lives at
        ``address + k * unit_size``)."""
        region = self._region(address >> self._shift)
        offset = address - region.base
        if units.size and (int(units.min()) < 0 or offset + (int(units.max()) + 1)
                           * unit_size > region.size):
            raise ProtectionError(
                f"units at {address:#x} (size {unit_size}) reach outside "
                "their mapping")
        view = np.frombuffer(region.buffer, dtype=f"V{unit_size}",
                             count=(region.size - offset) // unit_size,
                             offset=offset)
        return region, offset, view

    def gather(self, address: int, unit_size: int, units) -> np.ndarray:
        """Copy out units ``address + units[i] * unit_size``, in order.

        Returns one contiguous ``uint8`` array of ``len(units) *
        unit_size`` bytes.  Reads never fault.
        """
        units = np.asarray(units, dtype=np.int64)
        _, _, view = self._unit_view(address, unit_size, units)
        self._m_loaded.inc(units.size * unit_size)
        return view[units].view(np.uint8)

    def scatter(self, address: int, unit_size: int, units, data) -> None:
        """Write ``data`` (``len(units) * unit_size`` bytes) to units
        ``address + units[i] * unit_size``, in order, so a repeated unit
        keeps the last value written.

        Every protected page a unit touches (a unit may straddle two
        pages) is faulted exactly once, in maximal runs of adjacent
        touched pages, before any byte lands; a refused fault leaves
        memory unchanged.
        """
        units = np.asarray(units, dtype=np.int64)
        payload = np.frombuffer(data, dtype=np.uint8)
        if payload.size != units.size * unit_size:
            raise ValueError(
                f"scatter of {units.size} {unit_size}-byte units given "
                f"{payload.size} bytes")
        region, offset, view = self._unit_view(address, unit_size, units)
        if units.size and region.writable.find(0) >= 0:
            starts = offset + units * unit_size
            touched = np.zeros(region.num_pages, dtype=bool)
            touched[starts >> self._shift] = True
            touched[(starts + unit_size - 1) >> self._shift] = True
            touched &= np.frombuffer(region.writable, np.uint8) == 0
            self._fault_runs(region, 0, touched)
        view[units] = payload.view(view.dtype)
        self._m_stored.inc(payload.size)

    def view(self, address: int, size: int) -> np.ndarray:
        """A read-only ``uint8`` array over mapped memory (no copy).

        For whole-page scans such as the word diff; stores must still go
        through :meth:`store` or :meth:`scatter`.
        """
        region = self._region(address >> self._shift)
        offset = address - region.base
        if offset + size > region.size:
            raise ProtectionError(
                f"view of {size} bytes at {address:#x} reaches outside its mapping")
        array = np.frombuffer(region.buffer, np.uint8, count=size, offset=offset)
        array.flags.writeable = False
        return array

    # -- faults ------------------------------------------------------------------

    def _fault_runs(self, region: _Region, index: int, needs) -> None:
        """Fault each maximal run of ``True`` in the bool array ``needs``,
        whose element *k* stands for region page ``index + k``."""
        edges = np.flatnonzero(np.diff(needs, prepend=False, append=False))
        for lo, hi in zip(edges[0::2].tolist(), edges[1::2].tolist()):
            self._fault_run(region, index + lo, hi - lo)

    def _fault_run(self, region: _Region, index: int, count: int) -> None:
        """Fault region pages ``index .. index + count - 1``, all protected."""
        page_number = region.first_page + index
        self.stats.write_faults += count
        self._m_write_faults.inc(count)
        if self.fault_handler is None:
            raise ProtectionError(
                f"write fault on page {page_number:#x} with no fault handler installed")
        if not self.fault_handler(self, page_number, count):
            raise ProtectionError(
                f"fault handler refused write to pages {page_number:#x}+{count}")
        if region.writable.find(0, index, index + count) >= 0:
            raise ProtectionError(
                f"store to write-protected pages {page_number:#x}+{count} "
                "not resolved by fault handler")

    # -- page-level helpers for the diffing machinery -------------------------------

    def snapshot_page(self, page_number: int, count: int = 1,
                      into: Optional[bytearray] = None) -> bytearray:
        """A pristine copy of ``count`` pages from ``page_number`` (one
        mapping), as one buffer — twin creation.  The copy lands in
        ``into`` (exactly ``count`` pages long) when given."""
        region, index = self._run(page_number, count)
        start = index * self.page_size
        pages = region.view[start:start + count * self.page_size]
        if into is None:
            return bytearray(pages)
        memoryview(into)[:] = pages  # ValueError unless the sizes match
        return into
