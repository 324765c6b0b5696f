"""Tests for the simulated MMU: mapping, protection, and write faults."""

import numpy as np
import pytest

from repro.errors import ProtectionError
from repro.memory import AddressSpace


class TestMapping:
    def test_map_region_returns_page_aligned_base(self):
        mem = AddressSpace()
        base = mem.map_region(4)
        assert base % mem.page_size == 0
        assert mem.is_mapped(base)
        assert mem.is_mapped(base + 4 * mem.page_size - 1)
        assert not mem.is_mapped(base + 4 * mem.page_size)

    def test_regions_do_not_overlap(self):
        mem = AddressSpace()
        a = mem.map_region(2)
        b = mem.map_region(3)
        assert b >= a + 2 * mem.page_size

    def test_new_pages_are_zeroed(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        assert mem.load(base, mem.page_size) == bytes(mem.page_size)

    def test_unmap(self):
        mem = AddressSpace()
        base = mem.map_region(2)
        mem.unmap_region(base, 2)
        assert not mem.is_mapped(base)
        with pytest.raises(ProtectionError):
            mem.load(base, 1)

    def test_invalid_page_size_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace(page_size=1000)  # not a power of two
        with pytest.raises(ValueError):
            AddressSpace(page_size=16)  # too small

    def test_map_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().map_region(0)


class TestLoadStore:
    def test_roundtrip_within_page(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        mem.store(base + 10, b"hello")
        assert mem.load(base + 10, 5) == b"hello"

    def test_store_spanning_pages(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(3)
        payload = bytes(range(150))
        mem.store(base + 30, payload)
        assert mem.load(base + 30, 150) == payload

    def test_store_to_unmapped_raises(self):
        mem = AddressSpace()
        with pytest.raises(ProtectionError):
            mem.store(0x999, b"x")


class TestProtectionAndFaults:
    def test_store_to_protected_page_without_handler_raises(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        mem.protect_range(base, mem.page_size)
        with pytest.raises(ProtectionError):
            mem.store(base, b"x")

    def test_fault_handler_resolves_store(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        faulted = []

        def handler(space, first_page, count):
            faulted.append(first_page)
            space.unprotect_page(first_page, count)
            return True

        mem.fault_handler = handler
        mem.protect_range(base, mem.page_size)
        mem.store(base + 8, b"ab")
        assert mem.load(base + 8, 2) == b"ab"
        assert faulted == [base // mem.page_size]
        assert mem.stats.write_faults == 1

    def test_fault_taken_once_per_page(self):
        mem = AddressSpace()
        base = mem.map_region(2)

        def handler(space, first_page, count):
            space.unprotect_page(first_page, count)
            return True

        mem.fault_handler = handler
        mem.protect_range(base, 2 * mem.page_size)
        mem.store(base, b"a")
        mem.store(base + 1, b"b")  # same page: no new fault
        mem.store(base + mem.page_size, b"c")  # second page: one more
        assert mem.stats.write_faults == 2

    def test_refusing_handler_raises(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        mem.fault_handler = lambda space, first_page, count: False
        mem.protect_range(base, 1)
        with pytest.raises(ProtectionError):
            mem.store(base, b"x")

    def test_spanning_store_faults_every_protected_page(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(3)

        def handler(space, first_page, count):
            space.unprotect_page(first_page, count)
            return True

        mem.fault_handler = handler
        mem.protect_range(base, 3 * 64)
        mem.store(base, bytes(160))
        assert mem.stats.write_faults == 3

    def test_protect_range_partial_page_rounds_to_pages(self):
        mem = AddressSpace()
        base = mem.map_region(2)
        mem.protect_range(base + 100, 10)  # protection is page-granular
        assert not mem.page(base // mem.page_size).writable
        assert mem.page(base // mem.page_size + 1).writable

    def test_snapshot_is_pristine_copy(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        mem.store(base, b"original")
        twin = mem.snapshot_page(base // mem.page_size)
        mem.store(base, b"modified")
        assert twin[:8] == b"original"
        assert mem.load(base, 8) == b"modified"

    def test_reads_never_fault(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        mem.protect_range(base, mem.page_size)
        mem.load(base, 16)  # protection only blocks stores
        assert mem.stats.write_faults == 0


class TestWordView:
    def test_as_words(self):
        mem = AddressSpace()
        base = mem.map_region(1)
        mem.store(base, (123).to_bytes(4, "little"))
        words = mem.page(base // mem.page_size).as_words(4)
        assert words[0] == 123
        assert len(words) == mem.page_size // 4


def _twinning_space(page_size=64, pages=8):
    """A protected region whose fault handler records and unprotects."""
    mem = AddressSpace(page_size=page_size)
    base = mem.map_region(pages)
    faulted = []

    def handler(space, first_page, count):
        faulted.extend(range(first_page, first_page + count))
        space.unprotect_page(first_page, count)
        return True

    mem.fault_handler = handler
    mem.protect_range(base, pages * page_size)
    return mem, base, faulted


class TestGatherScatter:
    """Unit-indexed gather/scatter against a load/store reference."""

    @pytest.mark.parametrize("unit_size,offset", [(1, 0), (4, 0), (8, 0),
                                                  (8, 3), (4, 61), (16, 5)])
    def test_gather_matches_load(self, unit_size, offset):
        # odd offsets give units straddling page edges, as on the
        # byte-packed server layout
        rng = np.random.default_rng(unit_size + offset)
        mem = AddressSpace(page_size=64)
        base = mem.map_region(16)
        mem.store(base, rng.integers(0, 256, 16 * 64, dtype=np.uint8).tobytes())
        address = base + offset
        capacity = (16 * 64 - offset) // unit_size
        units = rng.integers(0, capacity, 50)
        expected = b"".join(mem.load(address + int(k) * unit_size, unit_size)
                            for k in units)
        assert mem.gather(address, unit_size, units).tobytes() == expected

    @pytest.mark.parametrize("unit_size,offset", [(4, 0), (8, 3), (8, 60),
                                                  (2, 63)])
    def test_scatter_matches_store(self, unit_size, offset):
        rng = np.random.default_rng(7 * unit_size + offset)
        capacity = (16 * 64 - offset) // unit_size
        # repeated units: the last value written wins, as with stores
        units = np.concatenate([rng.integers(0, capacity, 40),
                                rng.integers(0, capacity, 5)[[0, 1, 0, 2, 0]]])
        payload = rng.integers(0, 256, units.size * unit_size, dtype=np.uint8)
        spaces = []
        for batched in (False, True):
            mem = AddressSpace(page_size=64)
            base = mem.map_region(16)
            if batched:
                mem.scatter(base + offset, unit_size, units, payload.tobytes())
            else:
                for i, k in enumerate(units.tolist()):
                    mem.store(base + offset + k * unit_size,
                              payload[i * unit_size:(i + 1) * unit_size].tobytes())
            spaces.append(mem.load(base, 16 * 64))
        assert spaces[0] == spaces[1]

    def test_scatter_faults_each_protected_page_once(self):
        mem, base, faulted = _twinning_space()
        twins = {}
        inner = mem.fault_handler

        def twinning(space, first_page, count):
            for page_number in range(first_page, first_page + count):
                assert page_number not in twins
                twins[page_number] = space.snapshot_page(page_number)
            return inner(space, first_page, count)

        mem.fault_handler = twinning
        # 8-byte units from offset 60: unit 0 straddles pages 0/1 (the
        # only unit touching page 1), units 33 and 34 are on page 5; some
        # units repeat
        units = np.array([0, 33, 33, 34, 0])
        mem.scatter(base + 60, 8, units, bytes(range(40)))
        first = base // 64
        assert sorted(faulted) == [first, first + 1, first + 5]
        assert mem.stats.write_faults == 3
        assert set(twins) == set(faulted)
        assert all(twin == bytes(64) for twin in twins.values())
        # an already-unprotected page does not fault again
        mem.scatter(base + 60, 8, np.array([0, 1, 34]), bytes(24))
        assert mem.stats.write_faults == 3

    def test_scatter_to_unmapped_raises(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(2)
        with pytest.raises(ProtectionError):
            mem.scatter(0x999, 4, np.array([0]), bytes(4))
        with pytest.raises(ProtectionError):
            mem.scatter(base, 4, np.array([0, 32]), bytes(8))  # past the end
        with pytest.raises(ProtectionError):
            mem.gather(base, 4, np.array([-1]))

    def test_refused_fault_writes_nothing(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(4)
        mem.protect_range(base + 128, 64)  # only page 2 is protected
        mem.fault_handler = lambda space, first_page, count: False
        with pytest.raises(ProtectionError):
            mem.scatter(base, 4, np.array([0, 1, 33]), b"\x01" * 12)
        assert mem.load(base, 4 * 64) == bytes(4 * 64)

    def test_scatter_without_handler_raises(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(2)
        mem.protect_range(base, 128)
        with pytest.raises(ProtectionError):
            mem.scatter(base, 4, np.array([3]), bytes(4))

    def test_byte_counters(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        mem = AddressSpace(page_size=64, metrics=registry)
        base = mem.map_region(4)
        mem.store(base, bytes(10))
        mem.scatter(base, 8, np.array([3, 9]), bytes(16))
        mem.load(base, 7)
        mem.gather(base, 4, np.array([1, 2, 3]))
        counters = registry.snapshot()["counters"]
        assert counters["mmu.bytes_stored"] == 26
        assert counters["mmu.bytes_loaded"] == 19


class TestRegionProtection:
    def test_partial_ranges_round_to_whole_pages(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(6)
        first = base // 64
        mem.protect_range(base + 70, 60)  # pages 1..2
        assert [mem.page(first + k).writable for k in range(6)] == [
            True, False, False, True, True, True]
        mem.protect_range(base, 6 * 64)
        mem.unprotect_range(base + 200, 1)  # page 3 only
        assert [mem.page(first + k).writable for k in range(6)] == [
            False, False, False, True, False, False]

    def test_page_data_aliases_memory(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(2)
        mem.store(base + 64, b"abc")
        page = mem.page(base // 64 + 1)
        assert bytes(page.data[:3]) == b"abc"
        page.data[:3] = b"xyz"
        assert mem.load(base + 64, 3) == b"xyz"


class TestRangeFaults:
    """The fault contract: one handler call per maximal run of protected
    pages a store touches, counted in pages."""

    def _space(self, pages=8):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(pages)
        calls = []

        def handler(space, first_page, count):
            calls.append((first_page - base // 64, count))
            space.unprotect_page(first_page, count)
            return True

        mem.fault_handler = handler
        mem.protect_range(base, pages * 64)
        return mem, base, calls

    def test_one_call_per_protected_run(self):
        mem, base, calls = self._space()
        mem.store(base + 70, bytes(300))  # pages 1..5
        assert calls == [(1, 5)]
        assert mem.stats.write_faults == 5
        mem.store(base, bytes(8 * 64))  # pages 0 and 6..7 still protected
        assert calls == [(1, 5), (0, 1), (6, 2)]
        assert mem.stats.write_faults == 8

    def test_writable_page_splits_run(self):
        mem, base, calls = self._space()
        mem.unprotect_range(base + 3 * 64, 64)
        mem.store(base + 64, bytes(5 * 64))  # pages 1..5, page 3 writable
        assert calls == [(1, 2), (4, 2)]
        assert mem.stats.write_faults == 4

    def test_scatter_straddling_units_fault_each_page_once(self):
        mem, base, calls = self._space()
        # 8-byte units from offset 60 straddle every page edge they meet:
        # unit 0 covers pages 0/1, unit 16 pages 2/3, unit 48 pages 6/7
        mem.scatter(base + 60, 8, np.array([0, 16, 16, 0, 48]), bytes(40))
        assert calls == [(0, 4), (6, 2)]
        assert mem.stats.write_faults == 6
        mem.scatter(base + 60, 8, np.array([0, 16, 48]), bytes(24))
        assert len(calls) == 2  # all touched pages are writable now

    def test_scatter_untouched_page_splits_run(self):
        mem, base, calls = self._space()
        mem.scatter(base, 4, np.array([0, 33, 48]), bytes(12))  # pages 0, 2, 3
        assert calls == [(0, 1), (2, 2)]

    def test_partial_unprotect_raises(self):
        mem, base, calls = self._space()

        def lazy(space, first_page, count):
            space.unprotect_page(first_page, count - 1)  # misses the last page
            return True

        mem.fault_handler = lazy
        with pytest.raises(ProtectionError):
            mem.store(base, b"\x01" * 200)  # pages 0..3
        assert mem.load(base, 8 * 64) == bytes(8 * 64)

    def test_refused_run_leaves_every_byte_unchanged(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(8)
        mem.store(base, bytes(range(256)) * 2)
        before = mem.load(base, 8 * 64)
        mem.protect_range(base + 2 * 64, 3 * 64)  # pages 2..4
        mem.fault_handler = lambda space, first_page, count: False
        with pytest.raises(ProtectionError):
            mem.store(base + 60, b"\xee" * 300)  # pages 0..5
        with pytest.raises(ProtectionError):
            mem.scatter(base, 8, np.array([1, 20, 25, 35, 60]), b"\xee" * 40)
        assert mem.load(base, 8 * 64) == before
        assert mem.stats.write_faults == 6  # two refused 3-page runs

    def test_write_faults_count_pages(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        mem = AddressSpace(page_size=64, metrics=registry)
        base = mem.map_region(16)
        mem.fault_handler = lambda space, first_page, count: (
            space.unprotect_page(first_page, count) or True)
        mem.protect_range(base, 16 * 64)
        mem.store(base, bytes(10 * 64))
        mem.store(base + 12 * 64, b"x")
        assert mem.stats.write_faults == 11
        assert registry.snapshot()["counters"]["mmu.write_faults"] == 11

    def test_snapshot_and_unprotect_runs(self):
        mem = AddressSpace(page_size=64)
        base = mem.map_region(4)
        mem.store(base, bytes(range(256)))
        first = base // 64
        assert mem.snapshot_page(first + 1, 2) == bytes(range(64, 192))
        mem.protect_range(base, 4 * 64)
        mem.unprotect_page(first + 1, 2)
        assert [mem.page(first + k).writable for k in range(4)] == [
            False, True, True, False]
        with pytest.raises(ProtectionError):
            mem.snapshot_page(first + 3, 2)  # past the mapping
        with pytest.raises(ProtectionError):
            mem.unprotect_page(first + 3, 2)
