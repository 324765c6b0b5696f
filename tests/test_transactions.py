"""Tests for transactional write sessions (abortable critical sections)."""

import pytest

from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock
from repro.arch import SPARC_V9, X86_32
from repro.errors import BlockError, LockError
from repro.types import INT, ArrayDescriptor, StringDescriptor


@pytest.fixture
def world():
    clock = VirtualClock()
    hub = InProcHub(clock=clock)
    server = InterWeaveServer("host", sink=hub, clock=clock)
    hub.register_server("host", server)
    writer = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
    seg = writer.open_segment("host/tx")
    writer.wl_acquire(seg)
    array = writer.malloc(seg, ArrayDescriptor(INT, 64), name="a")
    array.write_values(list(range(64)))
    label = writer.malloc(seg, StringDescriptor(32), name="label")
    label.set("original")
    writer.wl_release(seg)
    return clock, hub, server, writer, seg


class TestCommit:
    def test_commit_behaves_like_write_release(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        writer.accessor_for(seg, "a")[0] = -1
        writer.tx_commit(seg)
        assert seg.version == 2
        assert seg.lock_mode is None

        reader = InterWeaveClient("r", SPARC_V9, hub.connect, clock=clock)
        seg_r = reader.open_segment("host/tx")
        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "a")[0] == -1
        reader.rl_release(seg_r)

    def test_commit_executes_deferred_frees(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        writer.free(seg, writer.accessor_for(seg, "label"))
        # hidden immediately, even before commit
        with pytest.raises(BlockError):
            seg.heap.block_by_name("label")
        writer.tx_commit(seg)
        assert 2 not in server.segments["host/tx"].state.blocks

    def test_commit_with_creation(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        counter = writer.malloc(seg, INT, name="c")
        counter.set(5)
        writer.tx_commit(seg)
        assert writer.accessor_for(seg, "c").get() == 5


class TestAbort:
    def test_abort_rolls_back_modifications(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        array = writer.accessor_for(seg, "a")
        array.write_values([0] * 64)
        writer.accessor_for(seg, "label").set("scribbled")
        writer.tx_abort(seg)
        assert list(writer.accessor_for(seg, "a").read_values()) == list(range(64))
        assert writer.accessor_for(seg, "label").get() == "original"
        assert seg.lock_mode is None
        assert seg.version == 1  # no new version reached the server
        assert server.segments["host/tx"].state.version == 1

    def test_abort_unwinds_creations(self, world):
        clock, hub, server, writer, seg = world
        free_before = seg.heap.free_bytes()
        writer.tx_begin(seg)
        writer.malloc(seg, ArrayDescriptor(INT, 10), name="temp")
        writer.tx_abort(seg)
        with pytest.raises(BlockError):
            seg.heap.block_by_name("temp")
        assert seg.heap.free_bytes() == free_before
        seg.heap.check_invariants()

    def test_abort_resurrects_deferred_frees(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        writer.free(seg, writer.accessor_for(seg, "label"))
        writer.tx_abort(seg)
        assert writer.accessor_for(seg, "label").get() == "original"
        # and the server never heard about it
        assert len(server.segments["host/tx"].state.blocks) == 2

    def test_abort_releases_the_write_lock(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        writer.tx_abort(seg)
        other = InterWeaveClient("o", X86_32, hub.connect, clock=clock)
        seg_o = other.open_segment("host/tx")
        other.wl_acquire(seg_o)  # must not block/deny
        other.wl_release(seg_o)

    def test_work_after_abort_is_clean(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        writer.accessor_for(seg, "a")[3] = 999
        writer.tx_abort(seg)
        writer.wl_acquire(seg)
        writer.accessor_for(seg, "a")[5] = 55
        writer.wl_release(seg)
        reader = InterWeaveClient("r2", X86_32, hub.connect, clock=clock)
        seg_r = reader.open_segment("host/tx")
        reader.rl_acquire(seg_r)
        values = list(reader.accessor_for(seg_r, "a").read_values())
        reader.rl_release(seg_r)
        assert values[3] == 3  # the aborted write never escaped
        assert values[5] == 55

    def test_abort_of_created_then_freed_block(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        temp = writer.malloc(seg, INT, name="temp")
        writer.free(seg, temp)  # created this session: freed immediately
        writer.tx_abort(seg)
        with pytest.raises(BlockError):
            seg.heap.block_by_name("temp")
        seg.heap.check_invariants()


class TestAbortRestoresTwinRuns:
    """Abort writes each twin run back in one region write."""

    PAGES = 128

    def _big_world(self, world):
        clock, hub, server, writer, seg = world
        words = self.PAGES * writer.memory.page_size // 4
        writer.wl_acquire(seg)
        big = writer.malloc(seg, ArrayDescriptor(INT, words), name="big")
        big.write_values([k % 977 for k in range(words)])
        writer.wl_release(seg)
        return writer, seg, big

    def _assert_restored(self, writer, seg, image):
        memory = writer.memory
        for subsegment in seg.heap.subsegments:
            assert memory.load(subsegment.base, subsegment.size) == image[
                subsegment.base]
            assert not subsegment.pagemap
            first = subsegment.first_page_number()
            assert all(memory.page(first + k).writable
                       for k in range(subsegment.num_pages))

    def _image(self, writer, seg):
        return {sub.base: writer.memory.load(sub.base, sub.size)
                for sub in seg.heap.subsegments}

    def test_abort_after_one_store_over_many_pages(self, world):
        writer, seg, big = self._big_world(world)
        image = self._image(writer, seg)
        block = seg.heap.block_by_name("big")
        writer.tx_begin(seg)
        faults = writer.memory.stats.write_faults
        writer.memory.store(block.address, b"\xab" * block.size)
        # one store, one run: every page it covers is twinned
        assert writer.memory.stats.write_faults - faults >= self.PAGES
        sub = block.subsegment
        assert len(sub.pagemap) == 1
        assert len(next(iter(sub.pagemap.values()))) >= (
            self.PAGES * writer.memory.page_size)
        writer.tx_abort(seg)
        self._assert_restored(writer, seg, image)
        assert seg.version == 2

    def test_abort_after_scattered_single_page_stores(self, world):
        writer, seg, big = self._big_world(world)
        image = self._image(writer, seg)
        page_size = writer.memory.page_size
        writer.tx_begin(seg)
        for page in range(0, self.PAGES, 7):
            big[page * page_size // 4 + 3] = -page - 1
        writer.accessor_for(seg, "label").set("scribbled")
        assert len(seg.heap.block_by_name("big").subsegment.pagemap) >= (
            self.PAGES // 7)
        writer.tx_abort(seg)
        self._assert_restored(writer, seg, image)
        assert big[3] == 3 and big[7 * page_size // 4 + 3] == (
            (7 * page_size // 4 + 3) % 977)
        assert writer.accessor_for(seg, "label").get() == "original"


class TestTransactionDiscipline:
    def test_commit_without_transaction_rejected(self, world):
        clock, hub, server, writer, seg = world
        with pytest.raises(LockError):
            writer.tx_commit(seg)
        writer.wl_acquire(seg)
        with pytest.raises(LockError):
            writer.tx_commit(seg)  # plain write lock, not a transaction
        writer.wl_release(seg)

    def test_abort_without_transaction_rejected(self, world):
        clock, hub, server, writer, seg = world
        with pytest.raises(LockError):
            writer.tx_abort(seg)

    def test_nested_begin_rejected(self, world):
        clock, hub, server, writer, seg = world
        writer.tx_begin(seg)
        with pytest.raises(LockError):
            writer.tx_begin(seg)
        writer.tx_abort(seg)

    def test_transaction_forces_diffing_mode(self, world):
        clock, hub, server, writer, seg = world
        array = writer.accessor_for(seg, "a")
        # push the segment into no-diff mode with heavy rewrites
        for round_number in range(6):
            writer.wl_acquire(seg)
            array.write_values([round_number] * 64)
            writer.wl_release(seg)
        assert seg.nodiff.in_nodiff_mode
        writer.tx_begin(seg)
        assert seg.session_diffed  # twins exist: rollback is possible
        array.write_values([99] * 64)
        writer.tx_abort(seg)
        assert list(array.read_values()) == [5] * 64
