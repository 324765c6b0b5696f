"""The benchmark's workloads: seeded inputs, how a section applies them, and
the benchmark's own model of the values a reader must see.

Every input (record picks, word indices, values) is derived from the
workload seed; the program only receives the generated inputs.  The model
is updated from the same inputs, never from what the program returns, so
each read section is checked against values the program did not produce.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.types import (
    DOUBLE,
    INT,
    ArrayDescriptor,
    Field,
    PointerDescriptor,
    RecordDescriptor,
    StringDescriptor,
)

#: generator streams derived from the seed
_FILL, _WRITES, _OFFSETS = 0, 1, 2


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


class SmallSections:
    """One block of 1024 records; a write changes 4 records and one pointer.

    Why: ~100 KB of data and a few hundred changed bytes per section, so
    the fixed cost per message dominates (client API, framing, TCP round
    trip, server dispatch).  Transport and server-core changes show here;
    data-plane changes should leave it unchanged.  Each record is the
    Figure-4 ``mix`` shape plus a pointer to another record, so pointer
    swizzling (MIPs) is on the path.
    """

    name = "small-sections"
    RECORDS = 1024
    PICKS = 4
    STRING_CHARS = 60
    reads_every = 1

    def __init__(self, seed: int):
        self.seed = seed
        record = RecordDescriptor("perf_rec", [
            Field("i", INT),
            Field("d", DOUBLE),
            Field("s", StringDescriptor(64)),
            Field("tag", StringDescriptor(4)),
            Field("p", PointerDescriptor(None, "perf_rec")),
        ])
        record.fields[-1].descriptor.target = record
        self.descriptor = ArrayDescriptor(record, self.RECORDS)
        fill = self._values(_rng(seed, _FILL), self.RECORDS)
        targets = _rng(seed, _FILL, 1).integers(0, self.RECORDS, self.RECORDS)
        self.model = {"i": list(fill["i"]), "d": list(fill["d"]),
                      "s": list(fill["s"]), "tag": list(fill["tag"]),
                      "p": [int(t) for t in targets]}
        self._initial = dict(fill, p=self.model["p"][:])
        self.acc = self.racc = self.reader = None
        self.mips: List[str] = []

    def _values(self, rng: np.random.Generator, count: int) -> dict:
        letters = rng.integers(97, 123, (count, self.STRING_CHARS + 3),
                               dtype=np.uint8)
        return {
            "i": [int(v) for v in rng.integers(-2**31, 2**31, count)],
            "d": [float(v) for v in rng.random(count) * 1e6],
            "s": [bytes(row[:self.STRING_CHARS]).decode() for row in letters],
            "tag": [bytes(row[self.STRING_CHARS:]).decode() for row in letters],
        }

    # -- program side ---------------------------------------------------------

    def fill(self, writer, segment) -> None:
        """Allocate and fill the block (inside the setup write section)."""
        self.acc = writer.malloc(segment, self.descriptor, name="data")
        for k in range(self.RECORDS):
            self._store(k, self._initial, k)

    def _store(self, k: int, values: dict, j: int) -> None:
        record = self.acc[k]
        record.i = values["i"][j]
        record.d = values["d"][j]
        record.s = values["s"][j]
        record.tag = values["tag"][j]
        if "p" in values:
            record.p = self.acc.element_accessor(values["p"][j])

    def attach(self, writer, reader, reader_segment) -> None:
        """After setup: the reader's accessor and the expected MIPs."""
        self.reader = reader
        self.racc = reader.accessor_for(reader_segment, "data")
        self.mips = [writer.ptr_to_mip(self.acc.element_accessor(k))
                     for k in range(self.RECORDS)]

    def write_input(self, k: int) -> dict:
        rng = _rng(self.seed, _WRITES, k)
        picks = rng.choice(self.RECORDS, self.PICKS, replace=False)
        values = self._values(rng, self.PICKS)
        values["picks"] = [int(v) for v in picks]
        values["pointer"] = (int(rng.integers(self.RECORDS)),
                             int(rng.integers(self.RECORDS)))
        return values

    def write(self, inp: dict) -> None:
        for j, k in enumerate(inp["picks"]):
            self._store(k, inp, j)
        source, target = inp["pointer"]
        self.acc[source].p = self.acc.element_accessor(target)

    def changed_bytes(self, inp: dict) -> int:
        """Bytes the writer stores (X86_32 local format): 4 records of
        int + double + 64-byte string + 4-byte string, and one pointer."""
        return self.PICKS * (4 + 8 + 64 + 4) + 4

    @staticmethod
    def _changed(inputs: List[dict]) -> List[int]:
        changed = set()
        for inp in inputs:
            changed.update(inp["picks"])
            changed.add(inp["pointer"][0])
        return sorted(changed)

    def read(self, inputs: List[dict]) -> list:
        """Read every changed record, pointers as MIPs (inside the section)."""
        return [self._read_record(k) for k in self._changed(inputs)]

    def _read_record(self, k: int) -> tuple:
        record = self.racc[k]
        pointer = record.field_accessor("p").address_value()
        return (k, record.i, record.d, record.s, record.tag,
                self.reader.ptr_to_mip(pointer))

    # -- model side ---------------------------------------------------------

    def commit(self, inp: dict) -> None:
        for j, k in enumerate(inp["picks"]):
            for field in ("i", "d", "s", "tag"):
                self.model[field][k] = inp[field][j]
        source, target = inp["pointer"]
        self.model["p"][source] = target

    def _expected(self, k: int) -> tuple:
        m = self.model
        return (k, m["i"][k], m["d"][k], m["s"][k], m["tag"][k],
                self.mips[m["p"][k]])

    def check(self, observed: list) -> bool:
        return all(row == self._expected(row[0]) for row in observed)

    def check_all(self) -> bool:
        return all(self._read_record(k) == self._expected(k)
                   for k in range(self.RECORDS))


class _DoubleArray:
    """One ``DOUBLE`` array block; subclasses fix size and change pattern."""

    name = ""
    WORDS = 0
    reads_every = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.descriptor = ArrayDescriptor(DOUBLE, self.WORDS)
        self.model = _rng(seed, _FILL).random(self.WORDS)
        self.acc = self.racc = None

    def fill(self, writer, segment) -> None:
        self.acc = writer.malloc(segment, self.descriptor, name="data")
        self.acc.write_values(self.model)

    def attach(self, writer, reader, reader_segment) -> None:
        self.racc = reader.accessor_for(reader_segment, "data")

    def changed_bytes(self, inp) -> int:
        return 8 * len(inp[0])

    def commit(self, inp) -> None:
        indices, values = inp
        self.model[indices] = values

    @staticmethod
    def _changed(inputs) -> np.ndarray:
        return np.unique(np.concatenate([indices for indices, _ in inputs]))

    def check(self, observed) -> bool:
        indices, values = observed
        return np.array_equal(values, self.model[indices])

    def check_all(self) -> bool:
        return np.array_equal(self.racc.read_values(), self.model)


class Sparse32MB(_DoubleArray):
    """A 32 MB ``DOUBLE`` array; a write changes 8 scattered words and the
    reader reads every version.

    Why: the diff is 64 bytes, but the block is 32 MB.  If cost follows
    block size instead of change size (whole-block loads, copies and
    scans), it shows here and nowhere else; the transport cost is
    negligible.  This is where an O(diff) release path must show.
    """

    name = "sparse-32mb"
    WORDS = 32 * 1024 * 1024 // 8
    CHANGED = 8

    def write_input(self, k: int):
        rng = _rng(self.seed, _WRITES, k)
        indices = np.unique(rng.integers(0, self.WORDS, self.CHANGED))
        while len(indices) < self.CHANGED:
            extra = rng.integers(0, self.WORDS, self.CHANGED - len(indices))
            indices = np.unique(np.concatenate([indices, extra]))
        return indices, rng.random(self.CHANGED)

    def write(self, inp) -> None:
        for index, value in zip(inp[0].tolist(), inp[1].tolist()):
            self.acc[index] = value

    def read(self, inputs):
        indices = self._changed(inputs)
        return indices, np.array([self.racc[i] for i in indices.tolist()])


class Dense8MB(_DoubleArray):
    """An 8 MB ``DOUBLE`` array; a write rewrites every 10th word (10%)
    from a seeded offset, and the reader reads every 2nd version.

    Why: a changed word every 80 bytes is too sparse for run splicing
    (which spans gaps of at most 2 words), so each write is ~100k
    one-word runs: this stresses the per-byte data plane (word diff,
    translation, codec, WAL bytes, DiffCache).  The lagging reader's
    update is composed from two cached diffs.  It uses the same layers as
    ``sparse-32mb`` at a high change rate, so an O(diff) change that costs
    dense throughput shows here.
    """

    name = "dense-8mb"
    WORDS = 8 * 1024 * 1024 // 8
    STRIDE = 10
    reads_every = 2

    def write_input(self, k: int):
        # the two writes a read composes never share an offset, so every
        # read's update carries twice the runs of a write
        offsets = _rng(self.seed, _OFFSETS, k // 2).choice(
            self.STRIDE, 2, replace=False)
        indices = np.arange(int(offsets[k % 2]), self.WORDS, self.STRIDE)
        return indices, _rng(self.seed, _WRITES, k).random(len(indices))

    def write(self, inp) -> None:
        # read-modify-write of the whole image: every page holds changed
        # words, so each page faults and is twinned either way
        image = self.acc.read_values().copy()
        image[inp[0]] = inp[1]
        self.acc.write_values(image)

    def read(self, inputs):
        indices = self._changed(inputs)
        return indices, self.racc.read_values()[indices]


WORKLOADS = {cls.name: cls for cls in (SmallSections, Sparse32MB, Dense8MB)}
