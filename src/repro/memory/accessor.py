"""Typed accessors: ordinary reads and writes over simulated memory.

InterWeave's selling point is that once a segment is mapped, shared data is
accessed "using ordinary reads and writes" — in C, through plain pointers
and struct fields.  In this reproduction the equivalent surface is the
accessor layer: an :class:`Accessor` wraps (address, type descriptor) and
turns attribute access (``node.key = 5``), indexing (``vec[3] = 1.5``), and
pointer dereference (``node.next``) into loads and stores through the
simulated MMU — so writes take write faults exactly like compiled stores
would, which is what drives twin creation and diffing.

Scalar fields auto-unwrap: reading ``node.key`` yields an ``int``, reading
``node.next`` yields another accessor (or ``None`` for NULL).  Aggregate
fields yield sub-accessors.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.arch import Architecture, PrimKind
from repro.errors import BlockError
from repro.memory.mmu import AddressSpace
from repro.types import (
    ArrayDescriptor,
    PointerDescriptor,
    PrimitiveDescriptor,
    RecordDescriptor,
    StringDescriptor,
    TypeDescriptor,
)


class AccessorContext:
    """Everything an accessor needs to touch memory: the address space and
    the architecture whose local format the bytes are in."""

    __slots__ = ("memory", "arch")

    def __init__(self, memory: AddressSpace, arch: Architecture):
        self.memory = memory
        self.arch = arch


def make_accessor(context: AccessorContext, descriptor: TypeDescriptor,
                  address: int) -> "Accessor":
    """Build the accessor class matching ``descriptor``."""
    if isinstance(descriptor, RecordDescriptor):
        return RecordAccessor(context, descriptor, address)
    if isinstance(descriptor, ArrayDescriptor):
        return ArrayAccessor(context, descriptor, address)
    if isinstance(descriptor, PrimitiveDescriptor):
        return PrimitiveAccessor(context, descriptor, address)
    if isinstance(descriptor, StringDescriptor):
        return StringAccessor(context, descriptor, address)
    if isinstance(descriptor, PointerDescriptor):
        return PointerAccessor(context, descriptor, address)
    raise BlockError(f"no accessor for descriptor {descriptor!r}")


class Accessor:
    """Base: a typed window at an address in simulated memory."""

    __slots__ = ("_context", "_descriptor", "_address")

    def __init__(self, context: AccessorContext, descriptor: TypeDescriptor, address: int):
        object.__setattr__(self, "_context", context)
        object.__setattr__(self, "_descriptor", descriptor)
        object.__setattr__(self, "_address", address)

    @property
    def address(self) -> int:
        return self._address

    @property
    def descriptor(self) -> TypeDescriptor:
        return self._descriptor

    @property
    def context(self) -> AccessorContext:
        return self._context

    def raw_bytes(self) -> bytes:
        """The local-format bytes of this value (mainly for tests)."""
        return self._context.memory.load(
            self._address, self._descriptor.local_size(self._context.arch))

    def __eq__(self, other):
        return (isinstance(other, Accessor)
                and other._address == self._address
                and other._context is self._context
                and other._descriptor == self._descriptor)

    def __hash__(self):
        return hash((id(self._context), self._address))

    def __repr__(self):
        return f"{type(self).__name__}({self._descriptor!r} @ {self._address:#x})"


def _unwrap_get(context, descriptor, address):
    """Read a field: scalars return values, aggregates return accessors."""
    if isinstance(descriptor, PrimitiveDescriptor):
        return PrimitiveAccessor(context, descriptor, address).get()
    if isinstance(descriptor, StringDescriptor):
        return StringAccessor(context, descriptor, address).get()
    if isinstance(descriptor, PointerDescriptor):
        return PointerAccessor(context, descriptor, address).get()
    return make_accessor(context, descriptor, address)


def _unwrap_set(context, descriptor, address, value) -> None:
    """Write a field from a Python value (or copy from an accessor)."""
    if isinstance(descriptor, PrimitiveDescriptor):
        PrimitiveAccessor(context, descriptor, address).set(value)
    elif isinstance(descriptor, StringDescriptor):
        StringAccessor(context, descriptor, address).set(value)
    elif isinstance(descriptor, PointerDescriptor):
        PointerAccessor(context, descriptor, address).set(value)
    elif isinstance(value, Accessor) and value.descriptor == descriptor:
        # struct assignment: byte copy in matching local formats
        if value.context.arch.name != context.arch.name:
            raise BlockError("cannot byte-copy between different architectures")
        context.memory.store(address, value.raw_bytes())
    else:
        raise BlockError(f"cannot assign {value!r} to aggregate {descriptor!r}")


class PrimitiveAccessor(Accessor):
    """A scalar char/short/int/hyper/float/double."""

    __slots__ = ()

    def get(self):
        arch = self._context.arch
        kind = self._descriptor.kind
        data = self._context.memory.load(self._address, arch.prim_size(kind))
        value = arch.decode_prim(kind, data)
        return chr(value) if kind is PrimKind.CHAR else value

    def set(self, value) -> None:
        arch = self._context.arch
        self._context.memory.store(
            self._address, arch.encode_prim(self._descriptor.kind, value))


class StringAccessor(Accessor):
    """A bounded, NUL-terminated string buffer."""

    __slots__ = ()

    def get(self) -> str:
        data = self._context.memory.load(self._address, self._descriptor.capacity)
        nul = data.find(b"\x00")
        return (data if nul < 0 else data[:nul]).decode("utf-8", errors="replace")

    def set(self, value: str) -> None:
        capacity = self._descriptor.capacity
        encoded = value.encode("utf-8")
        if len(encoded) > capacity - 1:
            raise BlockError(
                f"string of {len(encoded)} bytes exceeds capacity {capacity} "
                "(one byte is reserved for the terminator)")
        self._context.memory.store(
            self._address, encoded + b"\x00" * (capacity - len(encoded)))


class PointerAccessor(Accessor):
    """A typed pointer holding a simulated machine address (NULL = 0)."""

    __slots__ = ()

    def get(self) -> Optional[Accessor]:
        address = self.address_value()
        if address == 0:
            return None
        return make_accessor(self._context, self._descriptor.target, address)

    def address_value(self) -> int:
        arch = self._context.arch
        data = self._context.memory.load(self._address, arch.pointer_size)
        return arch.decode_prim(PrimKind.POINTER, data)

    def set(self, target: Union[None, int, Accessor]) -> None:
        if target is None:
            address = 0
        elif isinstance(target, Accessor):
            address = target.address
        elif isinstance(target, int):
            address = target
        else:
            raise BlockError(f"cannot store {target!r} into a pointer")
        arch = self._context.arch
        self._context.memory.store(
            self._address, arch.encode_prim(PrimKind.POINTER, address))


class RecordAccessor(Accessor):
    """A struct: fields are attributes (``rec.field``)."""

    __slots__ = ()

    def _field_address(self, name: str) -> int:
        descriptor: RecordDescriptor = self._descriptor
        return self._address + descriptor.field_local_offset(self._context.arch, name)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        descriptor: RecordDescriptor = self._descriptor
        field = descriptor.field(name)
        return _unwrap_get(self._context, field.descriptor, self._field_address(name))

    def __setattr__(self, name: str, value) -> None:
        descriptor: RecordDescriptor = self._descriptor
        field = descriptor.field(name)
        _unwrap_set(self._context, field.descriptor, self._field_address(name), value)

    def field_accessor(self, name: str) -> Accessor:
        """An accessor for a field even when it is a scalar (no unwrap)."""
        descriptor: RecordDescriptor = self._descriptor
        field = descriptor.field(name)
        return make_accessor(self._context, field.descriptor, self._field_address(name))

    def field_names(self):
        return [field.name for field in self._descriptor.fields]


class ArrayAccessor(Accessor):
    """An array: elements are items (``arr[i]``), with bulk helpers."""

    __slots__ = ()

    def __len__(self) -> int:
        return self._descriptor.count

    def _element_address(self, index: int) -> int:
        descriptor: ArrayDescriptor = self._descriptor
        count = descriptor.count
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(f"array index {index} out of range [0, {count})")
        return self._address + index * descriptor.element_stride(self._context.arch)

    def __getitem__(self, index: int):
        descriptor: ArrayDescriptor = self._descriptor
        return _unwrap_get(self._context, descriptor.element, self._element_address(index))

    def __setitem__(self, index: int, value) -> None:
        descriptor: ArrayDescriptor = self._descriptor
        _unwrap_set(self._context, descriptor.element, self._element_address(index), value)

    def element_accessor(self, index: int) -> Accessor:
        return make_accessor(
            self._context, self._descriptor.element, self._element_address(index))

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    # -- bulk operations (the fast path the benchmarks use) -----------------------

    def write_values(self, values: Sequence, start: int = 0) -> None:
        """Bulk-store primitive values, one MMU store per call.

        Only valid for arrays of fixed-size primitives; values are encoded
        in the architecture's local format with numpy.
        """
        descriptor: ArrayDescriptor = self._descriptor
        element = descriptor.element
        if not isinstance(element, PrimitiveDescriptor):
            raise BlockError("write_values requires an array of primitives")
        if start < 0 or start + len(values) > descriptor.count:
            raise IndexError("write_values range out of bounds")
        dtype = self._context.arch.numpy_dtype(element.kind)
        # the store reads the values' own buffer: no staging copy
        data = np.ascontiguousarray(values, dtype=dtype).reshape(-1).view(np.uint8)
        self._context.memory.store(self._address + start * dtype.itemsize, data)

    def read_values(self, start: int = 0, count: Optional[int] = None) -> np.ndarray:
        """Bulk-load primitive values as a numpy array."""
        descriptor: ArrayDescriptor = self._descriptor
        element = descriptor.element
        if not isinstance(element, PrimitiveDescriptor):
            raise BlockError("read_values requires an array of primitives")
        if count is None:
            count = descriptor.count - start
        if start < 0 or start + count > descriptor.count:
            raise IndexError("read_values range out of bounds")
        dtype = self._context.arch.numpy_dtype(element.kind)
        data = self._context.memory.load(self._address + start * dtype.itemsize,
                                         count * dtype.itemsize)
        return np.frombuffer(data, dtype=dtype)
