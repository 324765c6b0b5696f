"""Shared test helpers: hypothesis strategies for types and fixture types."""

import importlib.util
import os
import sys

from hypothesis import strategies as st

from repro.types import (
    CHAR,
    DOUBLE,
    FLOAT,
    HYPER,
    INT,
    SHORT,
    ArrayDescriptor,
    Field,
    PointerDescriptor,
    RecordDescriptor,
    StringDescriptor,
)

_PRIMS = [CHAR, SHORT, INT, HYPER, FLOAT, DOUBLE]

#: the TCP server core ("asyncio") and the thread-per-connection
#: baseline the connection-scale bench measures it against ("threads",
#: ``benchmarks/threaded_core.py``): the TCP suites run against both, so
#: the baseline keeps speaking the core's exact protocol
SERVER_BACKENDS = ("threads", "asyncio")


def make_server_transport(backend, dispatcher, **kwargs):
    """Build the TCP server transport named by ``backend``.

    Both classes share one wire protocol and constructor surface, so a
    test written against one runs unchanged against the other.
    """
    if backend == "asyncio":
        from repro.transport import TCPServerTransport

        return TCPServerTransport(dispatcher, **kwargs)
    return _threaded_core().ThreadedTCPServerTransport(dispatcher, **kwargs)


def _threaded_core():
    name = "threaded_core"
    if name not in sys.modules:
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "benchmarks", "threaded_core.py")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


_counter = [0]


def _fresh_name(prefix):
    _counter[0] += 1
    return f"{prefix}{_counter[0]}"


def leaf_descriptors():
    return st.one_of(
        st.sampled_from(_PRIMS),
        st.integers(min_value=1, max_value=16).map(StringDescriptor),
    )


def descriptors(max_leaves=12):
    """Random descriptor trees (no pointers; see pointer_descriptors)."""

    def extend(children):
        return st.one_of(
            st.tuples(children, st.integers(min_value=1, max_value=5)).map(
                lambda t: ArrayDescriptor(t[0], t[1])),
            st.lists(children, min_size=1, max_size=5).map(
                lambda types: RecordDescriptor(
                    _fresh_name("R"),
                    [Field(f"f{i}", t) for i, t in enumerate(types)])),
        )

    return st.recursive(leaf_descriptors(), extend, max_leaves=max_leaves)


def descriptors_with_pointers(max_leaves=12):
    """Descriptor trees that may contain (self-)pointers."""

    def add_pointer(descriptor):
        target = PointerDescriptor(descriptor, target_name=_fresh_name("T"))
        return RecordDescriptor(
            _fresh_name("P"), [Field("ptr", target), Field("payload", descriptor)])

    return st.one_of(
        descriptors(max_leaves),
        descriptors(max_leaves).map(add_pointer),
    )


def linked_node_type(payload=INT, name=None):
    """A recursive linked-list node record (the paper's Figure 1 type)."""
    name = name or _fresh_name("node")
    next_ptr = PointerDescriptor(None, target_name=name)
    node = RecordDescriptor(name, [Field("key", payload), Field("next", next_ptr)])
    next_ptr.target = node
    return node


def fill_random(acc, descriptor, rng):
    """Fill a value with deterministic pseudo-random data via accessors."""
    import numpy as np

    from repro.arch import PrimKind
    from repro.types import (ArrayDescriptor, PointerDescriptor,
                             PrimitiveDescriptor, RecordDescriptor,
                             StringDescriptor)

    if isinstance(descriptor, PrimitiveDescriptor):
        kind = descriptor.kind
        if kind is PrimKind.CHAR:
            acc.set(chr(rng.integers(32, 127)))
        elif kind is PrimKind.FLOAT:
            acc.set(float(np.float32(rng.normal())))
        elif kind is PrimKind.DOUBLE:
            acc.set(float(rng.normal()))
        else:
            bits = {PrimKind.SHORT: 15, PrimKind.INT: 31, PrimKind.HYPER: 63}[kind]
            acc.set(int(rng.integers(-(2**bits), 2**bits)))
    elif isinstance(descriptor, StringDescriptor):
        length = int(rng.integers(0, descriptor.capacity))
        acc.set("x" * max(0, length - 1))
    elif isinstance(descriptor, RecordDescriptor):
        for f in descriptor.fields:
            fill_random(acc.field_accessor(f.name), f.descriptor, rng)
    elif isinstance(descriptor, ArrayDescriptor):
        for k in range(descriptor.count):
            fill_random(acc.element_accessor(k), descriptor.element, rng)
    elif isinstance(descriptor, PointerDescriptor):
        acc.set(None)
