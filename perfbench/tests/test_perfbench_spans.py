"""Span recording, the client/server join and self-time computation."""

import types

import pytest

import spans
from spans import END, PARENT, START, SpanRecorder, join_requests, self_times


def span(name, start, end, parent=None, request=None):
    return [name, "layer", start, end, parent, request, None]


def test_self_time_subtracts_nested_children():
    root = span("root", 0, 100)
    child = span("child", 10, 40, root)
    grandchild = span("grandchild", 20, 30, child)
    own = self_times([root, child, grandchild])
    assert own[id(root)] == 70
    assert own[id(child)] == 20
    assert own[id(grandchild)] == 10


def test_self_time_counts_overlapping_children_once():
    root = span("root", 0, 100)
    first = span("a", 10, 50, root)
    second = span("b", 30, 60, root)  # overlaps a over 30..50
    inside = span("c", 35, 45, root)  # inside both
    assert self_times([root, first, second, inside])[id(root)] == 100 - 50


def test_self_time_clips_children_to_the_parent():
    root = span("root", 100, 200)
    early = span("early", 50, 120, root)  # starts before the parent
    late = span("late", 190, 260, root)  # ends after it
    assert self_times([root, early, late])[id(root)] == 100 - 20 - 10


def test_self_time_without_children_is_the_duration():
    lone = span("lone", 5, 17)
    assert self_times([lone])[id(lone)] == 12


def test_join_parents_server_roots_under_matching_requests():
    section = span("section", 0, 100)
    request = span("channel.request", 10, 90, section, request="writer:1")
    dispatch = span("server.dispatch", 20, 80, request="writer:1")
    stray = span("server.dispatch", 95, 99, request="writer:2")
    assert join_requests([section, request], [dispatch, stray]) == 1
    assert dispatch[PARENT] is request
    assert stray[PARENT] is None
    assert self_times([section, request, dispatch])[id(request)] == 20


def test_wrapper_records_nesting_and_request_ids():
    recorder = SpanRecorder()
    module = types.SimpleNamespace()

    def inner(client_id):
        return client_id.upper()

    def outer(client_id):
        return module.inner(client_id)

    module.inner = recorder.wrap(inner, "inner", "low",
                                 request_of=lambda args: args[0])
    module.outer = recorder.wrap(outer, "outer", "high")
    assert module.outer("w") == "W"
    assert module.outer("w") == "W"
    outer1, inner1, outer2, inner2 = recorder.spans
    assert inner1[PARENT] is outer1 and outer1[PARENT] is None
    assert (inner1[spans.REQUEST], inner2[spans.REQUEST]) == ("w:1", "w:2")
    assert outer1[START] <= inner1[START] <= inner1[END] <= outer1[END]


def test_wrapper_ends_the_span_when_the_call_raises():
    recorder = SpanRecorder()

    def fails():
        raise KeyError("boom")

    wrapped = recorder.wrap(fails, "fails", "layer")
    with pytest.raises(KeyError):
        wrapped()
    assert recorder.spans[0][END] >= recorder.spans[0][START]
    assert recorder._stack() == []


def test_install_wraps_the_looked_up_name_and_uninstall_restores_it():
    import repro.client.client as client_module

    original = client_module.collect_write_diff
    recorder = SpanRecorder()
    recorder.install("repro.client.client:collect_write_diff", "collect",
                     "client.collect")
    recorder.install("repro.memory.mmu:AddressSpace.load", "load", "memory.mmu")
    assert client_module.collect_write_diff is not original
    recorder.uninstall()
    assert client_module.collect_write_diff is original
    from repro.memory.mmu import AddressSpace

    assert "wrapper" not in AddressSpace.load.__qualname__


def test_spans_round_trip_through_a_file(tmp_path):
    root = span("root", 0, 100)
    child = span("child", 10, 40, root, request="reader:3")
    child[spans.AMOUNT] = 4096
    path = str(tmp_path / "spans.jsonl.gz")
    spans.write_spans(path, {"client": [root, child]})
    read_root, read_child = spans.read_spans(path)
    assert read_child[PARENT] is read_root
    assert read_child[:4] == child[:4]
    assert read_child[spans.REQUEST:] == ["reader:3", 4096]
