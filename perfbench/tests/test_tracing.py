import numpy as np

from tracing import Tracer, self_times, span_totals


def test_self_time_subtracts_direct_children_only():
    #  root [0, 10]
    #  +- a [1, 4]
    #  |  +- c [2, 3]
    #  +- b [5, 9]
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert self_times(parent, end - start).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_span_totals_group_by_name():
    names = ["loop", "op"]
    name = np.array([0, 1, 1, 0, 1], dtype=np.int32)
    parent = np.array([-1, 0, 0, -1, 3], dtype=np.int32)
    start = np.array([0.0, 1.0, 3.0, 10.0, 11.0])
    end = np.array([5.0, 2.0, 4.0, 20.0, 15.0])
    totals = span_totals(names, name, parent, start, end)
    assert totals["loop"] == {"busy_s": 15.0, "self_s": 9.0, "calls": 2}
    assert totals["op"] == {"busy_s": 6.0, "self_s": 6.0, "calls": 3}


def test_tracer_links_nested_spans_to_their_parent():
    tracer = Tracer()
    outer = tracer._span(lambda: inner(), "outer")
    inner = tracer._span(lambda: None, "inner")
    outer()
    outer()
    name, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name] == ["outer", "inner", "outer", "inner"]
    assert parent.tolist() == [-1, 0, -1, 2]
    assert np.all(end >= start)
    own = self_times(parent, end - start)
    assert np.all(own >= 0)


def test_suspended_tracer_records_nothing():
    tracer = Tracer()
    step = tracer._span(lambda: None, "step")
    step()
    with tracer.suspended():
        step()
    step()
    assert len(tracer.name) == 2
