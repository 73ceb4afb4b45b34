"""Self time and trace merging of the span recorder, on hand-built spans."""

from __future__ import annotations

import pytest

import layers
from spans import Tracer, self_times


def test_self_time_subtracts_the_time_children_cover():
    t = Tracer()
    parent = t.add("algorithms.mallows", 0.0, 10.0)
    t.add("mallows.sample_mallows_batch", 1.0, 4.0, parent=parent)
    # Overlapping children are not counted twice.
    t.add("mallows.sample_mallows_batch", 3.0, 5.0, parent=parent)
    t.add("other", 20.0, 21.0)
    own = self_times(t.as_dict())
    assert own["algorithms.mallows"] == [pytest.approx(6.0)]
    assert own["mallows.sample_mallows_batch"] == [pytest.approx(3.0), pytest.approx(2.0)]
    assert own["other"] == [pytest.approx(1.0)]


def test_nested_spans_and_wrapped_calls_record_their_parent():
    t = Tracer()

    def work(x):
        return x + 1

    traced = t.wrap(work, "inner")
    with t.span("outer", rid=7):
        assert traced(1) == 2
    (_, outer, *_), (_, inner, _, _, parent, _) = t.spans
    assert (outer, inner, parent) == ("outer", "inner", 0)
    assert t.spans[0][5] == 7


def test_merge_renumbers_child_process_spans():
    parent = Tracer()
    parent.add("a", 0.0, 1.0)
    child = Tracer()
    top = child.add("b", 0.0, 2.0)
    child.add("c", 0.5, 1.0, parent=top)
    child.samples["x"].append(3.0)
    child.counters["k"] = 1
    parent.merge(child.as_dict())
    assert [s[0] for s in parent.spans] == [0, 1, 2]
    assert parent.spans[2][4] == 1
    assert parent.samples["x"] == [3.0] and parent.counters["k"] == 1


def test_every_layer_metric_reads_zero_with_base_zero_on_an_empty_trace():
    derived = layers.derive(Tracer().as_dict())
    assert set(derived) == set(layers.METRICS)
    assert all(value == 0.0 and base == 0 for value, _, base in derived.values())
