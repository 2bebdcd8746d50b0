"""Span recording and self-time derivation."""

import json

from bench.trace import ROOT, Tracer, self_times


def _span(name, start, end, parent=ROOT, op=ROOT):
    return [name, start, end, parent, op]


def test_self_time_is_duration_minus_child_cover():
    spans = [
        _span("tick", 0, 100),
        _span("cycle", 10, 60, parent=0),
        _span("solve", 20, 40, parent=1),
    ]
    assert self_times(spans) == {"tick": 50, "cycle": 30, "solve": 20}


def test_overlapping_children_are_unioned_and_clipped_to_the_parent():
    spans = [
        _span("window", 0, 100),
        _span("acquire", 10, 50, parent=0),
        _span("acquire", 30, 70, parent=0),   # overlaps the first
        _span("acquire", 90, 130, parent=0),  # runs past the parent
    ]
    # Cover is [10, 70) + [90, 100) = 70.
    assert self_times(spans)["window"] == 30


def test_open_spans_are_left_out():
    assert self_times([_span("never-closed", 5, 0)]) == {}


def test_nested_scopes_record_parent_and_operation():
    tracer = Tracer()
    with tracer.span("tick", op=7) as outer:
        with tracer.span("cycle") as inner:
            pass
    assert [s[0] for s in tracer.spans] == ["tick", "cycle"]
    assert tracer.spans[inner][3] == outer
    assert tracer.spans[outer][3] == ROOT and tracer.spans[outer][4] == 7
    assert all(s[2] >= s[1] > 0 for s in tracer.spans)


def test_begin_end_take_an_explicit_parent():
    tracer = Tracer()
    parent = tracer.begin("window")
    child = tracer.begin("acquire", op=3, parent=parent)
    tracer.end(child)
    tracer.end(parent)
    assert tracer.spans[child][3] == parent
    assert len(tracer.durations_us("acquire")) == 1


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("tick"):
        tracer.end(tracer.begin("acquire"))
    assert tracer.spans == []
    assert tracer.p_us("tick", 50) == 0.0 and tracer.mean_us("tick") == 0.0


def test_write_is_one_json_object_per_span(tmp_path):
    tracer = Tracer()
    with tracer.span("tick", op=1):
        pass
    out = tmp_path / "spans.jsonl"
    tracer.write(out)
    (line,) = out.read_text().splitlines()
    span = json.loads(line)
    assert span["name"] == "tick" and span["op"] == 1 and span["parent"] == ROOT
    assert span["end_ns"] >= span["start_ns"]
