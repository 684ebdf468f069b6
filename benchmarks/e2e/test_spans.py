"""Unit tests of the span recorder and self-time accounting."""

import pytest

from spans import Tracer, frame_layer_seconds, read_jsonl, self_times, \
    write_jsonl

pytestmark = pytest.mark.filterwarnings(
    "ignore:Benchmark fixture was not used")


def _span(sid, name, parent, start, end, frame=0):
    return {"id": sid, "name": name, "parent": parent, "frame": frame,
            "start": start, "end": end}


def test_self_time_subtracts_covered_child_interval():
    spans = [_span(0, "frame", None, 0.0, 10.0),
             _span(1, "a", 0, 1.0, 3.0),
             _span(2, "b", 0, 2.0, 5.0),    # overlaps a: union [1, 5]
             _span(3, "c", 0, 9.0, 12.0),   # clipped to the parent: [9, 10]
             _span(4, "d", 2, 2.5, 3.0)]    # grandchild counts against b
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_sequential_children_add_up_to_the_root():
    spans = [_span(0, "frame", None, 0.0, 1.0),
             _span(1, "extract", 0, 0.1, 0.4),
             _span(2, "extract", 0, 0.4, 0.6),
             _span(3, "classify", 0, 0.7, 0.9),
             _span(4, "frame", None, 2.0, 2.5, frame=1),
             _span(5, "classify", 4, 2.0, 2.5, frame=1)]
    per = frame_layer_seconds(spans)
    assert per[0] == pytest.approx({"frame": 0.3, "extract": 0.5,
                                    "classify": 0.2})
    assert per[1] == pytest.approx({"frame": 0.0, "classify": 0.5})
    assert sum(per[0].values()) == pytest.approx(1.0)


def test_tracer_records_parents_and_frames(tmp_path):
    tracer = Tracer()
    with tracer.span("frame", 7):
        with tracer.span("runtime.quarantine", 7):
            pass
        with tracer.span("pipeline.pyramid", 7):
            pass
    with tracer.span("frame", 8):
        pass
    names = [(s["name"], s["parent"], s["frame"]) for s in tracer.spans]
    assert names == [("frame", None, 7), ("runtime.quarantine", 0, 7),
                     ("pipeline.pyramid", 0, 7), ("frame", None, 8)]
    assert all(s["end"] >= s["start"] for s in tracer.spans)
    path = tmp_path / "spans.jsonl"
    write_jsonl(tracer.spans, path)
    assert read_jsonl(path) == tracer.spans


def test_span_closes_when_the_call_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("frame", 0):
            raise RuntimeError("boom")
    assert tracer.spans[0]["end"] is not None
    with tracer.span("frame", 1):
        pass
    assert tracer.spans[1]["parent"] is None
