"""In-memory span recording for the traced replay, and self-time accounting.

A span is one timed call into a layer: ``name``, ``start`` / ``end``
(``time.perf_counter`` seconds), the ``parent`` span id and the ``frame``
id it belongs to.  Spans stay in memory while the replay runs and are
written as JSONL once it ends, so the only cost inside a frame is two
clock reads and one dict per call.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; self times of one frame's spans add up
to the frame's root span exactly, which is what lets the per-layer
numbers account for the frame.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "self_times", "frame_layer_seconds", "write_jsonl",
           "read_jsonl"]


class Tracer:
    """Single-threaded span recorder (the replay runs in one thread)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, frame):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "frame": frame, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _covered(lo, hi, intervals):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """``{span id: self seconds}``: duration minus child-covered time."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(s["start"], s["end"], children[s["id"]])
            for s in spans}


def frame_layer_seconds(spans):
    """``{frame: {layer: self seconds summed over its spans}}``."""
    own = self_times(spans)
    out = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[s["frame"]][s["name"]] += own[s["id"]]
    return {f: dict(layers) for f, layers in out.items()}


def write_jsonl(spans, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
