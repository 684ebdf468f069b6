"""Statistics, quality matching and result records of the e2e benchmark.

Pure helpers with no model in sight, so the unit tests exercise them in
milliseconds: percentile and tail choice, quartile spreads, greedy IoU
matching against generator truth, open-loop lateness, the one-line result
JSON the benchmark prints last, and the ``--compare`` verdicts.
"""

from __future__ import annotations

import json
import math
import statistics

import numpy as np

from repro.pipeline.multiscale import Detection, iou

__all__ = ["percentile", "block_median", "tail", "quartiles", "spread",
           "match_count", "lateness", "open_loop_times", "result_line",
           "parse_result", "compare"]

#: Blocks of consecutive frames behind :func:`block_median`.
BLOCKS = 5
#: Tail candidates, highest first; the tail is the highest one that
#: leaves at least MIN_BEYOND samples above it.
TAIL_PERCENTILES = (99, 98, 95, 90, 80)
MIN_BEYOND = 10

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (NumPy's default method)."""
    return float(np.percentile(values, q))


def block_median(values, blocks=BLOCKS):
    """Median over blocks of consecutive values of each block's mean.

    The values are split into ``blocks`` runs of consecutive samples (one
    per value when there are fewer) and each run is averaged.  When frames
    alternate between a fast and a slow machine state, a per-frame median
    jumps from one state to the other as their mix crosses one half; the
    block means move with the mix instead, and their median still ignores
    one disturbed block.
    """
    n = len(values)
    if not n:
        raise ValueError("block median of no values")
    k = min(blocks, n)
    edges = [round(i * n / k) for i in range(k + 1)]
    return statistics.median(statistics.fmean(values[a:b])
                             for a, b in zip(edges, edges[1:]))


def tail(values):
    """``(percentile, value)``: the highest percentile with >= 10 beyond.

    A percentile ``p`` of ``n`` samples has ``n * (1 - p / 100)`` samples
    beyond it, so below 50 samples no candidate qualifies.  No tail is
    resolvable then, and the result is ``(None, block_median(values))``:
    the tail reads the typical frame time rather than one noisy frame.
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p, percentile(values, p)
    return None, block_median(values)


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def match_count(detections, truth, iou_min=0.3):
    """Truth boxes matched by greedy best-score-first IoU matching.

    Each detection, best score first, claims the unclaimed truth box
    ``(y, x, side)`` it overlaps most, if that overlap reaches
    ``iou_min`` (the convention of ``repro.noise.campaign``).
    """
    boxes = [Detection(float(y), float(x), float(s), 0.0) for y, x, s in truth]
    claimed = set()
    for det in sorted(detections, key=lambda d: -d.score):
        best_j, best = None, 0.0
        for j, box in enumerate(boxes):
            if j not in claimed:
                overlap = iou(det, box)
                if overlap > best:
                    best, best_j = overlap, j
        if best_j is not None and best >= iou_min:
            claimed.add(best_j)
    return len(claimed)


def lateness(due, sent):
    """Seconds each open-loop submission went out after it was due."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def open_loop_times(due, sent, latency):
    """Due-time-to-result seconds: generator lateness plus served latency.

    ``latency`` is the runtime's submit-to-done time, so a frame held up
    by a stalled generator is charged for the stall, not just its own
    queueing and processing.
    """
    return [lt + la for lt, la in zip(lateness(due, sent), latency)]


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's last stdout line: one JSON object."""
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()}})


def parse_result(line):
    """Inverse of :func:`result_line`, rejecting malformed objects."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or tuple(sorted(obj)) != tuple(
            sorted(RESULT_KEYS)):
        raise ValueError(f"result keys {sorted(obj)} != {sorted(RESULT_KEYS)}")
    for name, m in obj["metrics"].items():
        if sorted(m) != ["unit", "value"]:
            raise ValueError(f"metric {name!r} has keys {sorted(m)}")
    return obj


def compare(a, b, end_to_end):
    """Verdict rows for two result sets.

    ``a`` and ``b`` map ``workload -> metric -> [values]`` (at least three
    runs each); ``end_to_end`` is BENCHMARK.json's metric list.  A pairing
    is ``FLAG`` when ``b``'s median is worse than ``a``'s by more than the
    bound, ``unresolved`` when either side's quartile spread exceeds the
    bound (unless every ``b`` run beats every ``a`` run), else ``ok``.
    """
    rows = []
    for wl in sorted(set(a) | set(b)):
        for m in end_to_end:
            name, bound = m["name"], m["bound"]
            va, vb = a.get(wl, {}).get(name, []), b.get(wl, {}).get(name, [])
            if len(va) < 3 or len(vb) < 3:
                raise ValueError(f"{wl}/{name}: need >= 3 runs per side, "
                                 f"got {len(va)} and {len(vb)}")
            qa, qb = quartiles(va), quartiles(vb)
            lower = m["better"] == "lower"
            ma, mb = qa[1], qb[1]
            worse = ((mb - ma) if lower else (ma - mb)) / abs(ma) if ma \
                else (0.0 if mb == ma else math.inf)
            beats = max(vb) < min(va) if lower else min(vb) > max(va)
            noisy = max(spread(va), spread(vb)) > bound
            status = ("FLAG" if worse > bound
                      else "unresolved" if noisy and not beats else "ok")
            rows.append({"workload": wl, "metric": name, "unit": m["unit"],
                         "a": qa, "b": qb, "worse": worse, "bound": bound,
                         "spread_a": spread(va), "spread_b": spread(vb),
                         "status": status})
    return rows
