"""Fleet serving: cross-stream batching vs N independent runtimes.

The fleet's claim is consolidation: N streams served from one machine
share the packed datapath (one content-addressed feature cache whose
stored query sets serve every stream, and one pooled similarity search
over every stream's windows via the batch gate) instead of each stream
owning a full engine.  On the fleet-typical workload - many consumers
watching overlapping content - the independent baseline re-extracts,
re-assembles and re-scans the same pixels N times; the fleet extracts
and assembles once and scores every stream's windows in one search,
bitwise identically.

This bench pins that: for each swept stream count, aggregate frames/sec
of (a) N fully independent ``ResilientVideoDetector``s (own detector,
own engine, own cache - the no-fleet deployment) vs (b) one
``FleetDispatcher`` over a shared datapath with the batch gate, both
driven through the same async submit path with degradation pinned to the
full rung.  Every stream's detections are asserted bitwise-equal to a
solo synchronous reference run on both sides.

Acceptance: the fleet sustains >= 2x the baseline's aggregate
frames/sec at 8 streams.

Results land in ``benchmarks/results/fleet_throughput.{txt,json}``.
Runnable standalone for CI: ``python benchmarks/bench_fleet_throughput.py
--smoke`` (sets ``REPRO_BENCH_SCALE`` before the sweep and exits
non-zero if the gate fails).
"""

import sys
import time

if __name__ == "__main__":  # set the scale knob before importing common
    import argparse
    import os

    _cli = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    _scale = _cli.add_mutually_exclusive_group()
    _scale.add_argument("--smoke", action="store_true",
                        help="small configuration (default)")
    _scale.add_argument("--full", action="store_true",
                        help="paper-scale configuration")
    _args = _cli.parse_args()
    os.environ["REPRO_BENCH_SCALE"] = "full" if _args.full else "smoke"

from common import SCALE, fmt_row, write_json, write_report

from repro.datasets import make_face_dataset
from repro.datasets.synth import moving_face_sequence
from repro.pipeline import (
    HDFacePipeline,
    PyramidDetector,
    SlidingWindowDetector,
)
from repro.runtime import (
    DegradationLadder,
    FleetDispatcher,
    ResilientVideoDetector,
    Rung,
)

DIM = 1024 if SCALE == "smoke" else 2048
SCENE = 64 if SCALE == "smoke" else 96
WINDOW = 24
STRIDE = 8
N_FRAMES = 6 if SCALE == "smoke" else 16
STREAM_COUNTS = (1, 2, 4, 8)
GATE_STREAMS = 8
GATE_SPEEDUP = 2.0

# both sides serve at the full rung with an unreachable budget: the sweep
# measures throughput, not shedding, and keeps every detection bitwise
# comparable across stream counts and deployments
PINNED = dict(budget=1e9, stall_timeout=None, queue_size=64,
              policy="block")


def build_pipe():
    xtr, ytr = make_face_dataset(96, size=WINDOW, seed_or_rng=0)
    return HDFacePipeline(2, dim=DIM, cell_size=8, magnitude="l1",
                          epochs=10, seed_or_rng=0).fit(xtr, ytr)


def make_detector(pipe):
    det = SlidingWindowDetector(pipe, window=WINDOW, stride=STRIDE,
                                backend="packed")
    return PyramidDetector(det, score_threshold=0.0)


def pinned_ladder():
    return DegradationLadder([Rung("full")])


def reference_run(pipe, frames):
    """Solo synchronous detections: the bitwise ground truth."""
    runtime = ResilientVideoDetector(make_detector(pipe),
                                     ladder=pinned_ladder(), **PINNED)
    return [runtime.step(f, meta={"i": i}).detections
            for i, f in enumerate(frames)]


def _submit_all(submit, names, frames):
    for i, frame in enumerate(frames):
        for name in names:
            submit(name, frame, {"i": i})


def run_baseline(pipe, frames, n_streams):
    """N independent runtimes: own engine, own cache, no batching."""
    runtimes = {f"solo{i}": ResilientVideoDetector(
        make_detector(pipe), ladder=pinned_ladder(), **PINNED)
        for i in range(n_streams)}
    for rt in runtimes.values():
        rt.start()
    start = time.perf_counter()
    _submit_all(lambda n, f, m: runtimes[n].submit(f, meta=m),
                list(runtimes), frames)
    results = {name: rt.stop(timeout=120.0)
               for name, rt in runtimes.items()}
    wall = time.perf_counter() - start
    return results, n_streams * len(frames) / wall


def run_fleet(pipe, frames, n_streams):
    """One dispatcher: shared datapath, batch gate, fleet cache."""
    fleet = FleetDispatcher(lambda: make_detector(pipe),
                            max_streams=n_streams, batch_window=0.004,
                            **PINNED)
    names = [f"cam{i}" for i in range(n_streams)]
    for name in names:
        fleet.add_stream(name, ladder=pinned_ladder())
    fleet.start()
    start = time.perf_counter()
    _submit_all(lambda n, f, m: fleet.submit(n, f, meta=m), names, frames)
    results = fleet.stop(timeout=120.0)
    wall = time.perf_counter() - start
    gate = fleet.gate.stats()
    return results, n_streams * len(frames) / wall, gate


def check_bitwise(results, reference, label):
    for name, served in results.items():
        assert len(served) == len(reference), (
            f"{label}/{name}: served {len(served)} of {len(reference)}")
        for r, want in zip(served, reference):
            assert r.mode == "detected", (label, name, r.index, r.mode)
            assert r.detections == want, (
                f"{label}/{name} diverged at frame {r.index}")


def sweep():
    pipe = build_pipe()
    frames, _ = moving_face_sequence(SCENE, N_FRAMES, window=WINDOW,
                                     step=2, seed_or_rng=11)
    frames = list(frames)
    reference = reference_run(pipe, frames)
    rows = []
    for n in STREAM_COUNTS:
        base_results, base_fps = run_baseline(pipe, frames, n)
        fleet_results, fleet_fps, gate = run_fleet(pipe, frames, n)
        check_bitwise(base_results, reference, f"baseline x{n}")
        check_bitwise(fleet_results, reference, f"fleet x{n}")
        rows.append({
            "streams": n,
            "frames_per_stream": len(frames),
            "baseline_fps": round(base_fps, 2),
            "fleet_fps": round(fleet_fps, 2),
            "speedup": round(fleet_fps / base_fps, 2),
            "gate_batches": gate["batches"],
            "mean_requests_per_batch": round(gate["mean_requests"], 2),
            "max_bundles": gate["max_bundles"],
        })
    return rows


def report(rows):
    widths = (8, 14, 12, 9, 9, 13)
    lines = [fmt_row(("streams", "baseline_fps", "fleet_fps", "speedup",
                      "batches", "max_bundles"), widths)]
    for r in rows:
        lines.append(fmt_row((r["streams"], r["baseline_fps"],
                              r["fleet_fps"], r["speedup"],
                              r["gate_batches"], r["max_bundles"]), widths))
    write_report("fleet_throughput", lines)
    gate_row = next(r for r in rows if r["streams"] == GATE_STREAMS)
    write_json("fleet_throughput", {
        "config": {"dim": DIM, "scene": SCENE, "window": WINDOW,
                   "stride": STRIDE, "frames": N_FRAMES,
                   "backend": "packed", "batch_window": 0.004,
                   "stream_counts": list(STREAM_COUNTS)},
        "rows": rows,
        "gate": {"streams": GATE_STREAMS,
                 "speedup": gate_row["speedup"],
                 "required": GATE_SPEEDUP,
                 "passed": gate_row["speedup"] >= GATE_SPEEDUP},
    })
    return gate_row


def test_fleet_throughput():
    """>= 2x aggregate fps at 8 streams, detections bitwise intact."""
    rows = sweep()
    gate_row = report(rows)
    assert gate_row["max_bundles"] >= 2, (
        "the batch gate never merged streams", gate_row)
    assert gate_row["speedup"] >= GATE_SPEEDUP, (
        f"fleet speedup {gate_row['speedup']}x at {GATE_STREAMS} streams "
        f"is below the {GATE_SPEEDUP}x acceptance bar")


if __name__ == "__main__":
    gate_row = report(sweep())
    ok = gate_row["speedup"] >= GATE_SPEEDUP and \
        gate_row["max_bundles"] >= 2
    print(f"gate: {gate_row['speedup']}x at {GATE_STREAMS} streams "
          f"(required {GATE_SPEEDUP}x, max_bundles "
          f"{gate_row['max_bundles']}) -> {'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)
