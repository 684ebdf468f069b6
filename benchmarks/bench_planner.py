"""Planner-vs-hand-ladder parity on the serving workload.

The degradation ladder used to be a hand-tuned table
(:func:`repro.runtime.default_ladder`).  The execution planner derives
the same artifact from the hardware cost model - rung *i* is the plan
chosen at ``budget * shrink^i`` - and closes a measure -> refit ->
replan autotuning loop from the live profiler.  This bench gates the
replacement: the autotuned planner ladder must **match or beat** the
hand-tuned ladder's served p95 processing latency at equal recall on
the same synthetic serving workload, in both regimes that matter:

* ``headroom`` - the budget is 3x the clean cold median frame cost, so
  a correct ladder serves every frame at (or near) the full rung;
* ``tight`` - the budget is 0.25x the cold median, below even the warm
  steady-state frame cost (frame-delta reuse makes warm frames several
  times cheaper than cold ones), so frames miss at the full rung and
  the ladder must shed to get back inside.

Frames are pumped synchronously (``runtime.step``), so the measured
latency is pure processing cost - exactly what the ladder controls -
with no producer/queue noise.  The planner run replans every 8 frames,
so the committed numbers exercise the refit loop, not just the static
plan choice.  Results land in ``benchmarks/results/planner.{txt,json}``.
"""

import time

import pytest

from common import SCALE, fmt_row, write_json, write_report

from repro.datasets import make_face_dataset
from repro.datasets.synth import moving_face_sequence
from repro.pipeline import HDFacePipeline, PyramidDetector, SlidingWindowDetector
from repro.runtime import (ResilientVideoDetector, default_ladder,
                           served_recall)

DIM = 512 if SCALE == "smoke" else 1024
SCENE = 64
WINDOW = 24
STRIDE = 8
N_FRAMES = 24 if SCALE == "smoke" else 48
REPLAN_EVERY = 8
#: timing tolerance for the p95 parity gate - the recall side is exact,
#: the latency side runs on whatever machine executes the bench
P95_TOLERANCE = 1.25
RECALL_EPS = 0.02


@pytest.fixture(scope="module")
def pipe():
    xtr, ytr = make_face_dataset(96, size=WINDOW, seed_or_rng=0)
    return HDFacePipeline(2, dim=DIM, cell_size=8, magnitude="l1",
                          epochs=10, seed_or_rng=0).fit(xtr, ytr)


@pytest.fixture(scope="module")
def video():
    frames, truth = moving_face_sequence(SCENE, N_FRAMES, window=WINDOW,
                                         step=2, seed_or_rng=11)
    return frames, {i: [t] for i, t in enumerate(truth)}


def _detector(pipe):
    det = SlidingWindowDetector(pipe, window=WINDOW, stride=STRIDE,
                                backend="packed")
    return PyramidDetector(det, score_threshold=0.0)


@pytest.fixture(scope="module")
def median_cost(pipe, video):
    """Clean median full-rung frame time over distinct frames."""
    frames, _ = video
    cal = _detector(pipe)
    samples = []
    for frame in frames[:3]:
        t0 = time.perf_counter()
        cal.detect(frame)
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[len(samples) // 2]


def _serve_once(pipe, frames, truth_by_frame, budget, *, planner):
    kwargs = {"planner": True, "replan_every": REPLAN_EVERY} if planner \
        else {"ladder": default_ladder("packed")}
    runtime = ResilientVideoDetector(
        _detector(pipe), budget=budget, stall_timeout=None, **kwargs)
    results = {}
    for i, frame in enumerate(frames):
        results[i] = runtime.step(frame, meta={"frame": i})
    stats = runtime.stats()
    recall, n_scored, _ = served_recall(results, truth_by_frame)
    return {
        "ladder": "planner" if planner else "hand",
        "rungs": [r.name for r in runtime.scheduler.ladder.rungs],
        "recall": recall,
        "frames_scored": n_scored,
        "proc_p50": stats["proc_p50"],
        "proc_p95": stats["proc_p95"],
        "deepest_rung": stats["max_rung"],
        "final_rung": stats["rung_name"],
        "deadline_misses": stats["deadline_misses"],
        "replans": stats["replans"],
        "planner": stats["planner"],
    }


@pytest.fixture(scope="module")
def regimes(pipe, video, median_cost):
    """Both ladders in both regimes, best of 2 interleaved repeats each.

    Repeats are interleaved (hand, planner, hand, planner) and the
    lower-p95 repeat is kept per ladder: external load on a shared
    runner only ever *inflates* the latency tail and throttling bursts
    last longer than one serve, so interleaving exposes both ladders to
    the same conditions and the minimum measures the ladders, not the
    neighbours.
    """
    frames, truth_by_frame = video
    out = {}
    for regime, factor in (("headroom", 3.0), ("tight", 0.25)):
        budget = factor * median_cost
        rows = {"hand": [], "planner": []}
        for _ in range(2):
            for kind in ("hand", "planner"):
                rows[kind].append(_serve_once(
                    pipe, frames, truth_by_frame, budget,
                    planner=kind == "planner"))
        out[regime] = {"budget": budget}
        for kind in ("hand", "planner"):
            out[regime][kind] = min(rows[kind],
                                    key=lambda r: r["proc_p95"])
    return out


def test_planner_matches_hand_ladder(regimes):
    """The parity gate: p95 <= hand x tolerance at equal recall, both regimes."""
    for regime, row in regimes.items():
        hand, auto = row["hand"], row["planner"]
        assert auto["recall"] >= hand["recall"] - RECALL_EPS, \
            (regime, auto["recall"], hand["recall"])
        assert auto["proc_p95"] <= hand["proc_p95"] * P95_TOLERANCE, \
            (regime, auto["proc_p95"], hand["proc_p95"])


def test_refit_loop_ran(regimes):
    """The committed numbers must exercise measure -> refit -> replan."""
    for row in regimes.values():
        auto = row["planner"]
        assert auto["replans"] >= N_FRAMES // REPLAN_EVERY - 1
        assert auto["planner"]["cost_model"]["refits"] >= 1


def test_report(regimes, median_cost):
    widths = (10, 9, 11, 7, 11, 11, 8, 8)
    lines = [
        f"planner-derived ladder vs hand-tuned ladder (D={DIM}, "
        f"{N_FRAMES} frames, {SCENE}px, synchronous pump)",
        f"clean median frame cost: {median_cost:.4f}s; planner replans "
        f"every {REPLAN_EVERY} frames",
        "",
        fmt_row(("regime", "ladder", "budget", "recall", "proc_p50",
                 "proc_p95", "deepest", "replans"), widths),
    ]
    for regime, row in regimes.items():
        for kind in ("hand", "planner"):
            r = row[kind]
            lines.append(fmt_row(
                (regime, r["ladder"], f"{row['budget']:.4f}s",
                 f"{r['recall']:.2f}", f"{r['proc_p50']:.4f}s",
                 f"{r['proc_p95']:.4f}s", r["deepest_rung"],
                 r["replans"]), widths))
    for regime, row in regimes.items():
        lines.append("")
        lines.append(f"{regime}: hand rungs    {row['hand']['rungs']}")
        lines.append(f"{regime}: planner rungs {row['planner']['rungs']}")
    write_report("planner", lines)
    write_json("planner", {
        "dim": DIM, "frames": N_FRAMES, "scene": SCENE,
        "median_cost_s": median_cost,
        "p95_tolerance": P95_TOLERANCE, "recall_eps": RECALL_EPS,
        "replan_every": REPLAN_EVERY,
        "regimes": regimes,
    })
