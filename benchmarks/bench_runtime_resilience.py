"""Chaos campaign for the resilient serving runtime.

Three scripted failure scenarios drive
:class:`repro.runtime.ResilientVideoDetector` end to end through
:func:`repro.runtime.run_scenario`:

* ``load_spike`` - a burst of injected per-frame contention above the
  budget; the degradation ladder must shed work (and ideally climb back
  after the burst) while served processing p95 stays inside the budget.
* ``stall_poison`` - a soft stall (cancellable), a hard stall (wedges
  the consumer; only a watchdog restart recovers), and poison frames of
  three kinds; the loop must survive with every stall recovered and
  every poison frame quarantined *without* contaminating the engine's
  scene cache.
* ``bit_faults`` - packed bit flips in the feature datapath plus a
  corrupted stored class model, the Table-2 robustness story running
  inside the serving loop.

Every scenario is gated on what it scripts (no crashes, stalls
recovered, poison quarantined + uncached, recall within tolerance of a
clean twin replayed at the rung each frame was served at, processing p95
within budget) and the reports -
plus the truncated-dimension accuracy-vs-words curve behind the ladder's
``truncated`` rung - land in ``benchmarks/results/runtime_resilience.
{txt,json}``.

The per-frame latency budget is calibrated per machine (3x the clean
median over distinct frames), so the scenarios exercise the same control
behavior on a laptop and a loaded CI runner.
"""

import time

import pytest

from common import SCALE, fmt_row, write_json, write_report

from repro.core.packed import block_dim
from repro.datasets import make_face_dataset
from repro.datasets.synth import moving_face_sequence
from repro.pipeline import HDFacePipeline, PyramidDetector, SlidingWindowDetector
from repro.runtime import (ChaosScenario, ResilientVideoDetector,
                           run_scenario)

DIM = 1024 if SCALE == "smoke" else 2048
SCENE = 64
WINDOW = 24
STRIDE = 8
N_FRAMES = 24 if SCALE == "smoke" else 48
MAX_RECALL_DROP = 0.05


@pytest.fixture(scope="module")
def pipe():
    xtr, ytr = make_face_dataset(96, size=WINDOW, seed_or_rng=0)
    return HDFacePipeline(2, dim=DIM, cell_size=8, magnitude="l1",
                          epochs=10, seed_or_rng=0).fit(xtr, ytr)


@pytest.fixture(scope="module")
def video():
    frames, truth = moving_face_sequence(SCENE, N_FRAMES, window=WINDOW,
                                         step=2, seed_or_rng=11)
    return frames, [[t] for t in truth]


def _detector(pipe):
    det = SlidingWindowDetector(pipe, window=WINDOW, stride=STRIDE,
                                backend="packed")
    return PyramidDetector(det, score_threshold=0.0)


@pytest.fixture(scope="module")
def budget(pipe, video):
    """3x the clean median full-rung frame time, on distinct frames."""
    frames, _ = video
    cal = _detector(pipe)
    samples = []
    for frame in frames[:3]:
        t0 = time.perf_counter()
        cal.detect(frame)
        samples.append(time.perf_counter() - t0)
    return 3.0 * sorted(samples)[len(samples) // 2]


def _factory(pipe, budget, stall_timeout):
    def make_runtime():
        return ResilientVideoDetector(
            _detector(pipe), budget=budget, stall_timeout=stall_timeout,
            queue_size=4, policy="block", recover_after=4)
    return make_runtime


def _scenarios(budget_s, stall_timeout):
    n = N_FRAMES
    soft = 2.0 * stall_timeout   # > stall_timeout: cancel stage fires
    hard = 3.2 * stall_timeout   # > stall_timeout + grace: restart fires
    # served contention per spiked frame: with the full-rung detect cost
    # (~budget/3) on top it stays inside the budget, but it outpaces the
    # producer, so queue wait forces the ladder down until the cheap
    # degraded rungs drain the backlog
    spike = 0.5 * budget_s
    return {
        "load_spike": ChaosScenario(
            "load_spike",
            spikes={i: spike for i in range(n // 4, n // 2)},
            seed=0),
        "stall_poison": ChaosScenario(
            "stall_poison",
            stalls={n // 5: soft},
            hard_stalls={n // 2: hard},
            poison={n // 3: "nan", 2 * n // 3: "shape",
                    max(3 * n // 4, 3): "constant"},
            seed=1),
        "bit_faults": ChaosScenario(
            "bit_faults",
            fault_rate=0.001,
            model_fault_rate=0.001,
            seed=2),
    }


@pytest.fixture(scope="module")
def reports(pipe, video, budget):
    frames, truth = video
    stall_timeout = 1.5 * budget
    make_runtime = _factory(pipe, budget, stall_timeout)
    out = {}
    # producer pacing: at the clean full-rung service rate (~budget/3)
    # the loop is stable at rung 0 absent chaos, so the spike/stall
    # trajectories isolate the injected failure rather than intake burst.
    # bit_faults gets extra headroom: fault-armed frames bypass the
    # engine's scene cache (corrupted features are never cached), so
    # every frame pays a cold extraction; the slower pace keeps the run
    # at the full rung and the recall gate then measures pure fault
    # impact on the holographic representation, not ladder degradation.
    paces = {"bit_faults": 0.6 * budget}
    for name, scenario in _scenarios(budget, stall_timeout).items():
        t0 = time.perf_counter()
        report = run_scenario(make_runtime, frames, truth, scenario,
                              pace=paces.get(name, budget / 3.0),
                              max_recall_drop=MAX_RECALL_DROP,
                              p95_tolerance=1.0)
        report["wall_seconds"] = time.perf_counter() - t0
        out[name] = report
    return out


@pytest.fixture(scope="module")
def truncation_curve(pipe):
    """Accuracy of word-prefix classification vs words used (the rung-2
    dial), measured on held-out face/non-face windows."""
    from repro.pipeline.engine import SharedFeatureEngine

    xte, yte = make_face_dataset(80, size=WINDOW, seed_or_rng=5)
    engine = SharedFeatureEngine(pipe.extractor, backend="packed")
    queries = [engine.window_queries(img, [(0, 0)], WINDOW)[0] for img in xte]
    import numpy as np
    queries = np.stack(queries)
    det = SlidingWindowDetector(pipe, window=WINDOW, backend="packed")
    model = det.packed_model()
    full_pred = model.predict(queries)
    curve = []
    total = model.n_words
    words_grid = sorted({max(1, round(total * f))
                         for f in (0.125, 0.25, 0.375, 0.5, 0.75, 1.0)})
    for words in words_grid:
        pred = model.similarities(queries, words).argmax(axis=1)
        curve.append({
            "words": int(words),
            "dim": block_dim(model.dim, 0, words),
            "fraction": words / total,
            "accuracy": float((pred == yte).mean()),
            "matches_full": bool((pred == full_pred).all()),
        })
    assert curve[-1]["matches_full"], (
        "a full-width word prefix must be bitwise-consistent with the "
        "full-dimension model")
    return {"dim": DIM, "n_words": int(total),
            "full_accuracy": float((full_pred == yte).mean()),
            "points": curve}


def _stream(report):
    return report["streams"]["stream"]


class TestChaosGates:
    def test_load_spike_survives_and_degrades(self, reports):
        r = reports["load_spike"]
        s = _stream(r)["stats"]
        assert r["passed"], r["gates"]
        assert s["max_rung"] > 0, "the spike must shed at least one rung"
        assert s["incidents"].get("rung_degraded", 0) >= 1

    def test_stall_poison_recovers_everything(self, reports):
        r = reports["stall_poison"]
        s = _stream(r)["stats"]
        assert r["passed"], r["gates"]
        wd = s["watchdog"]
        assert wd["cancels"] >= 1, "the soft stall must be cancelled"
        assert wd["restarts"] >= 1, "the hard stall must restart the consumer"
        assert s["quarantined"] == 3
        assert s["crashes"] == 0

    def test_bit_faults_within_recall_bound(self, reports):
        r = reports["bit_faults"]
        assert r["passed"], r["gates"]
        counts = _stream(r)["incidents"]["counts"]
        assert counts.get("fault_injected", 0) == 2  # datapath + model

    def test_all_scenarios_zero_crashes(self, reports):
        assert all(_stream(r)["stats"]["crashes"] == 0
                   for r in reports.values())


class TestTruncationCurve:
    def test_monotone_tail_and_exact_head(self, truncation_curve):
        pts = truncation_curve["points"]
        # the holographic dial: more words never ends up worse overall
        assert pts[-1]["accuracy"] >= pts[0]["accuracy"]
        assert pts[-1]["accuracy"] == truncation_curve["full_accuracy"]


def test_write_results(reports, truncation_curve, budget):
    widths = (14, 8, 8, 10, 10, 10, 10, 8)
    lines = [fmt_row(("scenario", "passed", "frames", "recall", "twin",
                      "proc_p95", "deepest", "crashes"), widths)]
    for name, r in reports.items():
        e = _stream(r)
        lines.append(fmt_row((
            name, r["passed"], e["stats"]["frames"],
            f"{e['recall']:.3f}", f"{e['recall_twin']:.3f}",
            f"{e['stats']['proc_p95'] * 1e3:.1f}ms",
            e["deepest_rung_name"], e["stats"]["crashes"]), widths))
    lines.append("")
    lines.append(fmt_row(("words", "dim", "fraction", "accuracy"),
                         (8, 8, 10, 10)))
    for p in truncation_curve["points"]:
        lines.append(fmt_row((p["words"], p["dim"], f"{p['fraction']:.3f}",
                              f"{p['accuracy']:.3f}"), (8, 8, 10, 10)))
    write_report("runtime_resilience", lines)
    write_json("runtime_resilience", {
        "config": {"dim": DIM, "scene": SCENE, "window": WINDOW,
                   "stride": STRIDE, "n_frames": N_FRAMES,
                   "budget_seconds": budget,
                   "max_recall_drop": MAX_RECALL_DROP},
        "scenarios": reports,
        "truncation_curve": truncation_curve,
    })
