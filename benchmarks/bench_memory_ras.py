"""Memory RAS: recompute-as-repair vs modular redundancy, end to end.

Three gates on the reliability subsystem's tentpole claims:

* **bytes** - a single-replica ``check="ecc"`` guarded model (SEC-DED
  parity sidecar + repair ladder) must cut resident protected bytes by
  >= 2.5x against 3-replica TMR while holding equal-or-better
  post-repair accuracy under the same corruption;
* **soak** - a serving loop over the Fig. 6 scene under a sustained
  bit-error rate on every memory surface (scene cache, item memories,
  class model) must detect and repair (or explicitly degrade) every
  injected corruption - zero silent corruption, every served frame
  bitwise equal to a never-injected twin - with recall within 0.02 of
  that twin;
* **remat** - ``remat``/``verify`` item-memory store policies must be
  bitwise-equal to ``store`` through the full detection stack on both
  backends.

Results land in ``benchmarks/results/memory_ras.{txt,json}``.
"""

import numpy as np
import pytest

from common import CONFIG, fmt_row, write_json, write_report

from repro.core.hypervector import pack_bits, random_hypervector
from repro.hardware.report import memory_protection_report
from repro.pipeline import (
    HDFacePipeline,
    PyramidDetector,
    SlidingWindowDetector,
    make_scene,
)
from repro.reliability import AdaptiveGuardedModel, GuardedClassModel
from repro.runtime import ChaosScenario, ResilientVideoDetector, run_scenario

DIM = 1024
WINDOW = 24
SCENE = 96
SPOTS = ((0, 24), (48, 60))
SOAK_FRAMES = 6
SOAK_BER = 2e-4
MAX_RECALL_DROP = 0.02
TMR_REPLICAS = 3
MIN_BYTES_RATIO = 2.5


@pytest.fixture(scope="module")
def pipe():
    from repro.datasets import make_face_dataset
    xtr, ytr = make_face_dataset(96, size=WINDOW, seed_or_rng=0)
    return HDFacePipeline(2, dim=DIM, cell_size=8,
                          magnitude=CONFIG["magnitude"],
                          epochs=CONFIG["hd_epochs"], seed_or_rng=0,
                          store_policy="verify").fit(xtr, ytr)


@pytest.fixture(scope="module")
def fig6_scene():
    return make_scene(SCENE, SPOTS, window=WINDOW, seed_or_rng=7)


# ----------------------------------------------------------------------
# gate (a): bytes vs TMR at equal-or-better post-repair accuracy
# ----------------------------------------------------------------------
def post_repair_accuracy(guard, queries, labels):
    """Accuracy after corruption and one repair pass."""
    guard.corrupt_replica(0, 0.05, seed_or_rng=9)
    guard.scrub(force=True)
    return float((guard.predict(queries) == labels).mean())


@pytest.fixture(scope="module")
def bytes_gate(pipe):
    base = SlidingWindowDetector(pipe, window=WINDOW, stride=8,
                                 backend="packed").packed_model()
    queries = pack_bits(random_hypervector(DIM, 11, shape=(64,)))
    labels = base.predict(queries)
    # the ECC arm is the full recompute-as-repair stack: SEC-DED catches
    # single-bit upsets, the counter-remat rung regenerates rows bitwise
    # under word-burst garbage that no ECC could correct
    ecc = AdaptiveGuardedModel(base, replicas=1, check="ecc", seed_or_rng=0)
    tmr = GuardedClassModel(base, replicas=TMR_REPLICAS, check="checksum",
                            seed_or_rng=0)
    return {
        "ecc_bytes": int(ecc.nbytes),
        "tmr_bytes": int(tmr.nbytes),
        "bytes_ratio": tmr.nbytes / ecc.nbytes,
        "ecc_accuracy": post_repair_accuracy(ecc, queries, labels),
        "tmr_accuracy": post_repair_accuracy(tmr, queries, labels),
        "ecc_rungs": dict(ecc.rungs),
    }


# ----------------------------------------------------------------------
# gate (b): sustained-BER soak on the Fig. 6 scene
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def soak_report(pipe, fig6_scene):
    scene, truth = fig6_scene
    frames = [scene] * SOAK_FRAMES
    truth_by_frame = [list(truth)] * SOAK_FRAMES

    def make_runtime():
        det = SlidingWindowDetector(pipe, window=WINDOW, stride=8,
                                    backend="packed", scrub=True)
        runtime = ResilientVideoDetector(
            PyramidDetector(det, score_threshold=0.0), budget=10.0,
            stall_timeout=None, scrub_budget=0)
        guard = GuardedClassModel(runtime.base.packed_model(), replicas=1,
                                  check="ecc", seed_or_rng=0)
        runtime.model_override = guard
        runtime.scrubber.add_guard(guard)
        return runtime

    return run_scenario(make_runtime, frames, truth_by_frame,
                        ChaosScenario("soak", ber=SOAK_BER, seed=0),
                        max_recall_drop=MAX_RECALL_DROP)


# ----------------------------------------------------------------------
# gate (c): remat bitwise-equal to store on both backends
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def remat_gate(fig6_scene):
    from repro.datasets import make_face_dataset
    scene, _ = fig6_scene
    xtr, ytr = make_face_dataset(48, size=WINDOW, seed_or_rng=0)
    out = {}
    for backend in ("dense", "packed"):
        scores = {}
        for policy in ("store", "verify", "remat"):
            p = HDFacePipeline(2, dim=512, cell_size=8,
                               magnitude=CONFIG["magnitude"], epochs=5,
                               seed_or_rng=0, store_policy=policy
                               ).fit(xtr, ytr)
            det = SlidingWindowDetector(p, window=WINDOW, stride=8,
                                        backend=backend)
            scores[policy] = det.scan(scene).scores
        out[backend] = {
            "verify_equal": bool(np.array_equal(scores["verify"],
                                                scores["store"])),
            "remat_equal": bool(np.array_equal(scores["remat"],
                                               scores["store"])),
        }
    return out


def test_memory_ras_report(bytes_gate, soak_report, remat_gate):
    lines = [f"memory RAS (D={DIM}, {SCENE}x{SCENE} fig6 scene, "
             f"{SOAK_FRAMES} soak frames at BER {SOAK_BER})",
             "",
             "gate (a): resident protected bytes (class model)",
             fmt_row(("scheme", "bytes", "post-repair acc"), (22, 10, 16)),
             fmt_row((f"TMR r={TMR_REPLICAS}", bytes_gate["tmr_bytes"],
                      f"{bytes_gate['tmr_accuracy']:.3f}"), (22, 10, 16)),
             fmt_row(("ECC+remat r=1", bytes_gate["ecc_bytes"],
                      f"{bytes_gate['ecc_accuracy']:.3f}"), (22, 10, 16)),
             f"  bytes ratio {bytes_gate['bytes_ratio']:.2f}x "
             f"(gate >= {MIN_BYTES_RATIO}x)",
             "",
             "gate (b): sustained-BER soak"]
    soak = soak_report["streams"]["stream"]
    memory = soak["memory"]
    lines.append(f"  injected {dict(memory['injected'])} "
                 f"-> {memory['detections']} detected, "
                 f"{memory['repairs']} repaired")
    lines.append(f"  cache {memory['cache']}")
    lines.append(f"  served frames differing from the twin: "
                 f"{soak['frames_differing']} of {soak['frames_compared']}")
    lines.append(f"  recall {soak['recall']:.3f} soak vs "
                 f"{soak['recall_twin']:.3f} twin "
                 f"(drop {soak['recall_drop']:+.3f}, "
                 f"gate <= {MAX_RECALL_DROP})")
    for gate, ok in soak_report["gates"].items():
        lines.append(f"  gate {gate:24s} {'PASS' if ok else 'FAIL'}")
    lines.append("")
    lines.append("gate (c): store-policy bitwise equivalence")
    for backend, eq in remat_gate.items():
        lines.append(f"  {backend:6s} verify={eq['verify_equal']} "
                     f"remat={eq['remat_equal']}")
    lines.append("")
    lines.append("hardware model (resident bytes + scrub cycles):")
    protection = []
    for m in memory_protection_report(dim=DIM, n_classes=2,
                                      tmr_replicas=TMR_REPLICAS):
        lines.append(f"  {m.platform:5s} {m.scheme:10s} "
                     f"{m.resident_bytes:8d} B  "
                     f"scrub {m.scrub_cycles:10.0f} cycles  "
                     f"repair {m.repair_cycles:10.0f} cycles")
        protection.append({
            "platform": m.platform, "scheme": m.scheme,
            "replicas": m.replicas, "resident_bytes": m.resident_bytes,
            "scrub_cycles": m.scrub_cycles,
            "repair_cycles": m.repair_cycles,
        })

    write_report("memory_ras", lines)
    write_json("memory_ras", {
        "config": {"dim": DIM, "scene": SCENE, "window": WINDOW,
                   "soak_frames": SOAK_FRAMES, "ber": SOAK_BER,
                   "tmr_replicas": TMR_REPLICAS,
                   "min_bytes_ratio": MIN_BYTES_RATIO,
                   "max_recall_drop": MAX_RECALL_DROP},
        "bytes": bytes_gate,
        "soak": soak_report,
        "remat": remat_gate,
        "protection": protection,
    })

    # gate (a): >= 2.5x lighter at equal-or-better post-repair accuracy
    assert bytes_gate["bytes_ratio"] >= MIN_BYTES_RATIO
    assert bytes_gate["ecc_accuracy"] >= bytes_gate["tmr_accuracy"]

    # gate (b): every injection detected + repaired/degraded, recall holds
    assert sum(memory["injected"].values()) > 0
    assert soak_report["passed"], soak_report["gates"]

    # gate (c): remat/verify bitwise-equal to store on both backends
    for eq in remat_gate.values():
        assert eq["verify_equal"] and eq["remat_equal"]
