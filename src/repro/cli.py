"""Command-line interface: train, evaluate, detect and report.

Run as ``python -m repro <command>``:

``train``
    Generate a synthetic dataset, train an HDFace pipeline, report
    held-out accuracy and (optionally) save the model to ``.npz``.
``evaluate``
    Load a saved model and score it on freshly generated data.
``detect``
    Load (or quickly train) a face model and scan a generated scene,
    printing the detection map and writing a PGM overlay.  With
    ``--cascade`` the scan runs the multi-stage early-exit cascade
    (packed backend), optionally with a ``--calibration`` file.
``calibrate``
    Fit cascade rejection thresholds on held-out synthetic scenes and
    write the calibration JSON that ``detect --cascade --calibration``
    and the serving runtime consume.
``report``
    Print the hardware-model efficiency report (Fig. 7), the Sec. 6.3
    per-epoch comparison, and the guarded-model protection overhead.
``robustness``
    Train a small face model, sweep a bit-error rate through the full
    detection path (both backends) and write the recall/precision/IoU
    table to a JSON results file.
``stream``
    Run the streaming detector over a synthetic moving-face video:
    frame-delta feature reuse, temporal tracking, and per-frame
    latency / cache-reuse reporting.
``serve``
    Run the resilient serving runtime over a synthetic video - deadline
    scheduler with the degradation ladder, watchdog recovery, input
    quarantine - optionally under an injected chaos scenario (stalls,
    poison frames, packed bit faults), with gated exit status for CI.
    With ``--streams N`` the runtime serves a fleet of N concurrent
    streams through one shared packed datapath with cross-stream window
    batching and fleet-aware shedding.

All data is synthetic and seeded, so every invocation is reproducible.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser():
    """The argparse grammar (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HDFace: holographic face detection (DAC'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train an HDFace pipeline")
    train.add_argument("--task", choices=("face", "emotion"), default="face")
    train.add_argument("--dim", type=int, default=4096)
    train.add_argument("--size", type=int, default=32, help="image side")
    train.add_argument("--train-samples", type=int, default=120)
    train.add_argument("--test-samples", type=int, default=60)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--magnitude", choices=("l1", "l2_scaled"), default="l1")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--save", metavar="PATH", help="write the model .npz")

    evaluate = sub.add_parser("evaluate", help="score a saved model")
    evaluate.add_argument("model", help="path to a saved .npz model")
    evaluate.add_argument("--task", choices=("face", "emotion"), default="face")
    evaluate.add_argument("--size", type=int, default=32)
    evaluate.add_argument("--samples", type=int, default=60)
    evaluate.add_argument("--seed", type=int, default=1)

    detect = sub.add_parser("detect", help="scan a synthetic scene")
    detect.add_argument("--model", help="saved model (trains one if omitted)")
    detect.add_argument("--dim", type=int, default=2048)
    detect.add_argument("--scene-size", type=int, default=96)
    detect.add_argument("--window", type=int, default=24)
    detect.add_argument("--seed", type=int, default=7)
    detect.add_argument("--stride", type=int, default=None,
                        help="window step in pixels (default: window / 2)")
    detect.add_argument("--engine", choices=("shared", "perwindow", "legacy"),
                        default="shared",
                        help="shared-feature engine (fast), keyed per-window "
                             "reference, or the legacy crop path")
    detect.add_argument("--backend", choices=("dense", "packed"),
                        default="dense",
                        help="dense float hot path, or bit-packed uint64 "
                             "XOR+popcount (shared engine only)")
    detect.add_argument("--workers", type=int, default=1,
                        help="threads for the strip-parallel fields pass "
                             "(shared engine)")
    detect.add_argument("--cascade", action="store_true",
                        help="multi-stage early-exit cascade scan "
                             "(requires --backend packed)")
    detect.add_argument("--calibration", metavar="JSON",
                        help="cascade calibration from `repro calibrate` "
                             "(default: analytic Hoeffding bounds)")
    detect.add_argument("--plan", choices=("auto",), default=None,
                        help="'auto': let the cost-model execution planner "
                             "pick the scan knobs under --deadline and run "
                             "the scene through the planned pyramid path")
    detect.add_argument("--deadline", type=float, default=0.1,
                        help="frame deadline in seconds for --plan auto "
                             "(the planner picks the highest-quality plan "
                             "whose predicted cost fits)")
    detect.add_argument("--profile", action="store_true",
                        help="print stage timings, op counts and the modeled "
                             "Cortex-A53 time for the scan")
    detect.add_argument("--output", metavar="PGM", help="overlay image path")

    calibrate = sub.add_parser(
        "calibrate", help="fit cascade rejection thresholds")
    calibrate.add_argument("--model",
                           help="saved model (trains one if omitted)")
    calibrate.add_argument("--dim", type=int, default=2048)
    calibrate.add_argument("--window", type=int, default=24)
    calibrate.add_argument("--scene-size", type=int, default=96)
    calibrate.add_argument("--scenes", type=int, default=6,
                           help="held-out calibration scenes")
    calibrate.add_argument("--stride", type=int, default=None,
                           help="window step in pixels (default: window / 2)")
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--fn-budget", type=float, default=0.01,
                           help="per-stage false-negative budget")
    calibrate.add_argument("--method", choices=("empirical", "hoeffding"),
                           default="empirical",
                           help="data-fitted quantile bound, or the "
                                "distribution-free analytic bound")
    calibrate.add_argument("--words", default=None,
                           help="comma-separated cumulative stage word "
                                "budgets (default: geometric schedule)")
    calibrate.add_argument("--output", metavar="JSON",
                           default="cascade_calibration.json",
                           help="calibration file to write")

    report = sub.add_parser("report", help="hardware efficiency report")
    report.add_argument("--dim", type=int, default=4096)
    report.add_argument("--incidents", metavar="JSON",
                        help="serving/chaos output JSON (from serve "
                             "--output); prints per-kind incident counters")
    report.add_argument("--guard-replicas", type=int, default=3,
                        help="replica count priced in the protection-"
                             "overhead section")

    robust = sub.add_parser(
        "robustness", help="detection-level fault-injection campaign")
    robust.add_argument("--rates", default="0,0.01,0.05",
                        help="comma-separated bit-error rates to sweep")
    robust.add_argument("--images", type=int, default=8,
                        help="number of test scenes")
    robust.add_argument("--backend", choices=("dense", "packed", "both"),
                        default="both",
                        help="backend under test; the dense reference sweep "
                             "always runs for comparison (dense = dense only)")
    robust.add_argument("--dim", type=int, default=512)
    robust.add_argument("--scene-size", type=int, default=48)
    robust.add_argument("--window", type=int, default=24)
    robust.add_argument("--stride", type=int, default=None)
    robust.add_argument("--seed", type=int, default=0)
    robust.add_argument("--attack", choices=("features", "model", "both"),
                        default="both", help="fault surface to corrupt")
    robust.add_argument("--guard-replicas", type=int, default=0,
                        help="odd replica count: protect the packed model "
                             "with a GuardedClassModel and corrupt one "
                             "replica instead of the live model")
    robust.add_argument("--surfaces", default=None,
                        help="comma-separated extra memory surfaces to "
                             "corrupt at each rate: 'items' (base/pixel/bin "
                             "hypervector tables) and/or 'cache' (the "
                             "shared-feature scene cache)")
    robust.add_argument("--output", metavar="JSON",
                        default="benchmarks/results/detection_robustness.json",
                        help="results file (written via benchmarks.common "
                             "when available)")
    robust.add_argument("--max-recall-drop", type=float, default=None,
                        help="exit non-zero if any backend loses more "
                             "recall than this vs its clean run")

    stream = sub.add_parser(
        "stream", help="streaming detection over a synthetic video")
    stream.add_argument("--frames", type=int, default=12,
                        help="number of synthetic video frames")
    stream.add_argument("--dim", type=int, default=1024)
    stream.add_argument("--scene-size", type=int, default=64)
    stream.add_argument("--window", type=int, default=24)
    stream.add_argument("--stride", type=int, default=None,
                        help="window step in pixels (default: window / 3)")
    stream.add_argument("--step", type=int, default=2,
                        help="face displacement per frame in pixels")
    stream.add_argument("--seed", type=int, default=7)
    stream.add_argument("--backend", choices=("dense", "packed"),
                        default="dense")
    stream.add_argument("--no-incremental", action="store_true",
                        help="disable frame-delta reuse (full re-extraction "
                             "per frame, the baseline)")
    stream.add_argument("--queue-size", type=int, default=4)
    stream.add_argument("--policy", choices=("drop_oldest", "block"),
                        default="drop_oldest")
    stream.add_argument("--profile", action="store_true",
                        help="print the stage table incl. the delta stages")

    serve = sub.add_parser(
        "serve", help="resilient serving runtime over a synthetic video")
    serve.add_argument("--frames", type=int, default=24,
                       help="number of synthetic video frames")
    serve.add_argument("--dim", type=int, default=1024)
    serve.add_argument("--scene-size", type=int, default=64)
    serve.add_argument("--window", type=int, default=24)
    serve.add_argument("--stride", type=int, default=None,
                       help="window step in pixels (default: window / 3)")
    serve.add_argument("--step", type=int, default=2,
                       help="face displacement per frame in pixels")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--backend", choices=("dense", "packed"),
                       default="packed")
    serve.add_argument("--scrub-budget", type=int, default=None,
                       help="background memory-RAS scrubber budget in bytes "
                            "swept per frame (0 = full sweep every frame; "
                            "omit to disable the scrubber)")
    serve.add_argument("--budget", type=float, default=None,
                       help="per-frame latency budget in seconds (default: "
                            "adaptive, 3x the measured clean median)")
    serve.add_argument("--stall-timeout", type=float, default=None,
                       help="watchdog stall timeout in seconds (default: "
                            "4x the budget)")
    serve.add_argument("--queue-size", type=int, default=4)
    serve.add_argument("--streams", type=int, default=1,
                       help="number of concurrent streams; > 1 serves a "
                            "fleet with cross-stream window batching")
    serve.add_argument("--batch-window", type=float, default=0.002,
                       help="fleet batch-gate wait in seconds (collects "
                            "other streams' windows before one packed pass)")
    serve.add_argument("--chaos", action="store_true",
                       help="inject the standard chaos scenario: a soft "
                            "stall, a hard stall, poison frames, and "
                            "packed datapath bit faults")
    serve.add_argument("--adapt", action="store_true",
                       help="arm guarded online adaptation (packed backend "
                            "only): drift-gated harvesting of confirmed "
                            "tracks into a replicated, vetted class model; "
                            "with --chaos the scenario also injects a "
                            "label-poisoning update that must be detected "
                            "and rolled back")
    serve.add_argument("--planner", action="store_true",
                       help="derive the degradation ladder from the cost-"
                            "model execution planner (rungs become planner-"
                            "chosen Plans under a shrinking budget) and "
                            "autotune it from live profiler measurements")
    serve.add_argument("--replan-every", type=int, default=None,
                       help="with --planner: refit the cost model and "
                            "replan the ladder every N frames")
    serve.add_argument("--fault-rate", type=float, default=0.001,
                       help="packed bit-fault rate for the chaos datapath "
                            "injection")
    serve.add_argument("--stall", type=float, default=None,
                       help="injected stall duration in seconds (default: "
                            "3x the stall timeout)")
    serve.add_argument("--p95-tolerance", type=float, default=3.0,
                       help="chaos gate: p95 must stay within "
                            "budget * tolerance")
    serve.add_argument("--max-recall-drop", type=float, default=0.05,
                       help="chaos gate: served recall may trail a clean "
                            "twin replayed at the served rungs by at most "
                            "this")
    serve.add_argument("--checkpoint", metavar="NPZ",
                       help="save the runtime state checkpoint here at the "
                            "end of the run")
    serve.add_argument("--output", metavar="JSON",
                       help="write the chaos report / serve stats JSON here")
    serve.add_argument("--profile", action="store_true",
                       help="print the stage table with latency percentiles")
    return parser


def _write_results_json(path, payload, out):
    """Write a results JSON in ``benchmarks.common.write_json``'s format.

    Canonical encoding (string keys, sorted, 2-space indent, trailing
    newline) plus the bench scale stamp, so CLI-written artifacts that
    land in ``benchmarks/results/`` satisfy the same consistency bar as
    the benchmark harness's own (``tests/test_bench_results.py``).
    """
    import json
    import os

    payload = json.loads(json.dumps(payload, sort_keys=True, default=float))
    payload.setdefault("scale", os.environ.get("REPRO_BENCH_SCALE", "smoke"))
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {path}", file=out)


def _make_data(task, n, size, seed):
    from .datasets import make_emotion_dataset, make_face_dataset
    maker = make_emotion_dataset if task == "emotion" else make_face_dataset
    return maker(n, size=size, seed_or_rng=seed)


def _cmd_train(args, out):
    from .pipeline import HDFacePipeline
    from .pipeline.serialization import save_pipeline

    n_classes = 7 if args.task == "emotion" else 2
    xtr, ytr = _make_data(args.task, args.train_samples, args.size, args.seed)
    xte, yte = _make_data(args.task, args.test_samples, args.size, args.seed + 1)
    print(f"training HDFace (task={args.task}, D={args.dim}, "
          f"{args.train_samples} samples) ...", file=out)
    pipe = HDFacePipeline(n_classes, dim=args.dim, cell_size=8,
                          magnitude=args.magnitude, epochs=args.epochs,
                          seed_or_rng=args.seed)
    pipe.fit(xtr, ytr)
    print(f"train accuracy: {pipe.score(xtr, ytr):.3f}", file=out)
    print(f"test accuracy : {pipe.score(xte, yte):.3f}", file=out)
    if args.save:
        save_pipeline(pipe, args.save)
        print(f"model saved to {args.save}", file=out)
    return 0


def _cmd_evaluate(args, out):
    from .pipeline.serialization import load_pipeline

    pipe = load_pipeline(args.model, seed_or_rng=args.seed)
    x, y = _make_data(args.task, args.samples, args.size, args.seed)
    print(f"accuracy on {args.samples} fresh samples: "
          f"{pipe.score(x, y):.3f}", file=out)
    return 0


def _cmd_detect(args, out):
    from .pipeline import HDFacePipeline, SlidingWindowDetector, make_scene
    from .viz import ascii_map, render_detection, write_pgm

    if args.model:
        from .pipeline.serialization import load_pipeline
        pipe = load_pipeline(args.model, seed_or_rng=args.seed)
    else:
        from .datasets import make_face_dataset
        xtr, ytr = make_face_dataset(96, size=args.window, seed_or_rng=args.seed)
        pipe = HDFacePipeline(2, dim=args.dim, cell_size=8, magnitude="l1",
                              epochs=10, seed_or_rng=args.seed)
        pipe.fit(xtr, ytr)
    rng = np.random.default_rng(args.seed)
    spots = []
    margin = args.scene_size - args.window
    for _ in range(2):
        spots.append((int(rng.integers(0, margin + 1)),
                      int(rng.integers(0, margin + 1))))
    scene, truth = make_scene(args.scene_size, spots, window=args.window,
                              seed_or_rng=args.seed)
    profiler = None
    if args.profile:
        from .profiling import Profiler
        profiler = Profiler()
    cascade = None
    if args.cascade:
        if args.backend != "packed" or args.engine != "shared":
            print("error: --cascade requires --backend packed with the "
                  "shared engine", file=out)
            return 2
        if args.calibration:
            from .pipeline import CascadeCalibration
            cascade = CascadeCalibration.load(args.calibration)
        else:
            cascade = True
    detector = SlidingWindowDetector(pipe, window=args.window,
                                     stride=args.stride or args.window // 2,
                                     engine=args.engine, profiler=profiler,
                                     backend=args.backend,
                                     workers=args.workers, cascade=cascade)
    if args.plan:
        return _detect_planned(args, out, detector, scene, truth)
    result = detector.scan(scene)
    print(f"faces pasted at {truth}", file=out)
    print("detection map (# = face window):", file=out)
    print(ascii_map(result.detections), file=out)
    if cascade is not None:
        stats = detector.cascade_scanner().last_stats
        print(f"cascade: {stats['seeded']} seeded + {stats['refined']} "
              f"refined of {stats['windows']} windows "
              f"({stats['skipped']} skipped)", file=out)
        for i, st in enumerate(stats["stages"]):
            print(f"  stage {i}: {st['words']:3d} words  threshold "
                  f"{st['threshold']:+.4f}  evaluated {st['evaluated']:4d}  "
                  f"rejected {st['rejected']:4d}", file=out)
    if profiler is not None:
        n_windows = result.scores.size
        seconds = profiler.total_seconds()
        print(profiler.table(
            f"profile ({args.engine} engine, {args.backend} backend)"),
            file=out)
        print(f"throughput: {n_windows / seconds:.1f} windows/s "
              f"({n_windows} windows in {seconds:.3f}s)", file=out)
        totals = profiler.op_totals()
        if totals:
            from .hardware.opcount import profile_from_counts
            from .hardware.platforms import CORTEX_A53
            prof = profile_from_counts(totals, label=f"{args.engine} scan")
            print(f"modeled Cortex-A53 time for the counted ops: "
                  f"{CORTEX_A53.time(prof):.3f}s", file=out)
    if args.output:
        write_pgm(args.output, render_detection(scene, result))
        print(f"overlay written to {args.output}", file=out)
    return 0


def _detect_planned(args, out, detector, scene, truth):
    """The ``detect --plan auto`` path: cost-model planner + execute_plan."""
    import time

    from .pipeline import PyramidDetector, execute_plan
    from .runtime import ExecutionPlanner

    base = PyramidDetector(detector, score_threshold=0.0)
    planner = ExecutionPlanner.from_detector(base, frame_shape=scene.shape)
    plan = planner.plan(args.deadline, frame_shape=scene.shape,
                        name="cli-auto")
    predicted = planner.estimate(plan, scene.shape)
    print(f"plan: {plan.describe()}", file=out)
    print(f"predicted cost {predicted * 1e3:.3f} ms against deadline "
          f"{args.deadline * 1e3:.1f} ms "
          f"({len(planner.candidates(scene.shape))} candidates)", file=out)
    t0 = time.perf_counter()
    detections = execute_plan(base, scene, plan)
    elapsed = time.perf_counter() - t0
    print(f"faces pasted at {truth}", file=out)
    print(f"{len(detections)} detections in {elapsed * 1e3:.1f} ms:",
          file=out)
    for d in detections:
        print(f"  ({d.y:5.1f},{d.x:5.1f}) size {d.size:4.1f} "
              f"score {d.score:+.4f}", file=out)
    if args.profile:
        prof = detector.profiler
        if prof is not None:
            print(prof.table(f"planned scan ({args.engine} engine, "
                             f"{args.backend} backend)"), file=out)
    return 0


def _cmd_calibrate(args, out):
    from .pipeline import (CascadeCalibrator, HDFacePipeline,
                           SlidingWindowDetector)

    if args.model:
        from .pipeline.serialization import load_pipeline
        pipe = load_pipeline(args.model, seed_or_rng=args.seed)
    else:
        from .datasets import make_face_dataset
        xtr, ytr = make_face_dataset(96, size=args.window,
                                     seed_or_rng=args.seed)
        print(f"training face model (D={args.dim}) ...", file=out)
        pipe = HDFacePipeline(2, dim=args.dim, cell_size=8, magnitude="l1",
                              epochs=10, seed_or_rng=args.seed)
        pipe.fit(xtr, ytr)
    detector = SlidingWindowDetector(pipe, window=args.window,
                                     stride=args.stride or args.window // 2,
                                     backend="packed")
    words = None
    if args.words:
        words = [int(w) for w in args.words.split(",") if w.strip()]
    scenes = [s for s, _ in _random_scenes(args.scenes, args.scene_size,
                                           args.window, args.seed + 500)]
    print(f"calibrating on {len(scenes)} held-out scenes "
          f"(fn budget {args.fn_budget}, method {args.method}) ...", file=out)
    cal = CascadeCalibrator(detector, words=words, fn_budget=args.fn_budget,
                            method=args.method).calibrate(scenes)
    print(f"measured {cal.windows} windows ({cal.accepted} accepted by the "
          f"full model):", file=out)
    for i, (stage, esc) in enumerate(zip(cal.stages, cal.escalation)):
        print(f"  stage {i}: {stage.words:3d} words  threshold "
              f"{stage.threshold:+.4f}  escalation {esc:.3f}", file=out)
    cal.save(args.output)
    print(f"calibration written to {args.output}", file=out)
    return 0


def _cmd_report(args, out):
    from .hardware import (
        epoch_time_grid,
        fig7_report,
        protection_overhead_report,
        workload_for_dataset,
    )
    from .hardware.platforms import CORTEX_A53

    rows = fig7_report(dim=args.dim)
    print("Fig. 7 (hardware model):", file=out)
    for r in rows:
        print(f"  {r.dataset:8s} {r.platform:5s} {r.phase:9s} "
              f"speedup {r.speedup:6.2f}x  energy {r.energy_efficiency:6.2f}x",
              file=out)
    hd, dnn = epoch_time_grid(workload_for_dataset("EMOTION", dim=args.dim),
                              CORTEX_A53, dims=(args.dim,),
                              hidden_configs=((1024, 1024),))
    ratio = dnn[(1024, 1024)] / hd[args.dim]
    print(f"per-epoch (Sec. 6.3): HDFace {hd[args.dim]:.2f}s vs "
          f"DNN {dnn[(1024, 1024)]:.2f}s ({ratio:.1f}x)", file=out)
    print(f"protection overhead (guarded class model, "
          f"R={args.guard_replicas}, scrub every query):", file=out)
    for p in protection_overhead_report(dim=args.dim,
                                        replicas=args.guard_replicas):
        print(f"  {p.platform:5s} infer {p.unguarded_cycles:8.0f} -> "
              f"{p.guarded_cycles:8.0f} cycles ({p.cycle_overhead:5.2f}x)  "
              f"energy {p.energy_overhead:5.2f}x  "
              f"repair {p.repair_cycles:8.0f} cycles", file=out)
    from .hardware import memory_protection_report

    mem_rows = memory_protection_report(dim=args.dim,
                                        tmr_replicas=max(args.guard_replicas,
                                                         3))
    tmr_bytes = {r.platform: r.resident_bytes
                 for r in mem_rows if r.scheme == "tmr"}
    print("memory protection schemes (resident bytes + scrub ops):",
          file=out)
    for m in mem_rows:
        ratio = tmr_bytes[m.platform] / m.resident_bytes
        print(f"  {m.platform:5s} {m.scheme:10s} R={m.replicas}  "
              f"{m.resident_bytes:8d} B ({ratio:5.2f}x lighter than TMR)  "
              f"scrub {m.scrub_cycles:8.0f} cycles  "
              f"repair {m.repair_cycles:8.0f} cycles", file=out)
    if args.incidents:
        counts = _incident_counts_from_json(args.incidents)
        print(f"incident counters ({args.incidents}):", file=out)
        if not counts:
            print("  (no incidents recorded)", file=out)
        for kind in sorted(counts):
            print(f"  {kind:20s} {counts[kind]:6d}", file=out)
    return 0


def _incident_counts_from_json(path):
    """Aggregate per-kind incident counters from a serving/chaos JSON.

    Accepts every shape the runtime writes: plain ``stats()`` payloads
    (``incidents`` is already a counts dict), chaos reports
    (``incidents`` is an ``IncidentLog.payload()`` with a ``counts``
    key), and fleet payloads (per-stream stats nested under ``streams``).
    Counters from every nesting level are summed.
    """
    import json

    with open(path) as fh:
        payload = json.load(fh)
    totals = {}

    def absorb(counts):
        for kind, n in counts.items():
            if isinstance(n, (int, float)):
                totals[kind] = totals.get(kind, 0) + int(n)

    def walk(node):
        if isinstance(node, dict):
            inc = node.get("incidents")
            if isinstance(inc, dict):
                counts = inc.get("counts", inc)
                if isinstance(counts, dict):
                    absorb(counts)
            for key, value in node.items():
                if key != "incidents":
                    walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(payload)
    return totals


def _random_scenes(n, scene_size, window, seed):
    """Seeded test scenes with 1-2 non-overlapping faces each."""
    from .pipeline import make_scene

    rng = np.random.default_rng(seed)
    margin = scene_size - window
    scenes = []
    for i in range(n):
        spots = [(int(rng.integers(0, margin + 1)),
                  int(rng.integers(0, margin + 1)))]
        for _ in range(8):  # second face, if a disjoint spot turns up
            y, x = (int(rng.integers(0, margin + 1)),
                    int(rng.integers(0, margin + 1)))
            if max(abs(y - spots[0][0]), abs(x - spots[0][1])) >= window:
                spots.append((y, x))
                break
        scenes.append(make_scene(scene_size, spots, window=window,
                                 seed_or_rng=seed + 1 + i))
    return scenes


def _cmd_robustness(args, out):
    from .datasets import make_face_dataset
    from .noise import detection_robustness
    from .pipeline import HDFacePipeline

    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    backends = ("dense",) if args.backend == "dense" else ("dense", "packed")
    attack = ("features", "model") if args.attack == "both" else (args.attack,)
    surfaces = tuple(s.strip() for s in (args.surfaces or "").split(",")
                     if s.strip())

    xtr, ytr = make_face_dataset(96, size=args.window, seed_or_rng=args.seed)
    print(f"training face model (D={args.dim}) ...", file=out)
    pipe = HDFacePipeline(2, dim=args.dim, cell_size=8, magnitude="l1",
                          epochs=10, seed_or_rng=args.seed).fit(xtr, ytr)
    scenes = _random_scenes(args.images, args.scene_size, args.window,
                            args.seed)
    n_truth = sum(len(t) for _, t in scenes)
    print(f"sweeping rates {rates} over {args.images} scenes "
          f"({n_truth} faces), backends {list(backends)}, "
          f"attack {list(attack)}"
          + (f", surfaces {list(surfaces)}" if surfaces else "")
          + " ...", file=out)
    res = detection_robustness(
        pipe, scenes, rates, window=args.window, stride=args.stride,
        backends=backends, seed_or_rng=args.seed + 1000, attack=attack,
        guard_replicas=args.guard_replicas, surfaces=surfaces)

    for backend, rate, row in res.rows():
        print(f"  {backend:6s} rate {rate:5.3f}  "
              f"recall {row['recall']:.3f}  precision {row['precision']:.3f}  "
              f"mean IoU {row['mean_iou']:.3f}  "
              f"({row['n_detections']} detections)", file=out)
    for backend in backends:
        print(f"  {backend:6s} worst recall drop vs clean: "
              f"{res.recall_drop(backend):.3f}", file=out)

    _write_results_json(args.output, res.payload(), out)

    if args.max_recall_drop is not None:
        worst = max(res.recall_drop(b) for b in backends)
        if worst > args.max_recall_drop:
            print(f"FAIL: recall drop {worst:.3f} exceeds "
                  f"--max-recall-drop {args.max_recall_drop}", file=out)
            return 1
        print(f"recall drop {worst:.3f} within tolerance "
              f"{args.max_recall_drop}", file=out)
    return 0


def _cmd_stream(args, out):
    from .datasets import make_face_dataset
    from .datasets.synth import moving_face_sequence
    from .pipeline import (HDFacePipeline, PyramidDetector,
                           SlidingWindowDetector, VideoStreamDetector)

    xtr, ytr = make_face_dataset(96, size=args.window, seed_or_rng=args.seed)
    print(f"training face model (D={args.dim}) ...", file=out)
    pipe = HDFacePipeline(2, dim=args.dim, cell_size=8, magnitude="l1",
                          epochs=10, seed_or_rng=args.seed).fit(xtr, ytr)
    frames, truth = moving_face_sequence(
        args.scene_size, args.frames, window=args.window, step=args.step,
        seed_or_rng=args.seed)
    profiler = None
    if args.profile:
        from .profiling import Profiler
        profiler = Profiler()
    detector = SlidingWindowDetector(pipe, window=args.window,
                                     stride=args.stride or args.window // 3,
                                     backend=args.backend)
    stream = VideoStreamDetector(
        PyramidDetector(detector, score_threshold=0.0),
        incremental=not args.no_incremental, queue_size=args.queue_size,
        policy=args.policy, profiler=profiler)
    print(f"streaming {args.frames} frames "
          f"({args.scene_size}px scene, face step {args.step}px, "
          f"{args.backend} backend, "
          f"incremental={'off' if args.no_incremental else 'on'}) ...",
          file=out)
    for result, (ty, tx, _) in zip(stream.run(frames), truth):
        top = result.tracks[0] if result.tracks else None
        where = (f"track {top.track_id} at ({top.y:5.1f},{top.x:5.1f}) "
                 f"score {top.score:+.3f}" if top else "no confirmed track")
        print(f"  frame {result.index:3d}  truth ({ty:3d},{tx:3d})  "
              f"{result.reuse['mode']:5s}  "
              f"{result.latency * 1e3:6.1f} ms  {where}", file=out)
    s = stream.stats()
    print(f"throughput: {s['fps']:.2f} frames/s  "
          f"(latency p50 {s['latency_p50'] * 1e3:.1f} ms, "
          f"max {s['latency_max'] * 1e3:.1f} ms)", file=out)
    print(f"delta updates: {s['delta_patched']} patched, "
          f"{s['delta_full']} full, {s['delta_reused']} reused; "
          f"pixel reuse {s['reused_pixel_fraction']:.1%}", file=out)
    print(f"tracks: {s['tracks_confirmed']} confirmed of "
          f"{s['tracks_alive']} alive", file=out)
    if profiler is not None:
        print(profiler.table(f"stream profile ({args.backend} backend)"),
              file=out)
    return 0


def _cmd_serve(args, out):
    import time

    from .datasets import make_face_dataset
    from .datasets.synth import moving_face_sequence
    from .pipeline import (HDFacePipeline, PyramidDetector,
                           SlidingWindowDetector)
    from .runtime import (ChaosScenario, ResilientVideoDetector,
                          run_scenario, save_runtime)

    xtr, ytr = make_face_dataset(96, size=args.window, seed_or_rng=args.seed)
    print(f"training face model (D={args.dim}) ...", file=out)
    pipe = HDFacePipeline(2, dim=args.dim, cell_size=8, magnitude="l1",
                          epochs=10, seed_or_rng=args.seed).fit(xtr, ytr)
    frames, truth = moving_face_sequence(
        args.scene_size, args.frames, window=args.window, step=args.step,
        seed_or_rng=args.seed)
    stride = args.stride or args.window // 3

    def make_detector():
        det = SlidingWindowDetector(pipe, window=args.window, stride=stride,
                                    backend=args.backend)
        return PyramidDetector(det, score_threshold=0.0)

    budget = args.budget
    if budget is None:
        # adaptive: 3x the median clean full-rung frame time on this
        # machine, sampled on *distinct* frames so the engine's scene
        # cache cannot fake a near-zero baseline
        cal = make_detector()
        samples = []
        for frame in frames[: min(3, len(frames))]:
            t0 = time.perf_counter()
            cal.detect(frame)
            samples.append(time.perf_counter() - t0)
        budget = 3.0 * sorted(samples)[len(samples) // 2]
        print(f"calibrated budget: {budget * 1e3:.1f} ms/frame "
              f"(3x clean median)", file=out)
    stall_timeout = args.stall_timeout or 4.0 * budget
    if args.streams > 1:
        return _serve_fleet(args, out, frames, truth, make_detector,
                            budget, stall_timeout)
    made = []

    def make_runtime():
        kwargs = {}
        if args.planner:
            kwargs.update(planner=True, replan_every=args.replan_every)
        if args.adapt:
            kwargs.update(adapt=True, adapt_kwargs={"seed_or_rng": args.seed})
        runtime = ResilientVideoDetector(
            make_detector(), budget=budget, stall_timeout=stall_timeout,
            queue_size=args.queue_size, policy="block",
            scrub_budget=args.scrub_budget, **kwargs)
        made.append(runtime)
        return runtime

    report = None
    if args.chaos:
        n = args.frames
        stall = args.stall or 3.0 * stall_timeout
        label_poison = {max(3 * n // 4, 3): "label"} if args.adapt else {}
        scenario = ChaosScenario(
            "cli-serve",
            stalls={max(n // 4, 1): stall},
            hard_stalls={max(n // 2, 2): stall},
            poison={max(n // 3, 1): "nan", max(2 * n // 3, 3): "shape"},
            label_poison=label_poison,
            fault_rate=args.fault_rate,
            seed=args.seed)
        print(f"chaos scenario: soft stall @{max(n // 4, 1)}, hard stall "
              f"@{max(n // 2, 2)}, poison @{sorted(scenario.poison)}, "
              f"datapath fault rate {args.fault_rate}"
              + (f", label poison @{sorted(label_poison)}"
                 if label_poison else ""), file=out)
        report = run_scenario(
            make_runtime, frames, [[t] for t in truth], scenario,
            max_recall_drop=args.max_recall_drop,
            p95_tolerance=args.p95_tolerance)
        entry = report["streams"]["stream"]
        s = entry["stats"]
        print(f"served {s['frames']} frames ({s['predicted']} predicted, "
              f"{s['cancelled']} cancelled, {s['quarantined']} quarantined, "
              f"{s['crashes']} crashes)", file=out)
        print(f"latency p50/p95/p99: {s['latency_p50'] * 1e3:.1f} / "
              f"{s['latency_p95'] * 1e3:.1f} / {s['latency_p99'] * 1e3:.1f} "
              f"ms submit-to-done; processing p95 {s['proc_p95'] * 1e3:.1f} "
              f"ms (budget {budget * 1e3:.1f} ms)", file=out)
        print(f"watchdog: {s['watchdog']['cancels']} cancels, "
              f"{s['watchdog']['restarts']} restarts; deepest rung "
              f"{entry['deepest_rung_name']}", file=out)
        print(f"recall: chaos {entry['recall']:.3f} vs clean twin "
              f"{entry['recall_twin']:.3f} "
              f"(drop {entry['recall_drop']:+.3f}, unserved "
              f"{entry['frames_unserved']})", file=out)
        for gate, ok in report["gates"].items():
            print(f"  gate {gate:20s} {'PASS' if ok else 'FAIL'}", file=out)
    else:
        runtime = make_runtime()
        runtime.start()
        for i, frame in enumerate(frames):
            runtime.submit(frame, meta={"frame": i})
        runtime.stop()
        for r in runtime.completed:
            top = r.tracks[0] if r.tracks else None
            where = (f"track {top.track_id} at ({top.y:5.1f},{top.x:5.1f})"
                     if top else "no confirmed track")
            print(f"  frame {r.index:3d}  {r.mode:9s}  rung {r.rung:9s}  "
                  f"{r.latency * 1e3:6.1f} ms  {where}", file=out)
        s = runtime.stats()
        print(f"served {s['frames']} frames at {s['fps']:.2f} fps; "
              f"latency p50/p95/p99: {s['latency_p50'] * 1e3:.1f} / "
              f"{s['latency_p95'] * 1e3:.1f} / {s['latency_p99'] * 1e3:.1f} "
              f"ms (budget {budget * 1e3:.1f} ms, "
              f"{s['deadline_misses']} misses)", file=out)
        if s["rung_transitions"]:
            print(f"rung transitions: {s['rung_transitions']}", file=out)
        if s["incidents"]:
            print(f"incidents: {s['incidents']}", file=out)
        if args.planner:
            rungs = runtime.scheduler.ladder.rungs
            print(f"planner ladder: {', '.join(r.name for r in rungs)} "
                  f"({s['replans']} replans)", file=out)

    scrub_stats = made[0].stats().get("scrubber") if made else None
    if scrub_stats:
        print(f"scrubber: {scrub_stats['ticks']} ticks scanned "
              f"{scrub_stats['bytes_scanned']} B over "
              f"{len(scrub_stats['targets'])} surfaces; "
              f"{scrub_stats['detected']} detected, "
              f"{scrub_stats['repaired']} repaired, "
              f"{scrub_stats['unrepairable']} unrepairable", file=out)
    adapt_stats = made[0].stats().get("adapt") if made else None
    if adapt_stats:
        drift = adapt_stats["drift"]
        print(f"adapt: state {drift['state']} (shift {drift['shift']:+.3f}); "
              f"{adapt_stats['proposals']} proposals, "
              f"{adapt_stats['applied']} applied, "
              f"{adapt_stats['rejected']} rejected, "
              f"{adapt_stats['rollbacks']} rollbacks", file=out)
    if args.checkpoint and made:
        save_runtime(made[0], args.checkpoint)
        print(f"runtime checkpoint saved to {args.checkpoint}", file=out)
    if args.profile and made:
        print(made[0].profiler.table(
            f"serve profile ({args.backend} backend)"), file=out)
    if args.output:
        payload = report if report is not None else made[0].stats()
        _write_results_json(args.output, payload, out)
    if report is not None and not report["passed"]:
        failed = [g for g, ok in report["gates"].items() if not ok]
        print(f"FAIL: chaos gates failed: {failed}", file=out)
        return 1
    return 0


def _serve_fleet(args, out, frames, truth, make_detector, budget,
                 stall_timeout):
    """The ``serve --streams N`` path: fleet dispatcher + batch gate."""
    from .runtime import ChaosScenario, FleetDispatcher, run_scenario

    names = [f"cam{i}" for i in range(args.streams)]
    made = []

    def make_fleet():
        fleet = FleetDispatcher(
            make_detector, budget=budget, max_streams=args.streams,
            batch_window=args.batch_window, stall_timeout=stall_timeout,
            queue_size=args.queue_size, policy="block", adapt=args.adapt,
            planner=args.planner, scrub_budget=args.scrub_budget,
            guard_kwargs={"seed_or_rng": args.seed} if args.adapt else None)
        for i, name in enumerate(names):
            fleet.add_stream(name, priority=float(i))
        made.append(fleet)
        return fleet

    print(f"fleet: {args.streams} streams sharing one packed datapath "
          f"(batch window {args.batch_window * 1e3:.1f} ms, budget "
          f"{budget * 1e3:.1f} ms/frame)", file=out)

    report = None
    if args.chaos:
        n = args.frames
        stall = args.stall or 3.0 * stall_timeout
        victim = names[0]
        label_poison = {max(2 * n // 3, 3): "label"} if args.adapt else {}
        scenario = ChaosScenario(
            "cli-fleet",
            stalls={max(n // 3, 1): stall},
            poison={max(n // 2, 2): "nan"},
            label_poison=label_poison,
            fault_rate=args.fault_rate,
            seed=args.seed)
        print(f"fleet chaos: victim {victim} (soft stall "
              f"@{max(n // 3, 1)}, poison @{max(n // 2, 2)}, fault rate "
              f"{args.fault_rate}"
              + (f", label poison @{sorted(label_poison)}"
                 if label_poison else "")
              + f"); {args.streams - 1} healthy streams "
              f"must hold p95", file=out)
        report = run_scenario(make_fleet, frames, [[t] for t in truth],
                              {victim: scenario},
                              max_recall_drop=args.max_recall_drop,
                              p95_tolerance=args.p95_tolerance)
        fleet = made[0]
        for name, e in report["streams"].items():
            s = e["stats"]
            role = "victim" if e["scenario"] else "healthy"
            print(f"  {name:6s} {role:7s}  {s['frames']:3d} frames  "
                  f"proc p95 {s['proc_p95'] * 1e3:7.1f} ms  recall "
                  f"{e['recall']:.3f} (twin {e['recall_twin']:.3f})  "
                  f"watchdog {s['watchdog']['cancels']}c/"
                  f"{s['watchdog']['restarts']}r", file=out)
        for gate, ok in report["gates"].items():
            print(f"  gate {gate:20s} {'PASS' if ok else 'FAIL'}", file=out)
    else:
        fleet = make_fleet()
        fleet.start()
        for i, frame in enumerate(frames):
            for name in names:
                fleet.submit(name, frame, meta={"frame": i})
        fleet.stop()

    stats = fleet.stats()
    f = stats["fleet"]
    print(f"fleet served {f['frames']} frames at {f['aggregate_fps']:.2f} "
          f"aggregate fps; gate: {f['gate']['batches']} batches, "
          f"{f['gate']['mean_requests']:.1f} scans/batch (max "
          f"{f['gate']['max_bundles']} streams together)", file=out)
    actions = f["scheduler"]["actions"]
    if actions:
        print(f"fleet scheduler actions: {actions}", file=out)
    if f.get("scrubber"):
        sc = f["scrubber"]
        print(f"fleet scrubber: {sc['ticks']} ticks scanned "
              f"{sc['bytes_scanned']} B over {len(sc['targets'])} shared "
              f"surfaces; {sc['detected']} detected, {sc['repaired']} "
              f"repaired, {sc['unrepairable']} unrepairable", file=out)
    if args.profile:
        print(f["profile_table"], file=out)
    if args.output:
        payload = report if report is not None else stats
        _write_results_json(args.output, payload, out)
    if report is not None and not report["passed"]:
        failed = [g for g, ok in report["gates"].items() if not ok]
        print(f"FAIL: fleet chaos gates failed: {failed}", file=out)
        return 1
    return 0


def main(argv=None, out=None):
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "detect": _cmd_detect,
        "calibrate": _cmd_calibrate,
        "report": _cmd_report,
        "robustness": _cmd_robustness,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
