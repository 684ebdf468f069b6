"""The canonical serving configuration, the four workloads and the replay.

One configuration is served on every workload: the D=4096 HDFace model
(``make_face_dataset(96, size=24, seed_or_rng=0)``, l1 magnitudes, 10
epochs), a packed ``SlidingWindowDetector(window=24, stride=8)`` inside a
``PyramidDetector(score_threshold=0.0, scale_step=1.5)`` on 96x96 frames
(4 pyramid levels), and the serving runtime pinned to one full rung with
an unreachable budget, no watchdog and a blocking intake that never
drops - so the work per frame is fixed and every frame is comparable.

The model is an input, not part of what is measured: it is trained once
per source tree and cached under ``.bench_build/e2e`` (see
:func:`model_path`).  ``seed`` offsets every video and scene seed and
changes nothing else.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets import make_face_dataset
from repro.datasets.synth import moving_face_sequence
from repro.hardware.opcount import (
    OperationProfile,
    hd_hog_fields_profile,
    incremental_extract_profile,
    packed_assemble_profile,
    packed_infer_profile,
)
from repro.pipeline import HDFacePipeline, PyramidDetector, SlidingWindowDetector
from repro.pipeline.detector import DetectionMap, make_scene
from repro.pipeline.multiscale import pyramid
from repro.pipeline.serialization import load_pipeline, save_pipeline
from repro.runtime import (
    CostModel,
    DegradationLadder,
    FleetDispatcher,
    ResilientVideoDetector,
    Rung,
)

import measure
from spans import Tracer, frame_layer_seconds, write_jsonl

DIM = 4096
WINDOW = 24
STRIDE = 8
CELL = 8
SCENE = 96
SCALE_STEP = 1.5
FACE_CLASS = 1

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Intake bound above any run's frame count: ``policy="block"`` then
#: never blocks the generator and never drops.
QUEUE = 4096
PINNED = dict(budget=1e9, stall_timeout=None, queue_size=QUEUE,
              policy="block")
#: Generator lateness p99 above which an open-loop run is invalid.
MAX_LATE_P99_S = 0.005
#: Largest share of a traced cold/delta frame left to the replay's glue
#: (the root span's self time) for the named layers to account for it.
MAX_GLUE_SHARE = 0.05

#: Spans of the traced replay, in the order ResilientVideoDetector._detect
#: calls them; ``frame`` is the root whose self time is the replay's glue.
LAYERS = ("frame", "runtime.quarantine", "pipeline.pyramid",
          "pipeline.engine.extract", "pipeline.engine.queries",
          "core.packed.classify", "pipeline.multiscale.collect",
          "pipeline.stream.track")


@dataclass(frozen=True)
class Spec:
    """How a workload drives the server."""

    loop: str            # "closed": one synchronous caller; "open": submit()
    limit_s: float       # latency limit behind slo_met_frac
    streams: int = 1
    rate: float = 0.0    # open loop: frames per second per stream
    max_frames: int = 0  # closed loop: timed frames generated (upper cap)
    # closed loop: leading timed frames scored for recall/precision, fewer
    # than any run serves, so quality is a function of the seed alone
    scored: int = 0


SPECS = {
    "cold": Spec("closed", 10.0, max_frames=60, scored=2),
    "delta": Spec("closed", 1.5, max_frames=240, scored=10),
    # 25 fps keeps the server under half busy, so a machine running up to
    # 2x slower still builds no backlog (at 50 fps it saturates)
    "warm": Spec("open", 0.05, rate=25.0),
    "fleet": Spec("open", 1.5, streams=2, rate=1.0),
}


# ----------------------------------------------------------------------
# model and serving objects
# ----------------------------------------------------------------------
def model_path(root):
    """Cache path of the trained model, keyed by the source it runs."""
    h = hashlib.blake2s(Path(__file__).read_bytes(), digest_size=8)
    for p in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    return root / ".bench_build" / "e2e" / f"model-{h.hexdigest()}.npz"


def build_model(path):
    """Train the canonical model and save it atomically at ``path``."""
    xtr, ytr = make_face_dataset(96, size=WINDOW, seed_or_rng=0)
    pipe = HDFacePipeline(2, dim=DIM, cell_size=CELL, magnitude="l1",
                          epochs=10, seed_or_rng=0).fit(xtr, ytr)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.stem + ".tmp.npz")
    save_pipeline(pipe, tmp)
    os.replace(tmp, path)


def make_detector(pipe):
    det = SlidingWindowDetector(pipe, window=WINDOW, stride=STRIDE,
                                backend="packed")
    return PyramidDetector(det, scale_step=SCALE_STEP, score_threshold=0.0)


def pinned_ladder():
    return DegradationLadder([Rung("full")])


def make_runtime(pipe):
    return ResilientVideoDetector(make_detector(pipe), ladder=pinned_ladder(),
                                  **PINNED)


def make_inputs(name, seed, seconds):
    """Per stream ``(frames, truths)``; ``frames[0]`` is the warm-up frame.

    ``truths[i]`` lists the ``(y, x, side)`` face boxes of frame ``i``.
    """
    spec = SPECS[name]
    n = spec.max_frames if spec.loop == "closed" \
        else max(1, round(seconds * spec.rate))

    def video(video_seed, noise=0.0):
        frames, truth = moving_face_sequence(
            SCENE, 1 + n, window=WINDOW, step=2, noise_sigma=noise,
            seed_or_rng=video_seed)
        return frames, [[t] for t in truth]

    if name == "cold":
        return [video(100 + seed, noise=0.02)]
    if name == "delta":
        return [video(11 + seed)]
    if name == "warm":
        scene, truth = make_scene(SCENE, ((0, 24), (48, 60)), window=WINDOW,
                                  seed_or_rng=7 + seed)
        return [([scene] * (1 + n), [truth] * (1 + n))]
    return [video(11 + seed + k) for k in range(spec.streams)]


def digest(detections):
    """Short content digest of one frame's detections."""
    key = repr([(d.y, d.x, d.size, d.score) for d in detections])
    return hashlib.blake2s(key.encode(), digest_size=8).hexdigest()


def _wait(runtime, n, timeout=120.0):
    """Block until ``runtime`` has completed ``n`` frames."""
    deadline = time.monotonic() + timeout
    while len(runtime.completed) < n:
        if time.monotonic() > deadline:
            raise TimeoutError(f"{n} frames not served in {timeout}s")
        time.sleep(0.002)
    return runtime.completed[:n]


def setup(name, path, inputs):
    """Load the model, build the server, serve the warm-up frame(s).

    Returns ``(server, warm-up detections per stream, seconds)``.  The
    fleet is returned started; a single-stream runtime is started by the
    open-loop phase that needs its consumer thread.
    """
    t0 = time.perf_counter()
    pipe = load_pipeline(path)
    if name == "fleet":
        server = FleetDispatcher(lambda: make_detector(pipe),
                                 max_streams=len(inputs), batch_window=0.002,
                                 **PINNED)
        for k in range(len(inputs)):
            server.add_stream(f"cam{k}", ladder=pinned_ladder())
        server.start()
        for k, (frames, _) in enumerate(inputs):
            server.submit(f"cam{k}", frames[0])
        warm = [_wait(server[f"cam{k}"], 1)[0].detections
                for k in range(len(inputs))]
    else:
        server = make_runtime(pipe)
        warm = [server.step(inputs[0][0][0]).detections]
    return server, warm, time.perf_counter() - t0


def _close(server):
    """Stop a discarded set-up's threads (only a fleet has started any)."""
    if isinstance(server, FleetDispatcher):
        server.stop(timeout=120.0)


# ----------------------------------------------------------------------
# timed phases
# ----------------------------------------------------------------------
def closed_loop(rt, frames, seconds):
    """One synchronous caller: ``step`` until ``seconds`` have elapsed."""
    served, times = [], []
    t0 = time.perf_counter()
    for frame in frames:
        t = time.perf_counter()
        served.append(rt.step(frame))
        times.append(time.perf_counter() - t)
        if time.perf_counter() - t0 >= seconds:
            break
    return [served], times, time.perf_counter() - t0, []


def open_loop(server, inputs, rate):
    """One generator thread submitting every stream's frame ``i`` on time.

    Timed frame ``i`` (1-based) of every stream is due at
    ``t0 + (i - 1) / rate``; its time is counted from that due time, so a stalled server or generator is
    charged to every frame it holds up.
    """
    fleet = isinstance(server, FleetDispatcher)
    names = [f"cam{k}" for k in range(len(inputs))]
    if not fleet:
        server.start()
    n = len(inputs[0][0]) - 1
    due_l, sent_l = [], []
    t0 = time.perf_counter() + 0.01
    for i in range(1, n + 1):
        due = t0 + (i - 1) / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        for name, (frames, _) in zip(names, inputs):
            sent = time.perf_counter()
            meta = {"i": i, "due": due, "sent": sent}
            if fleet:
                server.submit(name, frames[i], meta=meta)
            else:
                server.submit(frames[i], meta=meta)
            due_l.append(due)
            sent_l.append(sent)
    done = server.stop(timeout=120.0)
    streams = [done[nm] for nm in names] if fleet else [done]
    served = [sorted((r for r in rs if r.meta is not None),
                     key=lambda r: r.meta["i"]) for rs in streams]
    flat = [r for rs in served for r in rs]
    times = measure.open_loop_times([r.meta["due"] for r in flat],
                                    [r.meta["sent"] for r in flat],
                                    [r.latency for r in flat])
    end = max((r.meta["sent"] + r.latency for r in flat), default=t0)
    return served, times, end - t0, measure.lateness(due_l, sent_l)


# ----------------------------------------------------------------------
# traced replay
# ----------------------------------------------------------------------
def _cell_grid_profile(shape, ext):
    """Ops of one whole-level cell-grid pass (``cell_grid`` term of
    :func:`repro.hardware.opcount.shared_detection_profile`)."""
    px_d = float(shape[0] * shape[1]) * ext.dim
    return OperationProfile({"bit": ext.n_bins * px_d,
                             "int_add": 2 * ext.n_bins * px_d,
                             "mem_bytes": ext.n_bins * px_d / 4})


class Replay:
    """Serve frames through a runtime's own objects, one span per call.

    The calls and their order are those of
    ``ResilientVideoDetector._detect`` at the full rung, so detections
    are bitwise the served ones; each call is wrapped in a span named
    after its layer, and the op profiles of the shapes actually run are
    accumulated per layer for the cost-model ratio.
    """

    def __init__(self, rt):
        self.rt = rt
        self.prev = None
        ext = rt.engine.extractor
        self.ext = ext
        self.fields_kw = dict(dim=ext.dim, n_bins=ext.n_bins,
                              magnitude=ext.magnitude,
                              sqrt_iters=ext.sqrt_iters, gamma=ext.gamma)
        self.reset()

    def reset(self):
        """Drop the spans and counts recorded so far (after a warm-up)."""
        self.cache0 = self.rt.engine.cache_info()
        self.tracer = Tracer()
        self.ops = {}
        self.modes = []
        self.windows = 0

    def _add(self, layer, profile):
        self.ops[layer] = self.ops.get(layer, OperationProfile()) + profile

    def _scene_fields(self, level):
        eng = self.rt.engine
        misses = eng.misses
        eng.scene_fields(level)
        full = eng.misses > misses
        return {"mode": "full" if full else "reused", "pixels": level.size,
                "dirty_pixels": level.size if full else 0}

    def _extract_profile(self, shape, st):
        if st["mode"] == "full":
            return hd_hog_fields_profile(shape, **self.fields_kw)
        dirty = (0, 0)
        if st["mode"] == "patched":
            y0, y1, x0, x1 = st["dirty_rect"]
            dirty = (y1 - y0, x1 - x0)
        return incremental_extract_profile(shape, dirty, cell_size=CELL,
                                           **self.fields_kw)

    def frame(self, frame, fid):
        rt, span = self.rt, self.tracer.span
        base = rt.base
        with span("frame", fid):
            with span("runtime.quarantine", fid):
                arr = rt.quarantine.check(frame)
            with span("pipeline.pyramid", fid):
                levels = list(pyramid(arr, rt.pyramid.scale_step,
                                      min_size=base.window))
            prev = self.prev
            delta = (prev is not None and len(prev) >= len(levels)
                     and prev[0][0].shape == levels[0][0].shape)
            stats = []
            for i, (level, _) in enumerate(levels):
                with span("pipeline.engine.extract", fid):
                    st = rt.engine.delta_update(prev[i][0], level) if delta \
                        else self._scene_fields(level)
                stats.append(st)
            maps = []
            for (level, _), st in zip(levels, stats):
                with span("pipeline.engine.queries", fid):
                    origins, (n_wy, n_wx) = base.origins(level.shape)
                    queries = rt.engine.window_queries(level, origins,
                                                       base.window)
                with span("core.packed.classify", fid):
                    model = base.packed_model()
                    sims = model.similarities(queries)
                sims = np.atleast_2d(np.asarray(sims))
                margin = sims[:, FACE_CLASS] - np.delete(
                    sims, FACE_CLASS, axis=1).max(axis=1)
                scores = margin.reshape(n_wy, n_wx)
                maps.append(DetectionMap(scores, scores > 0, base.stride,
                                         base.window))
                n = len(origins)
                self.windows += n
                self._add("pipeline.engine.extract",
                          self._extract_profile(level.shape, st))
                assemble = packed_assemble_profile(
                    base.window, self.ext.dim, cell_size=CELL,
                    n_bins=self.ext.n_bins) * n
                if st["mode"] == "full":  # a fresh entry builds its grid
                    assemble = assemble + _cell_grid_profile(level.shape,
                                                             self.ext)
                self._add("pipeline.engine.queries", assemble)
                self._add("core.packed.classify",
                          packed_infer_profile(model.dim, model.n_classes) * n)
                self.modes.append(st)
            with span("pipeline.multiscale.collect", fid):
                detections = rt.pyramid.collect(levels, maps)
            with span("pipeline.stream.track", fid):
                rt.tracker.update(detections)
        self.prev = levels
        return detections


def replay(path, frames, n_warm):
    """Trace ``frames[n_warm:]`` on a fresh runtime after an untraced warm-up.

    Returns the :class:`Replay` and the detections of each traced frame.
    """
    rep = Replay(make_runtime(load_pipeline(path)))
    for frame in frames[:n_warm]:
        rep.frame(frame, -1)
    rep.reset()
    return rep, [rep.frame(f, i) for i, f in enumerate(frames[n_warm:])]


def layer_metrics(rep, traced):
    """Per-layer metrics of one traced replay (see the README's map)."""
    spans = rep.tracer.spans
    n_frames = len(traced)
    per = frame_layer_seconds(spans)
    roots = [s["end"] - s["start"] for s in spans if s["parent"] is None]
    root_total = sum(roots)
    out = {}
    for layer in LAYERS:
        secs = [layers.get(layer, 0.0) for layers in per.values()]
        p50 = statistics.median(roots if layer == "frame" else secs)
        out[f"{layer}.ms_p50"] = p50 * 1e3
        out[f"{layer}.share"] = sum(secs) / root_total
    cost = CostModel()
    for layer in ("pipeline.engine.extract", "pipeline.engine.queries",
                  "core.packed.classify"):
        prof = rep.ops[layer]
        secs = sum(layers.get(layer, 0.0) for layers in per.values())
        out[f"{layer}.ops_per_frame"] = prof.total_ops() / n_frames
        out[f"{layer}.model_ratio"] = secs / cost.raw_time(prof)
    for mode in ("full", "patched", "reused"):
        out[f"pipeline.engine.extract.{mode}_per_frame"] = sum(
            st["mode"] == mode for st in rep.modes) / n_frames
    out["pipeline.engine.extract.dirty_frac"] = (
        sum(st["dirty_pixels"] for st in rep.modes)
        / sum(st["pixels"] for st in rep.modes))
    out["pipeline.engine.queries.windows_per_frame"] = rep.windows / n_frames
    out["pipeline.multiscale.collect.detections_per_frame"] = sum(
        len(d) for d in traced) / n_frames
    after = rep.rt.engine.cache_info()
    hits = after["hits"] - rep.cache0["hits"]
    misses = after["misses"] - rep.cache0["misses"]
    out["pipeline.engine.hit_ratio"] = hits / max(hits + misses, 1)
    out["pipeline.engine.cache_mb"] = rep.rt.engine.cache_nbytes() / 1e6
    return out


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def _checks(name, trace, path, inputs, served, warm_sets, late):
    """``(name, passed, detail)`` for every output check of a run."""
    flat = [r for rs in served for r in rs]
    stream0, frames0 = served[0], inputs[0][0]
    attempted = len(flat) if SPECS[name].loop == "closed" \
        else (len(frames0) - 1) * len(inputs)
    detected = sum(r.mode == "detected" for r in flat)
    checks = [
        ("set-ups agree", all(w == warm_sets[0] for w in warm_sets),
         f"{len(warm_sets)} fresh set-ups, bitwise equal warm-up detections"),
        ("every frame detected", detected == attempted,
         f"{detected}/{attempted} frames served with mode 'detected'"),
    ]
    if late:
        late_p99 = measure.percentile(late, 99)
        checks.append(("generator on time", late_p99 <= MAX_LATE_P99_S,
                       f"lateness p99 {late_p99 * 1e3:.3f} ms "
                       f"(limit {MAX_LATE_P99_S * 1e3:g} ms)"))
    if name == "cold":
        checks.append(("full extraction every frame",
                       all(r.reuse.get("patched_levels") == 0
                           for r in stream0), "no level took the patch path"))
    if name == "delta":
        checks.append(("patch path every frame",
                       all(r.reuse.get("patched_levels", 0) > 0
                           for r in stream0), "every frame patched a level"))
    if name == "warm":
        checks.append(("served == warm-up", all(
            r.detections == warm_sets[-1][0] for r in flat),
            f"{len(flat)} frames equal the warm-up frame's detections"))
    if name == "delta" or (name == "fleet" and not trace):
        # the traced fleet run checks stream 0 frame by frame instead
        last = stream0[-1]
        fresh = make_detector(load_pipeline(path)).detect(
            frames0[last.meta["i"] if last.meta else len(stream0)])
        checks.append(("last frame == fresh full detect",
                       last.detections == fresh,
                       f"stream 0 frame {len(stream0)} vs a fresh "
                       "PyramidDetector.detect"))
    return attempted, attempted - detected, checks


def _quality(inputs, served, scored):
    """Pooled ``(recall, precision)`` vs generator truth over the first
    ``scored`` timed frames of each stream (all of them when 0)."""
    matched = boxes = n_det = 0
    for (_, truths), rs in zip(inputs, served):
        for i, r in enumerate(rs[:scored or None], start=1):
            truth = truths[r.meta["i"] if r.meta else i]
            matched += measure.match_count(r.detections, truth)
            boxes += len(truth)
            n_det += len(r.detections)
    return matched / max(boxes, 1), matched / max(n_det, 1)


def run(name, seed, seconds, trace, path, spans_dir):
    """Serve one workload; returns ``(result, checks, info)``.

    ``result`` holds ``attempted``, ``failed`` and the metric values (the
    end-to-end ones untraced, the per-layer ones when ``trace``);
    ``checks`` lists ``(name, passed, detail)``; ``info`` carries what the
    human-readable report and ``--record`` keep (sample counts, digests).
    """
    spec = SPECS[name]
    inputs = make_inputs(name, seed, seconds)
    setup_times, warm_sets = [], []
    for k in range(1 if trace else SETUPS):
        if k:
            _close(server)
        server, warm, secs = setup(name, path, inputs)
        setup_times.append(secs)
        warm_sets.append(warm)
    fleet = isinstance(server, FleetDispatcher)
    batches0 = server.gate.stats()["batches"] if fleet else 0
    if spec.loop == "closed":
        served, times, wall, late = closed_loop(server, inputs[0][0][1:],
                                                seconds)
    else:
        served, times, wall, late = open_loop(server, inputs, spec.rate)
    attempted, failed, checks = _checks(name, trace, path, inputs, served,
                                        warm_sets, late)
    flat = [r for rs in served for r in rs]
    ok_times = [t for t, r in zip(times, flat) if r.mode == "detected"]
    tail_pct, tail_s = measure.tail(ok_times)
    recall, precision = _quality(inputs, served, spec.scored)
    info = {"frames": len(ok_times), "tail_pct": tail_pct,
            "digests": [digest(r.detections) for r in served[0]],
            "recall": recall, "precision": precision,
            "late_p99_ms": (measure.percentile(late, 99) * 1e3
                            if late else None)}
    result = {"attempted": attempted, "failed": failed}
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "fps": len(ok_times) / wall,
            "frame_ms": measure.block_median(ok_times) * 1e3,
            "frame_tail_ms": tail_s * 1e3,
            "slo_met_frac": sum(t <= spec.limit_s for t in ok_times)
            / attempted,
            "rss_peak_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result, checks, info

    stream0 = served[0]
    rep, traced = replay(path, inputs[0][0][: 1 + len(stream0)], n_warm=1)
    checks.append(("traced replay == served",
                   traced == [r.detections for r in stream0],
                   f"{len(traced)} frames replayed bitwise"))
    metrics = layer_metrics(rep, traced)
    if name in ("cold", "delta"):
        checks.append(("layers account for the frame",
                       metrics["frame.share"] <= MAX_GLUE_SHARE,
                       f"root self time {metrics['frame.share']:.2%} of the "
                       f"traced frame (limit {MAX_GLUE_SHARE:.0%})"))
    done = [r for r in flat if r.mode == "detected"]
    proc_p50 = statistics.median(r.proc_latency for r in done)
    batches = server.gate.stats()["batches"] - batches0 if fleet else 0
    metrics.update({
        "runtime.serving.proc_ms_p50": proc_p50 * 1e3,
        "runtime.queue.wait_ms_p50": statistics.median(
            r.latency - r.proc_latency for r in done) * 1e3,
        "runtime.serving.gap_frac": abs(
            metrics["frame.ms_p50"] / 1e3 - proc_p50) / proc_p50,
        "runtime.fleet.gate.batches": batches,
        "runtime.fleet.gate.bundles_per_batch": (len(done) / batches
                                                 if batches else 0.0),
        "quality.recall": recall,
        "quality.precision": precision,
    })
    result["metrics"] = metrics
    info["spans"] = spans_dir / f"spans-{name}-s{seed}.jsonl"
    write_jsonl(rep.tracer.spans, info["spans"])
    return result, checks, info
