"""Resilient serving runtime around the streaming detection stack.

:class:`ResilientVideoDetector` is the production wrapper the ROADMAP's
"serves heavy traffic" north star asks for: it keeps a video detection
loop *alive and inside its latency budget* under overload, stalls, poison
inputs and injected faults, degrading gracefully instead of blocking,
crashing, or silently blowing the deadline.  It composes:

* the **input quarantine** (:mod:`repro.runtime.quarantine`) - poison
  frames (NaN/inf, wrong shape/dtype, dead sensor) are rejected with a
  structured error before they can enter the engine's content-addressed
  cache;
* the **deadline scheduler + degradation ladder**
  (:mod:`repro.runtime.ladder`) - per-frame latency is measured from
  submit time (queue wait included) and fed to a hysteresis controller
  that sheds work rung by rung (coarser grid, fewer pyramid levels,
  truncated-dimension classification, skip-and-predict) and climbs back
  when load drops;
* the **watchdog** (:mod:`repro.runtime.watchdog`) - a stalled frame is
  cancelled cooperatively, and a wedged consumer thread is abandoned and
  replaced, with tracker / ladder / counters surviving intact because
  they live on the runtime, not the thread;
* the **incident log** (:mod:`repro.reliability.incidents`) - every
  recovery action leaves a queryable trail;
* **checkpoint/restore** (:mod:`repro.runtime.checkpoint`) - the mutable
  runtime state serializes to one ``.npz``, so a replacement worker
  resumes tracking and load-shedding where the dead one stopped.

The frame pipeline itself is the streaming stack of
:mod:`repro.pipeline.stream`: per-level frame-delta feature reuse through
the shared engine, pyramid detection, temporal tracking.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..pipeline.multiscale import PyramidDetector, execute_plan, pyramid
from ..pipeline.plan import Plan
from ..pipeline.stream import FrameQueue, TemporalTracker, VideoStreamDetector
from ..profiling import Profiler
from ..reliability.incidents import IncidentLog
from .ladder import DeadlineScheduler, default_ladder
from .quarantine import InputQuarantine, PoisonFrameError
from .watchdog import FrameCancelled, Watchdog, weak_method

__all__ = ["ServeFrameResult", "ResilientVideoDetector"]

#: Result modes: what the runtime did with one frame.
MODES = ("detected", "predicted", "quarantined", "cancelled")


@dataclass
class ServeFrameResult:
    """Everything the runtime reports for one frame it handled.

    ``latency`` is submit-to-done (queue wait included - what a consumer
    of the serving API experiences, and what drives the deadline
    scheduler); ``proc_latency`` is the processing time alone (what the
    degradation ladder actually controls, and what the chaos harness
    gates p95 on).
    """

    index: int
    mode: str
    detections: list
    tracks: list
    latency: float
    rung: str
    reuse: dict = field(default_factory=dict)
    meta: dict | None = None
    proc_latency: float = 0.0


class ResilientVideoDetector:
    """Deadline-aware, self-healing serving loop over a pyramid detector.

    Parameters
    ----------
    detector:
        A :class:`~repro.pipeline.multiscale.PyramidDetector` whose base
        detector runs the shared-feature engine, or a
        :class:`~repro.pipeline.stream.VideoStreamDetector` to adopt the
        pyramid/tracker from.
    budget:
        Per-frame latency budget in seconds, measured submit-to-done.
    ladder:
        A :class:`~repro.runtime.ladder.DegradationLadder`; defaults to
        :func:`~repro.runtime.ladder.default_ladder` for the detector's
        backend.
    tracker:
        A :class:`~repro.pipeline.stream.TemporalTracker` (default-configured
        if omitted).
    incremental:
        Enable per-level frame-delta feature reuse between consecutive
        frames (bitwise-identical results either way).
    queue_size, policy:
        Intake :class:`~repro.pipeline.stream.FrameQueue` bound and policy.
    stall_timeout, watchdog_grace:
        Watchdog escalation timings (see :class:`~repro.runtime.watchdog.
        Watchdog`).  ``stall_timeout=None`` disables the watchdog.
    quarantine:
        An :class:`~repro.runtime.quarantine.InputQuarantine`; by default
        one that accepts any finite, varying, 2-D numeric frame.
    profiler:
        A :class:`~repro.profiling.Profiler`; the runtime always keeps an
        enabled one (the deadline scheduler and the chaos harness read
        frame-latency percentiles from its ``frame`` stage) and attaches
        it to the detector and engine.
    adapt:
        Enable guarded online learning (packed backend only): serve
        against an :class:`~repro.reliability.guard.AdaptiveGuardedModel`
        and close the tracker -> model loop with an
        :class:`~repro.runtime.adapt.OnlineAdapter` (drift-gated,
        vetted, rollback-on-reject - see ``docs/online_learning.md``).
        While the stream is static the adapter proposes nothing and
        detections stay bitwise identical to ``adapt=False``.
    adapt_kwargs:
        Options forwarded to the adaptation stack: ``model`` substitutes
        a pre-built (possibly fleet-shared) adaptive model; ``drift``,
        ``label``, ``max_updates_per_frame`` configure the
        :class:`~repro.runtime.adapt.OnlineAdapter`; everything else
        (``prior``, ``max_step_frac``, ``replicas``, ...) goes to the
        :class:`~repro.reliability.guard.AdaptiveGuardedModel`.
    planner:
        Plan the degradation ladder instead of hand-tuning it: ``True``
        builds an :class:`~repro.runtime.planner.ExecutionPlanner` from
        the detector (or pass a ready planner) and, when no explicit
        ``ladder`` is given, generates the ladder as "planner under a
        shrinking budget" (:meth:`~repro.runtime.planner.
        ExecutionPlanner.ladder`).  Enables :meth:`replan`, the
        measure -> refit -> replan autotuning loop.
    replan_every:
        With a planner: automatically run :meth:`replan` every N
        completed frames (None = only on explicit calls).
    scrub_budget:
        Enable the background :class:`~repro.reliability.scrubber.
        MemoryScrubber`: every committed frame ticks one budgeted sweep
        over the engine scene cache, the extractor item memories and (when
        adapting) the guarded class model, repairing memory corruption
        continuously instead of on the unlucky access.  The value is the
        scrub budget in *bytes per frame* (``0`` = unbudgeted, every
        surface swept every frame); ``None`` (default) disables the
        scrubber.  Sweep outcomes land in the incident log
        (``memory_scrubbed`` / ``row_repaired`` / ``row_unrepairable``).
    scheduler_kwargs:
        Extra keyword arguments for the
        :class:`~repro.runtime.ladder.DeadlineScheduler`
        (``degrade_after``, ``recover_after``, ``headroom``).
    """

    def __init__(self, detector, budget=0.25, ladder=None, tracker=None,
                 incremental=True, queue_size=8, policy="drop_oldest",
                 stall_timeout=2.0, watchdog_grace=None, quarantine=None,
                 profiler=None, adapt=False, adapt_kwargs=None,
                 planner=None, replan_every=None, scrub_budget=None,
                 **scheduler_kwargs):
        if isinstance(detector, VideoStreamDetector):
            if tracker is None:
                tracker = detector.tracker
            detector = detector.pyramid
        if not isinstance(detector, PyramidDetector):
            raise ValueError("detector must be a PyramidDetector "
                             "(or a VideoStreamDetector wrapping one)")
        base = detector.detector
        if getattr(base, "engine", None) is None:
            raise ValueError("the serving runtime requires the "
                             "shared-feature engine (engine='shared')")
        self.pyramid = detector
        self.base = base
        self.engine = base.engine
        self.backend = base.backend
        self.tracker = tracker if tracker is not None else TemporalTracker()
        self.incremental = bool(incremental)
        self.queue = FrameQueue(queue_size, policy)
        self.quarantine = quarantine if quarantine is not None \
            else InputQuarantine()
        self.incidents = IncidentLog()
        self.profiler = profiler if profiler is not None else Profiler()
        base.profiler = self.profiler
        self.engine.profiler = self.profiler
        self.planner = None
        self.replan_every = int(replan_every) if replan_every else None
        self.replans = 0
        if planner:
            from .planner import ExecutionPlanner
            self.planner = planner if isinstance(planner, ExecutionPlanner) \
                else ExecutionPlanner.from_detector(
                    detector, delta_reuse=bool(incremental))
        if ladder is None:
            ladder = self.planner.ladder(budget) if self.planner is not None \
                else default_ladder(self.backend)
        self.scheduler = DeadlineScheduler(budget, ladder,
                                           **scheduler_kwargs)
        self.watchdog = None
        if stall_timeout is not None:
            self.watchdog = Watchdog(
                stall_timeout, grace=watchdog_grace,
                on_cancel=weak_method(self._on_stall_cancel),
                on_restart=weak_method(self._on_consumer_restart))
        # chaos / fault hooks (see repro.runtime.chaos)
        self.pre_frame = None     # callable(index, frame, meta, cancel_event)
        self.injector = None      # stage injector forwarded to every scan
        self.model_override = None  # substitute class model (fault campaigns)
        # fleet hook (see repro.runtime.fleet): callable(requests, cancel)
        # returning one DetectionMap per request; when set, per-level scans
        # go through the cross-stream batch gate (injector scans stay solo)
        self.batch_scan = None
        # online adaptation (see repro.runtime.adapt)
        self.adapter = None
        if adapt:
            if self.backend != "packed":
                raise ValueError("adapt=True requires the packed backend "
                                 "(online updates live in the packed domain)")
            from ..reliability.guard import AdaptiveGuardedModel
            from .adapt import OnlineAdapter
            kwargs = dict(adapt_kwargs or {})
            adapter_kwargs = {k: kwargs.pop(k)
                              for k in ("drift", "label",
                                        "max_updates_per_frame")
                              if k in kwargs}
            model = kwargs.pop("model", None)
            if model is None:
                model = AdaptiveGuardedModel(base.packed_model(), **kwargs)
            elif kwargs:
                raise ValueError(
                    f"model= given, leftover model kwargs {sorted(kwargs)}")
            self.model_override = model
            self.adapter = OnlineAdapter(self, model, **adapter_kwargs)
        # background memory RAS (see repro.reliability.scrubber)
        self.scrubber = None
        if scrub_budget is not None:
            from ..reliability.scrubber import MemoryScrubber
            self.scrubber = MemoryScrubber(
                budget=None if scrub_budget == 0 else int(scrub_budget),
                incidents=self.incidents)
            self.scrubber.add_engine(self.engine)
            extractor = getattr(self.engine, "extractor", None)
            if hasattr(extractor, "item_memories"):
                self.scrubber.add_extractor(extractor)
            if hasattr(self.model_override, "scrub"):
                self.scrubber.add_guard(self.model_override)

        self.completed = []
        self.frames_in = 0
        self.frames_done = 0
        self.predicted = 0
        self.cancelled = 0
        self.crashes = 0
        self._latencies = []
        self._proc_latencies = []
        self._next_index = 0
        self._prev_levels = None
        self._state_lock = threading.RLock()
        self._generation = 0
        self._consumer = None
        self._stopping = False

    # ------------------------------------------------------------------
    # degradation plumbing
    # ------------------------------------------------------------------
    def _predict_tracks(self):
        """Skip-and-predict: the tracker's confirmed tracks, coasting."""
        return [replace(t) for t in self.tracker.active()]

    def replan(self, frame_shape=None):
        """One autotuning turn: refit the cost model, replan the rungs.

        Reads every measured stage's seconds/op-counts off the runtime's
        profiler into the planner's cost model
        (:meth:`~repro.runtime.planner.ExecutionPlanner.refit`), then
        regenerates the ladder's rung plans in place under the same
        shrinking budget schedule
        (:meth:`~repro.runtime.ladder.PlannerLadder.replan`).  Rung
        count, names and the scheduler position survive; only the knob
        assignments move.  Returns a summary dict.
        """
        if self.planner is None:
            raise RuntimeError("replan() requires the runtime to be "
                               "constructed with planner=")
        with self._state_lock:
            fitted = self.planner.refit(self.profiler)
            ladder = self.scheduler.ladder
            changed = ladder.replan(frame_shape) \
                if hasattr(ladder, "replan") else 0
            self.replans += 1
            self.profiler.set_counter("replans", self.replans)
            return {"fitted_stages": sorted(fitted),
                    "rungs_changed": int(changed)}

    # ------------------------------------------------------------------
    # one frame, end to end
    # ------------------------------------------------------------------
    def _check_cancel(self, cancel):
        if cancel is not None and cancel.is_set():
            raise FrameCancelled("frame cancelled by watchdog")

    def _frame_plan(self, rung):
        """The :class:`~repro.pipeline.plan.Plan` this rung executes.

        Planner-generated rungs carry their plan; hand-tuned rungs are
        translated from their relative knobs.  Either way the scan runs
        through the one :func:`~repro.pipeline.multiscale.execute_plan`
        code path.
        """
        plan = getattr(rung, "plan", None)
        if plan is None:
            plan = Plan.from_rung(
                rung, backend=self.backend, base_stride=self.base.stride,
                dim=self.base.pipeline.dim, engine=self.base.mode,
                workers=self.pyramid.workers, delta_reuse=self.incremental)
        return plan

    def _detect(self, frame, rung, cancel):
        """Quarantine-checked detection at the rung's plan."""
        plan = self._frame_plan(rung)
        window = self.base.window
        levels = list(pyramid(frame, self.pyramid.scale_step,
                              min_size=window))
        if plan.max_levels is not None:
            levels = levels[: plan.max_levels]
        reuse = {"mode": "cold", "levels": len(levels), "patched_levels": 0,
                 "pixels": 0, "dirty_pixels": 0}
        prev = self._prev_levels
        if (self.incremental and plan.delta_reuse and prev is not None
                and len(prev) >= len(levels)
                and prev[0][0].shape == levels[0][0].shape):
            reuse["mode"] = "delta"
            for (prev_level, _), (level, _) in zip(prev, levels):
                self._check_cancel(cancel)
                stats = self.engine.delta_update(prev_level, level)
                reuse["pixels"] += stats["pixels"]
                reuse["dirty_pixels"] += stats["dirty_pixels"]
                reuse["patched_levels"] += stats["mode"] == "patched"
        self._check_cancel(cancel)
        # the plan's word budget caps classification whatever the model
        # (plain, guarded or adapting): the escalation depth of a cascade
        # base, the scored word prefix of a flat one
        exec_plan = replace(plan, workers=self.pyramid.workers)
        # fleet path: execute_plan hands the per-level scans to the
        # cross-stream batch gate (pooled with other streams' windows)
        # and keeps only the threshold+NMS tail local - bitwise the same
        # detections as the solo path (injector scans stay solo).
        detections = execute_plan(
            self.pyramid, frame, exec_plan, injector=self.injector,
            model=self.model_override, levels=levels,
            batch_scan=self.batch_scan, cancel=cancel)
        self._check_cancel(cancel)
        return detections, levels, reuse

    def _process(self, frame, index, rung, meta, cancel):
        """Side-effect-light frame processing (no tracker/scheduler writes).

        Engine-cache writes are fine (the cache is thread-safe and
        content-addressed); everything order-sensitive happens in
        :meth:`_commit` under the state lock with a generation check, so
        a consumer abandoned mid-frame cannot corrupt the runtime state.
        """
        self._check_cancel(cancel)
        arr = self.quarantine.check(frame)
        if self.pre_frame is not None:
            self.pre_frame(index, arr, meta, cancel)
        self._check_cancel(cancel)
        keyframe = rung.keyframe_every <= 1 \
            or index % rung.keyframe_every == 0
        if not keyframe:
            return "predicted", [], None, {"mode": "skip", "levels": 0,
                                           "patched_levels": 0, "pixels": 0,
                                           "dirty_pixels": 0}
        detections, levels, reuse = self._detect(arr, rung, cancel)
        return "detected", detections, levels, reuse

    def _commit(self, generation, index, mode, detections, levels, reuse,
                latency, meta, proc_latency=0.0):
        """Publish one frame's outcome into the shared state (or drop it)."""
        with self._state_lock:
            if generation != self._generation:
                self.incidents.record("stale_result", frame=index, mode=mode)
                return None
            if mode == "detected":
                tracks = [replace(t) for t in self.tracker.update(detections)]
                self._prev_levels = levels
                if self.adapter is not None and levels:
                    try:
                        self.adapter.observe(levels[0][0], tracks, index)
                    except Exception as err:  # noqa: BLE001 - serving first
                        self.incidents.record("adapt_error", frame=index,
                                              error=repr(err))
            elif mode == "predicted":
                tracks = self._predict_tracks()
                self.predicted += 1
            else:  # quarantined / cancelled: tracker untouched
                tracks = self._predict_tracks()
            rung_name = self.scheduler.current.name
            if mode in ("detected", "predicted", "cancelled"):
                # cancelled frames are the worst deadline misses: they
                # feed the scheduler (so stall pressure sheds work) but
                # not the served-latency percentiles (nothing was served)
                old = self.scheduler.rung
                new = self.scheduler.observe(latency, frame=index)
                if latency > self.scheduler.budget:
                    self.incidents.record("deadline_miss", frame=index,
                                          latency=latency,
                                          budget=self.scheduler.budget)
                if new > old:
                    self.incidents.record("rung_degraded", frame=index,
                                          rung=self.scheduler.current.name)
                elif new < old:
                    self.incidents.record("rung_recovered", frame=index,
                                          rung=self.scheduler.current.name)
                if mode != "cancelled":
                    self._latencies.append(latency)
                    self._proc_latencies.append(proc_latency)
                    self.profiler.record("frame", latency)
                    self.profiler.record("frame_proc", proc_latency)
            result = ServeFrameResult(index, mode, detections, tracks,
                                      latency, rung_name, reuse, meta,
                                      proc_latency)
            self.completed.append(result)
            self.frames_done += 1
            if self.scrubber is not None:
                self.scrubber.tick(frame=index)
            if (self.planner is not None and self.replan_every
                    and self.frames_done % self.replan_every == 0):
                self.replan()
            return result

    def _handle(self, frame, submitted_at, meta, generation):
        """The full per-frame path shared by the sync and async loops."""
        with self._state_lock:
            index = self._next_index
            self._next_index += 1
            rung = self.scheduler.current
        cancel = threading.Event()
        self._frame_cancel = cancel
        token = self.watchdog.frame_started(index) if self.watchdog else None
        proc_start = time.perf_counter()
        mode, detections, levels, reuse = "cancelled", [], None, {}
        try:
            mode, detections, levels, reuse = self._process(
                frame, index, rung, meta, cancel)
        except PoisonFrameError as err:
            mode = "quarantined"
            self.incidents.record("poison_frame", frame=index,
                                  reason=err.reason, detail=err.detail)
        except FrameCancelled:
            mode = "cancelled"
            with self._state_lock:
                self.cancelled += 1
        except Exception as err:  # noqa: BLE001 - the loop must survive
            mode = "cancelled"
            with self._state_lock:
                self.crashes += 1
            self.incidents.record("crash", frame=index, error=repr(err))
        finally:
            if self.watchdog and token is not None:
                self.watchdog.frame_finished(token)
        now = time.perf_counter()
        return self._commit(generation, index, mode, detections, levels,
                            reuse, now - submitted_at, meta,
                            now - proc_start)

    # ------------------------------------------------------------------
    # synchronous API
    # ------------------------------------------------------------------
    def step(self, frame, meta=None):
        """Process one frame in the calling thread; returns the result."""
        return self._handle(frame, time.perf_counter(), meta,
                            self._generation)

    def run(self, frames):
        """Synchronous pump: yields one :class:`ServeFrameResult` per frame."""
        for frame in frames:
            yield self.step(frame)

    # ------------------------------------------------------------------
    # asynchronous API (queue + consumer + watchdog)
    # ------------------------------------------------------------------
    def submit(self, frame, meta=None, timeout=None):
        """Producer side: enqueue a frame; False if rejected (stopped/full)."""
        try:
            ok = self.queue.put((frame, time.perf_counter(), meta), timeout)
        except ValueError:
            return False
        if ok:
            with self._state_lock:
                self.frames_in += 1
        return ok

    def _consume(self, generation):
        while True:
            with self._state_lock:
                if generation != self._generation:
                    return
            try:
                item = self.queue.get(timeout=0.05)
            except TimeoutError:
                continue
            if item is None:
                return
            frame, submitted_at, meta = item
            self._handle(frame, submitted_at, meta, generation)

    def start(self):
        """Start the consumer thread and the watchdog."""
        if self._consumer is not None:
            raise RuntimeError("runtime already started")
        self._stopping = False
        self._spawn_consumer()
        if self.watchdog:
            self.watchdog.start()
        return self

    def _spawn_consumer(self):
        with self._state_lock:
            generation = self._generation
        self._consumer = threading.Thread(
            target=self._consume, args=(generation,), daemon=True,
            name=f"repro-serve-consumer-{generation}")
        self._consumer.start()

    def stop(self, timeout=10.0):
        """Close intake, drain, stop watchdog; returns completed results.

        The join loop follows watchdog restarts: if the consumer is
        replaced mid-drain, the replacement is joined too.  A consumer
        wedged beyond the watchdog's reach is abandoned after ``timeout``
        (it is a daemon thread and its late result goes stale) rather
        than deadlocking the caller.
        """
        self.queue.close()
        deadline = time.monotonic() + timeout
        while True:
            consumer = self._consumer
            if consumer is None:
                break
            consumer.join(max(0.0, deadline - time.monotonic()))
            if consumer is self._consumer:
                if consumer.is_alive():
                    with self._state_lock:
                        self._generation += 1  # make any late result stale
                break
            # a watchdog restart replaced the consumer mid-drain: join
            # the replacement as well (until the deadline runs out)
            if time.monotonic() >= deadline:
                with self._state_lock:
                    self._generation += 1
                break
        with self._state_lock:
            self._stopping = True
        self._consumer = None
        if self.watchdog:
            self.watchdog.stop()
        return self.completed

    # ------------------------------------------------------------------
    # watchdog escalation callbacks
    # ------------------------------------------------------------------
    def _on_stall_cancel(self, frame_index):
        cancel = getattr(self, "_frame_cancel", None)
        if cancel is not None:
            cancel.set()
        self.incidents.record("stall_cancelled", frame=frame_index,
                              escalation="cooperative")

    def _on_consumer_restart(self, frame_index):
        with self._state_lock:
            self._generation += 1
            stopping = self._stopping
        self.incidents.record("consumer_restarted", frame=frame_index)
        if not stopping and self._consumer is not None:
            self._spawn_consumer()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self):
        """One dict with the whole serving story: latency, rungs, incidents."""
        with self._state_lock:
            lat = np.asarray(self._latencies, dtype=np.float64)
            total = float(lat.sum())
            pct = self.profiler.percentiles("frame")
            proc = self.profiler.percentiles("frame_proc")
            info = self.engine.cache_info()
            return {
                "frames": self.frames_done,
                "submitted": self.frames_in,
                "dropped": self.queue.dropped,
                "predicted": self.predicted,
                "cancelled": self.cancelled,
                "crashes": self.crashes,
                "quarantined": self.quarantine.stats()["rejected_total"],
                "quarantine_reasons": self.quarantine.stats()["rejected"],
                "seconds": total,
                "fps": self.frames_done / total if total > 0 else 0.0,
                "latency_mean": float(lat.mean()) if lat.size else 0.0,
                "latency_p50": pct["p50"],
                "latency_p95": pct["p95"],
                "latency_p99": pct["p99"],
                "latency_max": float(lat.max()) if lat.size else 0.0,
                "proc_p50": proc["p50"],
                "proc_p95": proc["p95"],
                "proc_p99": proc["p99"],
                "budget": self.scheduler.budget,
                "deadline_misses": self.scheduler.deadline_misses,
                "rung": self.scheduler.rung,
                "rung_name": self.scheduler.current.name,
                "max_rung": max((self.scheduler.ladder.rungs.index(r)
                                 for r in self.scheduler.ladder.rungs
                                 if r.name in {t["to"] for t in
                                               self.scheduler.ladder.transitions}),
                                default=self.scheduler.rung),
                "rung_transitions": list(self.scheduler.ladder.transitions),
                "watchdog": (self.watchdog.stats() if self.watchdog
                             else {"cancels": 0, "restarts": 0}),
                "incidents": self.incidents.counts(),
                "delta_patched": info["delta_patched"],
                "delta_full": info["delta_full"],
                "delta_reused": info["delta_reused"],
                "tracks_alive": len(self.tracker.tracks),
                "tracks_confirmed": len(self.tracker.active()),
                "adapt": (self.adapter.stats() if self.adapter is not None
                          else None),
                "scrubber": (self.scrubber.stats()
                             if self.scrubber is not None else None),
                "planner": (self.planner.stats() if self.planner is not None
                            else None),
                "replans": self.replans,
            }
