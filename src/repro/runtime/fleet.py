"""Fleet-scale multi-stream serving: one machine, many video streams.

:class:`FleetDispatcher` is the multi-tenant front end over the
single-stream :class:`~repro.runtime.serving.ResilientVideoDetector`:
it owns one worker runtime per admitted stream (each with its own intake
queue, consumer thread, watchdog, quarantine and deadline scheduler, so
per-stream failure isolation is structural), and makes the streams share
the three things worth sharing on one machine:

* **the packed datapath** - every stream scans through one shared
  :class:`~repro.pipeline.detector.SlidingWindowDetector` /
  :class:`~repro.pipeline.engine.SharedFeatureEngine`, and a
  :class:`BatchGate` rendezvous pools the per-frame window scans of all
  concurrently-processing streams into single
  :meth:`~repro.pipeline.detector.SlidingWindowDetector.scan_many`
  calls - one similarity search over every stream's windows, bitwise
  identical to solo scans (cascade stages pool across streams too);
* **the feature cache** - identical frames across streams (and pyramid
  levels within a stream) hit one content-addressed cache;
* **the shedding policy** - a :class:`~repro.runtime.ladder.
  FleetScheduler` watches every stream's latency-to-budget ratio and,
  under machine-wide pressure, raises the degradation *floor* of the
  cheapest / least-behind streams first instead of degrading everyone;
* **the class model** (``guard=`` / ``adapt=``) - one fleet-shared
  :class:`~repro.reliability.guard.GuardedClassModel` (or its
  online-learning :class:`~repro.reliability.guard.
  AdaptiveGuardedModel` extension) serves every stream, so a scrubbed
  bit-flip heals fleet-wide and every stream's vetted online updates
  land in - and are contained away from - the same replicated rows.

Admission control keeps the fleet inside its envelope: streams beyond
``max_streams`` (or whose declared fps would exceed ``capacity_fps``)
are rejected with :class:`AdmissionError` at :meth:`~FleetDispatcher.
add_stream` time - load is shed at the front door, not discovered as
blown deadlines later.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from ..pipeline.multiscale import PyramidDetector
from ..pipeline.stream import VideoStreamDetector
from ..profiling import Profiler
from ..reliability.guard import AdaptiveGuardedModel, GuardedClassModel
from .ladder import FleetScheduler
from .serving import ResilientVideoDetector
from .watchdog import weak_method

__all__ = ["AdmissionError", "BatchGate", "FleetDispatcher"]


class AdmissionError(RuntimeError):
    """A stream was refused admission (fleet full or over capacity)."""


class _Bundle:
    """One stream's scan requests waiting at the batch gate."""

    __slots__ = ("requests", "event", "results", "error")

    def __init__(self, requests):
        self.requests = list(requests)
        self.event = threading.Event()
        self.results = None
        self.error = None


class BatchGate:
    """Rendezvous that merges concurrent scan calls into one batch.

    The first stream thread to arrive becomes the *leader*: it waits
    ``batch_window`` seconds for other streams' frames to arrive, then
    runs every pending bundle's requests through one
    :meth:`~repro.pipeline.detector.SlidingWindowDetector.scan_many`
    call on the shared ``detector`` and distributes the per-request
    results.  Followers block on their bundle's event (polling their
    watchdog cancel flag, so a stalled batch can never wedge a stream
    past its watchdog).  While a batch executes, the next arrival starts
    leading the *next* batch - the gate pipelines, it does not serialize
    the fleet.

    ``on_batch(n_bundles, n_requests)`` fires after each batch - the
    dispatcher's hook for ticking the fleet scheduler at batch cadence.
    """

    def __init__(self, detector, batch_window=0.002, on_batch=None,
                 poll=0.02):
        self.detector = detector
        self.batch_window = float(batch_window)
        self.on_batch = on_batch
        self.poll = float(poll)
        self._lock = threading.Lock()
        self._pending = []
        self._leading = False
        self.batches = 0
        self.batched_requests = 0
        self.max_bundles = 0

    def scan(self, requests, cancel=None):
        """Scan ``requests`` (one stream's frame) through the shared batch.

        The signature matches the
        :attr:`~repro.runtime.serving.ResilientVideoDetector.batch_scan`
        hook: returns one DetectionMap per request, or re-raises the
        batch's failure in every participating stream.
        """
        from ..runtime.watchdog import FrameCancelled
        bundle = _Bundle(requests)
        with self._lock:
            self._pending.append(bundle)
            lead = not self._leading
            if lead:
                self._leading = True
        if lead:
            if self.batch_window > 0.0:
                time.sleep(self.batch_window)
            with self._lock:
                batch, self._pending = self._pending, []
                self._leading = False
            self._run(batch)
        else:
            while not bundle.event.wait(self.poll):
                if cancel is not None and cancel.is_set():
                    raise FrameCancelled("frame cancelled at the batch gate")
        if bundle.error is not None:
            raise bundle.error
        return bundle.results

    def _run(self, batch):
        flat = [r for b in batch for r in b.requests]
        try:
            maps = self.detector.scan_many(flat)
        except Exception as err:  # noqa: BLE001 - every waiter must wake
            for b in batch:
                b.error = err
                b.event.set()
            return
        pos = 0
        for b in batch:
            b.results = maps[pos:pos + len(b.requests)]
            pos += len(b.requests)
            b.event.set()
        with self._lock:
            self.batches += 1
            self.batched_requests += len(flat)
            self.max_bundles = max(self.max_bundles, len(batch))
        if self.on_batch is not None:
            self.on_batch(len(batch), len(flat))

    def stats(self):
        with self._lock:
            return {"batches": self.batches,
                    "batched_requests": self.batched_requests,
                    "max_bundles": self.max_bundles,
                    "mean_requests": (self.batched_requests / self.batches
                                      if self.batches else 0.0)}


class FleetDispatcher:
    """Own N per-stream serving runtimes over one shared packed datapath.

    Parameters
    ----------
    make_detector:
        Zero-argument factory for the *template*
        :class:`~repro.pipeline.multiscale.PyramidDetector` (or a
        :class:`~repro.pipeline.stream.VideoStreamDetector` to unwrap).
        Called once; every stream's runtime wraps the same underlying
        sliding-window detector and engine, so window scans batch and
        the feature cache is fleet-wide.
    budget:
        Default per-stream latency budget (seconds); ``add_stream`` may
        override per stream.
    max_streams, capacity_fps:
        Admission limits: hard stream count, and optionally the summed
        *declared* fps the machine is provisioned for.
    batch_window:
        Seconds the batch-gate leader waits for other streams' frames.
        0 still batches whatever is already pending.
    batching:
        False wires no batch gate - every stream scans solo through the
        shared engine (the bench's like-for-like baseline mode).
    scheduler:
        A :class:`~repro.runtime.ladder.FleetScheduler` (default-built
        if omitted) that the gate ticks once per batch.
    cache_per_stream:
        Engine cache entries to provision per admitted stream (pyramid
        levels x a safety factor); the engine cache is grown, never
        shrunk.
    guard:
        Serve every stream against one fleet-shared
        :class:`~repro.reliability.guard.GuardedClassModel` (replicated
        rows, scrub-and-repair) instead of the raw packed model.  All
        streams install the same model as their ``model_override``, so
        the batch gate still groups their windows into one batch and a
        repaired bit heals for the whole fleet at once.  Packed backend
        only.
    adapt:
        Guarded *online learning*, fleet-wide: the shared model is an
        :class:`~repro.reliability.guard.AdaptiveGuardedModel` and every
        stream runs its own :class:`~repro.runtime.adapt.OnlineAdapter`
        with its own drift detector.  Updates from all streams serialize
        on the shared model's lock and pass the same vetting; a
        poisoned stream's proposals are rejected/outvoted before they
        can touch what the other streams serve (blast-radius
        containment).  Implies ``guard``.
    guard_kwargs:
        Options for the shared model (``replicas``, ``seed_or_rng``,
        ``prior``, ``max_step_frac``, ...).
    planner:
        Plan every stream's degradation ladder from one fleet-shared
        :class:`~repro.runtime.planner.ExecutionPlanner` (``True``
        builds one from the template detector; or pass a ready
        planner).  Each admitted stream without an explicit ``ladder``
        gets a planner-generated ladder at its own budget, and the
        shared cost model means one stream's refit benefits the whole
        fleet.
    scrub_budget:
        Enable one *fleet-level* :class:`~repro.reliability.scrubber.
        MemoryScrubber` over the shared surfaces (engine cache, extractor
        item memories, the shared guarded model), ticked once per batch
        (or per manual :meth:`tick`).  Bytes per tick; ``0`` =
        unbudgeted; ``None`` (default) disables.  The shared datapath
        belongs to the fleet, so scrubbing it is a dispatcher concern -
        per-stream ``scrub_budget`` in ``runtime_kwargs`` would sweep
        the same shared memory once per stream.
    runtime_kwargs:
        Defaults forwarded to every stream's
        :class:`~repro.runtime.serving.ResilientVideoDetector`
        (``stall_timeout``, ``queue_size``, ``policy``, ...).
    """

    def __init__(self, make_detector, budget=0.25, max_streams=8,
                 capacity_fps=None, batch_window=0.002, batching=True,
                 scheduler=None, profiler=None, cache_per_stream=8,
                 guard=False, adapt=False, guard_kwargs=None, planner=None,
                 scrub_budget=None, **runtime_kwargs):
        if max_streams < 1:
            raise ValueError("max_streams must be at least 1")
        self.budget = float(budget)
        self.max_streams = int(max_streams)
        self.capacity_fps = None if capacity_fps is None \
            else float(capacity_fps)
        self.batching = bool(batching)
        self.cache_per_stream = int(cache_per_stream)
        self.runtime_kwargs = dict(runtime_kwargs)
        self.profiler = profiler if profiler is not None else Profiler()
        self.scheduler = scheduler if scheduler is not None \
            else FleetScheduler()
        self.streams = OrderedDict()
        self._lock = threading.RLock()
        self._started_at = None
        self._elapsed = 0.0
        template = make_detector()
        if isinstance(template, VideoStreamDetector):
            template = template.pyramid
        if not isinstance(template, PyramidDetector):
            raise ValueError("make_detector must build a PyramidDetector "
                             "(or a VideoStreamDetector wrapping one)")
        if getattr(template.detector, "engine", None) is None:
            raise ValueError("fleet serving requires the shared-feature "
                             "engine (engine='shared')")
        self.template = template
        self.adapt = bool(adapt)
        self.shared_model = None
        if adapt or guard:
            if template.detector.backend != "packed":
                raise ValueError("guard/adapt fleets require the packed "
                                 "backend (the guarded models replicate "
                                 "packed rows)")
            cls = AdaptiveGuardedModel if adapt else GuardedClassModel
            self.shared_model = cls(template.detector.packed_model(),
                                    **dict(guard_kwargs or {}))
        self.planner = None
        if planner:
            from .planner import ExecutionPlanner
            self.planner = planner if isinstance(planner, ExecutionPlanner) \
                else ExecutionPlanner.from_detector(
                    template,
                    delta_reuse=bool(self.runtime_kwargs.get(
                        "incremental", True)))
        # every runtime holds the gate, so the gate holds the dispatcher
        # weakly
        self.gate = BatchGate(template.detector, batch_window=batch_window,
                              on_batch=weak_method(self._on_batch)) \
            if self.batching else None
        # fleet-level memory RAS over the shared surfaces
        self.scrubber = None
        self.scrub_incidents = None
        if scrub_budget is not None:
            from ..reliability.incidents import IncidentLog
            from ..reliability.scrubber import MemoryScrubber
            self.scrub_incidents = IncidentLog()
            self.scrubber = MemoryScrubber(
                budget=None if scrub_budget == 0 else int(scrub_budget),
                incidents=self.scrub_incidents)
            self.scrubber.add_engine(template.detector.engine)
            extractor = getattr(template.detector.engine, "extractor", None)
            if hasattr(extractor, "item_memories"):
                self.scrubber.add_extractor(extractor)
            if self.shared_model is not None:
                self.scrubber.add_guard(self.shared_model)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self, name, fps):
        if name in self.streams:
            raise ValueError(f"stream {name!r} already admitted")
        if len(self.streams) >= self.max_streams:
            raise AdmissionError(
                f"fleet full: {len(self.streams)}/{self.max_streams} "
                f"streams admitted, rejecting {name!r}")
        if self.capacity_fps is not None:
            declared = sum(s["fps"] or 0.0 for s in self.streams.values())
            declared += fps or 0.0
            if declared > self.capacity_fps:
                raise AdmissionError(
                    f"over capacity: declared {declared:g} fps exceeds the "
                    f"provisioned {self.capacity_fps:g}, rejecting {name!r}")

    def add_stream(self, name, budget=None, priority=0.0, fps=None,
                   ladder=None, **runtime_kwargs):
        """Admit one stream; returns its runtime (raises AdmissionError).

        ``priority`` feeds the fleet scheduler (higher = shed last);
        ``fps`` is the stream's declared frame rate for capacity-based
        admission.  Extra kwargs override the dispatcher's runtime
        defaults for this stream only.
        """
        name = str(name)
        with self._lock:
            self._admit(name, fps)
            t = self.template
            if not self.streams:
                pyr = t
            else:
                pyr = PyramidDetector(t.detector, scale_step=t.scale_step,
                                      score_threshold=t.score_threshold,
                                      iou_threshold=t.iou_threshold,
                                      workers=t.workers)
            kwargs = dict(self.runtime_kwargs)
            kwargs.update(runtime_kwargs)
            if self.planner is not None:
                # one fleet-shared planner: every stream's ladder is the
                # planner under its own shrinking budget schedule
                kwargs.setdefault("planner", self.planner)
            if self.shared_model is not None and self.adapt:
                # every stream closes its own tracker -> model loop (own
                # adapter + drift detector) against the one shared model;
                # proposals serialize on the model's lock and a per-stream
                # attack is vetted before it can touch the fleet's rows
                akw = dict(kwargs.pop("adapt_kwargs", None) or {})
                if "model" in akw:
                    raise ValueError(
                        "fleet adapt streams share the dispatcher's model; "
                        "per-stream model= is not allowed")
                akw["model"] = self.shared_model
                kwargs["adapt"] = True
                kwargs["adapt_kwargs"] = akw
            runtime = ResilientVideoDetector(
                pyr, budget=self.budget if budget is None else float(budget),
                ladder=ladder, **kwargs)
            if self.shared_model is not None and not self.adapt:
                runtime.model_override = self.shared_model
            # every runtime's __init__ points the *shared* detector and
            # engine at its own profiler; the shared datapath belongs to
            # the fleet, so re-point it at the fleet profiler (the
            # runtime's own profiler keeps the per-stream frame stages)
            shared = t.detector
            shared.profiler = self.profiler
            shared.engine.profiler = self.profiler
            shared.engine.cache_size = max(
                shared.engine.cache_size,
                self.cache_per_stream * (len(self.streams) + 1))
            if self.gate is not None:
                runtime.batch_scan = self.gate.scan
            self.scheduler.register(name, runtime.scheduler,
                                    priority=priority)
            self.streams[name] = {"runtime": runtime,
                                  "priority": float(priority),
                                  "fps": None if fps is None else float(fps),
                                  "budget": runtime.scheduler.budget}
            return runtime

    def __getitem__(self, name):
        return self.streams[name]["runtime"]

    def __len__(self):
        return len(self.streams)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Start every stream's consumer + watchdog."""
        with self._lock:
            self._started_at = time.perf_counter()
            for s in self.streams.values():
                s["runtime"].start()
        return self

    def submit(self, name, frame, meta=None, timeout=None):
        """Enqueue one frame on ``name``'s intake; False if shed."""
        return self.streams[name]["runtime"].submit(frame, meta, timeout)

    def step(self, name, frame, meta=None):
        """Synchronous single-frame path on ``name`` (tests, backfills)."""
        return self.streams[name]["runtime"].step(frame, meta)

    def stop(self, timeout=10.0):
        """Drain and stop every stream; returns per-stream results."""
        with self._lock:
            started = self._started_at
            if started is not None:
                self._elapsed += time.perf_counter() - started
                self._started_at = None
            streams = list(self.streams.items())
        return {name: s["runtime"].stop(timeout) for name, s in streams}

    # ------------------------------------------------------------------
    # fleet-aware shedding
    # ------------------------------------------------------------------
    def _loads(self):
        """Recent latency-to-budget ratio per stream (the pressure signal)."""
        loads = {}
        for name, s in self.streams.items():
            rt = s["runtime"]
            p95 = rt.profiler.percentiles("frame_proc", window=8)["p95"]
            loads[name] = p95 / rt.scheduler.budget
        return loads

    def _on_batch(self, n_bundles, n_requests):
        self.scheduler.tick(self._loads())
        if self.scrubber is not None:
            self.scrubber.tick()

    def tick(self):
        """Manually advance the fleet scheduler (non-batching fleets)."""
        if self.scrubber is not None:
            self.scrubber.tick()
        return self.scheduler.tick(self._loads())

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def merged_profiler(self):
        """Fleet-level profiler: shared datapath + every stream, merged."""
        merged = Profiler()
        merged.merge(self.profiler)
        for s in self.streams.values():
            merged.merge(s["runtime"].profiler)
        if self.shared_model is not None:
            # per-stream profilers each mirror the *shared* model's scrub
            # ledger, so the summed merge overcounts it; overwrite with
            # the authoritative fleet-wide numbers (adapt_* counters stay
            # summed - they are genuinely per-stream adapter ledgers)
            stats = self.shared_model.stats()
            merged.set_counter("guard_scrubs", stats["scrubs"])
            merged.set_counter("guard_repaired", stats["repaired"])
            if self.adapt:
                merged.set_counter("adapt_applied", stats["updates_applied"])
                merged.set_counter("adapt_rejected", stats["updates_rejected"])
                merged.set_counter("adapt_outvoted",
                                   stats["replicas_outvoted"])
        return merged

    def stats(self):
        """Per-stream serving stats plus the fleet-level rollup.

        ``fleet.profile_table`` is the merged stage/percentile table of
        the shared datapath profiler and every stream's profiler - the
        one table that shows where the whole machine's time went.
        """
        with self._lock:
            elapsed = self._elapsed
            if self._started_at is not None:
                elapsed += time.perf_counter() - self._started_at
            per_stream = {name: s["runtime"].stats()
                          for name, s in self.streams.items()}
            frames = sum(st["frames"] for st in per_stream.values())
            merged = self.merged_profiler()
            fleet = {
                "streams": len(self.streams),
                "max_streams": self.max_streams,
                "capacity_fps": self.capacity_fps,
                "frames": frames,
                "elapsed": elapsed,
                "aggregate_fps": frames / elapsed if elapsed > 0 else 0.0,
                "batching": self.gate is not None,
                "gate": self.gate.stats() if self.gate is not None
                else {"batches": 0, "batched_requests": 0,
                      "max_bundles": 0, "mean_requests": 0.0},
                "scheduler": self.scheduler.stats(),
                "guard": self.shared_model.stats()
                if self.shared_model is not None else None,
                "scrubber": self.scrubber.stats()
                if self.scrubber is not None else None,
                "profile_table": merged.table("fleet profile"),
            }
            return {"fleet": fleet, "streams": per_stream}
