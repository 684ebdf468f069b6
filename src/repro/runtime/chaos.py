"""Chaos harness: act out failure scenarios on a serving target, gate on SLOs.

Reliability claims that are only exercised by unit tests die in
production, so the runtime ships with its own adversary.  A
:class:`ChaosScenario` scripts a deterministic failure timeline over a
frame stream - processing stalls (soft ones that honor the cancel flag
and hard ones that wedge the consumer), poison frames, load spikes,
packed bit faults in the feature datapath, a corrupted stored class
model, online-learning attacks, and a sustained bit-error rate on the
long-lived memories (scene cache, item memories, guarded class model).
:class:`ChaosInjector` acts every fault out from the runtime's
``pre_frame`` hook, and :func:`run_scenario` drives a serving target
through it end to end: a bare
:class:`~repro.runtime.serving.ResilientVideoDetector` is served as one
stream, a :class:`~repro.runtime.fleet.FleetDispatcher` as its N
admitted streams, each under its own scenario.

Every stream is compared against a clean *twin*: the same frames
replayed through a second, never-injected target, each frame at the
rung it was served at (degrading under attack is the design; detecting
worse than the served rung explains is a bug).  One gate table then
checks each stream, arming a gate only when that stream's scenario
scripts what it checks: ``no_crashes``, ``p95_within_budget`` and
``recall_within_bound`` always; ``stalls_recovered`` for stalls;
``poison_quarantined`` and ``poison_not_cached`` for poison;
``corruption_detected`` and ``zero_silent_corruption`` for a ``ber``;
the :func:`_adapt_gates` for online-learning attacks.  The gate table
with what each gate checks is in ``docs/runtime.md``.

The verdict plus the full incident trail is returned JSON-ready for the
benches, the ``serve --chaos`` CLI and the CI smoke jobs.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..noise.campaign import _match_detections
from ..pipeline.engine import scene_key
from ..reliability.faults import DetectionFaultInjector, flip_packed_words
from .fleet import FleetDispatcher
from .watchdog import FrameCancelled

__all__ = ["ChaosScenario", "ChaosInjector", "poison_frame", "run_scenario",
           "served_recall", "POISON_KINDS", "SOAK_SURFACES"]

#: Poison payloads the harness can forge (quarantine reason they trip).
POISON_KINDS = ("nan", "inf", "constant", "shape", "ndim", "dtype")

#: Memory surfaces a scenario's sustained bit-error rate can bombard: the
#: engine's scene cache, the extractor's item memories, and the (guarded)
#: class model.
SOAK_SURFACES = ("cache", "items", "model")

#: IoU a served box needs with a truth box to count as a hit.
IOU_MATCH = 0.25

#: Drain deadline handed to the target's ``stop``.
STOP_TIMEOUT = 30.0


def poison_frame(kind, shape=(64, 64), rng=None):
    """Forge one poison frame of the given kind (see :data:`POISON_KINDS`)."""
    h, w = shape
    base = (rng.random((h, w)) if rng is not None
            else np.linspace(0.0, 1.0, h * w).reshape(h, w))
    if kind == "nan":
        bad = base.copy()
        bad[:: max(h // 8, 1)] = np.nan
        return bad
    if kind == "inf":
        bad = base.copy()
        bad[h // 2, :] = np.inf
        return bad
    if kind == "constant":
        return np.full((h, w), 0.5)
    if kind == "shape":
        return base[: h // 2, : w // 2]
    if kind == "ndim":
        return base[None, ...]
    if kind == "dtype":
        return np.full((h, w), "x", dtype=object)
    raise ValueError(f"unknown poison kind {kind!r}; "
                     f"expected one of {POISON_KINDS}")


@dataclass
class ChaosScenario:
    """A scripted failure timeline, keyed by *submitted* frame number.

    Attributes
    ----------
    name:
        Scenario label for the report.
    stalls:
        ``{frame: seconds}`` soft stalls - the injected delay polls the
        watchdog's cancel flag, modelling a slow-but-cooperative
        dependency.
    hard_stalls:
        ``{frame: seconds}`` hard stalls - the delay ignores the cancel
        flag, modelling a wedged native call; only the watchdog's
        consumer restart recovers these.
    poison:
        ``{frame: kind}`` frames replaced with :func:`poison_frame`
        payloads at submit time.
    spikes:
        ``{frame: seconds}`` load spikes - extra per-frame latency
        (contention from a noisy neighbour) that the ladder must absorb;
        unlike stalls, spikes are *served* frames and count toward the
        latency gates.
    fault_rate:
        Packed bit-fault rate armed in the feature datapath
        (:class:`~repro.reliability.faults.DetectionFaultInjector`)
        during ``fault_frames``.
    fault_frames:
        ``(start, end)`` half-open submitted-frame window for the
        datapath faults; None arms them for the whole run.
    model_fault_rate:
        When positive, the stored packed class model is corrupted at this
        per-bit rate for the entire run
        (:meth:`~repro.core.packed.PackedClassModel.corrupted`).
    label_poison:
        ``{frame: kind}`` online-learning attacks (``adapt=True``
        runtimes): at the given frame the adapter's *next* harvested
        update is replaced with a poisoned one -
        :meth:`~repro.runtime.adapt.OnlineAdapter.poison_next` kinds
        ``"label"`` (adversarial votes, must be rejected + rolled back)
        or ``"replica"`` (one replica's payload corrupted in delivery,
        must be outvoted).
    update_storm:
        ``{frame: n}`` update storms: the adapter is armed to propose
        ``n`` back-to-back copies of its next harvest
        (:meth:`~repro.runtime.adapt.OnlineAdapter.storm_next`); the
        per-frame proposal budget must suppress the excess.
    ber:
        Sustained bit-error rate: before every ``inject_every``-th frame,
        each stored bit of the ``surfaces`` flips with this probability.
        Digests and parity are never refreshed - detection is the
        runtime's job (hit-time ECC + recompute, the
        :class:`~repro.reliability.scrubber.MemoryScrubber`, the
        guard's repair ladder, read-time item-memory verification).
    surfaces:
        Which of :data:`SOAK_SURFACES` the ``ber`` bombards.
    inject_every:
        Frames between ``ber`` injection rounds.
    seed:
        Randomness for fault positions.
    """

    name: str
    stalls: dict = field(default_factory=dict)
    hard_stalls: dict = field(default_factory=dict)
    poison: dict = field(default_factory=dict)
    spikes: dict = field(default_factory=dict)
    fault_rate: float = 0.0
    fault_frames: tuple | None = None
    model_fault_rate: float = 0.0
    label_poison: dict = field(default_factory=dict)
    update_storm: dict = field(default_factory=dict)
    ber: float = 0.0
    surfaces: tuple = SOAK_SURFACES
    inject_every: int = 1
    seed: int = 0

    def __post_init__(self):
        self.surfaces = tuple(self.surfaces)
        unknown = set(self.surfaces) - set(SOAK_SURFACES)
        if unknown:
            raise ValueError(f"unknown soak surfaces {sorted(unknown)}; "
                             f"expected among {SOAK_SURFACES}")

    def payload(self):
        """JSON-safe scenario description for the report."""
        return {
            "name": self.name,
            "stalls": {int(k): float(v) for k, v in self.stalls.items()},
            "hard_stalls": {int(k): float(v)
                            for k, v in self.hard_stalls.items()},
            "poison": {int(k): str(v) for k, v in self.poison.items()},
            "spikes": {int(k): float(v) for k, v in self.spikes.items()},
            "fault_rate": self.fault_rate,
            "fault_frames": (list(self.fault_frames)
                             if self.fault_frames else None),
            "model_fault_rate": self.model_fault_rate,
            "label_poison": {int(k): str(v)
                             for k, v in self.label_poison.items()},
            "update_storm": {int(k): int(v)
                             for k, v in self.update_storm.items()},
            "ber": float(self.ber),
            "surfaces": list(self.surfaces),
            "inject_every": int(self.inject_every),
            "seed": self.seed,
        }


class ChaosInjector:
    """The runtime's ``pre_frame`` hook, acting out one scenario.

    Runs in the consumer thread immediately before a frame's detection
    work, so its stalls occupy exactly the processing slot the watchdog
    monitors, and its per-frame arming of the datapath injector and its
    bit-error rounds are synchronous with the frame they target.
    Construction applies the run-long faults (a corrupted stored model)
    and records every armed fault in the runtime's incident log.
    """

    def __init__(self, scenario, runtime):
        self.scenario = scenario
        self.runtime = runtime
        self.injector = None
        if scenario.fault_rate > 0.0:
            self.injector = DetectionFaultInjector(
                scenario.fault_rate, runtime.base.pipeline.dim,
                seed_or_rng=scenario.seed)
            runtime.incidents.record("fault_injected", surface="datapath",
                                     rate=scenario.fault_rate)
        if scenario.model_fault_rate > 0.0:
            runtime.model_override = runtime.base.packed_model().corrupted(
                scenario.model_fault_rate, seed_or_rng=scenario.seed)
            runtime.incidents.record("fault_injected", surface="model",
                                     rate=scenario.model_fault_rate)
        self.injected = {}
        if scenario.ber > 0.0:
            self.injected = dict.fromkeys(scenario.surfaces, 0)
            for surface in scenario.surfaces:
                runtime.incidents.record("fault_injected", surface=surface,
                                         rate=float(scenario.ber),
                                         mode="soak")
        self._ber_rng = np.random.default_rng(scenario.seed)
        #: Scene keys of this stream's cacheable poison payloads, and whether
        #: the engine cache was ever seen holding one: checked before every
        #: frame, so a later LRU eviction cannot hide it.
        self.poison_keys = set()
        self.poison_cached = False
        #: Frames numbered below this were served while the class model
        #: flagged no degraded class (degradation is sticky, so a clean
        #: check before frame ``i`` covers every earlier frame).
        self.undegraded_before = 0

    def _frame_number(self, index, meta):
        if meta and "frame" in meta:
            return int(meta["frame"])
        return int(index)

    def _inject_ber(self):
        """One bit-error round across the scenario's surfaces.

        Counts per surface: corrupted buffers (cache), flipped elements
        (items), flipped stored bits (model).
        """
        sc, rng, runtime = self.scenario, self._ber_rng, self.runtime
        if "cache" in self.injected:
            self.injected["cache"] += runtime.engine.corrupt_cache(sc.ber, rng)
        extractor = getattr(runtime.engine, "extractor", None)
        if "items" in self.injected and hasattr(extractor, "item_memories"):
            for memory in extractor.item_memories().values():
                self.injected["items"] += memory.corrupt(sc.ber, rng)
        model = runtime.model_override
        if "model" in self.injected and hasattr(model, "replicas"):
            with getattr(model, "_lock", None) or contextlib.nullcontext():
                flipped = flip_packed_words(model.replicas, model.dim,
                                            sc.ber, rng)
                self.injected["model"] += int(
                    np.bitwise_count(model.replicas ^ flipped).sum())
                model.replicas[...] = flipped

    def __call__(self, index, frame, meta, cancel):
        sc = self.scenario
        i = self._frame_number(index, meta)
        if self.injector is not None:
            lo, hi = sc.fault_frames or (0, float("inf"))
            self.runtime.injector = (self.injector if lo <= i < hi else None)
        if sc.ber > 0.0 and i % max(int(sc.inject_every), 1) == 0:
            self._inject_ber()
        if not getattr(self.runtime.model_override, "degraded_classes", None):
            self.undegraded_before = i
        cache = self.runtime.engine._cache
        self.poison_cached |= any(key in cache for key in self.poison_keys)
        adapter = getattr(self.runtime, "adapter", None)
        if adapter is not None:
            kind = sc.label_poison.get(i)
            if kind is not None:
                adapter.poison_next(kind)
            storm = sc.update_storm.get(i)
            if storm is not None:
                adapter.storm_next(storm)
        hard = sc.hard_stalls.get(i)
        if hard is not None:
            time.sleep(hard)  # ignores the cancel flag: a wedged call
        soft = sc.stalls.get(i)
        if soft is not None:
            deadline = time.monotonic() + soft
            while time.monotonic() < deadline:
                if cancel is not None and cancel.is_set():
                    raise FrameCancelled(f"soft stall at frame {i} cancelled")
                time.sleep(0.005)
        spike = sc.spikes.get(i)
        if spike is not None:
            time.sleep(spike)  # served load: counts toward latency gates


def _adapt_gates(runtime, scenario):
    """Online-learning chaos gates (armed scenarios, adapting runtimes).

    * ``poison_update_detected`` - every consumed poisoned update was
      caught by the guard: rejected by the vetting (label kind) or its
      diverging replica outvoted (replica kind).
    * ``poison_update_rolled_back`` - every rejected poison was restored
      from the pre-proposal snapshot (the adapter's rollback ledger
      covers it); clean-recall preservation is the
      ``recall_within_bound`` gate.
    * ``storm_throttled`` - the storm outgrew the proposal budget, and the
      budget suppressed everything it pushed past
      ``max_updates_per_frame``.
    """
    adapter = getattr(runtime, "adapter", None)
    if adapter is None:
        return {}
    a = adapter.stats()
    gates = {}
    if scenario.label_poison:
        injected = a["poison_injected"]
        gates["poison_update_detected"] = (
            injected >= 1
            and a["poison_rejected"] + a["poison_outvoted"] >= injected)
        if any(k == "label" for k in scenario.label_poison.values()):
            gates["poison_update_rolled_back"] = (
                a["poison_rejected"] >= 1
                and a["rollbacks"] >= a["poison_rejected"])
    if scenario.update_storm:
        budget = adapter.max_updates_per_frame
        expected = sum(max(int(n) - budget, 0)
                       for n in scenario.update_storm.values())
        gates["storm_throttled"] = (expected >= 1
                                    and a["storm_suppressed"] >= expected)
    return gates


def served_recall(results, truth_by_frame):
    """Mean per-frame recall of what the runtime *served*, plus unserved.

    Detected frames are scored on their detections; predicted (tracker
    coasting) and quarantined/cancelled frames on their confirmed tracks -
    that is the output a consumer of the serving API actually sees.
    Frames the runtime never produced a result for (queue-dropped, or
    discarded as stale after a consumer restart) are *excluded* from the
    recall mean and counted separately - they are already gated through
    the stall-recovery and crash gates, and folding them in as zeros
    would make the recall gate measure injection count, not detection
    quality.  Returns ``(recall, n_scored, n_unserved)``.
    """
    recalls, unserved = [], 0
    for frame_no, truth in truth_by_frame.items():
        if not truth:
            continue
        result = results.get(frame_no)
        if result is None:
            unserved += 1
            continue
        boxes = result.detections if result.mode == "detected" \
            else result.tracks
        matched = _match_detections(boxes, truth, IOU_MATCH)
        recalls.append(len(matched) / len(truth))
    recall = float(np.mean(recalls)) if recalls else 1.0
    return recall, len(recalls), unserved


def _streams(target):
    """``{name: runtime}`` of a fleet, or one ``"stream"`` for a runtime."""
    if isinstance(target, FleetDispatcher):
        return {name: target[name] for name in target.streams}
    return {"stream": target}


def _replay_twin(make_target, frames, served):
    """Replay every stream's frames through a clean target, rung for rung.

    The twin is a second target from the same factory, so it carries no
    injector.  Each frame is stepped at the rung it was served at; a
    frame that was never served keeps the previous frame's rung.
    Returns ``{stream: {frame: ServeFrameResult}}``.
    """
    out = {}
    for name, runtime in _streams(make_target()).items():
        rungs = [r.name for r in runtime.scheduler.ladder.rungs]
        rung, results = 0, {}
        for i, frame in enumerate(frames):
            if i in served[name]:
                rung = rungs.index(served[name][i].rung)
            runtime.scheduler.set_rung(rung)
            results[i] = runtime.step(frame, meta={"frame": i})
        out[name] = results
    return out


def _memory_audit(runtime, injector, scrubber):
    """Residual-state audit of a ``ber`` stream, after the final sweep.

    Returns ``(report, clean)``: the per-surface detection/repair ledger,
    and whether every surface is digest-clean or explicitly degraded -
    the cache reports no residual mismatch, every item memory verifies,
    and the guard scrubs clean (its unrepaired classes are flagged in
    ``degraded_classes``, never silent).
    """
    engine = runtime.engine
    cache_residual = engine.scrub_cache()
    extractor = getattr(engine, "extractor", None)
    memories = list(extractor.item_memories().values()) \
        if hasattr(extractor, "item_memories") else []
    items_clean = all(memory.verify() for memory in memories)
    items = [memory.stats() for memory in memories]
    model = runtime.model_override
    guard, model_residual = None, 0
    if hasattr(model, "scrub"):
        model_residual = model.scrub()
        guard = model.stats()
    info = engine.cache_info()
    item_repairs = sum(s["scrub_repairs"] for s in items)
    report = {
        "injected": dict(injector.injected),
        "detections": (info["scrub_mismatches"] + item_repairs
                       + (guard["detected"] if guard else 0)),
        "repairs": (info["scrub_repairs"] + info["scrub_evictions"]
                    + item_repairs
                    + (guard["repaired"] + guard["unrepairable"]
                       if guard else 0)),
        "cache": {k: info[k] for k in
                  ("scrub_checks", "scrub_mismatches", "scrub_repairs",
                   "scrub_evictions", "ecc_corrected_words",
                   "ecc_detected_words")},
        "cache_residual": cache_residual,
        "items": items,
        "guard": guard,
        "scrubber": scrubber.stats() if scrubber is not None else None,
    }
    clean = (cache_residual["mismatches"] == 0 and items_clean
             and model_residual == 0)
    return report, clean


def run_scenario(make_target, frames, truth, scenarios, pace=0.0,
                 max_recall_drop=0.05, p95_tolerance=1.0):
    """Serve ``frames`` under chaos, replay a clean twin, gate every stream.

    Parameters
    ----------
    make_target:
        Zero-argument factory returning an un-started serving target: a
        :class:`~repro.runtime.serving.ResilientVideoDetector` (served as
        one stream, named ``"stream"`` in the report) or a
        :class:`~repro.runtime.fleet.FleetDispatcher` with its streams
        admitted.  Called twice: once for the served target, once for
        the clean twin.
    frames:
        The clean frame sequence, fed to every stream (poison
        substitutions happen per stream at submit time).
    truth:
        Per-frame ground-truth boxes ``[(y, x, size), ...]`` (one list
        per frame) for recall scoring.
    scenarios:
        A :class:`ChaosScenario` for a single-stream target, or
        ``{stream_name: ChaosScenario}``; streams without one run clean
        and carry only the always-armed gates.
    pace:
        Producer sleep in seconds between frame rounds (each round
        submits one frame to every stream; 0 = full speed, which with
        the bounded intake queue is itself a load spike).
    max_recall_drop:
        Gate: served recall may trail the twin's by at most this much
        (absolute).
    p95_tolerance:
        Gate: served p95 *processing* latency must stay within
        ``budget * p95_tolerance``.

    Returns
    -------
    dict:
        JSON-ready report: per-stream scenario, serving stats, incident
        trail, recall against the twin, memory audit (``ber`` streams)
        and gates under ``"streams"``; the gates AND-ed across streams
        under ``"gates"``; the overall ``"passed"``; and, for fleets,
        the fleet rollup under ``"fleet"``.
    """
    frames = [np.asarray(f) for f in frames]
    truth_by_frame = {i: list(t) for i, t in enumerate(truth)}
    target = make_target()
    streams = _streams(target)
    if isinstance(scenarios, ChaosScenario):
        if len(streams) != 1:
            raise ValueError("a fleet takes {stream_name: ChaosScenario}")
        scenarios = {next(iter(streams)): scenarios}
    unknown = set(scenarios) - set(streams)
    if unknown:
        raise ValueError(f"scenarios name unadmitted streams: "
                         f"{sorted(unknown)}")
    plan = {name: scenarios.get(name) or ChaosScenario(name)
            for name in streams}
    injectors = {}
    for name, runtime in streams.items():
        if runtime.quarantine.expect_shape is None and frames:
            # streams have a fixed camera geometry; arming the
            # expectation makes wrong-shape poison rejectable
            runtime.quarantine.expect_shape = tuple(frames[0].shape)
        injectors[name] = runtime.pre_frame = ChaosInjector(plan[name],
                                                            runtime)
        injectors[name].poison_keys = {
            scene_key(poison_frame(kind, frames[i].shape))
            for i, kind in plan[name].poison.items()
            if i < len(frames) and kind in ("nan", "inf", "constant")}

    target.start()
    try:
        for i, frame in enumerate(frames):
            for name, runtime in streams.items():
                payload = frame
                kind = plan[name].poison.get(i)
                if kind is not None:
                    payload = poison_frame(kind, frame.shape)
                runtime.submit(payload, meta={"frame": i})
            if pace:
                time.sleep(pace)
    finally:
        target.stop(timeout=STOP_TIMEOUT)
    served = {name: {r.meta["frame"]: r for r in runtime.completed
                     if r.meta and "frame" in r.meta}
              for name, runtime in streams.items()}
    covered = {name: len(frames)
               if not getattr(runtime.model_override, "degraded_classes",
                              None)
               else injectors[name].undegraded_before
               for name, runtime in streams.items()}
    if (any(sc.ber > 0.0 for sc in plan.values())
            and target.scrubber is not None):
        # final full sweep: last-round injections must not outlive the run
        target.scrubber.sweep(frame=len(frames))
    audits = {name: _memory_audit(runtime, injectors[name], target.scrubber)
              for name, runtime in streams.items() if plan[name].ber > 0.0}
    twin = _replay_twin(make_target, frames, served)

    entries = {}
    for name, runtime in streams.items():
        sc, stats = plan[name], runtime.stats()
        recall, n_scored, unserved = served_recall(served[name],
                                                   truth_by_frame)
        # the twin is scored on the frames the stream actually served
        recall_twin, _, _ = served_recall(
            {i: twin[name][i] for i in served[name]}, truth_by_frame)
        compared = differing = 0
        for i, result in served[name].items():
            other = twin[name][i]
            if (i < covered[name] and result.mode == "detected"
                    and other.mode == "detected"
                    and result.rung == other.rung):
                compared += 1
                differing += result.detections != other.detections
        budget = runtime.scheduler.budget
        gates = {
            "no_crashes": stats["crashes"] == 0,
            "p95_within_budget": stats["proc_p95"] <= budget * p95_tolerance,
            "recall_within_bound": recall_twin - recall <= max_recall_drop,
        }
        n_stalls = len(sc.stalls) + len(sc.hard_stalls)
        if n_stalls:
            wd = stats["watchdog"]
            gates["stalls_recovered"] = \
                wd["cancels"] + wd["restarts"] >= n_stalls
        if sc.poison:
            gates["poison_quarantined"] = \
                stats["quarantined"] == len(sc.poison)
            keys = injectors[name].poison_keys
            gates["poison_not_cached"] = not (
                injectors[name].poison_cached
                or any(key in runtime.engine._cache for key in keys))
        if sc.ber > 0.0:
            memory, clean = audits[name]
            gates["corruption_detected"] = (
                memory["detections"] > 0
                if any(memory["injected"].values()) else True)
            gates["zero_silent_corruption"] = clean and differing == 0
        gates.update(_adapt_gates(runtime, sc))
        ladder = runtime.scheduler.ladder
        entries[name] = {
            "scenario": sc.payload() if name in scenarios else None,
            "stats": stats,
            "deepest_rung_name": ladder.rungs[stats["max_rung"]].name,
            "incidents": runtime.incidents.payload(),
            "recall": recall,
            "recall_twin": recall_twin,
            "recall_drop": recall_twin - recall,
            "frames_scored": n_scored,
            "frames_unserved": unserved,
            "frames_compared": compared,
            "frames_differing": differing,
            "memory": audits[name][0] if name in audits else None,
            "gates": {k: bool(v) for k, v in gates.items()},
        }

    rollup = {}
    for entry in entries.values():
        for gate, ok in entry["gates"].items():
            rollup[gate] = rollup.get(gate, True) and ok
    report = {
        "n_frames": len(frames),
        "pace": pace,
        "p95_tolerance": p95_tolerance,
        "max_recall_drop": max_recall_drop,
        "streams": entries,
        "gates": rollup,
        "passed": all(rollup.values()),
    }
    if isinstance(target, FleetDispatcher):
        report["fleet"] = {k: v for k, v in target.stats()["fleet"].items()
                           if k != "profile_table"}
    return report
