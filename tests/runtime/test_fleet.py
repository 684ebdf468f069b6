"""Tests for fleet-scale multi-stream serving (runtime/fleet.py).

The contract under test: the dispatcher admits streams inside its
envelope and refuses the rest; the batch gate merges concurrent scan
calls without changing a single score (fleet detections are bitwise the
solo runtime's); the gate never wedges a waiter - errors re-raise in
every participating stream and a watchdog cancel aborts a follower.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.runtime import (
    AdmissionError,
    BatchGate,
    FleetDispatcher,
    FrameCancelled,
    ResilientVideoDetector,
)

from .conftest import make_detector


class FakeBatcher:
    """Stands in for the shared detector: echoes requests, logs batches."""

    def __init__(self, delay=0.0, fail=False):
        self.delay = delay
        self.fail = fail
        self.batches = []

    def scan_many(self, requests):
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("batch exploded")
        self.batches.append(len(requests))
        return [("scanned", r) for r in requests]


class TestBatchGate:
    def test_single_caller_gets_its_results(self):
        gate = BatchGate(FakeBatcher(), batch_window=0.0)
        assert gate.scan(["a", "b"]) == [("scanned", "a"), ("scanned", "b")]
        assert gate.stats()["batches"] == 1

    def test_concurrent_callers_share_one_batch(self):
        batcher = FakeBatcher(delay=0.01)
        gate = BatchGate(batcher, batch_window=0.05)
        results = {}

        def worker(name):
            results[name] = gate.scan([name])

        threads = [threading.Thread(target=worker, args=(f"s{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert all(not t.is_alive() for t in threads)
        for i in range(4):
            assert results[f"s{i}"] == [("scanned", f"s{i}")]
        stats = gate.stats()
        # every request served, and at least one true multi-stream batch
        assert stats["batched_requests"] == 4
        assert stats["max_bundles"] >= 2

    def test_batch_failure_raises_in_every_caller(self):
        gate = BatchGate(FakeBatcher(fail=True), batch_window=0.02)
        errors = []

        def worker():
            try:
                gate.scan(["x"])
            except RuntimeError as err:
                errors.append(str(err))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert errors == ["batch exploded"] * 3
        assert gate.stats()["batches"] == 0

    def test_cancelled_follower_aborts_without_wedging(self):
        release = threading.Event()

        class SlowBatcher(FakeBatcher):
            def scan_many(self, requests):
                release.wait(10.0)
                return super().scan_many(requests)

        gate = BatchGate(SlowBatcher(), batch_window=0.2, poll=0.01)
        cancel = threading.Event()
        outcome = {}

        def leader():
            outcome["leader"] = gate.scan(["lead"])

        def follower():
            try:
                gate.scan(["follow"], cancel=cancel)
            except FrameCancelled:
                outcome["follower"] = "cancelled"

        t1 = threading.Thread(target=leader)
        t1.start()
        time.sleep(0.05)                    # join the leader's window
        t2 = threading.Thread(target=follower)
        t2.start()
        time.sleep(0.05)
        cancel.set()                        # watchdog fires on the follower
        t2.join(timeout=5.0)
        assert outcome.get("follower") == "cancelled"
        release.set()                       # leader's batch completes
        t1.join(timeout=5.0)
        assert outcome["leader"] == [("scanned", "lead")]

    def test_on_batch_callback_fires(self):
        seen = []
        gate = BatchGate(FakeBatcher(), batch_window=0.0,
                         on_batch=lambda b, r: seen.append((b, r)))
        gate.scan(["a", "b"])
        assert seen == [(1, 2)]


class TestAdmission:
    def test_max_streams_enforced(self, serve_pipe):
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, max_streams=2,
                                stall_timeout=None)
        fleet.add_stream("a")
        fleet.add_stream("b")
        with pytest.raises(AdmissionError):
            fleet.add_stream("c")

    def test_capacity_fps_enforced(self, serve_pipe):
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, max_streams=8,
                                capacity_fps=30.0, stall_timeout=None)
        fleet.add_stream("a", fps=20.0)
        with pytest.raises(AdmissionError):
            fleet.add_stream("b", fps=15.0)
        fleet.add_stream("c", fps=10.0)     # fits exactly

    def test_duplicate_name_rejected(self, serve_pipe):
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, stall_timeout=None)
        fleet.add_stream("a")
        with pytest.raises(ValueError):
            fleet.add_stream("a")

    def test_requires_pyramid_with_shared_engine(self):
        with pytest.raises(ValueError):
            FleetDispatcher(lambda: object())


class TestSharedDatapath:
    def test_streams_share_detector_and_engine(self, serve_pipe):
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, stall_timeout=None)
        a = fleet.add_stream("a")
        b = fleet.add_stream("b")
        assert a.base is b.base
        assert a.base.engine is b.base.engine
        assert a.pyramid is not b.pyramid   # per-stream wrapper

    def test_engine_cache_grows_with_admissions(self, serve_pipe):
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, cache_per_stream=8,
                                stall_timeout=None)
        fleet.add_stream("a")
        first = fleet.template.detector.engine.cache_size
        fleet.add_stream("b")
        assert fleet.template.detector.engine.cache_size >= first
        assert fleet.template.detector.engine.cache_size >= 16


class TestFleetVsSolo:
    def test_fleet_detections_bitwise_equal_solo(self, serve_pipe, video):
        frames, _ = video
        solo = ResilientVideoDetector(make_detector(serve_pipe),
                                      budget=10.0, stall_timeout=None)
        want = [solo.step(f, meta={"i": i}) for i, f in enumerate(frames)]

        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, max_streams=3,
                                batch_window=0.01, stall_timeout=None,
                                policy="block")
        names = ["cam0", "cam1", "cam2"]
        for name in names:
            fleet.add_stream(name)
        fleet.start()
        for i, frame in enumerate(frames):
            for name in names:
                fleet.submit(name, frame, meta={"i": i})
        results = fleet.stop()

        for name in names:
            got = results[name]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.mode == "detected" and w.mode == "detected"
                assert g.detections == w.detections

    def test_gate_actually_batches_across_streams(self, serve_pipe, video):
        frames, _ = video
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, max_streams=3,
                                batch_window=0.05, stall_timeout=None,
                                policy="block")
        for name in ("a", "b", "c"):
            fleet.add_stream(name)
        fleet.start()
        for frame in frames[:4]:
            for name in ("a", "b", "c"):
                fleet.submit(name, frame)
        fleet.stop()
        assert fleet.gate.stats()["max_bundles"] >= 2

    def test_batching_off_scans_solo(self, serve_pipe, video):
        frames, _ = video
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, batching=False,
                                stall_timeout=None)
        rt = fleet.add_stream("a")
        assert fleet.gate is None and rt.batch_scan is None
        result = fleet.step("a", frames[0])
        assert result.mode == "detected"


class TestSharedCache:
    def test_gated_rescan_reads_stored_query_sets(self, serve_pipe, video):
        # the gate scans through the detector's own scan_many, so a frame
        # of unchanged content is classified from the stored query sets
        frames, _ = video
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, stall_timeout=None)
        fleet.add_stream("a")
        assert fleet.step("a", frames[0]).mode == "detected"
        assembled = fleet.profiler.stats["assemble"].items
        assert assembled > 0
        for _ in range(2):
            assert fleet.step("a", frames[0]).mode == "detected"
        assert fleet.gate.stats()["batches"] == 3
        assert fleet.profiler.stats["assemble"].items == assembled


class TestLifecycle:
    def test_stopped_fleet_freed_without_cyclic_gc(self, serve_pipe, video):
        # a dropped fleet (and its shared engine cache) must go as soon
        # as its last reference does, not when the cyclic collector runs
        frames, _ = video
        gc.collect()
        gc.disable()
        try:
            # default runtime options: every stream's watchdog is on
            fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                    budget=10.0, policy="block")
            for name in ("a", "b"):
                fleet.add_stream(name)
            fleet.start()
            for name in ("a", "b"):
                fleet.submit(name, frames[0])
            fleet.stop()
            assert fleet.gate.stats()["batches"] >= 1
            dispatcher = weakref.ref(fleet)
            engine = weakref.ref(fleet.template.detector.engine)
            del fleet
            assert dispatcher() is None
            assert engine() is None
        finally:
            gc.enable()


class TestFleetGuard:
    def test_guard_shares_one_model_across_streams(self, serve_pipe):
        from repro.reliability import GuardedClassModel
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, guard=True,
                                guard_kwargs={"seed_or_rng": 0},
                                stall_timeout=None)
        a = fleet.add_stream("a")
        b = fleet.add_stream("b")
        assert isinstance(fleet.shared_model, GuardedClassModel)
        assert a.model_override is fleet.shared_model
        assert b.model_override is fleet.shared_model
        assert a.adapter is None and b.adapter is None

    def test_guard_requires_packed_backend(self, serve_pipe):
        with pytest.raises(ValueError, match="packed"):
            FleetDispatcher(lambda: make_detector(serve_pipe, "dense"),
                            budget=10.0, guard=True, stall_timeout=None)

    def test_guarded_detections_match_unguarded(self, serve_pipe, video):
        frames, _ = video
        solo = ResilientVideoDetector(make_detector(serve_pipe),
                                      budget=10.0, stall_timeout=None)
        want = [solo.step(f) for f in frames[:3]]
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, guard=True,
                                guard_kwargs={"seed_or_rng": 0},
                                stall_timeout=None)
        fleet.add_stream("a")
        for frame, w in zip(frames[:3], want):
            got = fleet.step("a", frame)
            assert got.mode == "detected"
            assert got.detections == w.detections

    def test_replica_corruption_heals_fleet_wide(self, serve_pipe, video):
        frames, _ = video
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, guard=True,
                                guard_kwargs={"seed_or_rng": 0},
                                stall_timeout=None)
        fleet.add_stream("a")
        fleet.add_stream("b")
        clean = fleet.shared_model.replicas[0].copy()
        assert fleet.shared_model.corrupt_replica(1, 0.5, seed_or_rng=7) > 0
        got = fleet.step("a", frames[0])        # scan scrubs + repairs
        assert got.mode == "detected"
        guard = fleet.stats()["fleet"]["guard"]
        assert guard["repaired"] > 0
        np.testing.assert_array_equal(fleet.shared_model.replicas[1], clean)
        # the shared model is healed for *both* streams
        assert fleet.step("b", frames[0]).mode == "detected"
        assert fleet.shared_model.scrub() == 0


class TestFleetAdapt:
    def _adapt_fleet(self, serve_pipe, **kw):
        return FleetDispatcher(lambda: make_detector(serve_pipe),
                               budget=10.0, adapt=True,
                               guard_kwargs={"seed_or_rng": 0},
                               stall_timeout=None, **kw)

    def test_streams_share_model_but_not_adapters(self, serve_pipe):
        from repro.reliability import AdaptiveGuardedModel
        fleet = self._adapt_fleet(serve_pipe)
        a = fleet.add_stream("a")
        b = fleet.add_stream("b")
        assert isinstance(fleet.shared_model, AdaptiveGuardedModel)
        assert a.adapter.model is fleet.shared_model
        assert b.adapter.model is fleet.shared_model
        assert a.model_override is fleet.shared_model
        assert a.adapter is not b.adapter
        assert a.adapter.drift is not b.adapter.drift

    def test_per_stream_model_kwarg_rejected(self, serve_pipe):
        fleet = self._adapt_fleet(serve_pipe)
        with pytest.raises(ValueError, match="model"):
            fleet.add_stream("a", adapt_kwargs={"model": object()})

    def test_poisoned_stream_is_contained(self, serve_pipe, video):
        frames, _ = video
        solo = ResilientVideoDetector(make_detector(serve_pipe),
                                      budget=10.0, stall_timeout=None)
        want = [solo.step(f) for f in frames]
        fleet = self._adapt_fleet(serve_pipe)
        fleet.add_stream("victim")
        fleet.add_stream("healthy")
        clean_rows = fleet.shared_model.replicas.copy()
        fleet["victim"].adapter.poison_next("label")
        healthy = []
        for frame in frames:
            fleet.step("victim", frame)
            healthy.append(fleet.step("healthy", frame))
        victim = fleet["victim"].adapter
        assert victim.poison_injected == 1
        assert victim.poison_rejected == 1
        assert victim.rollbacks >= 1
        # the shared rows never absorbed the attack ...
        np.testing.assert_array_equal(fleet.shared_model.replicas, clean_rows)
        # ... so the healthy stream's detections are bitwise the frozen
        # baseline's: the blast radius ends at the victim's ledger
        for got, w in zip(healthy, want):
            assert got.detections == w.detections

    def test_adapt_counters_in_merged_profile(self, serve_pipe, video):
        frames, _ = video
        fleet = self._adapt_fleet(serve_pipe)
        fleet.add_stream("a")
        fleet.add_stream("b")
        for frame in frames[:3]:
            fleet.step("a", frame)
            fleet.step("b", frame)
        merged = fleet.merged_profiler()
        for name in ("adapt_proposals", "adapt_applied", "adapt_state",
                     "guard_scrubs", "guard_repaired"):
            assert name in merged.counters
        table = fleet.stats()["fleet"]["profile_table"]
        assert "adapt_applied" in table
        guard = fleet.stats()["fleet"]["guard"]
        assert guard["updates_applied"] == 0      # static scenes: no updates


class TestReporting:
    def test_stats_rollup_and_merged_profile(self, serve_pipe, video):
        frames, _ = video
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, stall_timeout=None)
        for name in ("a", "b"):
            fleet.add_stream(name)
        for frame in frames[:3]:
            fleet.step("a", frame)
            fleet.step("b", frame)
        stats = fleet.stats()
        assert stats["fleet"]["streams"] == 2
        assert stats["fleet"]["frames"] == 6
        assert set(stats["streams"]) == {"a", "b"}
        # the merged table covers both the shared datapath stages (fleet
        # profiler) and the per-stream frame stages (stream profilers)
        table = stats["fleet"]["profile_table"]
        assert "frame_proc" in table
        merged = fleet.merged_profiler()
        assert merged.stats["frame_proc"].calls == 6

    def test_scheduler_ticks_on_load(self, serve_pipe, video):
        frames, _ = video
        fleet = FleetDispatcher(lambda: make_detector(serve_pipe),
                                budget=10.0, stall_timeout=None)
        fleet.add_stream("a", priority=1.0)
        fleet.step("a", frames[0])          # gate ticks once per batch
        before = fleet.scheduler.ticks
        assert before >= 1
        assert fleet.tick() is None         # healthy: no action
        assert fleet.scheduler.ticks == before + 1
        assert fleet.scheduler.priorities["a"] == 1.0
