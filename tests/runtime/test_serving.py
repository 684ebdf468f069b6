"""Tests for the resilient serving loop itself.

The load-bearing property: at the ``full`` rung the runtime serves
*bitwise* the detections of the plain streaming stack it wraps - the
resilience machinery must cost nothing when nothing goes wrong.
"""

import time

import numpy as np
import pytest

from repro.pipeline import SlidingWindowDetector
from repro.pipeline.multiscale import PyramidDetector
from repro.pipeline.stream import TemporalTracker, VideoStreamDetector
from repro.runtime import DegradationLadder, ResilientVideoDetector, Rung

from .conftest import make_detector

pytestmark = pytest.mark.tier1


class TestConstruction:
    def test_requires_shared_engine(self, serve_pipe):
        det = SlidingWindowDetector(serve_pipe, window=24, engine="legacy")
        with pytest.raises(ValueError):
            ResilientVideoDetector(PyramidDetector(det))
        with pytest.raises(ValueError):
            ResilientVideoDetector(det)  # not a PyramidDetector

    def test_adopts_video_stream_detector(self, serve_pipe):
        tracker = TemporalTracker(min_hits=1)
        stream = VideoStreamDetector(make_detector(serve_pipe),
                                     tracker=tracker)
        runtime = ResilientVideoDetector(stream, stall_timeout=None)
        assert runtime.tracker is tracker
        assert runtime.pyramid is stream.pyramid

    def test_double_start_rejected(self, make_runtime):
        runtime = make_runtime().start()
        try:
            with pytest.raises(RuntimeError):
                runtime.start()
        finally:
            runtime.stop()


class TestFullRungEquivalence:
    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_serves_plain_stream_detections_bitwise(self, serve_pipe, video,
                                                    backend):
        frames, _ = video
        runtime = ResilientVideoDetector(make_detector(serve_pipe, backend),
                                         budget=10.0, stall_timeout=None)
        plain = VideoStreamDetector(make_detector(serve_pipe, backend))
        for served, ref in zip(runtime.run(frames), plain.run(frames)):
            assert served.mode == "detected"
            assert served.rung == "full"
            assert served.detections == ref.detections

    def test_delta_reuse_engages(self, make_runtime, video):
        frames, _ = video
        results = list(make_runtime().run(frames))
        assert results[0].reuse["mode"] == "cold"
        assert all(r.reuse["mode"] == "delta" for r in results[1:])

    def test_covering_prefix_is_bitwise_identical(self, serve_pipe, video):
        # prefix_fraction that rounds up to every word: the scan scores
        # every word, bitwise the full model
        frames, _ = video
        cover = ResilientVideoDetector(
            make_detector(serve_pipe), budget=10.0, stall_timeout=None,
            ladder=DegradationLadder([Rung("cover", prefix_fraction=0.99)]))
        full = ResilientVideoDetector(make_detector(serve_pipe), budget=10.0,
                                      stall_timeout=None)
        for a, b in zip(cover.run(frames), full.run(frames)):
            assert a.detections == b.detections


class TestServingModel:
    """Every class model a runtime serves answers the rung's word budget."""

    @staticmethod
    def _serve(pipe, frames, ladder=None, guarded=False):
        from repro.reliability import GuardedClassModel
        runtime = ResilientVideoDetector(make_detector(pipe), budget=10.0,
                                         stall_timeout=None, ladder=ladder)
        if guarded:
            runtime.model_override = GuardedClassModel(
                runtime.base.packed_model(), seed_or_rng=0)
        results = list(runtime.run(frames))
        return results, runtime.profiler.stats["classify"].ops

    def test_guarded_runtime_sheds_classify_words(self, serve_pipe, video):
        frames, _ = video
        half = DegradationLadder([Rung("half", prefix_fraction=0.5)])
        _, full_ops = self._serve(serve_pipe, frames, guarded=True)
        served, half_ops = self._serve(serve_pipe, frames, half,
                                       guarded=True)
        plain, plain_ops = self._serve(serve_pipe, frames, half)
        # the guard scores the half-width prefix the rung is priced at:
        # half the XOR + popcount words, exactly the plain runtime's ops
        assert half_ops["word64"] == full_ops["word64"] / 2
        assert half_ops == plain_ops
        for a, b in zip(served, plain):
            assert a.rung == "half"
            assert a.detections == b.detections

    def test_dense_backend_ignores_truncation(self, serve_pipe, video):
        # the dense backend has no word-prefix dial: a prefix rung serves
        # the full rung's detections
        frames, _ = video
        half = ResilientVideoDetector(
            make_detector(serve_pipe, "dense"), budget=10.0,
            stall_timeout=None,
            ladder=DegradationLadder([Rung("half", prefix_fraction=0.5)]))
        full = ResilientVideoDetector(make_detector(serve_pipe, "dense"),
                                      budget=10.0, stall_timeout=None)
        for a, b in zip(half.run(frames), full.run(frames)):
            assert a.detections == b.detections


class TestDegradedModes:
    def test_skip_rung_predicts_from_tracker(self, serve_pipe, video):
        frames, _ = video
        runtime = ResilientVideoDetector(
            make_detector(serve_pipe), budget=10.0, stall_timeout=None,
            tracker=TemporalTracker(min_hits=1),
            ladder=DegradationLadder([Rung("skip", keyframe_every=2)]))
        results = list(runtime.run(frames))
        assert [r.mode for r in results] == \
            ["detected", "predicted"] * (len(frames) // 2)
        for r in results:
            if r.mode == "predicted":
                assert r.detections == [] and len(r.tracks) >= 1
        assert runtime.predicted == len(frames) // 2

    def test_overload_degrades_to_the_deepest_rung(self, make_runtime, video):
        frames, _ = video
        runtime = make_runtime(budget=1e-6, degrade_after=1)
        list(runtime.run(frames))
        stats = runtime.stats()
        assert stats["rung_name"] == "skip"
        assert stats["max_rung"] == 3
        assert stats["deadline_misses"] == len(frames)
        assert stats["incidents"]["rung_degraded"] == 3
        assert len(stats["rung_transitions"]) == 3


class TestFailureContainment:
    def test_poison_frame_quarantined_not_tracked(self, make_runtime, video):
        frames, _ = video
        runtime = make_runtime()
        runtime.step(frames[0])
        frames_before = runtime.tracker.frames
        result = runtime.step(np.full_like(frames[0], np.nan))
        assert result.mode == "quarantined"
        assert runtime.tracker.frames == frames_before
        assert runtime.stats()["quarantined"] == 1
        assert runtime.stats()["quarantine_reasons"] == {"nan": 1}
        assert runtime.incidents.counts()["poison_frame"] == 1

    def test_processing_crash_is_contained(self, make_runtime, video):
        frames, _ = video

        def explode(index, frame, meta, cancel):
            if index == 1:
                raise RuntimeError("boom")

        runtime = make_runtime()
        runtime.pre_frame = explode
        results = list(runtime.run(frames[:3]))
        assert [r.mode for r in results] == \
            ["detected", "cancelled", "detected"]
        assert runtime.crashes == 1
        assert runtime.incidents.counts()["crash"] == 1

    def test_crashed_frames_not_in_latency_percentiles(self, make_runtime,
                                                       video):
        frames, _ = video
        runtime = make_runtime()
        runtime.pre_frame = lambda i, f, m, c: (_ for _ in ()).throw(
            RuntimeError("boom"))
        list(runtime.run(frames[:2]))
        assert runtime.stats()["frames"] == 2
        assert runtime._latencies == []


class TestAsyncLoop:
    def test_processes_all_frames_in_order(self, make_runtime, video):
        frames, _ = video
        runtime = make_runtime(queue_size=2, policy="block")
        runtime.start()
        for frame in frames:
            assert runtime.submit(frame)
        results = runtime.stop()
        assert [r.index for r in results] == list(range(len(frames)))
        assert runtime.stats()["frames"] == len(frames)
        assert runtime.stats()["dropped"] == 0

    def test_submit_after_stop_is_rejected(self, make_runtime, video):
        frames, _ = video
        runtime = make_runtime().start()
        runtime.submit(frames[0])
        runtime.stop()
        assert runtime.submit(frames[1]) is False

    def test_watchdog_cancels_a_soft_stall(self, make_runtime, video):
        frames, _ = video

        def stall(index, frame, meta, cancel):
            if index == 1:
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if cancel.is_set():
                        from repro.runtime import FrameCancelled
                        raise FrameCancelled("stalled")
                    time.sleep(0.005)

        runtime = make_runtime(stall_timeout=0.3, queue_size=8,
                               policy="block")
        runtime.pre_frame = stall
        runtime.start()
        for frame in frames[:3]:
            runtime.submit(frame)
        results = runtime.stop()
        stats = runtime.stats()
        assert stats["watchdog"]["cancels"] == 1
        assert stats["cancelled"] == 1
        assert stats["incidents"]["stall_cancelled"] == 1
        assert [r.mode for r in results].count("detected") == 2


class TestStats:
    def test_reports_the_whole_story(self, make_runtime, video):
        frames, _ = video
        runtime = make_runtime()
        list(runtime.run(frames))
        stats = runtime.stats()
        for key in ("frames", "fps", "latency_p95", "proc_p95", "budget",
                    "rung_name", "watchdog", "incidents", "delta_patched",
                    "tracks_confirmed"):
            assert key in stats
        assert stats["frames"] == len(frames)
        assert stats["crashes"] == 0
        assert stats["latency_p95"] > 0.0
        assert stats["proc_p95"] > 0.0
