"""Tests for the streaming subsystem: delta extraction, tracker, queue.

The equivalence properties here are the contract the whole streaming
design rests on: ``SharedFeatureEngine.delta_update`` must be *bitwise*
indistinguishable from throwing the cache away and re-extracting the new
frame, on both backends, for any dirty region - empty, partial or the
whole frame.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.hog_hd import HDHOGExtractor
from repro.pipeline.engine import SharedFeatureEngine
from repro.pipeline.multiscale import Detection, PyramidDetector
from repro.pipeline.stream import (
    FrameQueue,
    QueueClosedError,
    TemporalTracker,
    Track,
    VideoStreamDetector,
)

SIZE = 40
DIM = 128


@pytest.fixture(scope="module")
def extractor():
    return HDHOGExtractor(dim=DIM, cell_size=8, magnitude="l1", seed_or_rng=0)


def _queries(engine, scene):
    origins = [(y, x) for y in range(0, SIZE - 16 + 1, 8)
               for x in range(0, SIZE - 16 + 1, 8)]
    return engine.window_queries(scene, origins, window=16)


def _fields_arrays(fields):
    if hasattr(fields, "mag_packed"):
        return fields.mag_packed, fields.bins
    return fields.mag, fields.bins


rect = st.tuples(st.integers(0, SIZE), st.integers(0, SIZE),
                 st.integers(0, SIZE), st.integers(0, SIZE))


class TestDeltaEquivalence:
    @pytest.mark.parametrize("backend", ["dense", "packed"])
    @settings(max_examples=15, deadline=None)
    @given(r=rect, seed=st.integers(0, 2**16), value=st.floats(0.0, 1.0))
    def test_patched_engine_indistinguishable_from_fresh(
            self, extractor, backend, r, seed, value):
        ya, yb, xa, xb = r
        y0, y1 = sorted((ya, yb))
        x0, x1 = sorted((xa, xb))
        rng = np.random.default_rng(seed)
        prev = rng.random((SIZE, SIZE))
        scene = prev.copy()
        scene[y0:y1, x0:x1] = value  # empty when the rect has no area

        eng = SharedFeatureEngine(extractor, backend=backend)
        _queries(eng, prev)  # warm the cache with the previous frame
        stats = eng.delta_update(prev, scene)

        ref = SharedFeatureEngine(extractor, backend=backend)
        assert np.array_equal(_queries(eng, scene), _queries(ref, scene))
        for got, want in zip(_fields_arrays(eng.scene_fields(scene)),
                             _fields_arrays(ref.scene_fields(scene))):
            assert np.array_equal(got, want)

        changed = (prev != scene).any()
        if not changed:
            assert stats["mode"] == "reused"
        elif (y1 - y0) * (x1 - x0) == SIZE * SIZE:
            assert stats["mode"] == "full"
        else:
            assert stats["mode"] in ("patched", "full")
        if stats["mode"] == "patched":
            assert stats["dirty_pixels"] > 0

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_single_pixel_delta(self, extractor, backend):
        rng = np.random.default_rng(5)
        prev = rng.random((SIZE, SIZE))
        scene = prev.copy()
        scene[17, 23] = 1.0 - scene[17, 23]
        eng = SharedFeatureEngine(extractor, backend=backend)
        _queries(eng, prev)
        stats = eng.delta_update(prev, scene)
        assert stats["mode"] == "patched"
        assert stats["dirty_rect"] == (16, 19, 22, 25)  # 1px dilation
        ref = SharedFeatureEngine(extractor, backend=backend)
        assert np.array_equal(_queries(eng, scene), _queries(ref, scene))

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_cold_delta_falls_back_to_full(self, extractor, backend):
        rng = np.random.default_rng(6)
        prev, scene = rng.random((SIZE, SIZE)), rng.random((SIZE, SIZE))
        eng = SharedFeatureEngine(extractor, backend=backend)
        stats = eng.delta_update(prev, scene)  # prev never cached
        assert stats["mode"] == "full"
        ref = SharedFeatureEngine(extractor, backend=backend)
        assert np.array_equal(_queries(eng, scene), _queries(ref, scene))

    def test_racing_deltas_from_one_base_patch_it_once(self):
        # two streams sharing one engine leave the same cached frame for
        # different frames: one must claim the base and patch it, the
        # other must re-extract - never both patch one entry object
        ext = HDHOGExtractor(dim=256, cell_size=8, magnitude="l1",
                             seed_or_rng=0)
        rng = np.random.default_rng(12)
        prev = rng.random((48, 48))
        frames = [prev.copy(), prev.copy()]
        frames[0][4:12, 4:12] = 0.0
        frames[1][30:40, 28:44] = 1.0
        origins = [(y, x) for y in range(0, 33, 8) for x in range(0, 33, 8)]
        eng = SharedFeatureEngine(ext, backend="packed")
        eng.window_queries(prev, origins, 16)
        barrier = threading.Barrier(2)

        def dirty_rect(prev_frame, frame, pad=1):
            # hold every thread that got a base here until the other one
            # arrives or finishes, so both would patch one shared entry
            try:
                barrier.wait(timeout=30)
            except threading.BrokenBarrierError:
                pass
            return SharedFeatureEngine._dirty_rect(prev_frame, frame, pad)

        eng._dirty_rect = dirty_rect
        stats = [None, None]

        def run(k):
            try:
                stats[k] = eng.delta_update(prev, frames[k])
            finally:
                barrier.abort()

        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert sorted(st["mode"] for st in stats) == ["full", "patched"]
        for frame in frames:
            ref = SharedFeatureEngine(ext, backend="packed")
            assert np.array_equal(eng.window_queries(frame, origins, 16),
                                  ref.window_queries(frame, origins, 16))

    def test_shape_mismatch_rejected(self, extractor):
        eng = SharedFeatureEngine(extractor)
        with pytest.raises(ValueError):
            eng.delta_update(np.zeros((16, 16)), np.zeros((24, 24)))


class TestDeltaScanEquivalence:
    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_scan_identical_after_delta(self, face_data, backend):
        from repro.pipeline import HDFacePipeline, SlidingWindowDetector
        xtr, ytr, _, _ = face_data
        pipe = HDFacePipeline(2, dim=512, cell_size=8, magnitude="l1",
                              epochs=5, seed_or_rng=0).fit(xtr, ytr)
        rng = np.random.default_rng(11)
        prev = rng.random((48, 48))
        scene = prev.copy()
        scene[8:32, 12:36] = xtr[0].reshape(24, 24)

        det = SlidingWindowDetector(pipe, window=24, stride=8,
                                    backend=backend)
        det.scan(prev)
        det.engine.delta_update(prev, scene)
        patched = det.scan(scene)

        fresh = SlidingWindowDetector(pipe, window=24, stride=8,
                                      backend=backend)
        full = fresh.scan(scene)
        assert np.array_equal(patched.scores, full.scores)
        assert np.array_equal(patched.detections, full.detections)


class TestTemporalTracker:
    def test_confirmation_needs_min_hits(self):
        tr = TemporalTracker(min_hits=3, max_misses=1)
        d = Detection(10, 10, 24, 1.0)
        assert tr.update([d]) == []
        assert tr.update([d]) == []
        assert len(tr.update([d])) == 1

    def test_min_hits_one_confirms_immediately(self):
        tr = TemporalTracker(min_hits=1)
        assert len(tr.update([Detection(0, 0, 24, 0.5)])) == 1

    def test_score_smoothing_is_exponential(self):
        tr = TemporalTracker(min_hits=1, score_alpha=0.25)
        tr.update([Detection(0, 0, 24, 1.0)])
        (t,) = tr.update([Detection(1, 0, 24, 0.0)])
        assert t.score == pytest.approx(0.75)
        assert (t.y, t.x) == (1, 0)  # box snaps to the new detection

    def test_coasts_then_dies(self):
        tr = TemporalTracker(min_hits=1, max_misses=2)
        tr.update([Detection(0, 0, 24, 1.0)])
        assert len(tr.update([])) == 1   # miss 1: coasting, still reported
        assert len(tr.update([])) == 1   # miss 2
        assert tr.update([]) == []       # gone
        assert tr.tracks == []

    def test_match_resets_miss_counter(self):
        tr = TemporalTracker(min_hits=1, max_misses=1)
        d = Detection(0, 0, 24, 1.0)
        tr.update([d])
        tr.update([])
        (t,) = tr.update([d])
        assert t.misses == 0 and t.hits == 2

    def test_greedy_association_prefers_higher_iou(self):
        tr = TemporalTracker(min_hits=1, iou_threshold=0.1)
        tr.update([Detection(0, 0, 24, 1.0), Detection(40, 40, 24, 1.0)])
        ids = {(t.y, t.x): t.track_id for t in tr.active()}
        tr.update([Detection(41, 41, 24, 0.5), Detection(1, 1, 24, 0.5)])
        for t in tr.active():
            # each track stayed with its own (slightly moved) detection
            assert ids[(t.y - 1, t.x - 1)] == t.track_id

    def test_far_detection_spawns_new_track(self):
        tr = TemporalTracker(min_hits=1)
        tr.update([Detection(0, 0, 24, 1.0)])
        tracks = tr.update([Detection(0, 0, 24, 1.0),
                            Detection(100, 100, 24, 0.9)])
        assert len(tracks) == 2
        assert len({t.track_id for t in tracks}) == 2

    def test_track_box_protocol(self):
        t = Track(0, 2.0, 3.0, 10.0, 1.0)
        assert t.box == (2.0, 3.0, 12.0, 13.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TemporalTracker(iou_threshold=1.5)
        with pytest.raises(ValueError):
            TemporalTracker(score_alpha=0.0)
        with pytest.raises(ValueError):
            TemporalTracker(min_hits=0)
        with pytest.raises(ValueError):
            TemporalTracker(max_misses=-1)


class TestFrameQueue:
    def test_drop_oldest_counts_and_keeps_newest(self):
        q = FrameQueue(maxsize=2, policy="drop_oldest")
        for i in range(5):
            q.put(i)
        assert q.dropped == 3 and len(q) == 2
        assert q.get() == 3 and q.get() == 4

    def test_block_policy_times_out_when_full(self):
        q = FrameQueue(maxsize=1, policy="block")
        assert q.put(0) is True
        assert q.put(1, timeout=0.05) is False
        assert q.dropped == 0

    def test_get_times_out_when_empty(self):
        q = FrameQueue(maxsize=1)
        with pytest.raises(TimeoutError):
            q.get(timeout=0.05)

    def test_close_drains_then_signals_end(self):
        q = FrameQueue(maxsize=4)
        q.put("a")
        q.close()
        assert q.get() == "a"
        assert q.get() is None
        with pytest.raises(ValueError):
            q.put("b")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FrameQueue(maxsize=0)
        with pytest.raises(ValueError):
            FrameQueue(policy="newest")


class TestFrameQueueShutdown:
    def test_put_after_close_raises_structured_error(self):
        q = FrameQueue(maxsize=2)
        q.close()
        with pytest.raises(QueueClosedError):
            q.put("late")
        assert len(q) == 0 and q.dropped == 0

    def test_close_is_idempotent_and_observable(self):
        q = FrameQueue(maxsize=2)
        assert q.closed is False
        q.close()
        q.close()
        assert q.closed is True

    def test_close_wakes_blocked_getter_with_none(self):
        import threading
        q = FrameQueue(maxsize=2)
        got = []
        t = threading.Thread(target=lambda: got.append(q.get()))
        t.start()
        q.close()
        t.join(timeout=5.0)
        assert not t.is_alive() and got == [None]

    def test_close_wakes_blocked_putter_with_error(self):
        import threading
        q = FrameQueue(maxsize=1, policy="block")
        q.put("fills the queue")
        caught = []

        def blocked_put():
            try:
                q.put("stuck")
            except QueueClosedError as err:
                caught.append(err)

        t = threading.Thread(target=blocked_put)
        t.start()
        q.close()
        t.join(timeout=5.0)
        assert not t.is_alive() and len(caught) == 1

    def test_concurrent_getters_all_released_after_close(self):
        import threading
        q = FrameQueue(maxsize=4)
        q.put("a")
        q.put("b")
        got = []
        lock = threading.Lock()

        def drain():
            while True:
                item = q.get()
                if item is None:
                    return
                with lock:
                    got.append(item)

        threads = [threading.Thread(target=drain) for _ in range(3)]
        for t in threads:
            t.start()
        q.close()
        for t in threads:
            t.join(timeout=5.0)
        assert all(not t.is_alive() for t in threads)
        assert sorted(got) == ["a", "b"]


class TestFrameQueueHammer:
    """Multi-producer stress: the fleet regime (N streams, one intake).

    The contract under load: no frame is lost or duplicated (every item
    is either consumed or its put observably failed), every producer
    blocked across close raises :class:`QueueClosedError` exactly once,
    and no thread is left wedged.
    """

    def test_many_producers_no_lost_or_duplicated_frames(self):
        import threading
        n_producers, per_producer = 6, 40
        q = FrameQueue(maxsize=3, policy="block")
        consumed = []

        def produce(pid):
            for i in range(per_producer):
                assert q.put((pid, i), timeout=10.0)

        def consume():
            while True:
                item = q.get(timeout=10.0)
                if item is None:
                    return
                consumed.append(item)

        consumer = threading.Thread(target=consume)
        consumer.start()
        producers = [threading.Thread(target=produce, args=(p,))
                     for p in range(n_producers)]
        for t in producers:
            t.start()
        for t in producers:
            t.join(timeout=30.0)
        assert all(not t.is_alive() for t in producers)
        q.close()
        consumer.join(timeout=30.0)
        assert not consumer.is_alive()
        assert q.dropped == 0
        # exactly-once delivery of every frame, per-producer order intact
        assert len(consumed) == n_producers * per_producer
        assert len(set(consumed)) == len(consumed)
        for p in range(n_producers):
            mine = [i for pid, i in consumed if pid == p]
            assert mine == sorted(mine)

    def test_close_under_load_fails_each_blocked_putter_once(self):
        import threading
        n_producers = 5
        q = FrameQueue(maxsize=1, policy="block")
        q.put("plug")                       # every producer blocks
        started = threading.Barrier(n_producers + 1)
        outcomes = []
        lock = threading.Lock()

        def produce(pid):
            started.wait(timeout=10.0)
            errors = 0
            try:
                ok = q.put(pid, timeout=10.0)
            except QueueClosedError:
                errors += 1
                ok = None
            with lock:
                outcomes.append((pid, ok, errors))

        producers = [threading.Thread(target=produce, args=(p,))
                     for p in range(n_producers)]
        for t in producers:
            t.start()
        started.wait(timeout=10.0)
        time.sleep(0.1)                     # let every putter block
        q.close()
        for t in producers:
            t.join(timeout=10.0)
        assert all(not t.is_alive() for t in producers)
        # every producer failed by exception, exactly once, no timeouts
        assert sorted(p for p, _, _ in outcomes) == list(range(n_producers))
        assert all(ok is None and errors == 1 for _, ok, errors in outcomes)
        # the pre-close frame is still drainable, then end-of-stream
        assert q.get(timeout=1.0) == "plug"
        assert q.get(timeout=1.0) is None

    def test_producers_and_consumers_race_close(self):
        import threading
        q = FrameQueue(maxsize=2, policy="block")
        consumed, refused = [], []
        lock = threading.Lock()

        def produce(pid):
            i = 0
            while True:
                try:
                    if not q.put((pid, i), timeout=0.05):
                        continue            # full: retry, frame not lost
                except QueueClosedError:
                    with lock:
                        refused.append((pid, i))
                    return
                i += 1

        def consume():
            while True:
                try:
                    item = q.get(timeout=0.05)
                except TimeoutError:
                    continue
                if item is None:
                    return
                with lock:
                    consumed.append(item)

        producers = [threading.Thread(target=produce, args=(p,))
                     for p in range(4)]
        consumers = [threading.Thread(target=consume) for _ in range(2)]
        for t in producers + consumers:
            t.start()
        time.sleep(0.3)
        q.close()
        for t in producers + consumers:
            t.join(timeout=10.0)
        assert all(not t.is_alive() for t in producers + consumers)
        # each producer stopped at its refused frame; everything it put
        # before that was delivered downstream exactly once
        assert len(refused) == 4
        assert len(set(consumed)) == len(consumed)
        for pid, stop in refused:
            mine = sorted(i for p, i in consumed if p == pid)
            assert mine == list(range(stop))


@pytest.fixture(scope="module")
def stream_setup(face_data):
    from repro.datasets.synth import moving_face_sequence
    from repro.pipeline import HDFacePipeline
    xtr, ytr, _, _ = face_data
    pipe = HDFacePipeline(2, dim=512, cell_size=8, magnitude="l1",
                          epochs=5, seed_or_rng=0).fit(xtr, ytr)
    frames, truth = moving_face_sequence(48, 5, window=24, step=2,
                                         seed_or_rng=3)
    return pipe, frames, truth


def _make_stream(pipe, backend="dense", **kwargs):
    from repro.pipeline import SlidingWindowDetector
    det = SlidingWindowDetector(pipe, window=24, stride=8, backend=backend)
    return VideoStreamDetector(PyramidDetector(det, score_threshold=0.0),
                               **kwargs)


class TestVideoStreamDetector:
    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_incremental_matches_full_detections(self, stream_setup, backend):
        pipe, frames, _ = stream_setup
        inc = _make_stream(pipe, backend)
        full = _make_stream(pipe, backend, incremental=False)
        for a, b in zip(inc.run(frames), full.run(frames)):
            assert a.detections == b.detections

    def test_delta_path_engages_after_first_frame(self, stream_setup):
        pipe, frames, _ = stream_setup
        stream = _make_stream(pipe)
        results = list(stream.run(frames))
        assert results[0].reuse["mode"] == "cold"
        assert all(r.reuse["mode"] == "delta" for r in results[1:])
        assert all(r.reuse["patched_levels"] > 0 for r in results[1:])
        stats = stream.stats()
        assert stats["frames"] == len(frames)
        assert 0.0 < stats["reused_pixel_fraction"] < 1.0
        assert stats["delta_patched"] > 0

    def test_async_path_processes_all_when_blocking(self, stream_setup):
        pipe, frames, _ = stream_setup
        stream = _make_stream(pipe, queue_size=2, policy="block")
        stream.start()
        for f in frames:
            stream.submit(f)
        results = stream.stop()
        assert len(results) == len(frames)
        assert stream.queue.dropped == 0
        assert [r.index for r in results] == list(range(len(frames)))

    def test_requires_shared_engine(self, stream_setup):
        from repro.pipeline import SlidingWindowDetector
        pipe, _, _ = stream_setup
        det = SlidingWindowDetector(pipe, window=24, engine="legacy")
        with pytest.raises(ValueError):
            VideoStreamDetector(PyramidDetector(det))
        with pytest.raises(ValueError):
            VideoStreamDetector(det)  # not a PyramidDetector

    def test_submit_after_stop_rejected_and_counted(self, stream_setup):
        pipe, frames, _ = stream_setup
        stream = _make_stream(pipe, queue_size=2, policy="block")
        stream.start()
        assert stream.submit(frames[0]) is True
        stream.stop()
        # the shutdown race: a still-running producer sees False, not an
        # exception, and the rejection is accounted
        assert stream.submit(frames[1]) is False
        assert stream.rejected == 1
        assert stream.frames_in == 1

    def test_stop_drains_frames_submitted_before_close(self, stream_setup):
        pipe, frames, _ = stream_setup
        stream = _make_stream(pipe, queue_size=len(frames), policy="block")
        for f in frames:  # queued before the consumer even starts
            stream.submit(f)
        stream.start()
        results = stream.stop()
        assert len(results) == len(frames)

    def test_stop_twice_is_safe(self, stream_setup):
        pipe, frames, _ = stream_setup
        stream = _make_stream(pipe)
        stream.start()
        stream.submit(frames[0])
        first = stream.stop()
        assert stream.stop() is first

    def test_tracker_follows_the_moving_face(self, stream_setup):
        pipe, frames, truth = stream_setup
        stream = _make_stream(
            pipe, tracker=TemporalTracker(min_hits=2, max_misses=2))
        last = None
        for result, (ty, tx, w) in zip(stream.run(frames), truth):
            if result.tracks:
                last = (result.tracks[0], Detection(ty, tx, w, 1.0))
        assert last is not None, "no track ever confirmed"
        from repro.pipeline.multiscale import iou
        assert iou(*last) > 0.3
