"""Tests for pooled scans (``SlidingWindowDetector.scan_many``).

The load-bearing property is bitwise equivalence: pooling many scenes'
windows into one packed classify call must produce exactly the scores
each scene's solo :meth:`SlidingWindowDetector.scan` would - on the flat
path, the cascade path, under per-request stride / ``max_words`` / model
overrides, and with the dense / injector requests that run alone mixed
into the same call.
"""

import numpy as np
import pytest

from repro.pipeline.cascade import CascadeStage
from repro.pipeline.detector import (ScanRequest, SlidingWindowDetector,
                                     make_scene)
from repro.pipeline.hdface import HDFacePipeline
from repro.profiling import Profiler
from repro.reliability.faults import DetectionFaultInjector

DIM = 1024
WINDOW = 24


@pytest.fixture(scope="module")
def face_pipe(face_data):
    xtr, ytr, _, _ = face_data
    return HDFacePipeline(2, dim=DIM, cell_size=8, magnitude="l1",
                          epochs=10, seed_or_rng=0).fit(xtr, ytr)


@pytest.fixture(scope="module")
def scenes():
    out = []
    for seed, size, faces in ((3, 64, [(6, 6)]), (4, 72, [(0, 0), (40, 30)]),
                              (5, 56, [(20, 12)])):
        scene, _ = make_scene(size, faces, window=WINDOW, seed_or_rng=seed)
        out.append(scene)
    return out


def shared_detector(pipe, **kw):
    return SlidingWindowDetector(pipe, window=WINDOW, stride=8,
                                 backend="packed", **kw)


def assert_maps_equal(got, want):
    assert got.stride == want.stride and got.window == want.window
    np.testing.assert_array_equal(got.scores, want.scores)
    np.testing.assert_array_equal(got.detections, want.detections)


class TestValidation:
    def test_empty_batch(self, face_pipe):
        assert shared_detector(face_pipe).scan_many([]) == []


class TestFlatPath:
    def test_batched_matches_solo_per_scene(self, face_pipe, scenes):
        det = shared_detector(face_pipe)
        maps = det.scan_many([ScanRequest(s) for s in scenes])
        for got, scene in zip(maps, scenes):
            assert_maps_equal(got, det.scan(scene))

    def test_stride_override_per_request(self, face_pipe, scenes):
        det = shared_detector(face_pipe)
        strides = [6, 8, 12]
        maps = det.scan_many([ScanRequest(s, stride=st)
                              for s, st in zip(scenes, strides)])
        for got, scene, st in zip(maps, scenes, strides):
            assert_maps_equal(got, det.scan(scene, stride=st))

    def test_max_words_groups_and_matches(self, face_pipe, scenes):
        det = shared_detector(face_pipe)
        requests = [ScanRequest(scenes[0], max_words=4),
                    ScanRequest(scenes[1], max_words=4),
                    ScanRequest(scenes[2])]
        maps = det.scan_many(requests)
        assert_maps_equal(maps[0], det.scan(scenes[0], max_words=4))
        assert_maps_equal(maps[1], det.scan(scenes[1], max_words=4))
        assert_maps_equal(maps[2], det.scan(scenes[2]))

    def test_model_override_matches_solo(self, face_pipe, scenes):
        det = shared_detector(face_pipe)
        override = det.packed_model().corrupted(0.02, seed_or_rng=11)
        maps = det.scan_many(
            [ScanRequest(s, model=override) for s in scenes[:2]])
        for got, scene in zip(maps, scenes[:2]):
            assert_maps_equal(got, det.scan(scene, model=override))

    def test_mixed_models_keep_request_order(self, face_pipe, scenes):
        det = shared_detector(face_pipe)
        override = det.packed_model().corrupted(0.05, seed_or_rng=2)
        requests = [ScanRequest(scenes[0]),
                    ScanRequest(scenes[1], model=override),
                    ScanRequest(scenes[2])]
        maps = det.scan_many(requests)
        assert_maps_equal(maps[0], det.scan(scenes[0]))
        assert_maps_equal(maps[1], det.scan(scenes[1], model=override))
        assert_maps_equal(maps[2], det.scan(scenes[2]))


class TestSoloFallbacks:
    def test_dense_backend_scans_solo(self, face_pipe, scenes):
        det = SlidingWindowDetector(face_pipe, window=WINDOW, stride=8,
                                    backend="dense")
        maps = det.scan_many([ScanRequest(s) for s in scenes])
        for got, scene in zip(maps, scenes):
            assert_maps_equal(got, det.scan(scene))

    def test_legacy_engine_scans_solo(self, face_pipe, scenes):
        det = SlidingWindowDetector(face_pipe, window=WINDOW, stride=8,
                                    engine="legacy")
        maps = det.scan_many([ScanRequest(s) for s in scenes[:2]])
        for got, scene in zip(maps, scenes[:2]):
            # the legacy codec draws fresh noise per call: shapes only
            want = det.scan(scene)
            assert got.scores.shape == want.scores.shape
            assert got.stride == want.stride

    def test_injector_request_scans_solo(self, face_pipe, scenes):
        det = shared_detector(face_pipe)
        injector = DetectionFaultInjector(0.01, DIM, seed_or_rng=5)
        maps = det.scan_many([ScanRequest(scenes[0]),
                              ScanRequest(scenes[1], injector=injector)])
        assert_maps_equal(maps[0], det.scan(scenes[0]))
        # fault injection is stochastic, so only the shape is checked
        want = det.scan(scenes[1])
        assert maps[1].scores.shape == want.scores.shape


class TestCascadePath:
    def test_batched_cascade_matches_solo(self, face_pipe, scenes):
        det = shared_detector(face_pipe, cascade=True)
        maps = det.scan_many([ScanRequest(s) for s in scenes])
        for got, scene in zip(maps, scenes):
            assert_maps_equal(got, det.scan(scene))

    def test_batched_cascade_with_max_words(self, face_pipe, scenes):
        det = shared_detector(face_pipe, cascade=True)
        maps = det.scan_many([ScanRequest(s, max_words=4) for s in scenes])
        for got, scene in zip(maps, scenes):
            assert_maps_equal(got, det.scan(scene, max_words=4))

    def test_explicit_stages_exercise_rejection(self, face_pipe, scenes):
        # an aggressive stage-0 threshold makes the prefix cascade
        # actually reject windows, so survivor bookkeeping is exercised
        stages = [CascadeStage(2, -0.1), CascadeStage(DIM // 64, 0.0)]
        det = shared_detector(face_pipe, cascade={"stages": stages})
        maps = det.scan_many([ScanRequest(s) for s in scenes])
        rejected = det.cascade_scanner().last_stats["stages"][0]["rejected"]
        assert rejected > 0
        for got, scene in zip(maps, scenes):
            assert_maps_equal(got, det.scan(scene))

    def test_cascade_and_flat_mix(self, face_pipe, scenes):
        det = shared_detector(face_pipe, cascade=True)
        override = det.packed_model()  # a cascade detector: cascade route
        maps = det.scan_many([ScanRequest(scenes[0]),
                              ScanRequest(scenes[1], model=override)])
        assert_maps_equal(maps[0], det.scan(scenes[0]))
        assert_maps_equal(maps[1], det.scan(scenes[1], model=override))


class TestGuardedModels:
    """Guarded / adaptive models ride the pooled paths like any model."""

    def test_guarded_model_groups_and_matches_flat(self, face_pipe, scenes):
        from repro.reliability import GuardedClassModel
        det = shared_detector(face_pipe)
        guarded = GuardedClassModel(det.packed_model(), seed_or_rng=0)
        maps = det.scan_many([ScanRequest(s, model=guarded) for s in scenes])
        # one shared guarded model -> one pool, one scrubbing call
        assert guarded.stats()["scrubs"] == 1
        for got, scene in zip(maps, scenes):
            assert_maps_equal(got, det.scan(scene, model=guarded))
            assert_maps_equal(got, det.scan(scene))  # replica 0 == base

    def test_adaptive_model_takes_cascade_route(self, face_pipe, scenes):
        from repro.reliability import AdaptiveGuardedModel
        det = shared_detector(face_pipe, cascade=True)
        model = AdaptiveGuardedModel(det.packed_model(), seed_or_rng=0)
        maps = det.scan_many([ScanRequest(s, model=model) for s in scenes])
        # every class model scores through the cascade's block protocol
        for got, scene in zip(maps, scenes):
            assert_maps_equal(got, det.scan(scene, model=model))


class TestStats:
    def test_window_count_totals(self, face_pipe, scenes):
        prof = Profiler()
        det = shared_detector(face_pipe, profiler=prof)
        maps = det.scan_many([ScanRequest(s) for s in scenes])
        total = sum(m.scores.size for m in maps)
        # pooled work is recorded under the solo stage names: one classify
        # call over every window, one assembly per scene
        assert prof.stats["classify"].calls == 1
        assert prof.stats["classify"].items == total
        assert prof.stats["assemble"].calls == len(scenes)
        assert prof.stats["assemble"].items == total
